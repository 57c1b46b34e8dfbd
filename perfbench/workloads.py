"""The benchmark's workloads: set-up, one unit of work, and its checks.

Every workload is a closed loop with one client: the next task starts only
when the previous ``run_task`` (or ``run_bench``) call has returned. A unit
is the smallest block of work whose counts are fixed (a suite pass, a round
of test tasks, a training epoch); a timed phase runs whole units, so every
exact metric reads the same on every run.

Each timed call records its wall time and the CPU time of the process. The
end-to-end metrics use the CPU time: the calls are single-threaded and never
wait on anything but the file system, so on a quiet machine the two agree,
and on a shared one CPU time leaves out the time the process was not running.

Nothing here imports ``ice`` at module level: set-up starts with
``import ice`` so that its cost is part of the set-up time.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import topics as tp

#: The README call table: calls, tool calls, completion %, rectifications,
#: re-utilization % per arm.
SUITE_TABLE = {
    "standard": (110, 100, 75.0, 5, None),
    "planning_ice": (83, 78, 100.0, 0, None),
    "execution_ice": (65, 55, 75.0, 5, 75.0),
    "planning_execution": (38, 33, 100.0, 0, 93.75),
    "ablation_none": (110, 100, 75.0, 5, 0.0),
    "ablation_small": (80, 72, 100.0 * 15 / 18, 3, 100.0 * 6 / 18),
}
SUITE_TASKS_PER_PASS = 47  # 17 train and 30 test task runs over the six arms

#: Closed-form backend calls per task run on the generated topics.
TRAIN_CALLS, HIT_CALLS, MISS_CALLS = 25, 7, 22
RECORDS_PER_TRAIN = 4  # one workflow and three pipelines


def clocks() -> tuple[float, float]:
    """Wall and process CPU time now, in seconds."""
    return perf_counter(), process_time()


def since(start: tuple[float, float]) -> tuple[float, float]:
    """Wall and CPU seconds since ``start`` (from ``clocks``)."""
    return perf_counter() - start[0], process_time() - start[1]


@dataclass
class Tally:
    """What one phase did, filled unit by unit."""

    task_ms: list[float] = field(default_factory=list)  # wall, per task run
    task_cpu_ms: list[float] = field(default_factory=list)  # CPU, per task run
    task_s: float = 0.0  # wall time inside run_task / run_bench calls
    task_cpu_s: float = 0.0  # CPU time inside them
    checkpoint_ms: list[float] = field(default_factory=list)  # wall, per round trip
    checkpoint_cpu_us: list[float] = field(default_factory=list)  # CPU per record
    tasks: int = 0
    failed: int = 0
    calls: int = 0
    leaves: int = 0
    completed: int = 0
    arms: int = 0
    snapshot_bytes: int = 0
    snapshot_records: int = 0
    units: int = 0

    @property
    def busy_s(self) -> float:
        return self.task_s + sum(self.checkpoint_ms) / 1e3

    def add_failure(self, what: str, exc: Exception | None = None, tasks: int = 1) -> None:
        """Count ``tasks`` attempted task runs (or checks) as failed."""
        self.tasks += tasks
        self.failed += tasks
        detail = f": {exc!r}" if exc is not None else ""
        print(f"perfbench: {what} failed{detail}", file=sys.stderr)

    def add_task_time(self, wall_s: float, cpu_s: float) -> None:
        self.task_ms.append(wall_s * 1e3)
        self.task_cpu_ms.append(cpu_s * 1e3)

    def add_checkpoint(self, wall_s: float, cpu_s: float, records: int, size: int) -> None:
        """One timed snapshot round trip of ``records`` records and ``size`` bytes."""
        self.checkpoint_ms.append(wall_s * 1e3)
        self.checkpoint_cpu_us.append(cpu_s * 1e6 / max(records, 1))
        self.snapshot_bytes += size
        self.snapshot_records += records

    def add_report(self, report, ok: bool) -> None:
        self.tasks += 1
        self.failed += not ok
        self.calls += report.counters["all"]
        self.leaves += len(report.outcomes)
        self.completed += sum(o.success for o in report.outcomes)


def _same_records(a, b) -> bool:
    ra, rb = a.records(), b.records()
    return len(ra) == len(rb) and all(
        (x.record_id, x.kind, x.key_text, x.payload) ==
        (y.record_id, y.kind, y.key_text, y.payload)
        and x.embedding.values.tolist() == y.embedding.values.tolist()
        for x, y in zip(ra, rb))


def _threshold(config) -> float:
    return min(config.pipeline_threshold, config.workflow_threshold)


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, work: Path) -> None:
        self.root, self.work = root, work
        self.rng = random.Random(seed)
        self.notes: dict[str, object] = {}

    def run_unit(self, tally: Tally) -> None:
        raise NotImplementedError

    def warm_up(self, tally: Tally) -> None:
        """Untimed work before the timed phase: one unit unless overridden."""
        self.run_unit(tally)

    def _round_trip(self, memory, tally: Tally):
        """Time one save-plus-load round trip; return the loaded memory."""
        from ice.memory import ExperienceMemory

        path = self.work / f"snapshot-{self.name}.json"
        start = clocks()
        memory.save(str(path))
        loaded = ExperienceMemory.load(str(path))
        tally.add_checkpoint(*since(start), len(loaded), path.stat().st_size)
        path.unlink()
        return loaded


class SuiteWorkload(Workload):
    """The checked-in ``suite/bench.json`` through ``run_bench``, pass after
    pass. The suite is fixed, so the seed changes nothing."""

    name = "suite"

    def __init__(self, root: Path, seed: int, work: Path) -> None:
        super().__init__(root, seed, work)
        import ice.bench

        self.spec = ice.bench.BenchSpec.from_file(root / "suite" / "bench.json")
        self.first_json: str | None = None

    def run_unit(self, tally: Tally) -> None:
        import ice.bench

        inner = ice.bench.run_task

        def timed_run_task(*args, **kwargs):
            start = clocks()
            try:
                return inner(*args, **kwargs)
            finally:
                tally.add_task_time(*since(start))

        ice.bench.run_task = timed_run_task
        start = clocks()
        try:
            result = ice.bench.run_bench(self.spec)
        except Exception as exc:
            tally.add_failure("run_bench", exc, SUITE_TASKS_PER_PASS)
            return
        finally:
            wall_s, cpu_s = since(start)
            tally.task_s += wall_s
            tally.task_cpu_s += cpu_s
            ice.bench.run_task = inner
        tally.units += 1
        tally.arms += len(result.arms)

        text = result.to_json()
        if self.first_json is None:
            self.first_json = text
        identical = text == self.first_json and not result.failures
        for arm in result.arms:
            m = arm.metrics
            row = (m.api_calls_all, m.api_calls_tools, m.completion_rate_pct,
                   m.rectification_times, m.reutilization_rate_pct)
            ok = identical and SUITE_TABLE.get(arm.arm.name) == row
            if not ok:
                print(f"perfbench: arm {arm.arm.name} gave {row}; the README table says "
                      f"{SUITE_TABLE.get(arm.arm.name)} (report identical: {identical})",
                      file=sys.stderr)
            for report in arm.train_reports:
                tally.add_report(report, ok and report.counters["all"] == TRAIN_CALLS)
            for report in arm.test_reports:
                tally.add_report(report, ok)
        missing = SUITE_TASKS_PER_PASS - sum(
            len(a.train_reports) + len(a.test_reports) for a in result.arms)
        if missing > 0:
            tally.add_failure(f"{missing} task runs of a suite pass", tasks=missing)

        self._suite_checkpoint(result, tally)

    def _suite_checkpoint(self, result, tally: Tally) -> None:
        """Load the largest arm memory and save it to a new file; the bytes
        must not change. (A new file: re-saving over the one just read would
        time the file system's flush of a truncated file.)"""
        from ice.memory import ExperienceMemory

        snapshot = max((a.memory_snapshot for a in result.arms),
                       key=lambda s: len(s.get("records", [])))
        source = self.work / "snapshot-suite.json"
        copy = self.work / "snapshot-suite-copy.json"
        text = json.dumps(snapshot, indent=2, ensure_ascii=False) + "\n"
        source.write_text(text, encoding="utf-8")
        start = clocks()
        loaded = ExperienceMemory.load(str(source))
        loaded.save(str(copy))
        tally.add_checkpoint(*since(start), len(loaded), len(text.encode("utf-8")))
        if copy.read_text(encoding="utf-8") != text:
            tally.add_failure("suite snapshot byte identity")
        source.unlink()
        copy.unlink()


class _TopicWorkload(Workload):
    """Shared plumbing for the generated-topic workloads."""

    def __init__(self, root: Path, seed: int, work: Path) -> None:
        super().__init__(root, seed, work)
        self.backends, self.train_tasks, self.test_tasks = {}, {}, {}

    def _prepare(self, topic_list) -> None:
        from ice.engine import TaskSpec
        from ice.llm import ScriptedBackend, ScriptedScenario

        for t in topic_list:
            # one backend per topic keeps the test double's rule scan at 36 rules
            self.backends[t] = ScriptedBackend(ScriptedScenario.from_list(tp.scenario_rules(t)))
            self.train_tasks[t] = TaskSpec(**tp.task_doc(t, "train"))
            self.test_tasks[t] = TaskSpec(**tp.task_doc(t, "test"))

    @staticmethod
    def _timed_run(task, memory, backend, config, tally: Tally):
        """``run_task`` with its wall time recorded; None (counted as a
        failed task) when it raised."""
        import ice.engine

        start = clocks()
        try:
            return ice.engine.run_task(task, memory, backend, config)
        except Exception as exc:
            tally.add_failure(f"task {task.task_id}", exc)
            return None
        finally:
            wall_s, cpu_s = since(start)
            tally.task_s += wall_s
            tally.task_cpu_s += cpu_s
            tally.add_task_time(wall_s, cpu_s)

    @staticmethod
    def _react_only(report) -> bool:
        """Plain plan, rectified: 4 leaves, 3 completed, none by pipeline."""
        return (len(report.outcomes) == 4
                and sum(o.success for o in report.outcomes) == 3
                and all(o.method.value == "react" for o in report.outcomes))


class RecallWorkload(_TopicWorkload):
    """Exploit-mode test tasks, both ICE flags on, against ~10^4 records.

    Set-up stores 2,470 pre-fill topics (4 records each, rewritten from one
    trained template topic) and trains 30 queried topics through
    ``run_task``, interleaved in seeded order: 10,000 records in all. A
    round runs the 30 trained topics (hits, 7 calls each) and 10 unknown
    topics (misses, 22 calls each) in a seeded order, then round-trips the
    next 1,000-record slice of the memory through a snapshot."""

    name = "recall-10k"
    STORED, HITS, MISSES = 2500, 30, 10
    SLICE = 1000

    def __init__(self, root: Path, seed: int, work: Path) -> None:
        super().__init__(root, seed, work)
        import ice.engine
        from ice.engine import RunConfig, RunMode, TaskSpec
        from ice.llm import ScriptedBackend, ScriptedScenario
        from ice.memory import ExperienceMemory, LocalDeterministicEmbedder, RecordKind

        embedder = LocalDeterministicEmbedder()
        drawer = tp.TopicDrawer(seed, embedder)
        stored = drawer.draw_many(self.STORED)
        self.hits = self.rng.sample(stored, self.HITS)
        self._prepare(self.hits)
        train = RunConfig(mode=RunMode.TRAIN)

        template_memory = ExperienceMemory()
        ice_run = ice.engine.run_task
        ice_run(TaskSpec(**tp.task_doc(tp.TEMPLATE, "train")), template_memory,
                ScriptedBackend(ScriptedScenario.from_list(tp.scenario_rules(tp.TEMPLATE))),
                train)
        template = tp.records_as_json(template_memory.records())

        self.memory = ExperienceMemory()
        hit_set = set(self.hits)
        for t in stored:
            expected = tp.substitute(template, tp.TEMPLATE, t)
            if t in hit_set:
                before = len(self.memory)
                ice_run(self.train_tasks[t], self.memory, self.backends[t], train)
                added = self.memory.records()[before:]
                if tp.records_as_json(added) != expected:
                    raise RuntimeError(f"training {tp.name(t)!r} stored unexpected records")
            else:
                for kind, key, payload in json.loads(expected):
                    self.memory.store(RecordKind(kind), key, payload)
        self.config = RunConfig(planning_ice=True, execution_ice=True, mode=RunMode.EXPLOIT)

        # misses: topics never stored, none of whose retrievals may clear the
        # threshold against a stored key
        keys = {kind.value: np.array([r.embedding.values for r in self.memory.records(kind)])
                for kind in RecordKind}
        embeddings = tp.TopicEmbeddings(embedder)
        self.misses, rejected = [], 0
        while len(self.misses) < self.MISSES:
            drawn = drawer.draw_many(self.MISSES - len(self.misses))
            bad = embeddings.false_hits(drawn, keys, None, _threshold(self.config))
            self.misses += [t for t in drawn if t not in bad]
            rejected += len(bad)
        self._prepare(self.misses)
        self.order = [(t, True) for t in self.hits] + [(t, False) for t in self.misses]
        self.slices = 0
        self.notes.update(topic_redraws=drawer.redraws, false_hit_redraws=rejected,
                          records=len(self.memory))

    def run_unit(self, tally: Tally) -> None:
        self.rng.shuffle(self.order)
        for t, hit in self.order:
            report = self._timed_run(self.test_tasks[t], self.memory, self.backends[t],
                                     self.config, tally)
            if report is None:
                continue
            if hit:
                ok = (report.counters["all"] == HIT_CALLS and len(report.outcomes) == 3
                      and all(o.success and o.method.value == "pipeline"
                              for o in report.outcomes))
            else:
                ok = report.counters["all"] == MISS_CALLS and self._react_only(report)
            tally.add_report(report, ok)
        self._slice_checkpoint(tally)
        tally.units += 1

    def _slice_checkpoint(self, tally: Tally) -> None:
        """Copy the next slice of the memory through ``store`` (untimed) and
        time its snapshot round trip. Slices of equal size spread over the
        run give ``checkpoint_cpu_us_per_record`` many comparable samples;
        one round trip of all 10,000 records would give one per run."""
        from ice.memory import ExperienceMemory

        records = self.memory.records()
        first = self.slices * self.SLICE % len(records)
        self.slices += 1
        part = ExperienceMemory()
        for r in records[first:first + self.SLICE]:
            part.store(r.kind, r.key_text, r.payload)
        if not _same_records(self._round_trip(part, tally), part):
            tally.add_failure(f"snapshot round trip of records {first + 1}-{first + len(part)}")


class LearnGrowWorkload(_TopicWorkload):
    """Train-mode stream, both ICE flags on, over fresh topics.

    An epoch starts from an empty memory and trains 500 topics in seeded
    order, so memory grows to 2,000 records; every 50 tasks the memory is
    saved, loaded back, and training continues on the loaded copy, the
    pattern of repeated ``ice train --memory`` runs. No topic's retrieval
    text reaches the threshold on another topic's keys, so every retrieval
    misses."""

    name = "learn-grow"
    TOPICS, CHECKPOINT_EVERY = 500, 50

    def __init__(self, root: Path, seed: int, work: Path) -> None:
        super().__init__(root, seed, work)
        from ice.engine import RunConfig, RunMode
        from ice.memory import LocalDeterministicEmbedder

        embedder = LocalDeterministicEmbedder()
        drawer = tp.TopicDrawer(seed, embedder)
        self.config = RunConfig(planning_ice=True, execution_ice=True, mode=RunMode.TRAIN)
        embeddings = tp.TopicEmbeddings(embedder)
        self.topics, rejected = drawer.draw_many(self.TOPICS), 0
        while True:  # no topic's retrievals may clear the threshold on another's keys
            keys, owners = embeddings.stored_keys(self.topics)
            bad = embeddings.false_hits(self.topics, keys, owners, _threshold(self.config))
            if not bad:
                break
            rejected += len(bad)
            self.topics = [t for t in self.topics if t not in bad]
            self.topics += drawer.draw_many(len(bad))
        self._prepare(self.topics)
        self.notes.update(topic_redraws=drawer.redraws, false_hit_redraws=rejected)

    def run_unit(self, tally: Tally) -> None:
        self._epoch(tally, len(self.topics))
        tally.units += 1

    def warm_up(self, tally: Tally) -> None:
        """The first stretch of an epoch, up to its first checkpoint."""
        self._epoch(tally, self.CHECKPOINT_EVERY)

    def _epoch(self, tally: Tally, tasks: int) -> None:
        from ice.memory import ExperienceMemory

        memory = ExperienceMemory()
        order = list(self.topics)
        self.rng.shuffle(order)
        for i, t in enumerate(order[:tasks], start=1):
            before = len(memory)
            report = self._timed_run(self.train_tasks[t], memory, self.backends[t],
                                     self.config, tally)
            if report is not None:
                tally.add_report(report, report.counters["all"] == TRAIN_CALLS
                                 and self._react_only(report)
                                 and len(memory) == before + RECORDS_PER_TRAIN)
            if i % self.CHECKPOINT_EVERY == 0:
                size = len(memory)
                memory = self._round_trip(memory, tally)
                if len(memory) != size:
                    tally.add_failure(f"reload of a {size}-record snapshot")


WORKLOADS = {w.name: w for w in (SuiteWorkload, RecallWorkload, LearnGrowWorkload)}

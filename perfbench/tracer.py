"""Outside-in tracer: spans around the public functions of each ``ice`` layer.

The program carries no timing code, so the tracer replaces, for the length of
a traced phase, the attribute each caller actually looks up: a module-level
name in the importing module (``ice.engine.validate_pipeline``, not
``ice.pipeline.validate_pipeline``) or a method on its class. Every span
records its name, start, end and parent; spans are kept in memory and
written out when the benchmark ends. A layer is the part of a span name
before the first dot, and a span's self time is its duration minus the
durations of its direct children.

``ScriptedRule.matches`` runs about 79k times per suite pass, so it and
``Trajectory.record_step`` are only counted, never timed.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

#: Spans the benchmark opens itself by calling into the program; only spans
#: under these count, so the harness's own checks stay out of the figures.
CHECKPOINT_ROOTS = ("memory.save", "memory.load")
ROOTS = ("bench.run_bench", "engine.run_task") + CHECKPOINT_ROOTS

LAYERS = ("bench", "engine", "memory", "consolidate", "pipeline", "llm", "env",
          "plan", "trajectory")


def _targets() -> list[tuple[Any, str, str | None]]:
    """(owner, attribute, span name); a span name of None means count only."""
    import ice.bench
    import ice.consolidate
    import ice.engine
    from ice.engine import TaskRunner
    from ice.env import SimulatedEnvironment
    from ice.llm import LlmBackend, ScriptedBackend, ScriptedRule
    from ice.memory import ExperienceMemory
    from ice.plan import PlanTree
    from ice.trajectory import Trajectory

    targets: list[tuple[Any, str, str | None]] = [
        (ice.bench, "run_bench", "bench.run_bench"),
        (ice.bench, "run_arm", "bench.run_arm"),
        (ice.bench, "run_task", "engine.run_task"),
        (ice.engine, "run_task", "engine.run_task"),
        (ice.engine, "build_environment", "env.build"),
        (ice.engine, "evaluate_milestones", "env.milestones"),
        (ice.engine, "new_plan", "plan.new"),
        (ice.engine, "consolidate_pipeline", "consolidate.pipeline"),
        (ice.engine, "consolidate_workflows", "consolidate.workflows"),
        (ice.engine, "investigate_trajectories", "trajectory.investigate"),
        (ice.engine, "validate_pipeline", "pipeline.validate"),
        (ice.engine, "pipeline_from_dict", "pipeline.from_dict"),
        (ice.engine, "pipeline_to_dict", "pipeline.to_dict"),
        (ice.consolidate, "consolidation_system_prompt", "consolidate.prompt"),
        (ice.consolidate, "validate_document", "pipeline.validate"),
        (ice.consolidate, "pipeline_from_dict", "pipeline.from_dict"),
        (LlmBackend, "complete", "llm.complete"),
        (ScriptedBackend, "_complete", "llm.scripted"),
        (ScriptedRule, "matches", None),
        (SimulatedEnvironment, "invoke", "env.invoke"),
        (Trajectory, "record_step", None),
    ]
    for method in ("run", "generate_initial_plan", "rectify_plan", "handle_subgoal",
                   "react_loop", "run_pipeline"):
        targets.append((TaskRunner, method, f"engine.{method}"))
    for method in ("store", "retrieve", "embed", "to_dict", "save", "load"):
        targets.append((ExperienceMemory, method, f"memory.{method}"))
    for method in ("find", "parent_of", "leaves", "split_goal", "add_goal",
                   "set_status", "is_finalized", "to_dict", "to_json"):
        targets.append((PlanTree, method, f"plan.{method}"))
    return targets


class Tracer:
    """Installs wrappers on enter, restores every original on exit."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self.retrieve_us: list[float] = []
        self.max_records = 0
        self._stack: list[int] = []
        self._targets = _targets()
        self._originals = [owner.__dict__[attr] for owner, attr, _ in self._targets]

    # -- installing ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for (owner, attr, span), original in zip(self._targets, self._originals):
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(span, original.__func__))
            elif span is None:
                wrapped = self._counter(attr, original)
            else:
                wrapped = self._wrap(span, original)
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def restore(self) -> None:
        for (owner, attr, _), original in zip(self._targets, self._originals):
            setattr(owner, attr, original)

    def assert_restored(self) -> None:
        """Raise unless every wrapped attribute holds its original again."""
        for (owner, attr, _), original in zip(self._targets, self._originals):
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is still wrapped")

    def _counter(self, attr: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[attr] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, observe = self.spans, self._stack, self._observe

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)  # type: ignore[arg-type]
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
                observe(name, args, result, error, end - start)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- counts at the boundaries ------------------------------------------------

    def _observe(self, name: str, args: tuple, result: Any, error: Any,
                 seconds: float) -> None:
        c = self.counts
        if name == "memory.retrieve":
            self.retrieve_us.append(seconds * 1e6)
            c["memory.hits"] += result is not None
            self.max_records = max(self.max_records, len(args[0]))
        elif name == "memory.store":
            self.max_records = max(self.max_records, len(args[0]))
        elif name == "engine.handle_subgoal" and result is not None:
            c["engine.leaves"] += 1
            c["engine.pipeline_leaves"] += result.method.value == "pipeline"
        elif name == "engine.run_pipeline" and error is not None:
            c["engine.fallbacks"] += 1
        elif name == "llm.scripted":
            request = args[1]
            c[f"llm.calls.{request.tag.value}"] += 1
            c["llm.prompt_chars"] += len(request.system) + sum(
                len(m.content) for m in request.messages)
            if len(request.messages) > 1:
                repair = ("consolidate.repairs" if request.tag.value == "consolidation"
                          else "engine.repairs")
                c[repair] += 1
        elif name == "env.invoke" and result is not None:
            c["env.tool_errors"] += result[1].value == "tool_error"

    # -- reading the spans ---------------------------------------------------------

    def summarize(self, tasks: int, arms: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything traced so far.

        ``tasks`` task runs (and ``arms`` bench arms) happened inside the
        traced wall time ``wall_s``. Times are self times in ms per task run
        unless the name says otherwise; snapshot save and load are reported
        per call and stay out of the per-task layer times."""
        calls: Counter[str] = Counter()
        self_ms: defaultdict[str, float] = defaultdict(float)
        checkpoint_ms: defaultdict[str, list[float]] = defaultdict(list)
        child_total = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        run_task_in_arm = arm_ms = covered_s = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:  # parents precede their children
                root[i] = root[parent]
                child_total[parent] += end - start
                if name == "engine.run_task" and self.spans[parent][0] == "bench.run_arm":
                    run_task_in_arm += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            root_name = self.spans[root[i]][0]
            if root_name not in ROOTS:
                continue  # the benchmark's own checks, outside the timed calls
            covered_s += end - start - child_total[i]
            if root_name in CHECKPOINT_ROOTS:  # reported per call, not per task
                if parent < 0:
                    checkpoint_ms[name].append((end - start) * 1e3)
                continue
            calls[name] += 1
            self_ms[name] += (end - start - child_total[i]) * 1e3
            if name == "bench.run_arm":
                arm_ms += (end - start) * 1e3
        n = max(tasks, 1)

        def mean(values: list[float]) -> float:
            return statistics.fmean(values) if values else 0.0

        def per_task(*names: str) -> float:
            return sum(self_ms[x] for x in names) / n

        def count(*names: str) -> float:
            return sum(calls[x] + self.counts[x] for x in names) / n

        plan_ops = [x for x in calls if x.startswith("plan.")
                    and x not in ("plan.to_dict", "plan.to_json")]
        layer_ms = {layer: 0.0 for layer in LAYERS}
        for name, ms in self_ms.items():
            layer_ms[name.split(".", 1)[0]] += ms
        completions = sum(self.counts[f"llm.calls.{t}"] for t in
                          ("planning", "tool_handling", "consolidation", "other"))
        leaves = self.counts["engine.leaves"]
        metrics = {
            "memory.retrieve_calls": count("memory.retrieve"),
            "memory.retrieve_ms": per_task("memory.retrieve"),
            "memory.retrieve_us_p50": (statistics.median(self.retrieve_us)
                                       if self.retrieve_us else 0.0),
            "memory.embed_calls": count("memory.embed"),
            "memory.embed_ms": per_task("memory.embed"),
            "memory.hit_ratio": (self.counts["memory.hits"] / calls["memory.retrieve"]
                                 if calls["memory.retrieve"] else 0.0),
            "memory.records": float(self.max_records),
            "memory.store_ms": per_task("memory.store"),
            "memory.save_ms": mean(checkpoint_ms["memory.save"]),
            "memory.load_ms": mean(checkpoint_ms["memory.load"]),
            "consolidate.pipeline_calls": count("consolidate.pipeline"),
            "consolidate.pipeline_ms": per_task("consolidate.pipeline"),
            "consolidate.prompt_ms": per_task("consolidate.prompt"),
            "consolidate.repairs": count("consolidate.repairs"),
            "consolidate.workflows_ms": per_task("consolidate.workflows"),
            "pipeline.validate_calls": count("pipeline.validate"),
            "pipeline.validate_ms": per_task("pipeline.validate"),
            "pipeline.from_dict_ms": per_task("pipeline.from_dict"),
            "engine.plan_ms": per_task("engine.generate_initial_plan"),
            "engine.rectify_ms": per_task("engine.rectify_plan"),
            "engine.react_ms": per_task("engine.react_loop"),
            "engine.walk_ms": per_task("engine.run_pipeline"),
            "engine.leaves": count("engine.leaves"),
            "engine.pipeline_leaves": count("engine.pipeline_leaves"),
            "engine.reutilization_pct": (100.0 * self.counts["engine.pipeline_leaves"]
                                         / leaves if leaves else 0.0),
            "engine.fallbacks": count("engine.fallbacks"),
            "engine.repairs": count("engine.repairs"),
            "llm.calls.planning": count("llm.calls.planning"),
            "llm.calls.tool_handling": count("llm.calls.tool_handling"),
            "llm.calls.consolidation": count("llm.calls.consolidation"),
            "llm.calls.other": count("llm.calls.other"),
            "llm.scripted_ms": per_task("llm.scripted"),
            "llm.rule_checks_per_call": (self.counts["matches"] / completions
                                         if completions else 0.0),
            "llm.prompt_kchars": (self.counts["llm.prompt_chars"] / 1e3 / completions
                                  if completions else 0.0),
            "env.build_ms": per_task("env.build"),
            "env.invoke_calls": count("env.invoke"),
            "env.invoke_ms": per_task("env.invoke"),
            "env.tool_errors": count("env.tool_errors"),
            "env.milestone_ms": per_task("env.milestones"),
            "plan.ops": sum(calls[x] for x in plan_ops) / n,
            "plan.ms": per_task(*plan_ops),
            "plan.serialize_ms": per_task("plan.to_dict", "plan.to_json"),
            "trajectory.steps": count("record_step"),
            "trajectory.investigate_ms": per_task("trajectory.investigate"),
            "bench.arm_overhead_ms": (arm_ms - run_task_in_arm * 1e3) / max(arms, 1),
            "trace.coverage_pct": 100.0 * covered_s / wall_s if wall_s else 0.0,
        }
        for layer, ms in layer_ms.items():
            metrics[f"{layer}.self_ms"] = ms / n
        return metrics

    def write(self, path: str) -> None:
        """One line per span: index, parent, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")

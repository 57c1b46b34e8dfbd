"""Benchmark harness: training runs, measured arms, and metric reports.

An arm is one configuration (planning exploitation on/off, execution
exploitation on/off). Arms that exploit experience first run the training
tasks in train mode against a fresh memory; only the test phase is measured,
from the calls each test task's report counts, so the reported call counts
describe how the arm performs once its memory is populated.

Metrics follow the same definitions everywhere:

* api_calls_all      - every backend completion during the test phase
* api_calls_tools    - the tool-handling share of those calls
* completion_rate    - percent of executed leaf subgoals that ended
                       explicitly with success and passed their milestones
* rectification_times- total logged plan edits
* re-utilization     - percent of executed leaves served by a pipeline
                       (reported only for arms with execution exploitation)
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any

from .engine import (
    ExecutionMethod,
    RunConfig,
    RunMode,
    TaskRunReport,
    TaskSpec,
    run_task,
)
from .env import with_fixture_records
from .errors import IceError, read_json
from .llm import (
    CallTag,
    HttpChatBackend,
    LlmBackend,
    ScriptedBackend,
    ScriptedScenario,
)
from .memory import ExperienceMemory

__all__ = [
    "MetricsReport",
    "ArmSpec",
    "BenchSpec",
    "ArmResult",
    "BenchResult",
    "compute_metrics",
    "run_arm",
    "run_bench",
    "build_backend",
    "format_table",
]


@dataclass
class MetricsReport:
    api_calls_all: int
    api_calls_tools: int
    completion_rate_pct: float
    rectification_times: int
    reutilization_rate_pct: float | None

    def __post_init__(self) -> None:
        if self.api_calls_tools > self.api_calls_all:
            raise ValueError("tool calls cannot exceed total calls")
        rates = [self.completion_rate_pct]
        if self.reutilization_rate_pct is not None:
            rates.append(self.reutilization_rate_pct)
        if any(not 0.0 <= r <= 100.0 for r in rates):
            raise ValueError("rates are percentages in [0, 100]")


@dataclass(frozen=True)
class ArmSpec:
    name: str
    planning_ice: bool = False
    execution_ice: bool = False
    train_limit: int | None = None  # cap on training tasks; None means all
    backend: str | None = None  # per-arm override of the bench backend

    @property
    def uses_ice(self) -> bool:
        return self.planning_ice or self.execution_ice


@dataclass
class BenchSpec:
    train_tasks: list[Path]
    test_tasks: list[Path]
    arms: list[ArmSpec]
    backend: str
    config: RunConfig = field(default_factory=RunConfig)  # shared by every arm
    base_dir: Path | None = None  # scripted scenario paths resolve against this

    def __post_init__(self) -> None:
        if not self.arms:
            raise ValueError("a bench spec needs at least one arm")
        # each arm's snapshot is written to memory_<name>.json
        names = [arm.name for arm in self.arms]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"two arms are named {name!r}")
            if any(c in name for c in ("\0", os.sep, os.altsep) if c):
                raise ValueError(f"arm name {name!r} holds a path separator or NUL")

    @classmethod
    def from_file(cls, path: str | Path) -> "BenchSpec":
        path = Path(path)
        doc = read_json(path)
        if not (isinstance(doc, dict)
                and isinstance(doc.get("backend"), str)
                and all(_is_str_list(doc.get(key, [])) for key in ("train_tasks", "test_tasks"))
                and isinstance(doc.get("arms"), list) and doc["arms"]
                and all(map(_is_arm, doc["arms"]))):
            raise ValueError(
                f"{path}: a bench spec is an object with a string backend, lists of task "
                "paths and a non-empty list of arms, each an object with a string name")
        base = path.parent
        try:
            return cls(
                train_tasks=[base / p for p in doc.get("train_tasks", [])],
                test_tasks=[base / p for p in doc.get("test_tasks", [])],
                arms=[
                    ArmSpec(
                        name=a["name"],
                        planning_ice=a.get("planning_ice", False),
                        execution_ice=a.get("execution_ice", False),
                        train_limit=a.get("train_limit"),
                        backend=a.get("backend"),
                    )
                    for a in doc["arms"]
                ],
                backend=doc["backend"],
                config=RunConfig(**{key: doc[key] for key in (
                    "pipeline_threshold", "workflow_threshold", "max_react_steps")
                    if key in doc}),
                base_dir=base,
            )
        except ValueError as exc:
            exc.args = (f"{path}: {exc}",)
            raise


def _is_str_list(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_arm(raw: Any) -> bool:
    """An arm object: a string name, and optional flags, training cap and
    backend of the types ``ArmSpec`` holds (a bool is no training cap)."""
    return (isinstance(raw, dict)
            and isinstance(raw.get("name"), str)
            and isinstance(raw.get("planning_ice", False), bool)
            and isinstance(raw.get("execution_ice", False), bool)
            and type(raw.get("train_limit", 0)) in (int, type(None))
            and isinstance(raw.get("backend", ""), (str, type(None))))


@dataclass
class ArmResult:
    arm: ArmSpec
    metrics: MetricsReport
    # the arm's store after its test tasks; not in reports
    memory: ExperienceMemory = field(repr=False, compare=False)
    train_reports: list[TaskRunReport] = field(default_factory=list)
    test_reports: list[TaskRunReport] = field(default_factory=list)
    memory_reads: int = 0
    memory_writes: int = 0

    @property
    def memory_snapshot(self) -> dict[str, Any]:
        return self.memory.to_dict()

    def to_dict(self) -> dict[str, Any]:
        return {
            "arm": {
                "name": self.arm.name,
                "planning_ice": self.arm.planning_ice,
                "execution_ice": self.arm.execution_ice,
                "train_limit": self.arm.train_limit,
            },
            "metrics": asdict(self.metrics),
            "memory_reads": self.memory_reads,
            "memory_writes": self.memory_writes,
            "train_reports": [r.to_dict() for r in self.train_reports],
            "test_reports": [r.to_dict() for r in self.test_reports],
        }


@dataclass
class BenchResult:
    arms: list[ArmResult]
    failures: list[dict[str, str]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "arms": [a.to_dict() for a in self.arms],
            "failures": self.failures,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n"


def compute_metrics(
    reports: list[TaskRunReport], include_reutilization: bool
) -> MetricsReport:
    """Recompute every metric from raw task reports alone."""
    api_all = sum(r.counters["all"] for r in reports)
    api_tools = sum(r.counters["by_tag"][CallTag.TOOL_HANDLING.value] for r in reports)
    outcomes = [o for r in reports for o in r.outcomes]
    completed = sum(1 for o in outcomes if o.success)
    completion = 100.0 * completed / len(outcomes) if outcomes else 0.0
    rectifications = sum(r.rectifications for r in reports)
    reutilization = None
    if include_reutilization:
        piped = sum(1 for o in outcomes if o.method is ExecutionMethod.PIPELINE)
        reutilization = 100.0 * piped / len(outcomes) if outcomes else 0.0
    return MetricsReport(
        api_calls_all=api_all,
        api_calls_tools=api_tools,
        completion_rate_pct=completion,
        rectification_times=rectifications,
        reutilization_rate_pct=reutilization,
    )


def build_backend(spec: str, base_dir: Path | None = None,
                  scenarios: dict[Path, ScriptedScenario] | None = None) -> LlmBackend:
    """Backend selector for CLI strings: ``scripted:<file>`` or ``http``.

    A scenario file already parsed into ``scenarios`` is not read again, and
    one read here is added to it, so backends built through one dict share
    their rules (and the rules' index); each keeps its own use counts."""
    if spec.startswith("scripted:"):
        path = Path(spec.split(":", 1)[1])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        scenarios = {} if scenarios is None else scenarios
        if path not in scenarios:
            scenarios[path] = ScriptedScenario.from_file(str(path))
        return ScriptedBackend(scenarios[path])
    if spec == "http":
        return HttpChatBackend()
    raise ValueError(f"unknown backend spec {spec!r}; use scripted:<file> or http")


def run_arm(spec: BenchSpec, arm: ArmSpec, backend: LlmBackend,
            train_tasks: list[TaskSpec], test_tasks: list[TaskSpec]) -> ArmResult:
    """Train a fresh memory, then measure the test tasks from their reports
    alone; an error in any task ends the arm."""
    memory = ExperienceMemory()
    train_config = replace(spec.config, mode=RunMode.TRAIN)
    test_config = replace(spec.config, planning_ice=arm.planning_ice,
                          execution_ice=arm.execution_ice, mode=RunMode.EXPLOIT)

    train_tasks = train_tasks[:arm.train_limit] if arm.uses_ice else []
    train_reports = [run_task(task, memory, backend, train_config) for task in train_tasks]

    test_reports = [run_task(task, memory, backend, test_config) for task in test_tasks]

    return ArmResult(
        arm=arm,
        metrics=compute_metrics(test_reports, include_reutilization=arm.execution_ice),
        train_reports=train_reports,
        test_reports=test_reports,
        memory=memory,
        memory_reads=memory.stats.reads,
        memory_writes=memory.stats.writes,
    )


#: What ends one arm and not the bench.
_ARM_ERRORS = (IceError, OSError, ValueError)


def run_bench(spec: BenchSpec) -> BenchResult:
    """Run every arm; a failing arm is recorded and the rest still run.

    Every task file and dataset fixture is read once first, and a bad one raises.
    Then every arm's backend is built, each scenario file read once, so an arm
    whose backend cannot be built is known to have failed before any arm spends a call."""
    train_tasks = [TaskSpec.from_file(path) for path in spec.train_tasks]
    test_tasks = [TaskSpec.from_file(path) for path in spec.test_tasks]
    fixtures: dict[Path, Any] = {}
    for task in train_tasks + test_tasks:
        task.env_setup = [with_fixture_records(entry, task.base_dir, fixtures)
                          for entry in task.env_setup]
    scenarios: dict[Path, ScriptedScenario] = {}
    backends: list[LlmBackend | Exception] = []
    for arm in spec.arms:
        try:
            backends.append(build_backend(arm.backend or spec.backend, spec.base_dir, scenarios))
        except _ARM_ERRORS as exc:
            backends.append(exc)
    result = BenchResult(arms=[])
    for arm, backend in zip(spec.arms, backends):
        try:
            if isinstance(backend, Exception):
                raise backend
            result.arms.append(run_arm(spec, arm, backend, train_tasks, test_tasks))
        except _ARM_ERRORS as exc:
            result.failures.append({"arm": arm.name, "error": str(exc)})
    return result


_COLUMNS = [
    ("Arm", lambda r: r.arm.name),
    ("API Calls (All)", lambda r: str(r.metrics.api_calls_all)),
    ("API Calls (Tools)", lambda r: str(r.metrics.api_calls_tools)),
    ("Completion Rate (%)", lambda r: f"{r.metrics.completion_rate_pct:.2f}"),
    ("Rectification Times", lambda r: str(r.metrics.rectification_times)),
    (
        "Re-utilization Rate (%)",
        lambda r: "-"
        if r.metrics.reutilization_rate_pct is None
        else f"{r.metrics.reutilization_rate_pct:.2f}",
    ),
]


def format_table(result: BenchResult) -> str:
    rows = [[header for header, _ in _COLUMNS]]
    rows.extend([render(arm) for _, render in _COLUMNS] for arm in result.arms)
    widths = [max(len(row[i]) for row in rows) for i in range(len(_COLUMNS))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells.extend(cell.rjust(widths[i]) for i, cell in enumerate(row) if i > 0)
        lines.append("  ".join(cells).rstrip())
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"

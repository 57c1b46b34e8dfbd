"""Command-line entry point.

Subcommands: train, run, bench, consolidate, memory. Exit codes: 0 success,
1 usage or input error, 2 task failure, 3 backend failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .bench import (
    BenchSpec,
    build_backend,
    compute_metrics,
    format_table,
    run_bench,
)
from .consolidate import consolidate_pipeline
from .engine import RunConfig, RunMode, TaskSpec, run_task
from .errors import (
    BackendError,
    ConsolidationFailed,
    IceError,
    PipelineSchemaError,
    TaskAborted,
    UnknownRecord,
)
from .env import build_environment
from .memory import ExperienceMemory, RecordKind
from .pipeline import dumps_pipeline, pipeline_from_dict
from .plan import Goal
from .trajectory import read_trajectory_log

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TASK = 2
EXIT_BACKEND = 3


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default="http",
                        help="scripted:<scenario.json> or http")
    parser.add_argument("--memory", help="memory snapshot file to load and/or save")
    # a run setting that is not given is left out, so RunConfig supplies its default
    parser.add_argument("--planning-ice", action=argparse.BooleanOptionalAction,
                        default=argparse.SUPPRESS)
    parser.add_argument("--execution-ice", action=argparse.BooleanOptionalAction,
                        default=argparse.SUPPRESS)
    parser.add_argument("--threshold-pipeline", dest="pipeline_threshold", type=float,
                        default=argparse.SUPPRESS)
    parser.add_argument("--threshold-workflow", dest="workflow_threshold", type=float,
                        default=argparse.SUPPRESS)
    parser.add_argument("--max-react-steps", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--out", help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ice",
        description="Experience-consolidating agent runtime and benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run tasks in train mode and persist memory")
    p_train.add_argument("tasks", nargs="*", help="task JSON files")
    _add_run_flags(p_train)

    p_run = sub.add_parser("run", help="run one task in exploit mode")
    p_run.add_argument("task", help="task JSON file")
    _add_run_flags(p_run)

    p_bench = sub.add_parser("bench", help="run a benchmark spec over its arms")
    p_bench.add_argument("--config", required=True, help="bench spec JSON file")
    p_bench.add_argument("--out", help="output directory for reports and snapshots")

    p_cons = sub.add_parser("consolidate",
                            help="turn a trajectory log into a pipeline JSON file")
    p_cons.add_argument("log", help="trajectory log JSON file")
    p_cons.add_argument("--backend", default="http")
    p_cons.add_argument("--out", help="pipeline JSON output path")

    p_mem = sub.add_parser("memory", help="inspect a memory snapshot")
    p_mem.add_argument("subcommand", choices=["list", "show", "export"])
    p_mem.add_argument("record_id", nargs="?", type=int,
                       help="record id (for show)")
    p_mem.add_argument("--memory", required=True, help="memory snapshot file")
    p_mem.add_argument("--query", help="similarity query for list")
    p_mem.add_argument("--out", help="output directory for export")

    return parser


def _run_config(args: argparse.Namespace, mode: RunMode) -> RunConfig:
    given = vars(args)
    return RunConfig(mode=mode, **{f.name: given[f.name] for f in fields(RunConfig)
                                   if f.name in given})


def _load_memory(path: str | None) -> ExperienceMemory:
    if path and Path(path).exists():
        return ExperienceMemory.load(path)
    return ExperienceMemory()


def cmd_train(args: argparse.Namespace) -> int:
    # every task file, and the environment it sets up, is checked before the
    # first task spends a backend call
    tasks = [TaskSpec.from_file(path) for path in args.tasks]
    environments = [build_environment(task.env_setup, task.base_dir) for task in tasks]
    backend = build_backend(args.backend)
    memory = _load_memory(args.memory)
    config = _run_config(args, RunMode.TRAIN)
    reports = []
    failures = []
    backend_failed = False
    for task, environment in zip(tasks, environments):
        try:
            reports.append(run_task(task, memory, backend, config, environment))
        except IceError as exc:
            failures.append({"task_id": task.task_id, "error": str(exc)})
            # run_task raises TaskAborted for a backend failure, and for nothing else
            backend_failed |= isinstance(exc, TaskAborted)
            print(f"task {task.task_id} failed: {exc}", file=sys.stderr)
    if args.memory:
        memory.save(args.memory)
    doc = {
        "reports": [r.to_dict() for r in reports],
        "failures": failures,
        "memory_records": len(memory),
    }
    _write_or_print(args.out, json.dumps(doc, indent=2, ensure_ascii=False) + "\n")
    if backend_failed:
        return EXIT_BACKEND
    return EXIT_TASK if failures else EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    backend = build_backend(args.backend)
    memory = _load_memory(args.memory)
    config = _run_config(args, RunMode.EXPLOIT)
    task = TaskSpec.from_file(args.task)
    report = run_task(task, memory, backend, config)
    _write_or_print(args.out, json.dumps(report.to_dict(), indent=2,
                                         ensure_ascii=False) + "\n")
    metrics = compute_metrics([report], include_reutilization=config.execution_ice)
    print(f"completion {metrics.completion_rate_pct:.2f}% | "
          f"calls {metrics.api_calls_all} | "
          f"rectifications {metrics.rectification_times}", file=sys.stderr)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    result = run_bench(BenchSpec.from_file(args.config))
    table = format_table(result)
    print(table, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "bench_report.json").write_text(result.to_json(), encoding="utf-8")
        (out / "bench_table.txt").write_text(table, encoding="utf-8")
        for arm in result.arms:
            arm.memory.save(str(out / f"memory_{arm.arm.name}.json"))
    if result.failures:
        for failure in result.failures:
            print(f"arm {failure['arm']} failed: {failure['error']}",
                  file=sys.stderr)
        return EXIT_BACKEND
    return EXIT_OK


def cmd_consolidate(args: argparse.Namespace) -> int:
    traj, description = read_trajectory_log(args.log)
    backend = build_backend(args.backend)
    goal = Goal(id=traj.goal_id, description=description)
    pipeline = consolidate_pipeline(traj, goal, backend)
    _write_or_print(args.out, dumps_pipeline(pipeline))
    return EXIT_OK


def cmd_memory(args: argparse.Namespace) -> int:
    memory = ExperienceMemory.load(args.memory)
    if args.subcommand == "list":
        query = memory.embed(args.query) if args.query else None
        for record in memory.records():
            first_line = record.key_text.partition("\n")[0]
            line = f"{record.record_id:>4}  {record.kind.value:<9} {first_line}"
            if query is not None:
                line += f"  sim={query.cosine(record.embedding):.4f}"
            print(line)
        return EXIT_OK
    if args.subcommand == "show":
        if args.record_id is None:
            raise ValueError("show needs a record id")
        record = memory.get(args.record_id)
        if record.kind is RecordKind.PIPELINE:
            print(dumps_pipeline(pipeline_from_dict(record.payload)), end="")
        else:
            print(json.dumps(record.payload, indent=2, ensure_ascii=False))
        return EXIT_OK
    # export
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    for record in memory.records(RecordKind.PIPELINE):
        path = out / f"pipeline_{record.record_id}.json"
        path.write_text(dumps_pipeline(pipeline_from_dict(record.payload)),
                        encoding="utf-8")
        print(path)
    return EXIT_OK


def _write_or_print(out: str | None, text: str) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")


_HANDLERS = {
    "train": cmd_train,
    "run": cmd_run,
    "bench": cmd_bench,
    "consolidate": cmd_consolidate,
    "memory": cmd_memory,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except (BackendError, ConsolidationFailed, TaskAborted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (UnknownRecord, PipelineSchemaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TASK


def entrypoint() -> None:  # console_scripts target
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

"""Benchmark of the ice engine: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload suite|recall-10k|learn-grow \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout (it uses ``src/`` and ``suite/`` there).
With ``--trace 0`` it warms up with one untimed unit of work and then
measures the end-to-end metrics with no tracing; with ``--trace 1`` it
alternates traced and untraced units of work and reports the per-layer
metrics (see NOTES.md). Every line but the last is for people; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Spans of a traced run are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# one process, one thread: keep numpy's BLAS from starting worker threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3  # fresh interpreters per run; setup_s is their median
PROBE_TIMEOUT_S = 120


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def probe_setup(workload: str, seed: int) -> float:
    """Set up ``workload`` in this (fresh) interpreter and return the seconds
    from just before ``import ice`` to inputs built."""
    start = perf_counter()
    import ice  # noqa: F401  (timed on purpose)
    from workloads import WORKLOADS  # imports numpy, which ice imports anyway

    WORKLOADS[workload](ROOT, seed, OUT)
    return perf_counter() - start


def setup_samples(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def import_probe() -> dict[str, float]:
    """``python -X importtime -c "import ice"`` in one child process."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ice"],
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    cumulative: dict[str, float] = {}
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line.split(":", 1)[1].split("|")
        package = fields[2].strip()
        if package not in cumulative and fields[1].strip().isdigit():
            cumulative[package] = int(fields[1]) / 1e3
    return {"import.ice_ms": cumulative.get("ice", 0.0),
            "import.numpy_ms": cumulative.get("numpy", 0.0),
            "import.urllib_ms": cumulative.get("urllib.request", 0.0)}


def run_unit(workload, tally) -> bool:
    """One unit of work; False when it could not finish (it is not retried)."""
    units = tally.units
    workload.run_unit(tally)
    return tally.units > units


def run_phase(workload, seconds: float):
    """An untimed warm-up, then whole units until ``seconds`` of wall time
    have passed; returns the timed tally and the warm-up's."""
    from workloads import Tally

    warm, tally = Tally(), Tally()
    workload.warm_up(warm)
    gc.collect()  # every run starts timing from the same collector state
    start = perf_counter()
    while run_unit(workload, tally) and perf_counter() - start < seconds:
        pass
    return tally, warm


def e2e_metrics(tally, setup: list[float]) -> dict[str, float]:
    ms = tally.task_cpu_ms
    return {
        "setup_s": statistics.median(setup),
        "task_cpu_ms_p50": statistics.median(ms),
        "task_cpu_ms_p90": statistics.quantiles(ms, n=10)[8],
        "tasks_per_cpu_s": tally.tasks / tally.task_cpu_s,
        "api_calls_per_task": tally.calls / tally.tasks,
        "completion_pct": 100.0 * tally.completed / max(tally.leaves, 1),
        "ok_task_pct": 100.0 * (tally.tasks - tally.failed) / tally.tasks,
        "checkpoint_cpu_us_per_record": statistics.median(tally.checkpoint_cpu_us),
        "snapshot_bytes_per_record": tally.snapshot_bytes / max(tally.snapshot_records, 1),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(workload, seconds: float, stem: str):
    """Traced and untraced units in turn for ``seconds``; returns the
    per-layer metrics and both tallies."""
    from tracer import Tracer
    from workloads import Tally

    imports = import_probe()
    tracer = Tracer()
    plain, traced = Tally(), Tally()
    start = perf_counter()
    while perf_counter() - start < seconds:
        with tracer:
            finished = run_unit(workload, traced)
        tracer.assert_restored()
        if not (finished and run_unit(workload, plain)):
            break

    metrics = dict(imports)
    metrics.update(tracer.summarize(traced.tasks, traced.arms, traced.busy_s))
    metrics["trace.overhead_pct"] = 100.0 * (
        (traced.task_s / traced.tasks) / (plain.task_s / max(plain.tasks, 1)) - 1.0)
    tracer.write(str(OUT / f"{stem}-spans.tsv"))
    return metrics, [traced, plain]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ice" / "__init__.py").is_file():
        return _fail(f"no ice sources under {ROOT / 'src'}; run from a checkout")
    for needed in ("suite/bench.json", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            return _fail(f"no {needed} under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:  # before anything imports numpy or ice
        print(f"{probe_setup(args.workload, args.seed):.9f}")
        return 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    setup = [] if args.trace else setup_samples(args.workload, args.seed)
    workload = WORKLOADS[args.workload](ROOT, args.seed, OUT)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        metrics, tallies = traced_run(workload, args.seconds, stem)
    else:
        tally, warm = run_phase(workload, args.seconds)
        tallies = [tally, warm]
        metrics = e2e_metrics(tally, setup)

    attempted = sum(t.tasks for t in tallies)
    failed = sum(t.failed for t in tallies)
    first = tallies[0]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{first.units} units, {first.tasks} task runs, {failed} failed")
    for key, value in workload.notes.items():
        print(f"  {key}: {value}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        return _fail(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    samples = {"task_cpu_ms_p50": len(first.task_ms), "task_cpu_ms_p90": len(first.task_ms),
               "checkpoint_cpu_us_per_record": len(first.checkpoint_ms),
               "setup_s": len(setup)}
    for name, value in metrics.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name} = {value:.6g} {units[name]}{n}")
    if not args.trace:
        print(f"  wall time: task p50 {statistics.median(first.task_ms):.6g} ms, "
              f"checkpoint p50 {statistics.median(first.checkpoint_ms):.6g} ms, "
              f"CPU share {100 * first.task_cpu_s / first.task_s:.4g} %")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

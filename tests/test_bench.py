from __future__ import annotations

import json
import time
from collections import Counter

import pytest

import ice.bench
import ice.env
from conftest import SUITE_DIR
from ice.bench import (
    ArmSpec,
    BenchSpec,
    MetricsReport,
    build_backend,
    compute_metrics,
    format_table,
    run_arm,
    run_bench,
)
from ice.engine import RunConfig, TaskSpec
from ice.llm import CallTag, LlmBackend, ScriptedBackend, ScriptedRule, ScriptedScenario
from ice.memory import RecordKind
from suite_builder import suite_files


@pytest.fixture(scope="module")
def suite_result():
    return run_bench(BenchSpec.from_file(SUITE_DIR / "bench.json"))


def arm(result, name):
    return next(a for a in result.arms if a.arm.name == name)


# -- the checked-in suite --------------------------------------------------------


def test_checked_in_suite_matches_the_builder():
    for relative, text in suite_files().items():
        assert (SUITE_DIR / relative).read_text(encoding="utf-8") == text, relative


def test_all_arms_run_clean(suite_result):
    assert suite_result.failures == []
    assert [a.arm.name for a in suite_result.arms] == [
        "standard", "planning_ice", "execution_ice", "planning_execution",
        "ablation_none", "ablation_small",
    ]


def test_exact_call_totals_per_arm(suite_result):
    expected = {
        "standard": (110, 100, 75.0, 5, None),
        "planning_ice": (83, 78, 100.0, 0, None),
        "execution_ice": (65, 55, 75.0, 5, 75.0),
        "planning_execution": (38, 33, 100.0, 0, 93.75),
        "ablation_none": (110, 100, 75.0, 5, 0.0),
        "ablation_small": (80, 72, pytest.approx(100 * 15 / 18), 3,
                           pytest.approx(100 * 6 / 18)),
    }
    for name, (calls, tools, completion, rect, reuti) in expected.items():
        metrics = arm(suite_result, name).metrics
        assert metrics.api_calls_all == calls, name
        assert metrics.api_calls_tools == tools, name
        assert metrics.completion_rate_pct == completion, name
        assert metrics.rectification_times == rect, name
        if reuti is None:
            assert metrics.reutilization_rate_pct is None, name
        else:
            assert metrics.reutilization_rate_pct == reuti, name


def test_combined_arm_cuts_calls_by_at_least_sixty_percent(suite_result):
    standard = arm(suite_result, "standard").metrics.api_calls_all
    combined = arm(suite_result, "planning_execution").metrics.api_calls_all
    assert (standard - combined) / standard >= 0.60


def test_ablation_metrics_are_monotone(suite_result):
    sweep = [arm(suite_result, name).metrics
             for name in ("ablation_none", "ablation_small", "planning_execution")]
    calls = [m.api_calls_all for m in sweep]
    completion = [m.completion_rate_pct for m in sweep]
    assert calls == sorted(calls, reverse=True)
    assert completion == sorted(completion)


def test_standard_arm_touches_memory_never(suite_result):
    standard = arm(suite_result, "standard")
    assert standard.memory_reads == 0
    assert standard.memory_writes == 0
    assert standard.memory_snapshot["records"] == []


def test_trained_arms_store_pipelines_and_workflows(suite_result):
    combined = arm(suite_result, "planning_execution")
    kinds = [r["kind"] for r in combined.memory_snapshot["records"]]
    assert kinds.count("pipeline") == 15  # 3 per training task
    assert kinds.count("workflow") == 5


def test_counter_identities_hold_on_every_report(suite_result):
    for arm_result in suite_result.arms:
        for report in arm_result.train_reports + arm_result.test_reports:
            counters = report.counters
            assert counters["all"] == sum(counters["by_tag"].values())
            assert counters["by_tag"]["tool_handling"] <= counters["all"]
        metrics = arm_result.metrics
        assert metrics.api_calls_tools <= metrics.api_calls_all
        total = sum(r.counters["all"] for r in arm_result.test_reports)
        assert total == metrics.api_calls_all


def test_task_counters_match_an_independent_count(monkeypatch):
    """Each report's counts, and each arm's totals, against a tally the
    scripted backend keeps apart from ``LlmBackend.calls``."""
    tally = Counter()
    complete = ScriptedBackend._complete

    def counted_complete(self, request):
        tally[request.tag] += 1
        return complete(self, request)

    deltas = []
    run_task = ice.bench.run_task

    def measured_run_task(*args):
        before = tally.copy()
        report = run_task(*args)
        deltas.append({tag.value: tally[tag] - before[tag] for tag in CallTag})
        return report

    monkeypatch.setattr(ScriptedBackend, "_complete", counted_complete)
    monkeypatch.setattr(ice.bench, "run_task", measured_run_task)
    result = run_bench(BenchSpec.from_file(SUITE_DIR / "bench.json"))
    assert result.failures == []
    reports = [r for a in result.arms for r in a.train_reports + a.test_reports]
    assert len(reports) == len(deltas) > 0
    for report, by_tag in zip(reports, deltas):
        assert report.counters == {"all": sum(by_tag.values()), "by_tag": by_tag}
    start = 0
    for arm_result in result.arms:
        start += len(arm_result.train_reports)
        test = deltas[start:start + len(arm_result.test_reports)]
        start += len(arm_result.test_reports)
        assert arm_result.metrics.api_calls_all == sum(sum(d.values()) for d in test)
        assert arm_result.metrics.api_calls_tools == sum(d["tool_handling"] for d in test)


def test_reutilization_numerator_matches_shadow_count(suite_result):
    combined = arm(suite_result, "planning_execution")
    outcomes = [o for r in combined.test_reports for o in r.outcomes]
    piped = sum(1 for o in outcomes if o.method.value == "pipeline")
    assert piped == 15 and len(outcomes) == 16
    assert combined.metrics.reutilization_rate_pct == 100.0 * piped / len(outcomes)


def test_bench_repeat_is_byte_identical(suite_result):
    again = run_bench(BenchSpec.from_file(SUITE_DIR / "bench.json"))
    assert again.to_json() == suite_result.to_json()
    for first, second in zip(suite_result.arms, again.arms):
        assert json.dumps(first.memory_snapshot) == json.dumps(second.memory_snapshot)


def test_bench_runtime_is_well_under_the_budget():
    started = time.monotonic()
    run_bench(BenchSpec.from_file(SUITE_DIR / "bench.json"))
    assert time.monotonic() - started < 60.0


def test_a_suite_completion_checks_at_most_twenty_rules(monkeypatch):
    """The scripted backend's rule index: a linear scan of the rules made
    87.14 substring checks per suite completion, the index makes 14.07."""
    counts = Counter()
    matches, complete = ScriptedRule.matches, LlmBackend.complete

    def counted_matches(self, rendered):
        counts["checks"] += 1
        return matches(self, rendered)

    def counted_complete(self, request):
        counts["completions"] += 1
        return complete(self, request)

    monkeypatch.setattr(ScriptedRule, "matches", counted_matches)
    monkeypatch.setattr(LlmBackend, "complete", counted_complete)
    run_bench(BenchSpec.from_file(SUITE_DIR / "bench.json"))
    assert counts["completions"] > 0
    assert counts["checks"] <= 20 * counts["completions"]


# -- harness mechanics -----------------------------------------------------------


def train_only(arm_spec):
    """``run_arm`` over the suite's training tasks with no test tasks, so the
    result's memory holds exactly what training stored."""
    spec = BenchSpec.from_file(SUITE_DIR / "bench.json")
    train_tasks = [TaskSpec.from_file(path) for path in spec.train_tasks]
    return run_arm(spec, arm_spec, build_backend(spec.backend, spec.base_dir), train_tasks, [])


def test_training_command_populates_memory():
    result = train_only(ArmSpec(name="two", planning_ice=True, train_limit=2))
    assert len(result.train_reports) == 2
    assert len(result.memory.records(RecordKind.PIPELINE)) >= 1
    assert len(result.memory.records(RecordKind.WORKFLOW)) >= 1


def test_training_twice_from_reset_is_deterministic():
    def snapshot():
        result = train_only(ArmSpec(name="all", execution_ice=True))
        assert len(result.train_reports) == 5
        return json.dumps(result.memory.to_dict())

    assert snapshot() == snapshot()


def test_empty_training_list_leaves_memory_empty():
    for arm_spec in (ArmSpec(name="standard"),
                     ArmSpec(name="none", planning_ice=True, execution_ice=True,
                             train_limit=0)):
        result = train_only(arm_spec)
        assert result.train_reports == [], arm_spec.name
        assert len(result.memory) == 0, arm_spec.name
        assert result.metrics.api_calls_all == 0, arm_spec.name


def test_bench_spec_settings_reach_its_run_config(tmp_path):
    path = tmp_path / "bench.json"
    doc = {"backend": "http", "arms": [{"name": "a"}]}
    path.write_text(json.dumps(doc))
    assert BenchSpec.from_file(path).config == RunConfig()
    doc.update(pipeline_threshold=0.5, workflow_threshold=1, max_react_steps=3)
    path.write_text(json.dumps(doc))
    assert BenchSpec.from_file(path).config == RunConfig(
        pipeline_threshold=0.5, workflow_threshold=1.0, max_react_steps=3)


def test_failing_arm_is_isolated():
    spec = BenchSpec.from_file(SUITE_DIR / "bench.json")
    spec.arms = [
        ArmSpec(name="broken", backend="scripted:no_such_scenario.json"),
        ArmSpec(name="standard"),
    ]
    result = run_bench(spec)
    assert [a.arm.name for a in result.arms] == ["standard"]
    assert len(result.failures) == 1 and result.failures[0]["arm"] == "broken"


def test_an_arm_with_a_malformed_scenario_fails_alone(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps([{"match": "x"}]))
    spec = BenchSpec.from_file(SUITE_DIR / "bench.json")
    spec.arms = [
        ArmSpec(name="broken", backend=f"scripted:{scenario}"),
        ArmSpec(name="standard"),
    ]
    result = run_bench(spec)
    assert [f["arm"] for f in result.failures] == ["broken"]
    assert result.failures[0]["error"].startswith(f"{scenario}: rule 0 ")
    assert [a.arm.name for a in result.arms] == ["standard"]
    assert format_table(result).splitlines()[2].startswith("standard ")


def test_an_arm_whose_task_dataset_has_another_shape_fails_alone(tmp_path):
    """A ``documents`` fixture holding 5 used to end ``run_bench`` in a
    TypeError from the first search, so no later arm ran."""
    (tmp_path / "docs.json").write_text("5")
    task = json.loads((SUITE_DIR / "tasks" / "train_solar_markets.json").read_text())
    task["env_setup"] = [{"dataset": "documents", "fixture": "docs.json"}]
    (tmp_path / "task.json").write_text(json.dumps(task))
    spec = BenchSpec.from_file(SUITE_DIR / "bench.json")
    spec.train_tasks = [tmp_path / "task.json"]
    spec.arms = [ArmSpec(name="planning", planning_ice=True), ArmSpec(name="standard")]
    result = run_bench(spec)
    assert result.failures == [{"arm": "planning", "error": (
        f"{tmp_path / 'docs.json'}: env_setup dataset 'documents' must be a list of strings")}]
    assert [a.arm.name for a in result.arms] == ["standard"]


def test_bench_reads_each_scenario_once_and_builds_every_backend_first(tmp_path, monkeypatch):
    malformed = tmp_path / "scenario.json"
    malformed.write_text(json.dumps([{"match": "x"}]))
    reads = Counter()
    from_file = ScriptedScenario.from_file.__func__

    def counted_from_file(cls, path):
        reads[path] += 1
        return from_file(cls, path)

    arms_run = []
    run_arm = ice.bench.run_arm

    def recorded_run_arm(spec, arm, backend, *tasks):
        arms_run.append((arm.name, backend, sum(reads.values())))
        return run_arm(spec, arm, backend, *tasks)

    monkeypatch.setattr(ScriptedScenario, "from_file", classmethod(counted_from_file))
    monkeypatch.setattr("ice.bench.run_arm", recorded_run_arm)
    spec = BenchSpec.from_file(SUITE_DIR / "bench.json")
    spec.test_tasks = spec.test_tasks[:1]
    spec.arms = [
        ArmSpec(name="standard"),
        ArmSpec(name="malformed", backend=f"scripted:{malformed}"),
        ArmSpec(name="planning", planning_ice=True, train_limit=1),
        ArmSpec(name="missing", backend="scripted:no_such_scenario.json"),
    ]
    result = run_bench(spec)
    # every file was read, once, before the first arm ran
    assert reads == {str(SUITE_DIR / "scenario.json"): 1, str(malformed): 1,
                     str(SUITE_DIR / "no_such_scenario.json"): 1}
    assert [(name, read) for name, _, read in arms_run] == [("standard", 3), ("planning", 3)]
    # one parsed scenario, one backend (and so one set of use counts) per arm
    (_, first, _), (_, second, _) = arms_run
    assert first is not second and first._scenario is second._scenario
    assert [f["arm"] for f in result.failures] == ["malformed", "missing"]
    assert [a.arm.name for a in result.arms] == ["standard", "planning"]


def test_bench_reads_each_task_file_once_before_any_arm(monkeypatch):
    """Each arm used to read its own task files: 48 reads of 10 files a pass."""
    reads = Counter()
    from_file = TaskSpec.from_file.__func__

    def counted_from_file(cls, path):
        reads[path] += 1
        return from_file(cls, path)

    read_before_arm = []
    run_arm = ice.bench.run_arm

    def recorded_run_arm(spec, arm, backend, *tasks):
        read_before_arm.append(sum(reads.values()))
        return run_arm(spec, arm, backend, *tasks)

    monkeypatch.setattr(TaskSpec, "from_file", classmethod(counted_from_file))
    monkeypatch.setattr("ice.bench.run_arm", recorded_run_arm)
    spec = BenchSpec.from_file(SUITE_DIR / "bench.json")
    result = run_bench(spec)
    assert reads == Counter(spec.train_tasks + spec.test_tasks)
    assert read_before_arm == [10] * len(spec.arms)
    assert result.failures == []


def test_bench_reads_each_dataset_fixture_once(monkeypatch):
    """Every task run used to read its fixture: 47 reads of 5 files a pass."""
    reads = Counter()
    read_json = ice.env.read_json

    def counted_read_json(path):
        reads[path] += 1
        return read_json(path)

    monkeypatch.setattr(ice.env, "read_json", counted_read_json)
    result = run_bench(BenchSpec.from_file(SUITE_DIR / "bench.json"))
    assert result.failures == []
    assert reads == Counter(SUITE_DIR / "tasks" / "fixtures" / f"docs_{topic}.json" for topic in (
        "solar_markets", "battery_storage", "carbon_offsets", "grid_software", "wind_turbines"))


def test_a_bench_task_whose_fixture_is_not_json_fails_before_any_backend_call(
        tmp_path, monkeypatch):
    """It used to fail each arm that ran the task, when the arm reached it."""
    (tmp_path / "docs.json").write_text("{")
    task = json.loads((SUITE_DIR / "tasks" / "test_solar_markets.json").read_text())
    task["env_setup"] = [{"dataset": "documents", "fixture": "docs.json"}]
    (tmp_path / "task.json").write_text(json.dumps(task))
    spec = BenchSpec.from_file(SUITE_DIR / "bench.json")
    spec.test_tasks = [tmp_path / "task.json"]
    backends = []
    monkeypatch.setattr(ice.bench, "build_backend", lambda *args: backends.append(args))
    with pytest.raises(ValueError) as caught:
        run_bench(spec)
    assert str(caught.value).startswith(f"{tmp_path / 'docs.json'}: ")
    assert backends == []


def test_metrics_report_validates_identities():
    with pytest.raises(ValueError):
        MetricsReport(api_calls_all=1, api_calls_tools=2,
                      completion_rate_pct=50.0, rectification_times=0,
                      reutilization_rate_pct=None)
    with pytest.raises(ValueError):
        MetricsReport(api_calls_all=2, api_calls_tools=1,
                      completion_rate_pct=150.0, rectification_times=0,
                      reutilization_rate_pct=None)


def test_compute_metrics_on_empty_reports():
    metrics = compute_metrics([], include_reutilization=True)
    assert metrics.api_calls_all == 0
    assert metrics.completion_rate_pct == 0.0
    assert metrics.reutilization_rate_pct == 0.0


def test_build_backend_rejects_unknown_spec():
    with pytest.raises(ValueError):
        build_backend("quantum")


def test_table_mirrors_column_set(suite_result):
    table = format_table(suite_result)
    header = table.splitlines()[0]
    for column in ("Arm", "API Calls (All)", "API Calls (Tools)",
                   "Completion Rate (%)", "Rectification Times",
                   "Re-utilization Rate (%)"):
        assert column in header
    # arms without execution exploitation show a dash in the last column
    standard_row = next(line for line in table.splitlines() if line.startswith("standard"))
    assert standard_row.rstrip().endswith("-")


def test_bench_spec_requires_arms():
    with pytest.raises(ValueError):
        BenchSpec(train_tasks=[], test_tasks=[], arms=[], backend="http")

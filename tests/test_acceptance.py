"""Acceptance suite.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints one PASS line when it holds (pytest -s shows them; a failed
criterion fails its test instead).
"""

from __future__ import annotations

import json
import random
import time

import pytest

from conftest import DATA_DIR, SUITE_DIR
from helpers import blog_case_tree, oracle_workflows, random_finalized_tree, scripted
from ice.bench import BenchSpec, run_bench
from ice.consolidate import (
    DEMONSTRATIONS,
    consolidate_workflows,
    workflow_to_dict,
)
from ice.engine import RunConfig, TaskRunner, TaskSpec
from ice.env import SimulatedEnvironment, builtin_toolkit
from ice.memory import ExperienceMemory, LocalDeterministicEmbedder, RecordKind
from ice.pipeline import dumps_pipeline, pipeline_from_dict, validate_document
from ice.plan import GoalId
from ice.plan import Goal

GOLDEN_PIPELINES = [DATA_DIR / "pipelines" / "example_1.json",
                    DATA_DIR / "pipelines" / "example_2.json"]


def ok(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:02d}] PASS {message}")


@pytest.fixture(scope="module")
def bench_result():
    return run_bench(BenchSpec.from_file(SUITE_DIR / "bench.json"))


def arm_metrics(result, name):
    return next(a for a in result.arms if a.arm.name == name).metrics


def test_c01_workflow_oracle_equivalence_on_1000_random_trees():
    rng = random.Random(20260808)
    started = time.monotonic()
    for _ in range(1000):
        tree = random_finalized_tree(rng, max_depth=5, max_fanout=4)
        actual = [workflow_to_dict(w) for w in consolidate_workflows(tree)]
        expected = [workflow_to_dict(w) for w in oracle_workflows(tree)]
        assert actual == expected
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    ok(1, f"1000 random trees match the brute-force oracle in {elapsed:.2f}s")


def test_c02_blog_case_goldens_byte_exact():
    tree = blog_case_tree()
    strict = consolidate_workflows(tree)
    assert [e.goal_id.render() for e in strict[0].entries] == ["1", "2-2", "2-3", "3"]
    assert len(strict) == 1
    root_golden = (DATA_DIR / "workflows" / "blog_root.json").read_text("utf-8")
    text = json.dumps(workflow_to_dict(strict[0]), indent=2, ensure_ascii=False) + "\n"
    assert text == root_golden
    ok(2, "the blog-case workflow matches the checked-in golden byte-exactly")


def test_c03_pipeline_schema_fidelity_and_mutations():
    from test_pipeline import _mutations  # the shared mutation generator

    for path in GOLDEN_PIPELINES:
        text = path.read_text("utf-8")
        doc = json.loads(text)
        assert validate_document(doc) == []
        assert dumps_pipeline(pipeline_from_dict(doc)) == text
        rng = random.Random(99)
        count = 0
        for mutated, fragment in _mutations(doc, rng, 50):
            violations = validate_document(mutated)
            assert violations
            assert any(fragment in v.subject or fragment in v.detail
                       for v in violations)
            count += 1
        assert count == 50
    ok(3, "both golden documents validate, round-trip bit-identically, and "
          "50 mutations each are localized")


def _pipeline_runner(rules, products, reviews):
    env = SimulatedEnvironment(tools=builtin_toolkit())
    env.world.datasets["products"] = products
    env.world.datasets["reviews"] = reviews
    return TaskRunner(
        task=TaskSpec(task_id="acceptance", goal="acceptance"),
        memory=ExperienceMemory(),
        backend=scripted(rules),
        config=RunConfig(),
        environment=env,
    )


def test_c04_automaton_executor_paths():
    from test_engine import linear_demo_rules, switch_rules

    goal = Goal(id=GoalId.parse("1"), description="fetch product material",
                milestones=["file_exists:blog_post_material.txt"])

    runner = _pipeline_runner(
        linear_demo_rules(),
        products={"W003247135": "response1", "W003247136": "response3"},
        reviews={"W003247135": "response2"},
    )
    traj, ok_flag = runner.run_pipeline(DEMONSTRATIONS[0].pipeline, goal)
    assert ok_flag and len(traj.steps) == 4

    runner = _pipeline_runner(
        switch_rules("W003247135", "W003247135", "product_detail_review_list"),
        products={"W003247135": "response 1"},
        reviews={"W003247135": "response 2"},
    )
    traj, ok_flag = runner.run_pipeline(DEMONSTRATIONS[1].pipeline, goal)
    assert ok_flag and len(traj.steps) == 3

    runner = _pipeline_runner(
        switch_rules("W003247135", "W003247136",
                     "product_detail_write_fail_reason_and_suggestions"),
        products={"W003247136": "response 1", "W003247137": "x"},
        reviews={"W003247136": "response 2"},
    )
    traj, ok_flag = runner.run_pipeline(DEMONSTRATIONS[1].pipeline, goal)
    assert ok_flag and len(traj.steps) == 5
    ok(4, "executor runs 4 invocations on the linear document, 3 and 5 on the "
          "switch document's branches")


def test_c05_retrieval_matches_linear_scan_oracle():
    words = ["solar", "battery", "grid", "wind", "carbon", "market", "report",
             "news", "search", "write", "review", "draft", "plan", "brief"]
    rng = random.Random(777)
    memory = ExperienceMemory()
    embedder = LocalDeterministicEmbedder()
    keys = []
    payload = {"source_goal": "root", "source_description": "d", "entries": []}
    for _ in range(100):
        key = " ".join(rng.choices(words, k=rng.randint(1, 8)))
        keys.append(key)
        memory.store(RecordKind.WORKFLOW, key, payload)
    checked = 0
    for _ in range(20):
        query = " ".join(rng.choices(words, k=rng.randint(1, 8)))
        threshold = rng.choice([0.0, 0.4, 0.7, 0.85, 1.0])
        vec = embedder.embed(query).values
        sims = [float(vec @ embedder.embed(k).values) for k in keys]
        best = max(range(len(sims)), key=lambda i: (sims[i], -i))
        hit = memory.retrieve(RecordKind.WORKFLOW, query, threshold=threshold)
        if sims[best] >= threshold:
            assert hit is not None
            assert hit[0].record_id == best + 1
            assert hit[1] == pytest.approx(sims[best], abs=1e-12)
        else:
            assert hit is None
        checked += 1
    assert checked == 20
    # self-retrieval similarity
    hit = memory.retrieve(RecordKind.WORKFLOW, keys[0], threshold=0.0)
    assert hit is not None and abs(hit[1] - 1.0) <= 1e-9
    ok(5, "top-1 retrieval equals the brute-force scan; self-similarity is 1.0")


def test_c06_call_reduction_on_the_checked_in_suite(bench_result):
    assert bench_result.failures == []
    standard = arm_metrics(bench_result, "standard")
    combined = arm_metrics(bench_result, "planning_execution")
    assert standard.api_calls_all == 110
    assert combined.api_calls_all == 38
    reduction = (standard.api_calls_all - combined.api_calls_all) / standard.api_calls_all
    assert reduction >= 0.60
    ok(6, f"scripted suite: 110 -> 38 backend calls ({reduction:.1%} reduction)")


def test_c06_bench_runtime_budget():
    started = time.monotonic()
    run_bench(BenchSpec.from_file(SUITE_DIR / "bench.json"))
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    ok(6, f"full bench finishes in {elapsed:.2f}s with the scripted backend only")


def test_c07_ablation_trend(bench_result):
    sweep = [arm_metrics(bench_result, name)
             for name in ("ablation_none", "ablation_small", "planning_execution")]
    calls = [m.api_calls_all for m in sweep]
    completion = [m.completion_rate_pct for m in sweep]
    assert all(a >= b for a, b in zip(calls, calls[1:]))
    assert all(a <= b for a, b in zip(completion, completion[1:]))
    ok(7, f"storage sweep 0/2/5 tasks: calls {calls}, completion "
          f"{[round(c, 2) for c in completion]}")


def test_c08_baseline_purity(bench_result):
    standard = next(a for a in bench_result.arms if a.arm.name == "standard")
    assert standard.memory_reads == 0
    assert standard.memory_writes == 0
    # a fresh no-exploitation reference run reports identical metrics
    reference = run_bench(BenchSpec.from_file(SUITE_DIR / "bench.json"))
    assert arm_metrics(reference, "standard") == standard.metrics
    ok(8, "the no-exploitation arm performs zero memory operations and matches "
          "a fresh reference run")


def test_c09_bench_determinism(bench_result):
    again = run_bench(BenchSpec.from_file(SUITE_DIR / "bench.json"))
    assert again.to_json() == bench_result.to_json()
    for first, second in zip(bench_result.arms, again.arms):
        a = json.dumps(first.memory_snapshot, sort_keys=True)
        b = json.dumps(second.memory_snapshot, sort_keys=True)
        assert a == b
    ok(9, "repeated bench runs produce byte-identical reports and snapshots")


def test_c10_counter_identities_everywhere(bench_result):
    reports = 0
    for arm in bench_result.arms:
        for report in arm.train_reports + arm.test_reports:
            counters = report.counters
            assert counters["all"] == sum(counters["by_tag"].values())
            assert counters["by_tag"]["tool_handling"] <= counters["all"]
            reports += 1
        assert arm.metrics.api_calls_tools <= arm.metrics.api_calls_all
    assert reports > 0
    ok(10, f"counter identities hold on all {reports} task reports")

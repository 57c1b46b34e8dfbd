from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from helpers import (
    blog_case_tree,
    finish,
    g,
    oracle_workflows,
    random_finalized_tree,
    scripted,
)
from ice.consolidate import (
    DEMONSTRATIONS,
    consolidate_pipeline,
    consolidate_workflows,
    consolidation_system_prompt,
    consolidation_user_text,
    encode_json,
    extract_json_document,
    render_tool_records,
    workflow_to_dict,
)
from ice.errors import ConsolidationFailed, UnfinalizedTree
from ice.llm import REPAIR_LIMIT, CallTag
import ice.pipeline
from ice.pipeline import dumps_pipeline, pipeline_to_dict, validate_document
from ice.plan import GoalStatus, new_plan
from ice.trajectory import Step, StepOutcome, Trajectory, TrajectoryStatus


# -- workflows ---------------------------------------------------------------------


def test_blog_case_strict_mode_yields_only_the_root_workflow():
    workflows = consolidate_workflows(blog_case_tree())
    assert len(workflows) == 1
    root = workflows[0]
    assert root.source_goal == g("root")
    assert [e.goal_id.render() for e in root.entries] == ["1", "2-2", "2-3", "3"]


def test_blog_case_matches_checked_in_goldens_byte_exactly():
    workflows = consolidate_workflows(blog_case_tree())
    root_golden = (DATA_DIR / "workflows" / "blog_root.json").read_text(encoding="utf-8")
    text = json.dumps(workflow_to_dict(workflows[0]), indent=2, ensure_ascii=False) + "\n"
    assert text == root_golden


def test_single_successful_leaf_child():
    tree = new_plan("root", [("only child", [])])
    finish(tree, "1", GoalStatus.SUCCESS)
    finish(tree, "root", GoalStatus.SUCCESS)
    workflows = consolidate_workflows(tree)
    assert len(workflows) == 1
    assert [e.description for e in workflows[0].entries] == ["only child"]


def test_unfinalized_tree_rejected():
    tree = new_plan("root", [("a", [])])
    tree.set_status(g("1"), GoalStatus.IN_PROGRESS)
    with pytest.raises(UnfinalizedTree):
        consolidate_workflows(tree)


def test_workflow_entries_never_include_failures_or_non_leaves():
    rng = random.Random(41)
    for _ in range(200):
        tree = random_finalized_tree(rng)
        for workflow in consolidate_workflows(tree):
            for entry in workflow.entries:
                goal = tree.find(entry.goal_id)
                assert goal.is_leaf
                assert goal.status is GoalStatus.SUCCESS


def test_random_trees_match_brute_force_oracle():
    rng = random.Random(4242)
    started = time.monotonic()
    for _ in range(1000):
        tree = random_finalized_tree(rng)
        actual = consolidate_workflows(tree)
        expected = oracle_workflows(tree)
        assert [workflow_to_dict(w) for w in actual] == [
            workflow_to_dict(w) for w in expected
        ]
    assert time.monotonic() - started < 5.0


def test_consolidation_is_idempotent():
    tree = blog_case_tree()
    first = [workflow_to_dict(w) for w in consolidate_workflows(tree)]
    second = [workflow_to_dict(w) for w in consolidate_workflows(tree)]
    assert first == second


# -- pipeline consolidation -----------------------------------------------------------


def demo_trajectory(index: int = 0) -> tuple[Trajectory, object]:
    demo = DEMONSTRATIONS[index]
    tree = new_plan("root", [(demo.query, [])])
    finish(tree, "1", GoalStatus.SUCCESS)
    traj = Trajectory(goal_id=g("1"))
    for tool, args, output in demo.tool_records:
        outcome = StepOutcome.TOOL_ERROR if output.startswith("fail.") else StepOutcome.OK
        traj.record_step(Step(0, "t", tool, args, output, outcome))
    traj.finalize(TrajectoryStatus.SUCCESS)
    return traj, tree.find(g("1"))


def test_system_prompt_embeds_both_demonstrations():
    prompt = consolidation_system_prompt()
    assert "Example 1:" in prompt and "Example 2:" in prompt
    for demo in DEMONSTRATIONS:
        assert demo.query in prompt
        assert dumps_pipeline(demo.pipeline).strip() in prompt
    assert "{examples}" not in prompt
    assert "Always add the start node and end node" in prompt


def test_request_renders_tool_records_with_query_header():
    traj, goal = demo_trajectory(0)
    user = consolidation_user_text(traj, goal)
    assert user.startswith(f"Query: {goal.description}")
    assert 'Tool Arguments: {"sku": "W003247135"}' in user
    assert user.rstrip().endswith("Pipeline:")


def test_consolidating_the_linear_demo_round_trips():
    traj, goal = demo_trajectory(0)
    backend = scripted(
        [{"match": "Query:", "response": pipeline_to_dict(DEMONSTRATIONS[0].pipeline)}]
    )
    automaton = consolidate_pipeline(traj, goal, backend)
    assert pipeline_to_dict(automaton) == pipeline_to_dict(DEMONSTRATIONS[0].pipeline)
    assert backend.calls[CallTag.CONSOLIDATION] == 1


def test_naked_document_without_outer_braces_is_accepted():
    traj, goal = demo_trajectory(0)
    naked = dumps_pipeline(DEMONSTRATIONS[0].pipeline).strip()[1:-1]
    backend = scripted([{"match": "Query:", "response": naked}])
    automaton = consolidate_pipeline(traj, goal, backend)
    assert pipeline_to_dict(automaton) == pipeline_to_dict(DEMONSTRATIONS[0].pipeline)


def test_malformed_then_valid_reply_costs_one_repair_round():
    traj, goal = demo_trajectory(1)
    backend = scripted([
        {"match": "Query:", "response": "this is not json {", "max_uses": 1},
        {"match": "Query:", "response": pipeline_to_dict(DEMONSTRATIONS[1].pipeline)},
    ])
    automaton = consolidate_pipeline(traj, goal, backend)
    assert pipeline_to_dict(automaton) == pipeline_to_dict(DEMONSTRATIONS[1].pipeline)
    # repair rounds == consolidation calls - 1
    assert backend.calls[CallTag.CONSOLIDATION] == 2


def test_repair_prompt_carries_the_violation_list():
    traj, goal = demo_trajectory(0)
    broken = pipeline_to_dict(DEMONSTRATIONS[0].pipeline)
    broken["nodes"] = [n for n in broken["nodes"] if n["node_type"] != "End"]
    backend = scripted([
        {"match": "missing_end", "response": pipeline_to_dict(DEMONSTRATIONS[0].pipeline)},
        {"match": "Query:", "response": broken},
    ])
    automaton = consolidate_pipeline(traj, goal, backend)
    assert any(n.node_type.value == "End" for n in automaton.nodes)


@pytest.mark.parametrize("fault", ["schema", "structure"])
def test_each_reply_is_schema_checked_once_and_repaired_with_validate_document_text(
    fault, monkeypatch
):
    traj, goal = demo_trajectory(0)
    valid = pipeline_to_dict(DEMONSTRATIONS[0].pipeline)
    broken = pipeline_to_dict(DEMONSTRATIONS[0].pipeline)
    if fault == "schema":
        del broken["pipeline_name"]
        broken["nodes"][0]["node_type"] = "Begin"
    else:
        broken["nodes"] = [n for n in broken["nodes"] if n["node_type"] != "End"]
    violations = "\n- ".join(v.render() for v in validate_document(broken))
    backend = scripted([
        {"match": f"has these problems:\n- {violations}\nReply again", "response": valid},
        {"match": "Query:", "response": broken},
    ])
    checks = []
    schema_problems = ice.pipeline._schema_problems

    def counted(doc):
        checks.append(doc)
        return schema_problems(doc)

    monkeypatch.setattr(ice.pipeline, "_schema_problems", counted)
    automaton = consolidate_pipeline(traj, goal, backend)
    assert pipeline_to_dict(automaton) == valid
    assert checks == [broken, valid]


def test_invented_tool_names_trigger_repair():
    traj, goal = demo_trajectory(0)
    invented = pipeline_to_dict(DEMONSTRATIONS[0].pipeline)
    invented["nodes"][2]["tool_name"] = "MadeUpEnv_tool"
    backend = scripted([
        {"match": "unknown_tool_name", "response": pipeline_to_dict(DEMONSTRATIONS[0].pipeline)},
        {"match": "Query:", "response": invented},
    ])
    automaton = consolidate_pipeline(traj, goal, backend)
    tool_names = {n.tool_name for n in automaton.nodes}
    assert "MadeUpEnv_tool" not in tool_names


def test_repair_limit_exhaustion_raises():
    traj, goal = demo_trajectory(0)
    backend = scripted([{"match": "", "response": "never valid"}])
    with pytest.raises(ConsolidationFailed):
        consolidate_pipeline(traj, goal, backend)
    assert backend.calls[CallTag.CONSOLIDATION] == REPAIR_LIMIT + 1


def test_failed_trajectories_are_not_consolidated():
    traj, goal = demo_trajectory(0)
    failed = Trajectory(goal_id=traj.goal_id, steps=list(traj.steps))
    failed.finalize(TrajectoryStatus.FAILURE)
    with pytest.raises(ValueError):
        consolidate_pipeline(failed, goal, scripted([]))


def test_extract_json_document_variants():
    doc = {"a": 1}
    assert extract_json_document(json.dumps(doc)) == doc
    assert extract_json_document('"a": 1') == doc
    assert extract_json_document("```json\n{\"a\": 1}\n```") == doc
    assert extract_json_document("Here you go: {\"a\": 1} hope it helps") == doc
    with pytest.raises(ValueError):
        extract_json_document("no json at all")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example({"pfad": "b\u00e9r\u00e9nice/\u6587\u66f8.md", "n": [1.5, -0.0, 1e300, 10**30]})
@example([float("nan"), float("inf"), -float("inf"), {}, [], [[{}]], ""])
@example("\ud800 \u2028 \x00 \"q\" \\")
def test_encode_json_writes_the_text_of_json_dumps(value):
    assert encode_json(value) == json.dumps(value, ensure_ascii=False)


def test_encode_json_rejects_a_circular_value_and_forgets_a_failed_call():
    looped = {"a": []}
    looped["a"].append(looped)
    with pytest.raises(ValueError, match="Circular reference"):
        encode_json(looped)
    # the markers a failed call left behind would flag this dict as a cycle
    looped["a"].clear()
    assert encode_json(looped) == '{"a": []}'
    unencodable = [looped, {1}]
    for _ in range(2):
        with pytest.raises(TypeError):
            encode_json(unencodable)


def test_render_tool_records_layout():
    text = render_tool_records([("ToolA", {"x": 1}, "out")])
    assert text == 'Tool Name: ToolA\nTool Arguments: {"x": 1}\nTool Output: "out"'

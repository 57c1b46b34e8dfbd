from __future__ import annotations

import gc
import json
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ice.engine
import ice.env
from conftest import SUITE_DIR
from helpers import g, scripted
from ice.consolidate import DEMONSTRATIONS
from ice.engine import (
    ExecutionMethod,
    ReactAction,
    RunConfig,
    RunMode,
    TaskRunner,
    TaskSpec,
    parse_react_reply,
    run_task,
)
from ice.env import (
    InvocationRecord,
    SimulatedEnvironment,
    builtin_toolkit,
    with_fixture_records,
)
from ice.errors import (
    BadPredicate,
    ConsolidationFailed,
    PipelineRunFailed,
    PlanParseError,
    RectifyParseError,
    StepParseError,
    TaskAborted,
)
from ice.llm import (
    REPAIR_LIMIT,
    CallTag,
    CompletionRequest,
    LlmBackend,
    Message,
    Role,
    ScriptedBackend,
    ScriptedScenario,
)
from ice.memory import ExperienceMemory, RecordKind, pipeline_key, workflow_key
from ice.pipeline import (
    NodeType,
    PipelineAutomaton,
    PipelineEdge,
    PipelineNode,
    pipeline_to_dict,
)
from ice.plan import Goal, GoalId, GoalStatus, RectificationKind, new_plan
from ice.trajectory import Step, StepOutcome, TrajectoryStatus


def make_runner(rules, *, goal_text="demo goal", memory=None, config=None,
                products=None, documents=None, reviews=None, milestones=None):
    env = SimulatedEnvironment(tools=builtin_toolkit())
    if products is not None:
        env.world.datasets["products"] = products
    if reviews is not None:
        env.world.datasets["reviews"] = reviews
    if documents is not None:
        env.world.datasets["documents"] = documents
    task = TaskSpec(task_id="t", goal=goal_text, milestones=milestones or {})
    return TaskRunner(
        task=task,
        memory=memory or ExperienceMemory(),
        backend=scripted(rules),
        config=config or RunConfig(),
        environment=env,
    )


def leaf(description, milestones=()):
    return Goal(id=g("1"), description=description, milestones=list(milestones))


def step_reply(tool, **args):
    return {"thought": "t", "tool_name": tool, "tool_args": args}


TERMINATE = {"thought": "done", "terminate": True}


# -- react loop -------------------------------------------------------------------


def test_react_three_steps_then_terminate():
    runner = make_runner(
        [
            {"match": "Subgoal: search climate news\nCompleted steps: 0",
             "response": step_reply("SearchEnv_keyword_search", query="climate")},
            {"match": "Subgoal: search climate news\nCompleted steps: 1",
             "response": step_reply("FileSystemEnv_write_to_file",
                                    filepath="news.txt", content="climate findings")},
            {"match": "Subgoal: search climate news\nCompleted steps: 2",
             "response": step_reply("FileSystemEnv_read_file", filepath="news.txt")},
            {"match": "Subgoal: search climate news\nCompleted steps: 3",
             "response": TERMINATE},
        ],
        documents=["climate news digest"],
    )
    traj = runner.react_loop(leaf("search climate news", ["file_exists:news.txt"]))
    assert len(traj.steps) == 3
    assert traj.final_status is TrajectoryStatus.SUCCESS
    assert runner.backend.counters.by_tag(CallTag.TOOL_HANDLING) == 4


def test_react_caps_at_max_steps_and_fails():
    runner = make_runner(
        [{"match": "", "response": step_reply("SearchEnv_keyword_search", query="x")}],
        config=RunConfig(max_react_steps=4),
    )
    traj = runner.react_loop(leaf("never ends"))
    assert len(traj.steps) == 4
    assert traj.final_status is TrajectoryStatus.FAILURE
    assert runner.backend.counters.by_tag(CallTag.TOOL_HANDLING) == 4


def test_react_unknown_tool_becomes_tool_error_step():
    runner = make_runner([
        {"match": "Completed steps: 0", "response": step_reply("NoSuchEnv_x")},
        {"match": "Completed steps: 1", "response": TERMINATE},
    ])
    traj = runner.react_loop(leaf("wrong tool"))
    assert traj.steps[0].outcome.value == "tool_error"
    assert "unknown tool" in traj.steps[0].tool_output


class RecordingBackend(LlmBackend):
    """Sends ``replies`` in order and keeps the user text of every request."""

    def __init__(self, replies):
        super().__init__()
        self.replies, self.user_texts = list(replies), []

    def _complete(self, request):
        self.user_texts.append(request.messages[-1].content)
        return self.replies.pop(0)


def reference_react_prompt(description, milestones, steps):
    """The ReACT prompt as a ``(tool, args, output, outcome)`` list of earlier
    steps renders it: three header lines, then one line per step."""
    lines = [f"Subgoal: {description}", f"Completed steps: {len(steps)}",
             f"Milestones: {'; '.join(milestones) or 'none'}"]
    for number, (tool, args, output, outcome) in enumerate(steps, start=1):
        lines.append(f"Step {number}: {tool}({json.dumps(args, ensure_ascii=False)}) -> "
                     f"[{outcome}] {output}")
    return "\n".join(lines)


_ARG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
# a known tool with its own arguments (which may run or fail), a known tool
# with arbitrary arguments (mostly a tool error) or a name no tool has
_REACT_CALLS = st.one_of(
    st.builds(lambda text: ("SearchEnv_keyword_search", {"query": text}), st.text(max_size=8)),
    st.builds(lambda path, text: ("FileSystemEnv_write_to_file",
                                  {"filepath": path, "content": text}),
              st.sampled_from(["notes.txt", "заметки.txt"]), st.text(max_size=8)),
    st.builds(lambda path: ("FileSystemEnv_read_file", {"filepath": path}),
              st.sampled_from(["notes.txt", "заметки.txt", "missing.txt"])),
    st.tuples(st.sampled_from(["RapidAPIEnv_rapi_wayfair_products_detail",
                               "SearchEnv_keyword_search", "NoSuchEnv_x", "Ünknown_工具"]),
              st.dictionaries(st.text(max_size=5), _ARG_VALUES, max_size=3)),
)


@settings(max_examples=150, deadline=None)
@given(
    description=st.text(min_size=1, max_size=12),
    milestones=st.sampled_from([[], ["file_exists:notes.txt"],
                                ["file_exists:notes.txt", "tool_called:SearchEnv_keyword_search"]]),
    max_steps=st.integers(min_value=1, max_value=8),
    calls=st.lists(_REACT_CALLS, max_size=8),
    thought=st.text(max_size=8),
)
def test_every_react_prompt_renders_the_steps_before_it(
        description, milestones, max_steps, calls, thought):
    calls = calls[:max_steps]
    replies = [json.dumps({"thought": thought, "tool_name": tool, "tool_args": args})
               for tool, args in calls]
    if len(calls) < max_steps:
        replies.append(json.dumps({"thought": thought, "terminate": True}))
    env = SimulatedEnvironment(tools=builtin_toolkit())
    env.world.datasets.update(documents=["solar notes", "ветер notes"], products={})
    backend = RecordingBackend(replies)
    runner = TaskRunner(TaskSpec(task_id="t", goal="g"), ExperienceMemory(), backend,
                        RunConfig(max_react_steps=max_steps), env)
    traj = runner.react_loop(Goal(id=g("1"), description=description, milestones=milestones))

    assert backend.replies == []
    assert [step.index for step in traj.steps] == list(range(1, len(calls) + 1))
    assert [(s.tool_name, s.tool_args) for s in traj.steps] == calls
    steps = [(s.tool_name, s.tool_args, s.tool_output, s.outcome.value) for s in traj.steps]
    assert backend.user_texts == [reference_react_prompt(description, milestones, steps[:n])
                                  for n in range(len(replies))]


def test_react_parse_repair_then_step_parse_error():
    runner = make_runner([{"match": "", "response": "not json at all"}])
    with pytest.raises(StepParseError):
        runner.react_loop(leaf("anything"))
    assert runner.backend.counters.by_tag(CallTag.TOOL_HANDLING) == REPAIR_LIMIT + 1


def test_react_without_explicit_terminate_is_failure_even_if_milestones_hold():
    runner = make_runner(
        [{"match": "", "response": step_reply("FileSystemEnv_write_to_file",
                                              filepath="out.txt", content="x")}],
        config=RunConfig(max_react_steps=2),
    )
    traj = runner.react_loop(leaf("write", ["file_exists:out.txt"]))
    assert traj.final_status is TrajectoryStatus.FAILURE  # ended by cap, not choice


# -- pipeline execution ---------------------------------------------------------------


def linear_demo_rules():
    return [
        {"match": "/ product_detail_1\n", "response": {"sku": "W003247135"}},
        {"match": "/ review_list\n", "response": {"sku": "W003247135"}},
        {"match": "/ product_detail_2\n", "response": {"sku": "W003247136"}},
        {"match": "/ write_file\n",
         "response": {"filepath": "blog_post_material.txt",
                      "content": "response1 + response2"}},
    ]


def test_linear_pipeline_runs_all_four_tools():
    runner = make_runner(
        linear_demo_rules(),
        products={"W003247135": "response1", "W003247136": "response3"},
        reviews={"W003247135": "response2"},
    )
    traj, ok = runner.run_pipeline(
        DEMONSTRATIONS[0].pipeline,
        leaf("fetch product info", ["file_exists:blog_post_material.txt"]),
    )
    assert ok is True
    assert len(traj.steps) == 4
    assert [s.tool_name for s in traj.steps] == [
        "RapidAPIEnv_rapi_wayfair_products_detail",
        "RapidAPIEnv_rapi_wayfair_reviews_list",
        "RapidAPIEnv_rapi_wayfair_products_detail",
        "FileSystemEnv_write_to_file",
    ]
    assert runner.environment.world.files["blog_post_material.txt"] == "response1 + response2"
    # one parameter call per tool node, no choice calls on a linear pipeline
    assert runner.backend.counters.by_tag(CallTag.TOOL_HANDLING) == 4


def switch_rules(sku_first, sku_retry, choice_edge):
    pn = "Pipeline node: product review fetch and write / "
    return [
        {"match": pn + "product_detail\n", "response": {"sku": sku_first}},
        {"match": "Choose the next edge after node: product review fetch and write / product_detail",
         "response": choice_edge},
        {"match": pn + "write_fail_reason_and_suggestions\n",
         "response": {"filepath": "fail_reason_and_suggestions.txt",
                      "content": "try the supported sku"}},
        {"match": pn + "product_detail_retry\n", "response": {"sku": sku_retry}},
        {"match": pn + "review_list\n", "response": {"sku": sku_retry}},
        {"match": pn + "write_obtained_information\n",
         "response": {"filepath": "blog_post_material.txt",
                      "content": "response 1 + response 2"}},
    ]


def test_switch_pipeline_success_branch_runs_three_tools():
    runner = make_runner(
        switch_rules("W003247135", "W003247135", "product_detail_review_list"),
        products={"W003247135": "response 1"},
        reviews={"W003247135": "response 2"},
    )
    traj, ok = runner.run_pipeline(
        DEMONSTRATIONS[1].pipeline,
        leaf("fetch one product", ["file_exists:blog_post_material.txt"]),
    )
    assert ok is True
    assert len(traj.steps) == 3
    assert [s.tool_name for s in traj.steps] == [
        "RapidAPIEnv_rapi_wayfair_products_detail",
        "RapidAPIEnv_rapi_wayfair_reviews_list",
        "FileSystemEnv_write_to_file",
    ]
    # 3 parameter calls + 1 switch decision
    assert runner.backend.counters.by_tag(CallTag.TOOL_HANDLING) == 4


def test_switch_pipeline_failure_branch_runs_five_tools():
    runner = make_runner(
        switch_rules("W003247135", "W003247136",
                     "product_detail_write_fail_reason_and_suggestions"),
        products={"W003247136": "response 1", "W003247137": "whatever"},
        reviews={"W003247136": "response 2"},
    )
    traj, ok = runner.run_pipeline(
        DEMONSTRATIONS[1].pipeline,
        leaf("fetch one product", ["file_exists:blog_post_material.txt"]),
    )
    assert ok is True
    assert len(traj.steps) == 5
    assert traj.steps[0].outcome.value == "tool_error"  # the switch trigger
    assert runner.backend.counters.by_tag(CallTag.TOOL_HANDLING) == 6


def test_zero_tool_pipeline_succeeds_with_empty_trajectory():
    pipeline = PipelineAutomaton(
        "empty", "nothing",
        nodes=[PipelineNode("start", "Start", NodeType.START),
               PipelineNode("end", "End", NodeType.END)],
        edges=[PipelineEdge("through", "data", "start", "end", ())],
    )
    runner = make_runner([])
    traj, ok = runner.run_pipeline(pipeline, leaf("noop"))
    assert ok is True and traj.steps == []
    assert runner.backend.counters.snapshot()["all"] == 0


@pytest.mark.parametrize("rules, calls", [
    # 1 parameter call, then every choice attempt
    ([{"match": "/ product_detail\n", "response": {"sku": "W003247135"}},
      {"match": "Choose the next edge", "response": "no such edge"}], 1 + REPAIR_LIMIT + 1),
    ([{"match": "/ product_detail\n", "response": "no arguments here"}], REPAIR_LIMIT + 1),
], ids=["edge-choice", "arguments"])
def test_invalid_pipeline_replies_retry_then_fail(rules, calls):
    runner = make_runner(rules, products={"W003247135": "r"})
    with pytest.raises(PipelineRunFailed):
        runner.run_pipeline(DEMONSTRATIONS[1].pipeline, leaf("x"))
    assert runner.backend.counters.by_tag(CallTag.TOOL_HANDLING) == calls


def test_unregistered_tool_fails_the_pipeline_run():
    pipeline = PipelineAutomaton(
        "ghost", "x",
        nodes=[PipelineNode("start", "Start", NodeType.START),
               PipelineNode("end", "End", NodeType.END),
               PipelineNode("work", "GhostEnv_missing", NodeType.TOOL_SERVER)],
        edges=[PipelineEdge("a", "data", "start", "work", ()),
               PipelineEdge("b", "data", "work", "end", ())],
    )
    runner = make_runner([{"match": "/ work\n", "response": {}}])
    with pytest.raises(PipelineRunFailed):
        runner.run_pipeline(pipeline, leaf("x"))


# -- planning ---------------------------------------------------------------------


PLAN_3 = {"subgoals": [
    {"description": "research the topic", "milestones": []},
    {"description": "draft the text", "milestones": []},
    {"description": "polish the text", "milestones": []},
]}


def stored_workflow_payload():
    return {
        "source_goal": "root",
        "source_description": "write a product review blog",
        "entries": [
            {"id": "1", "description": "gather product information", "milestones": []},
            {"id": "2", "description": "collect review material", "milestones": []},
        ],
    }


def test_plan_with_reference_renders_the_retrieved_workflow():
    memory = ExperienceMemory()
    memory.store(RecordKind.WORKFLOW, workflow_key("write a product review blog"),
                 stored_workflow_payload())
    runner = make_runner(
        [
            # fires only when the reference section (with its entries) is present
            {"match": "Reference workflow (similar past goal: write a product review blog):\n  1. gather product information",
             "response": PLAN_3},
            {"match": "Goal:", "response": {"subgoals": []}},
        ],
        goal_text="write a product review blog",
        memory=memory,
        config=RunConfig(planning_ice=True),
    )
    tree = runner.generate_initial_plan()
    assert [leaf_goal.id.render() for leaf_goal in tree.leaves()] == ["1", "2", "3"]
    assert memory.stats.reads == 1


def test_plan_without_hits_degenerates_to_baseline_prompt():
    for planning_ice in (False, True):  # empty memory: identical behavior
        runner = make_runner(
            [{"match": "No reference workflow available.", "response": PLAN_3}],
            config=RunConfig(planning_ice=planning_ice),
        )
        tree = runner.generate_initial_plan()
        assert len(tree.leaves()) == 3


def test_plan_reply_shape_is_independent_of_reference_presence():
    rules = [{"match": "Goal: demo goal", "response": PLAN_3}]
    for planning_ice in (False, True):
        runner = make_runner(rules, config=RunConfig(planning_ice=planning_ice))
        tree = runner.generate_initial_plan()
        assert [leaf_goal.id.render() for leaf_goal in tree.leaves()] == ["1", "2", "3"]


def test_plan_parse_error_after_repairs():
    runner = make_runner([{"match": "", "response": "garbage"}])
    with pytest.raises(PlanParseError):
        runner.generate_initial_plan()
    assert runner.backend.counters.by_tag(CallTag.PLANNING) == REPAIR_LIMIT + 1


def test_plan_repair_round_recovers():
    runner = make_runner([
        {"match": "Could not apply that reply", "response": PLAN_3},
        {"match": "Goal:", "response": "garbage first"},
    ])
    tree = runner.generate_initial_plan()
    assert len(tree.leaves()) == 3


@pytest.mark.parametrize("first_reply", [
    {"subgoals": [{"description": "write notes", "milestones": ["bogus"]}]},
    "[" * 100_000,
], ids=["unparseable-milestone", "deeply-nested"])
def test_a_malformed_plan_reply_is_re_prompted_before_the_run(first_reply):
    runner = make_runner([
        {"match": "Could not apply that reply", "response": {"subgoals": [
            {"description": "write notes", "milestones": ["file_exists:notes.txt"]}]}},
        {"match": "Goal:", "response": first_reply},
        {"match": "Subgoal: write notes\nCompleted steps: 0",
         "response": step_reply("FileSystemEnv_write_to_file",
                                filepath="notes.txt", content="notes")},
        {"match": "Subgoal: write notes\nCompleted steps: 1", "response": TERMINATE},
    ])
    report = runner.run()
    assert runner.backend.counters.by_tag(CallTag.PLANNING) == 2
    assert report.plan.find(g("1")).milestones == ["file_exists:notes.txt"]
    assert [o.success for o in report.outcomes] == [True]


def test_a_count_of_non_decimal_digits_is_re_prompted_before_the_run():
    runner = make_runner([
        {"match": "Could not apply that reply", "response": {"subgoals": [
            {"description": "write notes",
             "milestones": ["tool_called:FileSystemEnv_write_to_file:\u0661"]}]}},
        {"match": "Goal:", "response": {"subgoals": [
            {"description": "write notes",
             "milestones": ["tool_called:FileSystemEnv_write_to_file:\u00b2"]}]}},
        {"match": "Subgoal: write notes\nCompleted steps: 0",
         "response": step_reply("FileSystemEnv_write_to_file",
                                filepath="notes.txt", content="notes")},
        {"match": "Subgoal: write notes\nCompleted steps: 1", "response": TERMINATE},
    ])
    report = runner.run()
    assert runner.backend.counters.by_tag(CallTag.PLANNING) == 2
    assert [o.success for o in report.outcomes] == [True]


# -- rectification -----------------------------------------------------------------


def failed_leaf_runner(rules, *, memory=None, config=None):
    runner = make_runner(rules, memory=memory, config=config)
    runner.tree = new_plan("demo goal", [("alpha", []), ("beta", [])])
    runner.tree.set_status(g("2"), GoalStatus.IN_PROGRESS)
    runner.tree.set_status(g("2"), GoalStatus.FAILURE)
    return runner


def test_rectify_split_reply_logs_one_event_with_pending_children():
    runner = failed_leaf_runner([
        {"match": "Failed subgoal: beta", "response": {"actions": [
            {"kind": "split", "target": "2", "subgoals": [
                {"description": "beta part one", "milestones": []},
                {"description": "beta part two", "milestones": []},
            ]}
        ]}},
    ])
    tree = runner.rectify_plan(g("2"))
    assert len(tree.log) == 1
    assert tree.log[0].kind is RectificationKind.SPLIT
    children = tree.find(g("2")).children
    assert [c.id.render() for c in children] == ["2-1", "2-2"]
    assert all(c.status is GoalStatus.PENDING for c in children)


def test_rectify_add_actions_append_siblings_in_order():
    runner = failed_leaf_runner([
        {"match": "Failed subgoal: beta", "response": {"actions": [
            {"kind": "add", "after": "2", "subgoals": [
                {"description": "gamma", "milestones": []},
                {"description": "delta", "milestones": []},
            ]}
        ]}},
    ])
    tree = runner.rectify_plan(g("2"))
    assert [c.id.render() for c in tree.root.children] == ["1", "2", "3", "4"]
    assert [ev.kind for ev in tree.log] == [RectificationKind.ADD] * 2
    assert [c.description for c in tree.root.children[2:]] == ["gamma", "delta"]


def test_rectify_retrieves_failed_and_parent_workflows():
    memory = ExperienceMemory()
    memory.store(RecordKind.WORKFLOW, workflow_key("beta"), {
        "source_goal": "2", "source_description": "beta",
        "entries": [{"id": "2-1", "description": "beta step", "milestones": []}],
    })
    memory.store(RecordKind.WORKFLOW, workflow_key("demo goal"), {
        "source_goal": "root", "source_description": "demo goal",
        "entries": [{"id": "1", "description": "alpha", "milestones": []}],
    })
    runner = failed_leaf_runner(
        [
            # both reference sections must appear in the prompt
            {"match": "Reference workflow for the failed subgoal (similar past goal: beta)",
             "response": "guard", "max_uses": 0},
            {"match": "Reference workflow for the parent goal (similar past goal: demo goal)",
             "response": {"actions": [{"kind": "split", "target": "2", "subgoals": [
                 {"description": "beta step", "milestones": []}]}]}},
        ],
        memory=memory,
        config=RunConfig(planning_ice=True),
    )
    tree = runner.rectify_plan(g("2"))
    assert memory.stats.reads == 2
    assert len(tree.find(g("2")).children) == 1


def test_rectify_reference_free_without_hits():
    runner = failed_leaf_runner(
        [{"match": "No reference workflows available.",
          "response": {"actions": [{"kind": "add", "after": "2", "subgoals": [
              {"description": "retry beta", "milestones": []}]}]}}],
        config=RunConfig(planning_ice=True),
    )
    tree = runner.rectify_plan(g("2"))
    assert len(tree.root.children) == 3


def test_rectify_invalid_target_feeds_repair_and_tree_stays_intact():
    runner = failed_leaf_runner(
        [
            {"match": "Could not apply that reply", "response": {"actions": [
                {"kind": "split", "target": "2", "subgoals": [
                    {"description": "fixed", "milestones": []}]}]}},
            {"match": "Failed subgoal", "response": {"actions": [
                {"kind": "split", "target": "99", "subgoals": [
                    {"description": "bad", "milestones": []}]}]}},
        ],
    )
    tree = runner.rectify_plan(g("2"))
    assert [c.description for c in tree.find(g("2")).children] == ["fixed"]
    assert len(tree.log) == 1  # the rejected reply left no trace


HALF_APPLICABLE = {"actions": [
    {"kind": "split", "target": "2", "subgoals": [{"description": "beta part", "milestones": []}]},
    {"kind": "add", "after": "99", "subgoals": [{"description": "orphan", "milestones": []}]},
]}


def test_a_rectify_reply_whose_second_action_fails_leaves_the_live_tree_as_it_was():
    """The split applies and the add does not: the reply is re-prompted each
    time, and the staged split never reaches the live tree."""
    runner = failed_leaf_runner([{"match": "Failed subgoal: beta", "response": HALF_APPLICABLE}])
    before = runner.tree.to_dict()
    with pytest.raises(RectifyParseError, match="no goal with id '99'"):
        runner.rectify_plan(g("2"))
    assert runner.backend.counters.by_tag(CallTag.PLANNING) == REPAIR_LIMIT + 1
    assert runner.tree.to_dict() == before
    assert runner.tree.log == []


def test_a_half_applicable_rectify_reply_is_re_prompted_and_only_the_repair_applies():
    runner = failed_leaf_runner([
        {"match": "Could not apply that reply: no goal with id '99'", "response": {"actions": [
            {"kind": "split", "target": "2", "subgoals": [
                {"description": "fixed", "milestones": []}]}]}},
        {"match": "Failed subgoal: beta", "response": HALF_APPLICABLE},
    ])
    tree = runner.rectify_plan(g("2"))
    assert runner.backend.counters.by_tag(CallTag.PLANNING) == 2
    assert [c.description for c in tree.root.children] == ["alpha", "beta"]
    assert [c.description for c in tree.find(g("2")).children] == ["fixed"]
    assert [(ev.kind, ev.introduced) for ev in tree.log] == [
        (RectificationKind.SPLIT, (g("2-1"),))]


@pytest.mark.parametrize("bad_action", [
    "split 2 into smaller steps",
    {"kind": "split", "target": "2-x", "subgoals": [{"description": "bad"}]},
    {"kind": "split", "target": "2", "subgoals": [
        {"description": "bad", "milestones": "file_exists:a.txt"}]},
    {"kind": "split", "target": "2", "subgoals": [
        {"description": "bad", "milestones": ["bogus"]}]},
    {"kind": "split", "target": "2", "subgoals": [
        {"description": "bad", "milestones": ["custom:nothing"]}]},
], ids=["action-not-an-object", "malformed-goal-id", "string-milestones",
        "unparseable-milestone", "custom-milestone"])
def test_malformed_rectify_reply_is_re_prompted(bad_action):
    runner = failed_leaf_runner([
        {"match": "Could not apply that reply", "response": {"actions": [
            {"kind": "split", "target": "2", "subgoals": [
                {"description": "fixed", "milestones": ["file_exists:a.txt"]}]}]}},
        {"match": "Failed subgoal", "response": {"actions": [bad_action]}},
    ])
    tree = runner.rectify_plan(g("2"))
    assert runner.backend.counters.by_tag(CallTag.PLANNING) == 2
    [child] = tree.find(g("2")).children
    assert (child.description, child.milestones) == ("fixed", ["file_exists:a.txt"])
    assert len(tree.log) == 1


def test_rectify_parse_error_after_budget():
    runner = failed_leaf_runner([{"match": "", "response": "nonsense"}])
    with pytest.raises(RectifyParseError):
        runner.rectify_plan(g("2"))
    assert runner.backend.counters.by_tag(CallTag.PLANNING) == REPAIR_LIMIT + 1


# -- handle_subgoal -------------------------------------------------------------------


def trivial_pipeline_payload(name="noop"):
    return pipeline_to_dict(PipelineAutomaton(
        name, "does nothing",
        nodes=[PipelineNode("start", "Start", NodeType.START),
               PipelineNode("end", "End", NodeType.END)],
        edges=[PipelineEdge("through", "data", "start", "end", ())],
    ))


def test_handle_subgoal_prefers_stored_pipeline():
    memory = ExperienceMemory()
    memory.store(RecordKind.PIPELINE,
                 pipeline_key("search climate news", ["tool_called:SearchEnv_keyword_search"]),
                 trivial_pipeline_payload("climate research"))
    runner = make_runner([], memory=memory, config=RunConfig(execution_ice=True))
    goal = leaf("search climate news")
    goal.milestones = []  # vacuous milestones keep the run green
    # similar key: same description, same (empty) milestone list
    memory.store(RecordKind.PIPELINE, pipeline_key("search climate news", []),
                 trivial_pipeline_payload("climate research"))
    outcome = runner.handle_subgoal(goal)
    assert outcome.method is ExecutionMethod.PIPELINE
    assert outcome.pipeline_used == "climate research"
    assert outcome.success is True


def test_handle_subgoal_threshold_gate_falls_back_to_react():
    memory = ExperienceMemory()
    memory.store(RecordKind.PIPELINE, pipeline_key("something else entirely", []),
                 trivial_pipeline_payload())
    runner = make_runner(
        [{"match": "Completed steps: 0", "response": TERMINATE}],
        memory=memory,
        config=RunConfig(execution_ice=True),
    )
    outcome = runner.handle_subgoal(leaf("search climate news"))
    assert outcome.method is ExecutionMethod.REACT
    assert outcome.pipeline_used is None


def test_handle_subgoal_without_execution_ice_never_reads_memory():
    memory = ExperienceMemory()
    memory.store(RecordKind.PIPELINE, pipeline_key("search climate news", []),
                 trivial_pipeline_payload())
    runner = make_runner(
        [{"match": "Completed steps: 0", "response": TERMINATE}],
        memory=memory,
        config=RunConfig(execution_ice=False),
    )
    memory.stats.reads = 0
    outcome = runner.handle_subgoal(leaf("search climate news"))
    assert outcome.method is ExecutionMethod.REACT
    assert memory.stats.reads == 0


def test_pipeline_failure_falls_back_to_react_keeping_all_calls():
    broken = pipeline_to_dict(PipelineAutomaton(
        "broken", "dead end",
        nodes=[PipelineNode("start", "Start", NodeType.START),
               PipelineNode("end", "End", NodeType.END),
               PipelineNode("work", "GhostEnv_tool", NodeType.TOOL_SERVER)],
        edges=[PipelineEdge("a", "data", "start", "work", ()),
               PipelineEdge("b", "data", "work", "end", ())],
    ))
    memory = ExperienceMemory()
    memory.store(RecordKind.PIPELINE, pipeline_key("fragile goal", []), broken)
    runner = make_runner(
        [
            {"match": "/ work\n", "response": {}},
            {"match": "Completed steps: 0", "response": TERMINATE},
        ],
        memory=memory,
        config=RunConfig(execution_ice=True),
    )
    outcome = runner.handle_subgoal(leaf("fragile goal"))
    assert outcome.method is ExecutionMethod.REACT
    assert outcome.success is True
    # 1 param call from the doomed pipeline attempt + 1 react terminate
    assert runner.backend.counters.by_tag(CallTag.TOOL_HANDLING) == 2


def test_reutilization_shadow_count_over_twenty_subgoals():
    memory = ExperienceMemory()
    for i in range(11):
        memory.store(RecordKind.PIPELINE, pipeline_key(f"covered subgoal {i}", []),
                     trivial_pipeline_payload(f"pipe {i}"))
    runner = make_runner(
        [{"match": "Completed steps: 0", "response": TERMINATE}],
        memory=memory,
        config=RunConfig(execution_ice=True),
    )
    methods = []
    for i in range(11):
        methods.append(runner.handle_subgoal(leaf(f"covered subgoal {i}")).method)
    for i in range(9):
        methods.append(runner.handle_subgoal(leaf(f"novel subgoal {i} xyz")).method)
    assert sum(1 for m in methods if m is ExecutionMethod.PIPELINE) == 11
    assert sum(1 for m in methods if m is ExecutionMethod.REACT) == 9


def count_pipeline_checks(monkeypatch):
    """Count the calls of the parser and validator the engine looks up."""
    calls = {"pipeline_from_dict": 0, "validate_pipeline": 0}
    for name in calls:
        original = getattr(ice.engine, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(ice.engine, name, counted)
    return calls


SCHEMA_INVALID = {"nodes": [{"node_name": "start"}], "edges": []}
STRUCTURALLY_INVALID = {**trivial_pipeline_payload("no end"), "edges": []}


def test_hits_on_one_record_parse_and_validate_it_once(monkeypatch):
    memory = ExperienceMemory()
    memory.store(RecordKind.PIPELINE, pipeline_key("search climate news", []),
                 trivial_pipeline_payload("climate research"))
    runner = make_runner([], memory=memory, config=RunConfig(execution_ice=True))
    calls = count_pipeline_checks(monkeypatch)
    for _ in range(5):
        outcome = runner.handle_subgoal(leaf("search climate news"))
        assert outcome.method is ExecutionMethod.PIPELINE
        assert outcome.success is True
    assert calls == {"pipeline_from_dict": 1, "validate_pipeline": 1}
    # a second runner over the same memory reuses the record's verdict too
    again = make_runner([], memory=memory, config=RunConfig(execution_ice=True))
    assert again.handle_subgoal(leaf("search climate news")).success is True
    assert calls == {"pipeline_from_dict": 1, "validate_pipeline": 1}


@pytest.mark.parametrize("payload, validations", [
    (SCHEMA_INVALID, 0),
    (STRUCTURALLY_INVALID, 1),
], ids=["schema-invalid", "structurally-invalid"])
def test_an_invalid_stored_pipeline_falls_back_to_react_once_judged(
    payload, validations, monkeypatch
):
    memory = ExperienceMemory()
    memory.store(RecordKind.PIPELINE, pipeline_key("fragile goal", []), payload)
    runner = make_runner(
        [{"match": "Completed steps: 0", "response": TERMINATE}],
        memory=memory,
        config=RunConfig(execution_ice=True),
    )
    calls = count_pipeline_checks(monkeypatch)
    for hits in range(1, 4):
        outcome = runner.handle_subgoal(leaf("fragile goal"))
        assert outcome.method is ExecutionMethod.REACT
        assert outcome.success is True
        # the ReACT terminate is the only call: none is spent on the pipeline
        assert runner.backend.counters.by_tag(CallTag.TOOL_HANDLING) == hits
        assert runner.backend.counters.snapshot()["all"] == hits
    assert calls == {"pipeline_from_dict": 1, "validate_pipeline": validations}


def test_a_stored_record_and_its_verdict_die_with_the_memory():
    memory = ExperienceMemory()
    record_id = memory.store(RecordKind.PIPELINE, pipeline_key("search climate news", []),
                             trivial_pipeline_payload("climate research"))
    runner = make_runner([], memory=memory, config=RunConfig(execution_ice=True))
    assert runner.handle_subgoal(leaf("search climate news")).success is True
    record = memory.get(record_id)
    # the verdict is kept on the record: asking again computes nothing
    verdict = record.derived("pipeline", lambda payload: pytest.fail("recomputed"))
    assert verdict.pipeline_name == "climate research"
    record_ref, verdict_ref = weakref.ref(record), weakref.ref(verdict)
    del memory, runner, record, verdict
    gc.collect()
    assert record_ref() is None
    assert verdict_ref() is None


def test_bad_milestone_override_fails_when_the_task_file_loads(tmp_path):
    path = tmp_path / "task.json"
    path.write_text(json.dumps({"id": "t", "goal": "g",
                                "milestones": {"search news": ["bogus"]}}))
    with pytest.raises(BadPredicate) as raised:
        TaskSpec.from_file(path)
    assert str(raised.value) == (
        f"{path}: subgoal 'search news': cannot parse milestone predicate 'bogus'")
    with pytest.raises(BadPredicate, match="^subgoal 'a': cannot parse"):
        TaskSpec(task_id="t", goal="g", milestones={"a": ["file_exists:x", "bogus"]})
    with pytest.raises(ValueError, match="^subgoal 'a': milestones must be a list"):
        TaskSpec(task_id="t", goal="g", milestones={"a": "file_exists:x"})
    with pytest.raises(BadPredicate):
        TaskSpec(task_id="t", goal="g", milestones={"write notes": ["custom:has_notes"]})
    ok = TaskSpec(task_id="t", goal="g", milestones={"a": ["file_exists:x"]})
    assert ok.milestones == {"a": ["file_exists:x"]}


# -- full task runs ---------------------------------------------------------------------


def note_task_rules():
    detail_pipeline = {
        "pipeline_name": "look up product details",
        "pipeline_purpose": "fetch the product record",
        "nodes": [
            {"node_name": "start", "tool_name": "Start", "node_type": "Start"},
            {"node_name": "end", "tool_name": "End", "node_type": "End"},
            {"node_name": "detail_node",
             "tool_name": "RapidAPIEnv_rapi_wayfair_products_detail",
             "node_type": "ToolServer"},
        ],
        "edges": [
            {"edge_name": "s", "edge_type": "data", "from_node": "start",
             "to_node": "detail_node", "comments": ["fetch sku A"]},
            {"edge_name": "e", "edge_type": "data", "from_node": "detail_node",
             "to_node": "end", "comments": []},
        ],
    }
    note_pipeline = {
        "pipeline_name": "write the research note",
        "pipeline_purpose": "write the note file",
        "nodes": [
            {"node_name": "start", "tool_name": "Start", "node_type": "Start"},
            {"node_name": "end", "tool_name": "End", "node_type": "End"},
            {"node_name": "write_node", "tool_name": "FileSystemEnv_write_to_file",
             "node_type": "ToolServer"},
        ],
        "edges": [
            {"edge_name": "s", "edge_type": "data", "from_node": "start",
             "to_node": "write_node", "comments": ["write the note"]},
            {"edge_name": "e", "edge_type": "data", "from_node": "write_node",
             "to_node": "end", "comments": []},
        ],
    }
    plan = {"subgoals": [
        {"description": "look up product details",
         "milestones": ["tool_called:RapidAPIEnv_rapi_wayfair_products_detail"]},
        {"description": "write the research note",
         "milestones": ["file_exists:note.txt"]},
    ]}
    return [
        {"match": "Goal: assemble a product research note", "response": plan},
        {"match": "Subgoal: look up product details\nCompleted steps: 0",
         "response": step_reply("RapidAPIEnv_rapi_wayfair_products_detail", sku="A")},
        {"match": "Subgoal: look up product details\nCompleted steps: 1",
         "response": TERMINATE},
        {"match": "Subgoal: write the research note\nCompleted steps: 0",
         "response": step_reply("FileSystemEnv_write_to_file",
                                filepath="note.txt", content="product A notes")},
        {"match": "Subgoal: write the research note\nCompleted steps: 1",
         "response": TERMINATE},
        {"match": "Query: look up product details", "response": detail_pipeline},
        {"match": "Query: write the research note", "response": note_pipeline},
        # exploit-phase parameter completions
        {"match": "/ detail_node\n", "response": {"sku": "A"}},
        {"match": "/ write_node\n",
         "response": {"filepath": "note.txt", "content": "product A notes"}},
    ]


def note_task():
    return TaskSpec(
        task_id="note",
        goal="assemble a product research note",
        env_setup=[{"dataset": "products", "records": {"A": "record A"}}],
    )


def test_train_run_stores_workflow_and_pipelines():
    memory = ExperienceMemory()
    backend = scripted(note_task_rules())
    report = run_task(note_task(), memory, backend,
                      RunConfig(mode=RunMode.TRAIN))
    assert report.plan.root.status is GoalStatus.SUCCESS
    assert [o.success for o in report.outcomes] == [True, True]
    kinds = [r.kind for r in memory.records()]
    assert kinds.count(RecordKind.PIPELINE) == 2
    assert kinds.count(RecordKind.WORKFLOW) == 1
    # 1 plan + 2 react subgoals at 2 calls each + 2 consolidations
    assert report.counters["all"] == 7
    assert report.counters["by_tag"]["consolidation"] == 2


def test_a_task_whose_second_consolidation_fails_stores_no_record():
    rules = [r for r in note_task_rules() if r["match"] != "Query: write the research note"]
    rules.append({"match": "Query: write the research note", "response": "not a pipeline"})
    memory = ExperienceMemory()
    backend = scripted(rules)
    with pytest.raises(ConsolidationFailed):
        run_task(note_task(), memory, backend, RunConfig(mode=RunMode.TRAIN))
    # the first pipeline consolidated in one call, the second used every repair
    assert backend.counters.by_tag(CallTag.CONSOLIDATION) == 1 + REPAIR_LIMIT + 1
    assert len(memory) == 0


def test_exploit_rerun_uses_pipelines_and_fewer_tool_calls():
    memory = ExperienceMemory()
    backend = scripted(note_task_rules())
    train_report = run_task(note_task(), memory, backend,
                            RunConfig(mode=RunMode.TRAIN))
    backend.reset_counters()
    exploit_report = run_task(
        note_task(), memory, backend,
        RunConfig(planning_ice=True, execution_ice=True, mode=RunMode.EXPLOIT),
    )
    assert all(o.method is ExecutionMethod.PIPELINE for o in exploit_report.outcomes)
    assert all(o.success for o in exploit_report.outcomes)
    train_tools = train_report.counters["by_tag"]["tool_handling"]
    exploit_tools = exploit_report.counters["by_tag"]["tool_handling"]
    assert exploit_tools < train_tools
    assert exploit_report.counters["all"] == 3  # 1 plan + 2 parameter completions
    # exploit mode stores nothing new
    assert len(memory) == 3


def test_baseline_run_performs_zero_memory_operations():
    memory = ExperienceMemory()
    backend = scripted(note_task_rules())
    report = run_task(note_task(), memory, backend,
                      RunConfig(mode=RunMode.EXPLOIT))
    assert memory.stats.reads == 0
    assert memory.stats.writes == 0
    assert len(memory) == 0
    assert [o.success for o in report.outcomes] == [True, True]


def test_failed_leaf_is_rectified_and_added_siblings_carry_the_parent():
    rules = [
        {"match": "Goal: fragile goal plan", "response": {"subgoals": [
            {"description": "doomed step", "milestones": ["file_exists:never.txt"]},
        ]}},
        {"match": "Subgoal: doomed step\nCompleted steps: 0", "response": TERMINATE},
        {"match": "Failed subgoal: doomed step", "response": {"actions": [
            {"kind": "add", "after": "1", "subgoals": [
                {"description": "working step", "milestones": ["file_exists:done.txt"]},
            ]}]}},
        {"match": "Subgoal: working step\nCompleted steps: 0",
         "response": step_reply("FileSystemEnv_write_to_file",
                                filepath="done.txt", content="ok")},
        {"match": "Subgoal: working step\nCompleted steps: 1", "response": TERMINATE},
    ]
    memory = ExperienceMemory()
    report = run_task(
        TaskSpec(task_id="fragile", goal="fragile goal plan"),
        memory, scripted(rules), RunConfig(mode=RunMode.EXPLOIT),
    )
    assert report.rectifications == 1
    assert report.plan.find(g("1")).status is GoalStatus.FAILURE
    assert report.plan.find(g("2")).status is GoalStatus.SUCCESS
    assert report.plan.root.status is GoalStatus.SUCCESS  # bypass carried the root
    assert [o.success for o in report.outcomes] == [False, True]


def test_a_sibling_added_before_the_failed_goal_still_runs():
    rules = [
        {"match": "Goal: two step plan", "response": {"subgoals": [
            {"description": "first step", "milestones": []},
            {"description": "second step", "milestones": ["file_exists:never.txt"]},
        ]}},
        {"match": "Subgoal: first step\nCompleted steps: 0", "response": TERMINATE},
        {"match": "Subgoal: second step\nCompleted steps: 0", "response": TERMINATE},
        # the new goal 3 goes between goal 1 and the failed goal 2
        {"match": "Failed subgoal: second step", "response": {"actions": [
            {"kind": "add", "after": "1", "subgoals": [
                {"description": "inserted step", "milestones": ["file_exists:done.txt"]},
            ]}]}},
        {"match": "Subgoal: inserted step\nCompleted steps: 0",
         "response": step_reply("FileSystemEnv_write_to_file",
                                filepath="done.txt", content="ok")},
        {"match": "Subgoal: inserted step\nCompleted steps: 1", "response": TERMINATE},
    ]
    report = run_task(
        TaskSpec(task_id="insert", goal="two step plan"),
        ExperienceMemory(), scripted(rules), RunConfig(mode=RunMode.EXPLOIT),
    )
    assert [c.id.render() for c in report.plan.root.children] == ["1", "3", "2"]
    assert [o.goal_id.render() for o in report.outcomes] == ["1", "2", "3"]
    assert report.plan.find(g("3")).status is GoalStatus.SUCCESS
    assert report.plan.root.status is GoalStatus.SUCCESS
    assert report.counters["all"] == 6


def test_failed_leaf_split_children_carry_the_parent():
    rules = [
        {"match": "Goal: split goal plan", "response": {"subgoals": [
            {"description": "coarse step", "milestones": ["file_exists:out.txt"]},
            {"description": "easy step", "milestones": []},
        ]}},
        {"match": "Subgoal: coarse step\nCompleted steps: 0", "response": TERMINATE},
        {"match": "Failed subgoal: coarse step", "response": {"actions": [
            {"kind": "split", "target": "1", "subgoals": [
                {"description": "fine step", "milestones": ["file_exists:out.txt"]},
            ]}]}},
        {"match": "Subgoal: fine step\nCompleted steps: 0",
         "response": step_reply("FileSystemEnv_write_to_file",
                                filepath="out.txt", content="ok")},
        {"match": "Subgoal: fine step\nCompleted steps: 1", "response": TERMINATE},
        {"match": "Subgoal: easy step\nCompleted steps: 0", "response": TERMINATE},
    ]
    report = run_task(
        TaskSpec(task_id="split", goal="split goal plan"),
        ExperienceMemory(), scripted(rules), RunConfig(mode=RunMode.EXPLOIT),
    )
    assert report.plan.find(g("1")).status is GoalStatus.FAILURE
    assert report.plan.find(g("1-1")).status is GoalStatus.SUCCESS
    assert report.plan.root.status is GoalStatus.SUCCESS
    assert report.rectifications == 1


def test_abandoned_goal_after_two_rectifications_fails_the_root():
    rules = [
        {"match": "Goal: stubborn goal", "response": {"subgoals": [
            {"description": "impossible step", "milestones": ["file_exists:never.txt"]},
        ]}},
        {"match": "Subgoal: impossible step\nCompleted steps: 0", "response": TERMINATE},
        {"match": "Failed subgoal: impossible step", "response": {"actions": [
            {"kind": "split", "target": "1", "subgoals": [
                {"description": "impossible step", "milestones": ["file_exists:never.txt"]},
            ]}]}},
        # the split children reuse the same react rule and keep failing
        {"match": "Failed subgoal", "response": {"actions": [
            {"kind": "split", "target": "1", "subgoals": [
                {"description": "impossible step", "milestones": ["file_exists:never.txt"]},
            ]}]}},
    ]
    report = run_task(
        TaskSpec(task_id="stubborn", goal="stubborn goal"),
        ExperienceMemory(), scripted(rules), RunConfig(mode=RunMode.EXPLOIT),
    )
    assert report.plan.root.status is GoalStatus.FAILURE
    assert not any(o.success for o in report.outcomes)


def test_degenerate_single_goal_task_runs_the_root_as_leaf():
    rules = [
        {"match": "Goal: tiny", "response": {"subgoals": []}},
        {"match": "Subgoal: tiny\nCompleted steps: 0", "response": TERMINATE},
    ]
    report = run_task(
        TaskSpec(task_id="tiny", goal="tiny"),
        ExperienceMemory(), scripted(rules), RunConfig(mode=RunMode.EXPLOIT),
    )
    assert report.plan.root.is_leaf
    assert report.plan.root.status is GoalStatus.SUCCESS
    assert len(report.outcomes) == 1


def test_backend_failure_aborts_the_task():
    with pytest.raises(TaskAborted):
        run_task(
            TaskSpec(task_id="x", goal="no rules match this"),
            ExperienceMemory(), scripted([]), RunConfig(),
        )


def test_task_milestone_overrides_take_precedence():
    rules = [
        {"match": "Goal: override goal", "response": {"subgoals": [
            {"description": "the step", "milestones": ["file_exists:wrong.txt"]},
        ]}},
        {"match": "Subgoal: the step\nCompleted steps: 0",
         "response": step_reply("FileSystemEnv_write_to_file",
                                filepath="right.txt", content="x")},
        {"match": "Subgoal: the step\nCompleted steps: 1", "response": TERMINATE},
    ]
    task = TaskSpec(task_id="o", goal="override goal",
                    milestones={"the step": ["file_exists:right.txt"]})
    report = run_task(task, ExperienceMemory(), scripted(rules),
                      RunConfig(mode=RunMode.EXPLOIT))
    assert report.outcomes[0].success is True


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(pipeline_threshold=1.5)
    with pytest.raises(ValueError):
        RunConfig(max_react_steps=0)


@pytest.mark.parametrize("settings", [
    {"pipeline_threshold": "0.5"},
    {"workflow_threshold": True},
    {"pipeline_threshold": None},
    {"max_react_steps": 8.0},
    {"max_react_steps": True},
    {"max_react_steps": "3"},
], ids=["string-threshold", "bool-threshold", "null-threshold", "float-steps",
        "bool-steps", "string-steps"])
def test_run_config_refuses_a_setting_of_the_wrong_type(settings):
    with pytest.raises(ValueError):
        RunConfig(**settings)


def test_report_counters_are_per_task_deltas():
    backend = scripted(note_task_rules())
    memory = ExperienceMemory()
    first = run_task(note_task(), memory, backend, RunConfig(mode=RunMode.TRAIN))
    # stale scripted uses are irrelevant: rules are unlimited; rerun from the
    # same backend must report its own calls only
    second_memory = ExperienceMemory()
    second = run_task(note_task(), second_memory, backend,
                      RunConfig(mode=RunMode.TRAIN))
    assert first.counters == second.counters


# -- fixed per-task work, counted over runs through the scripted suite ------------


def _suite_run(monkeypatch, config, counted):
    """Train a memory on the suite's solar-markets task, then run its test task
    under ``config`` with each ``(owner, name)`` in ``counted`` wrapped to count
    its calls (a module function also in every ``ice`` module that imports
    it); return the report and the argument tuples of each name's calls."""
    scenario = ScriptedScenario.from_file(str(SUITE_DIR / "scenario.json"))
    memory = ExperienceMemory()
    run_task(TaskSpec.from_file(SUITE_DIR / "tasks" / "train_solar_markets.json"), memory,
             ScriptedBackend(scenario), RunConfig(mode=RunMode.TRAIN))
    task = TaskSpec.from_file(SUITE_DIR / "tasks" / "test_solar_markets.json")
    calls = {name: [] for _, name in counted}

    def counting(name, fn):
        def wrapper(*args):
            calls[name].append(args)
            return fn(*args)
        return wrapper

    for owner, name in counted:
        original = getattr(owner, name)
        owners = [owner] if isinstance(owner, type) else [
            module for module in (ice.env, ice.engine)
            if getattr(module, name, None) is original]
        for module in owners:
            monkeypatch.setattr(module, name, counting(name, original))
    report = run_task(task, memory, ScriptedBackend(scenario), config)
    return report, calls


SUITE_CONFIGS = {
    "standard": RunConfig(),
    "planning-execution": RunConfig(planning_ice=True, execution_ice=True),
}


@pytest.mark.parametrize("config", list(SUITE_CONFIGS.values()), ids=list(SUITE_CONFIGS))
def test_a_task_run_parses_each_milestone_text_once(monkeypatch, config):
    """The reply parser and the judging used to parse every text apart, and the
    judging again on each evaluation."""
    report, calls = _suite_run(monkeypatch, config, [(ice.env, "parse_predicate")])
    texts = Counter(args[0] for args in calls["parse_predicate"])
    assert texts and max(texts.values()) == 1
    assert set(texts) == {m for goal in report.plan.goals() for m in goal.milestones}


@pytest.mark.parametrize("config", list(SUITE_CONFIGS.values()), ids=list(SUITE_CONFIGS))
def test_a_task_run_builds_no_tool(monkeypatch, config):
    """``build_environment`` used to build the five built-in tools per task."""
    _, calls = _suite_run(monkeypatch, config, [(ice.env, "builtin_toolkit")])
    assert calls["builtin_toolkit"] == []


def test_the_plan_walk_renders_no_goal_id_when_nothing_is_rectified(monkeypatch):
    """The walk used to key the goals it had run by their rendered ids."""
    report, calls = _suite_run(monkeypatch, SUITE_CONFIGS["planning-execution"],
                               [(GoalId, "render")])
    assert report.rectifications == 0 and len(report.outcomes) == 3
    assert calls["render"] == []


def test_a_task_run_calls_neither_json_dumps_nor_json_loads(monkeypatch):
    """Every ReACT step rendered its arguments through ``json.dumps``, which
    builds an encoder per call, and every reply was parsed through
    ``json.loads``; both now go through one prebuilt encoder and decoder."""
    scenario = ScriptedScenario.from_file(str(SUITE_DIR / "scenario.json"))
    backend = ScriptedBackend(scenario)
    task = TaskSpec.from_file(SUITE_DIR / "tasks" / "test_solar_markets.json")
    # its dataset fixture read beforehand, as ``ice bench`` reads it
    task.env_setup = [with_fixture_records(entry, task.base_dir, {})
                      for entry in task.env_setup]
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("dumps", "loads"):
        monkeypatch.setattr(json, name, counting(name, getattr(json, name)))
    report = run_task(task, ExperienceMemory(), backend, RunConfig())
    assert report.counters["all"] == 22
    assert sum(len(o.trajectory.steps) for o in report.outcomes) > 0
    assert calls == {}


_RECORDS = [
    (Message, (Role.USER, "hi")),
    (CompletionRequest, ("sys", (Message(Role.USER, "hi"),), CallTag.OTHER)),
    (ReactAction, ("think", False, "FileSystemEnv_read_file", {"filepath": "a"})),
    (Step, (1, "think", "FileSystemEnv_read_file", {"filepath": "a"}, "x", StepOutcome.OK)),
    (InvocationRecord, ("FileSystemEnv_read_file", {"filepath": "a"}, StepOutcome.OK)),
]


@pytest.mark.parametrize("kind, fields", _RECORDS, ids=[kind.__name__ for kind, _ in _RECORDS])
def test_per_call_records_are_immutable_tuples_of_their_fields(kind, fields):
    record = kind(*fields)
    assert record == kind(**dict(zip(kind._fields, fields))) == fields
    for name in kind._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_each_parsed_react_action_has_its_own_arguments():
    first = parse_react_reply('{"thought": "done", "terminate": true}')
    second = parse_react_reply('{"terminate": true}')
    assert first == ReactAction("done", True, "", {})
    assert first.tool_args is not second.tool_args

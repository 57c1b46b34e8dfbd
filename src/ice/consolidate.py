"""Consolidation of finished runs into reusable experiences.

Two consolidation paths:

* Plan side: prune every failed goal out of a finished tree and linearize the
  surviving executed leaves under each successfully achieved non-leaf goal
  into an ordered workflow.
* Execution side: prompt a backend with a fixed extraction instruction plus
  two demonstrations to turn one successful trajectory into a pipeline
  automaton, then validate the reply and re-prompt with the violation list
  until it passes or the repair budget runs out.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Any

from .errors import ConsolidationFailed, PipelineSchemaError, UnfinalizedTree
from .llm import CallTag, LlmBackend, complete_parsed
from .pipeline import (
    NodeType,
    PipelineAutomaton,
    PipelineEdge,
    PipelineNode,
    dumps_pipeline,
    pipeline_from_dict,
    validate_document,  # noqa: F401  perfbench/tracer.py wraps this name
    validate_pipeline,
)
from .plan import Goal, GoalId, GoalStatus, PlanTree
from .trajectory import Trajectory, TrajectoryStatus

__all__ = [
    "WorkflowEntry",
    "Workflow",
    "consolidate_workflows",
    "consolidate_pipeline",
    "workflow_to_dict",
    "consolidation_system_prompt",
    "render_tool_records",
    "extract_json_document",
    "DEMONSTRATIONS",
]


# -- workflows ---------------------------------------------------------------


@dataclass(frozen=True)
class WorkflowEntry:
    goal_id: GoalId
    description: str
    milestones: tuple[str, ...] = ()


@dataclass
class Workflow:
    """Ordered list of the executed leaves that carried a goal to success."""

    source_goal: GoalId
    source_description: str
    entries: list[WorkflowEntry] = field(default_factory=list)


def _entry_leaves(goal: Goal) -> list[Goal]:
    """The successful leaves under ``goal``, left to right.

    Pruning deletes failed nodes and splices their surviving children into
    the parent's position, so these are exactly the executed leaves of the
    failure-pruned subtree, in its order.
    """
    if not goal.children:
        return [goal] if goal.status is GoalStatus.SUCCESS else []
    return [leaf for child in goal.children for leaf in _entry_leaves(child)]


def consolidate_workflows(tree: PlanTree) -> list[Workflow]:
    """One workflow per successfully achieved non-leaf goal, in tree order."""
    if not tree.is_finalized():
        raise UnfinalizedTree("the tree still has in-progress goals")
    return [
        Workflow(
            source_goal=goal.id,
            source_description=goal.description,
            entries=[
                WorkflowEntry(
                    goal_id=leaf.id,
                    description=leaf.description,
                    milestones=tuple(leaf.milestones),
                )
                for leaf in _entry_leaves(goal)
            ],
        )
        for goal in tree.goals()
        if not goal.is_leaf and goal.status is GoalStatus.SUCCESS
    ]


def workflow_to_dict(workflow: Workflow) -> dict[str, Any]:
    return {
        "source_goal": workflow.source_goal.render(),
        "source_description": workflow.source_description,
        "entries": [
            {
                "id": e.goal_id.render(),
                "description": e.description,
                "milestones": list(e.milestones),
            }
            for e in workflow.entries
        ],
    }


# -- pipeline consolidation -----------------------------------------------------

_SYSTEM_TEMPLATE = """You are an experienced pipeline extractor who can extract rules and experiences given an execution trajectory.
You are given an execution trajectory with tool calls, which contain the tool name and tool input arguments. You need to generate some information describing what nodes and edges this pipeline contains:
1. some natural language comments and conditions explaining how the current tool call moves to the next tool call.
2. edges between tool calls
3. nodes for every tool call

Here are two examples:
{examples}

Note that:
- If one tool call appears more than once in the tool records, try to i) filter them and leave only one tool call node if those tool calls are useless repeated trials, ii) add switch logic as the example does, which means there are multiple out edges from the tool node.
- Always add the start node and end node in the nodes, and start edge and end edge in the edges.
- Try to simplify the pipeline. Avoid including the wrong tool call trials in the nodes and edges, instead add comments to the edges to state what should be noticed to avoid error happening or add error handle logic such as switch logic.
- Do not miss any properties in nodes and edges. Node name, tool name, and node type in nodes. Edge name, edge type, from node to node, and comments in edges."""


@dataclass(frozen=True)
class ConsolidationDemo:
    """A worked example shown to the backend: query, raw tool records, and
    the pipeline they should become."""

    query: str
    tool_records: tuple[tuple[str, dict[str, Any], str], ...]
    pipeline: PipelineAutomaton


def _linear_demo() -> ConsolidationDemo:
    detail = "RapidAPIEnv_rapi_wayfair_products_detail"
    reviews = "RapidAPIEnv_rapi_wayfair_reviews_list"
    write = "FileSystemEnv_write_to_file"
    pipeline = PipelineAutomaton(
        pipeline_name="product review fetch and write",
        pipeline_purpose="Fetch overview information and details information of a given product.",
        nodes=[
            PipelineNode("start", "Start", NodeType.START),
            PipelineNode("end", "End", NodeType.END),
            PipelineNode("product_detail_1", detail, NodeType.TOOL_SERVER),
            PipelineNode("review_list", reviews, NodeType.TOOL_SERVER),
            PipelineNode("product_detail_2", detail, NodeType.TOOL_SERVER),
            PipelineNode("write_file", write, NodeType.TOOL_SERVER),
        ],
        edges=[
            PipelineEdge(
                "start_product_detail", "data", "start", "product_detail_1",
                (f"The first tool, {detail}, is used to fetch the product details "
                 "for the given SKU.",),
            ),
            PipelineEdge(
                "product_detail_review_list", "data", "product_detail_1", "review_list",
                (f"The second tool, {reviews}, is used to fetch the reviews for the "
                 "same SKU.",),
            ),
            PipelineEdge(
                "review_list_product_detail_2", "data", "review_list", "product_detail_2",
                (f"The third tool, {detail}, is used to fetch the reviews for the "
                 "SKU W003247136.",),
            ),
            PipelineEdge(
                "product_detail_2_write_file", "data", "product_detail_2", "write_file",
                (f"The fourth tool, {write}, is used to write the fetched product "
                 "details and reviews into a file named 'blog_post_material.txt'.",),
            ),
            PipelineEdge("end_pipeline", "data", "write_file", "end", ()),
        ],
    )
    return ConsolidationDemo(
        query="Fetch the information of a product with sku W003247135 and W003247136.",
        tool_records=(
            (detail, {"sku": "W003247135"}, "response1"),
            (reviews, {"sku": "W003247135"}, "response2"),
            (detail, {"sku": "W003247136"}, "response3"),
            (write,
             {"filepath": "blog_post_material.txt", "content": "response1 + response2"},
             "response1 + response2 + response"),
        ),
        pipeline=pipeline,
    )


def _switch_demo() -> ConsolidationDemo:
    detail = "RapidAPIEnv_rapi_wayfair_products_detail"
    reviews = "RapidAPIEnv_rapi_wayfair_reviews_list"
    write = "FileSystemEnv_write_to_file"
    fail_output = (
        "fail. Can not find product W003247135. "
        "Supported product: W003247136, W003247137, ..."
    )
    suggestions = (
        "Reason: The current available product ids do not include sku W003247135.\n"
        "Suggestions: However, a similar product W003247136 can be obtained."
    )
    pipeline = PipelineAutomaton(
        pipeline_name="product review fetch and write",
        pipeline_purpose="Fetch overview information and details information of a given product.",
        nodes=[
            PipelineNode("start", "Start", NodeType.START),
            PipelineNode("end", "End", NodeType.END),
            PipelineNode("product_detail", detail, NodeType.TOOL_SERVER),
            PipelineNode("write_fail_reason_and_suggestions", write, NodeType.TOOL_SERVER),
            PipelineNode("product_detail_retry", detail, NodeType.TOOL_SERVER),
            PipelineNode("review_list", reviews, NodeType.TOOL_SERVER),
            PipelineNode("write_obtained_information", write, NodeType.TOOL_SERVER),
        ],
        edges=[
            PipelineEdge(
                "start_product_detail", "data", "start", "product_detail",
                (f"The first tool, {detail}, is used to fetch the product details "
                 "for the given SKU.",),
            ),
            PipelineEdge(
                "product_detail_write_fail_reason_and_suggestions", "data",
                "product_detail", "write_fail_reason_and_suggestions",
                ("Here is a switch logic: If the response from node product_detail "
                 f"is failed, which means the {detail} tool do not support the "
                 f"product SKU given in the user query, {write}, is used to write "
                 "the failed reason and suggestions into a file named "
                 "'fail_reason_and_suggestions.txt'.",),
            ),
            PipelineEdge(
                "write_fail_reason_and_suggestions_product_detail_retry", "data",
                "write_fail_reason_and_suggestions", "product_detail_retry",
                (f"Retry the {detail} tool with suggestions written before.",),
            ),
            PipelineEdge(
                "product_detail_retry_review_list", "data",
                "product_detail_retry", "review_list",
                (f"Use the response from node product_detail_retry to review_list, "
                 f"the {reviews} tool, to fetch the reviews for the suggested SKU.",),
            ),
            PipelineEdge(
                "product_detail_review_list", "data", "product_detail", "review_list",
                ("product_detail node appears the second time here, so here is "
                 "another possible option for the switch logic: If the response "
                 f"from node product_detail is successful, then {reviews}, is used "
                 "directly to fetch the reviews for the same SKU.",),
            ),
            PipelineEdge(
                "review_list_write_obtained_information", "data",
                "review_list", "write_obtained_information",
                (f"The next tool, {write}, is used to write the fetched product "
                 "details and reviews into a file named 'blog_post_material.txt'.",),
            ),
            PipelineEdge("end_pipeline", "data", "write_obtained_information", "end", ()),
        ],
    )
    return ConsolidationDemo(
        query="Fetch the information of a product with sku W003247135.",
        tool_records=(
            (detail, {"sku": "W003247135"}, fail_output),
            (write,
             {"filepath": "fail_reason_and_suggestions.txt", "content": suggestions},
             suggestions),
            (detail, {"sku": "W003247136"}, "response 1"),
            (reviews, {"sku": "W003247136"}, "response 2"),
            (write,
             {"filepath": "blog_post_material.txt", "content": "response1 + response2"},
             "response1 + response2"),
        ),
        pipeline=pipeline,
    )


DEMONSTRATIONS: tuple[ConsolidationDemo, ConsolidationDemo] = (
    _linear_demo(),
    _switch_demo(),
)


def render_tool_records(records: tuple[tuple[str, dict[str, Any], str], ...] | list) -> str:
    blocks = []
    for tool_name, tool_args, tool_output in records:
        blocks.append(
            f"Tool Name: {tool_name}\n"
            f"Tool Arguments: {json.dumps(tool_args, ensure_ascii=False)}\n"
            f'Tool Output: "{tool_output}"'
        )
    return "\n\n".join(blocks)


def _render_demo(index: int, demo: ConsolidationDemo) -> str:
    return (
        f"Example {index}:\n"
        f"Query: {demo.query}\n\n"
        f"Execution Trajectory:\n\n"
        f"{render_tool_records(demo.tool_records)}\n\n"
        f"Pipeline:\n{dumps_pipeline(demo.pipeline)}"
    )


@functools.cache
def consolidation_system_prompt() -> str:
    """The fixed system prompt with both demonstrations, rendered once."""
    examples = "\n".join(_render_demo(i, d) for i, d in enumerate(DEMONSTRATIONS, 1))
    # str.replace, not str.format: the template body is full of JSON braces
    return _SYSTEM_TEMPLATE.replace("{examples}", examples)


def consolidation_user_text(traj: Trajectory, goal: Goal) -> str:
    """The user message asking for one trajectory's pipeline."""
    records = [(s.tool_name, s.tool_args, s.tool_output) for s in traj.steps]
    return (
        f"Query: {goal.description}\n\n"
        f"Execution Trajectory:\n\n{render_tool_records(records)}\n\n"
        "Pipeline:"
    )


def extract_json_document(text: str) -> dict[str, Any]:
    """Pull one JSON object out of a reply.

    Accepts a bare object, an object wrapped in code fences or prose, and the
    demonstration style where the outer braces are omitted.
    """
    stripped = text.strip()
    if stripped.startswith("```"):
        stripped = stripped.strip("`")
        if stripped.startswith("json"):
            stripped = stripped[4:]
        stripped = stripped.strip()
    for candidate in (stripped, "{" + stripped + "}"):
        try:
            doc = json.loads(candidate)
        except (json.JSONDecodeError, RecursionError):
            continue
        if isinstance(doc, dict):
            return doc
    decoder = json.JSONDecoder()
    start = stripped.find("{")
    while start != -1:
        try:
            doc, _ = decoder.raw_decode(stripped[start:])
        except (json.JSONDecodeError, RecursionError):
            start = stripped.find("{", start + 1)
            continue
        if isinstance(doc, dict):
            return doc
        start = stripped.find("{", start + 1)
    raise ValueError("no JSON object found in the reply")


def consolidate_pipeline(
    traj: Trajectory,
    goal: Goal,
    backend: LlmBackend,
) -> PipelineAutomaton:
    """Turn one successful trajectory into a valid pipeline automaton.

    Invalid replies are fed back with the full violation list, up to
    ``ice.llm.REPAIR_LIMIT`` re-prompts. A pipeline that names tools absent
    from the trajectory is treated as invalid too, so consolidation can never
    invent tool names.
    """
    if traj.final_status is not TrajectoryStatus.SUCCESS:
        raise ValueError("only successful trajectories are consolidated")
    known_tools = {s.tool_name for s in traj.steps}

    def parse(reply: str) -> PipelineAutomaton:
        try:
            doc = extract_json_document(reply)
        except ValueError as exc:
            raise ValueError(f"reply is not a JSON document: {exc}") from exc
        # one schema check and one parse per reply: the schema error carries
        # every schema violation, the same list validate_document gives
        try:
            automaton = pipeline_from_dict(doc)
        except PipelineSchemaError as exc:
            problems = [v.render() for v in exc.violations]
        else:
            problems = [v.render() for v in validate_pipeline(automaton)] or [
                f"unknown_tool_name [{node.node_name}]: tool "
                f"{node.tool_name!r} never appears in the trajectory"
                for node in automaton.nodes
                if node.node_type is NodeType.TOOL_SERVER
                and node.tool_name not in known_tools
            ]
        if problems:
            raise ValueError("\n- ".join(problems))
        return automaton

    def retry(problems: ValueError) -> str:
        return (f"The pipeline document has these problems:\n- {problems}\n"
                "Reply again with one corrected JSON pipeline document.")

    return complete_parsed(backend, consolidation_system_prompt(),
                           consolidation_user_text(traj, goal), CallTag.CONSOLIDATION,
                           parse, ConsolidationFailed, retry)

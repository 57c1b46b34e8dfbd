"""Finite-automaton pipelines of tool invocations.

A pipeline is a directed acyclic graph: exactly one Start node, exactly one
End node, and tool-server nodes in between. Edges carry free-text comments
that suggest how to move from one invocation to the next; a node with several
outgoing edges is a switch point. The JSON wire format is fixed:

    {
      "pipeline_name": ..., "pipeline_purpose": ...,
      "nodes": [{"node_name", "tool_name", "node_type"}],
      "edges": [{"edge_name", "edge_type", "from_node", "to_node", "comments"}]
    }

Serialization is canonical (stable key order, two-space indent, trailing
newline) so documents round-trip byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from typing import Any

from .errors import PipelineSchemaError

__all__ = [
    "NodeType",
    "PipelineNode",
    "PipelineEdge",
    "PipelineAutomaton",
    "Violation",
    "validate_pipeline",
    "validate_document",
    "pipeline_from_dict",
    "pipeline_to_dict",
    "dumps_pipeline",
]


class NodeType(str, Enum):
    START = "Start"
    END = "End"
    TOOL_SERVER = "ToolServer"


@dataclass(frozen=True)
class PipelineNode:
    node_name: str
    tool_name: str
    node_type: NodeType


@dataclass(frozen=True)
class PipelineEdge:
    edge_name: str
    edge_type: str
    from_node: str
    to_node: str
    comments: tuple[str, ...] = ()


@dataclass
class PipelineAutomaton:
    pipeline_name: str
    pipeline_purpose: str
    nodes: list[PipelineNode] = field(default_factory=list)
    edges: list[PipelineEdge] = field(default_factory=list)

    @cached_property
    def walk_table(self) -> dict[str, tuple[PipelineNode, list[PipelineEdge]]]:
        """Each node by name, with its out-edges in list order. Built on the first
        walk and kept: an automaton is not changed once it is walked."""
        table = {node.node_name: (node, []) for node in self.nodes}
        for edge in self.edges:
            table[edge.from_node][1].append(edge)
        return table

    def outgoing(self, node_name: str) -> list[PipelineEdge]:
        return [e for e in self.edges if e.from_node == node_name]

    def incoming(self, node_name: str) -> list[PipelineEdge]:
        return [e for e in self.edges if e.to_node == node_name]

    def start_node(self) -> PipelineNode:
        return next(n for n in self.nodes if n.node_type is NodeType.START)


@dataclass(frozen=True)
class Violation:
    """One broken structural rule. Violations are data, not exceptions."""

    rule: str
    subject: str
    detail: str

    def render(self) -> str:
        return f"{self.rule} [{self.subject}]: {self.detail}"


def validate_pipeline(pipeline: PipelineAutomaton) -> list[Violation]:
    """Check every structural invariant; an empty list means valid.

    Rules: unique node names, exactly one Start and one End, no dangling edge
    endpoints, Start takes no in-edges, End emits no out-edges, every
    tool-server node lies on a Start-to-End path, End is reachable from
    Start, and the graph is acyclic.
    """
    violations: list[Violation] = []

    seen: set[str] = set()
    for node in pipeline.nodes:
        if node.node_name in seen:
            violations.append(
                Violation("duplicate_node_name", node.node_name,
                          "node_name appears more than once")
            )
        seen.add(node.node_name)

    starts = [n for n in pipeline.nodes if n.node_type is NodeType.START]
    ends = [n for n in pipeline.nodes if n.node_type is NodeType.END]
    if not starts:
        violations.append(Violation("missing_start", pipeline.pipeline_name,
                                    "pipeline has no Start node"))
    elif len(starts) > 1:
        violations.append(Violation("multiple_start", pipeline.pipeline_name,
                                    f"pipeline has {len(starts)} Start nodes"))
    if not ends:
        violations.append(Violation("missing_end", pipeline.pipeline_name,
                                    "pipeline has no End node"))
    elif len(ends) > 1:
        violations.append(Violation("multiple_end", pipeline.pipeline_name,
                                    f"pipeline has {len(ends)} End nodes"))

    names = {n.node_name for n in pipeline.nodes}
    for edge in pipeline.edges:
        for endpoint in (edge.from_node, edge.to_node):
            if endpoint not in names:
                violations.append(
                    Violation("dangling_edge_endpoint", edge.edge_name,
                              f"references missing node {endpoint!r}")
                )

    for start in starts:
        if pipeline.incoming(start.node_name):
            violations.append(
                Violation("start_has_in_edges", start.node_name,
                          "the Start node must have in-degree 0")
            )
    for end in ends:
        if pipeline.outgoing(end.node_name):
            violations.append(
                Violation("end_has_out_edges", end.node_name,
                          "the End node must have out-degree 0")
            )

    # Reachability over well-formed edges only; dangling ones were flagged above.
    forward = _reachable(pipeline, {s.node_name for s in starts}, reverse=False)
    backward = _reachable(pipeline, {e.node_name for e in ends}, reverse=True)
    for node in pipeline.nodes:
        if node.node_type is NodeType.TOOL_SERVER and not (
            node.node_name in forward and node.node_name in backward
        ):
            violations.append(
                Violation("unreachable_tool_node", node.node_name,
                          "tool node lies on no Start-to-End path")
            )
    if starts and ends and not any(e.node_name in forward for e in ends):
        violations.append(
            Violation("end_unreachable", pipeline.pipeline_name,
                      "no path connects Start to End")
        )

    cycle_node = _find_cycle(pipeline)
    if cycle_node is not None:
        violations.append(
            Violation("cycle", cycle_node,
                      "pipelines must be acyclic; found a cycle through this node")
        )

    return violations


def _reachable(pipeline: PipelineAutomaton, seeds: set[str], reverse: bool) -> set[str]:
    names = {n.node_name for n in pipeline.nodes}
    adjacency: dict[str, list[str]] = {name: [] for name in names}
    for edge in pipeline.edges:
        if edge.from_node in names and edge.to_node in names:
            if reverse:
                adjacency[edge.to_node].append(edge.from_node)
            else:
                adjacency[edge.from_node].append(edge.to_node)
    seen = set(seeds) & names
    frontier = list(seen)
    while frontier:
        current = frontier.pop()
        for nxt in adjacency[current]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _find_cycle(pipeline: PipelineAutomaton) -> str | None:
    """Return one node name on a cycle, or None when the graph is acyclic.

    graphlib searches from each node in list order and follows edges in list
    order, so the named node, which repair prompts quote, depends only on
    the document."""
    sorter: TopologicalSorter[str] = TopologicalSorter()
    for node in pipeline.nodes:
        sorter.add(node.node_name)
    names = {n.node_name for n in pipeline.nodes}
    for edge in pipeline.edges:
        if edge.from_node in names and edge.to_node in names:
            sorter.add(edge.to_node, edge.from_node)
    try:
        sorter.prepare()
    except CycleError as exc:
        return exc.args[1][0]
    return None


# -- wire format -----------------------------------------------------------

_TOP_KEYS = ("pipeline_name", "pipeline_purpose", "nodes", "edges")
_NODE_KEYS = ("node_name", "tool_name", "node_type")
_EDGE_KEYS = ("edge_name", "edge_type", "from_node", "to_node", "comments")
_NODE_TYPES = frozenset(t.value for t in NodeType)


def _schema_problems(doc: Any) -> list[Violation]:
    problems: list[Violation] = []
    if not isinstance(doc, dict):
        return [Violation("schema", "document", "top level must be a JSON object")]
    for key in _TOP_KEYS:
        if key not in doc:
            problems.append(Violation("schema", key, "missing top-level property"))
    for key in doc:
        if key not in _TOP_KEYS:
            problems.append(Violation("schema", key, "unknown top-level property"))
    for key in ("pipeline_name", "pipeline_purpose"):
        if key in doc and not isinstance(doc[key], str):
            problems.append(Violation("schema", key, "must be a string"))

    for section, keys, checks in (
        ("nodes", _NODE_KEYS, {"node_name": str, "tool_name": str, "node_type": str}),
        ("edges", _EDGE_KEYS, {"edge_name": str, "edge_type": str,
                               "from_node": str, "to_node": str, "comments": list}),
    ):
        items = doc.get(section)
        if items is None:
            continue
        if not isinstance(items, list):
            problems.append(Violation("schema", section, "must be a list"))
            continue
        for i, item in enumerate(items):
            where = f"{section}[{i}]"
            if not isinstance(item, dict):
                problems.append(Violation("schema", where, "must be an object"))
                continue
            label = item.get(keys[0]) if isinstance(item.get(keys[0]), str) else where
            for key in keys:
                if key not in item:
                    problems.append(
                        Violation("schema", f"{where}({label}).{key}", "missing property")
                    )
                elif not isinstance(item[key], checks[key]):
                    problems.append(
                        Violation("schema", f"{where}({label}).{key}",
                                  f"must be a {checks[key].__name__}")
                    )
            for key in item:
                if key not in keys:
                    problems.append(
                        Violation("schema", f"{where}({label}).{key}", "unknown property")
                    )
            if isinstance(item.get("comments"), list) and any(
                not isinstance(c, str) for c in item["comments"]
            ):
                problems.append(
                    Violation("schema", f"{where}({label}).comments",
                              "comments must all be strings")
                )
            if section == "nodes" and isinstance(item.get("node_type"), str):
                if item["node_type"] not in _NODE_TYPES:
                    problems.append(
                        Violation("schema", f"{where}({label}).node_type",
                                  f"unknown node_type {item['node_type']!r}")
                    )
    return problems


def pipeline_from_dict(doc: dict[str, Any]) -> PipelineAutomaton:
    """Parse a wire document; raises PipelineSchemaError listing every problem."""
    problems = _schema_problems(doc)
    if problems:
        raise PipelineSchemaError("; ".join(v.render() for v in problems),
                                  tuple(problems))
    return PipelineAutomaton(
        pipeline_name=doc["pipeline_name"],
        pipeline_purpose=doc["pipeline_purpose"],
        nodes=[
            PipelineNode(n["node_name"], n["tool_name"], NodeType(n["node_type"]))
            for n in doc["nodes"]
        ],
        edges=[
            PipelineEdge(e["edge_name"], e["edge_type"], e["from_node"],
                         e["to_node"], tuple(e["comments"]))
            for e in doc["edges"]
        ],
    )


def pipeline_to_dict(pipeline: PipelineAutomaton) -> dict[str, Any]:
    return {
        "pipeline_name": pipeline.pipeline_name,
        "pipeline_purpose": pipeline.pipeline_purpose,
        "nodes": [
            {"node_name": n.node_name, "tool_name": n.tool_name,
             "node_type": n.node_type.value}
            for n in pipeline.nodes
        ],
        "edges": [
            {"edge_name": e.edge_name, "edge_type": e.edge_type,
             "from_node": e.from_node, "to_node": e.to_node,
             "comments": list(e.comments)}
            for e in pipeline.edges
        ],
    }


def validate_document(doc: Any) -> list[Violation]:
    """Schema problems first; structural rules once the document parses."""
    try:
        pipeline = pipeline_from_dict(doc)
    except PipelineSchemaError as exc:
        return list(exc.violations)
    return validate_pipeline(pipeline)


def dumps_pipeline(pipeline: PipelineAutomaton) -> str:
    return json.dumps(pipeline_to_dict(pipeline), indent=2, ensure_ascii=False) + "\n"

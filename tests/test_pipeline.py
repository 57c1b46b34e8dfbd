from __future__ import annotations

import copy
import json
import random

import pytest

from conftest import DATA_DIR
from ice.errors import PipelineSchemaError
from ice.pipeline import (
    NodeType,
    PipelineAutomaton,
    PipelineEdge,
    PipelineNode,
    dumps_pipeline,
    pipeline_from_dict,
    pipeline_to_dict,
    validate_document,
    validate_pipeline,
)

GOLDENS = [DATA_DIR / "pipelines" / "example_1.json",
           DATA_DIR / "pipelines" / "example_2.json"]


def load_golden(path):
    return json.loads(path.read_text(encoding="utf-8"))


# -- golden documents -------------------------------------------------------------


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.stem)
def test_golden_documents_validate_clean(path):
    doc = load_golden(path)
    assert validate_document(doc) == []


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.stem)
def test_golden_documents_round_trip_bit_identically(path):
    original = path.read_text(encoding="utf-8")
    assert dumps_pipeline(pipeline_from_dict(json.loads(original))) == original


def test_linear_golden_shape():
    pipeline = pipeline_from_dict(load_golden(GOLDENS[0]))
    assert len(pipeline.nodes) == 6
    assert len(pipeline.edges) == 5
    tool_nodes = [n for n in pipeline.nodes if n.node_type is NodeType.TOOL_SERVER]
    assert len(tool_nodes) == 4
    # strictly linear: every node has out-degree <= 1
    assert all(len(pipeline.outgoing(n.node_name)) <= 1 for n in pipeline.nodes)


def test_switch_golden_has_out_degree_two():
    pipeline = pipeline_from_dict(load_golden(GOLDENS[1]))
    assert len(pipeline.nodes) == 7
    assert len(pipeline.edges) == 7
    assert len(pipeline.outgoing("product_detail")) == 2


# -- structural rules ---------------------------------------------------------------


def minimal_pipeline() -> PipelineAutomaton:
    return PipelineAutomaton(
        pipeline_name="demo",
        pipeline_purpose="demo",
        nodes=[
            PipelineNode("start", "Start", NodeType.START),
            PipelineNode("end", "End", NodeType.END),
            PipelineNode("work", "FileSystemEnv_write_to_file", NodeType.TOOL_SERVER),
        ],
        edges=[
            PipelineEdge("go", "data", "start", "work", ("write",)),
            PipelineEdge("stop", "data", "work", "end", ()),
        ],
    )


def test_minimal_pipeline_is_valid():
    assert validate_pipeline(minimal_pipeline()) == []


def test_missing_end_is_one_violation():
    pipeline = minimal_pipeline()
    pipeline.nodes = [n for n in pipeline.nodes if n.node_type is not NodeType.END]
    pipeline.edges = [e for e in pipeline.edges if e.to_node != "end"]
    rules = [v.rule for v in validate_pipeline(pipeline)]
    assert "missing_end" in rules


def test_dangling_edge_and_duplicate_name_are_flagged():
    pipeline = minimal_pipeline()
    pipeline.edges.append(PipelineEdge("bad", "data", "work", "ghost", ()))
    pipeline.nodes.append(
        PipelineNode("work", "FileSystemEnv_read_file", NodeType.TOOL_SERVER)
    )
    rules = {v.rule for v in validate_pipeline(pipeline)}
    assert "dangling_edge_endpoint" in rules
    assert "duplicate_node_name" in rules


def test_start_in_edges_and_end_out_edges_are_flagged():
    pipeline = minimal_pipeline()
    pipeline.edges.append(PipelineEdge("back", "data", "end", "start", ()))
    rules = {v.rule for v in validate_pipeline(pipeline)}
    assert "start_has_in_edges" in rules
    assert "end_has_out_edges" in rules


def test_unreachable_tool_node_is_flagged():
    pipeline = minimal_pipeline()
    pipeline.nodes.append(
        PipelineNode("orphan", "FileSystemEnv_read_file", NodeType.TOOL_SERVER)
    )
    violations = validate_pipeline(pipeline)
    assert any(
        v.rule == "unreachable_tool_node" and v.subject == "orphan" for v in violations
    )


def test_cycle_is_flagged():
    pipeline = minimal_pipeline()
    pipeline.nodes.append(
        PipelineNode("loop", "FileSystemEnv_read_file", NodeType.TOOL_SERVER)
    )
    pipeline.edges.append(PipelineEdge("fwd", "data", "work", "loop", ()))
    pipeline.edges.append(PipelineEdge("bwd", "data", "loop", "work", ()))
    assert any(v.rule == "cycle" for v in validate_pipeline(pipeline))


@pytest.mark.parametrize("names, edges, node", [
    (["start", "work", "end"], [("start", "work"), ("work", "work"), ("work", "end")],
     "work"),
    (["start", "a", "b", "c", "d", "end"],
     [("start", "c"), ("c", "d"), ("d", "c"), ("start", "a"), ("a", "b"), ("b", "a"),
      ("a", "end")],
     "c"),
    (["start", "end", "r", "p", "q"], [("start", "end"), ("r", "q"), ("q", "p"), ("p", "q")],
     "q"),
], ids=["self-loop", "two-disjoint-cycles", "cycle-reached-from-a-later-node"])
def test_the_cycle_violation_names_the_node_the_search_meets_again(names, edges, node):
    # the search starts from each node in list order and follows edges in list
    # order; the named node is the first one it reaches twice on one path
    types = {"start": NodeType.START, "end": NodeType.END}
    pipeline = PipelineAutomaton(
        pipeline_name="cyclic",
        pipeline_purpose="demo",
        nodes=[PipelineNode(n, n, types.get(n, NodeType.TOOL_SERVER)) for n in names],
        edges=[PipelineEdge(f"{a}-{b}", "data", a, b, ()) for a, b in edges],
    )
    assert [v.render() for v in validate_pipeline(pipeline) if v.rule == "cycle"] == [
        f"cycle [{node}]: pipelines must be acyclic; found a cycle through this node"]


def test_start_to_end_path_required():
    pipeline = PipelineAutomaton(
        pipeline_name="disconnected",
        pipeline_purpose="demo",
        nodes=[
            PipelineNode("start", "Start", NodeType.START),
            PipelineNode("end", "End", NodeType.END),
        ],
        edges=[],
    )
    assert any(v.rule == "end_unreachable" for v in validate_pipeline(pipeline))


def test_bare_start_end_edge_is_valid():
    pipeline = PipelineAutomaton(
        pipeline_name="empty",
        pipeline_purpose="nothing to do",
        nodes=[
            PipelineNode("start", "Start", NodeType.START),
            PipelineNode("end", "End", NodeType.END),
        ],
        edges=[PipelineEdge("through", "data", "start", "end", ())],
    )
    assert validate_pipeline(pipeline) == []


def test_schema_error_lists_missing_fields():
    doc = load_golden(GOLDENS[0])
    del doc["nodes"][2]["tool_name"]
    with pytest.raises(PipelineSchemaError) as exc:
        pipeline_from_dict(doc)
    assert "tool_name" in str(exc.value)


# -- mutation testing ----------------------------------------------------------------


def _mutations(doc: dict, rng: random.Random, count: int):
    """Yield (mutated document, expected subject fragment) pairs; every
    mutation breaks exactly one aspect of the document."""
    for _ in range(count):
        mutated = copy.deepcopy(doc)
        choice = rng.randrange(6)
        if choice == 0:  # drop a required field from one node
            i = rng.randrange(len(mutated["nodes"]))
            name = mutated["nodes"][i]["node_name"]
            key = rng.choice(["node_name", "tool_name", "node_type"])
            del mutated["nodes"][i][key]
            yield mutated, key
        elif choice == 1:  # drop a required field from one edge
            i = rng.randrange(len(mutated["edges"]))
            key = rng.choice(["edge_name", "edge_type", "from_node", "to_node", "comments"])
            del mutated["edges"][i][key]
            yield mutated, key
        elif choice == 2:  # point an edge at a ghost node
            i = rng.randrange(len(mutated["edges"]))
            endpoint = rng.choice(["from_node", "to_node"])
            mutated["edges"][i][endpoint] = "no_such_node"
            yield mutated, mutated["edges"][i]["edge_name"]
        elif choice == 3:  # drop an entire tool node, stranding its edges
            tool_nodes = [i for i, n in enumerate(mutated["nodes"])
                          if n["node_type"] == "ToolServer"]
            i = rng.choice(tool_nodes)
            name = mutated["nodes"][i]["node_name"]
            del mutated["nodes"][i]
            yield mutated, name
        elif choice == 4:  # duplicate a node name
            tool_nodes = [n for n in mutated["nodes"] if n["node_type"] == "ToolServer"]
            source, victim = rng.sample(range(len(mutated["nodes"])), 2)
            name = mutated["nodes"][source]["node_name"]
            mutated["nodes"][victim] = dict(mutated["nodes"][victim], node_name=name)
            yield mutated, name
        else:  # corrupt the node_type enum
            i = rng.randrange(len(mutated["nodes"]))
            mutated["nodes"][i]["node_type"] = "Middle"
            yield mutated, "node_type"


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.stem)
def test_fifty_single_field_mutations_localized(path):
    doc = load_golden(path)
    rng = random.Random(1234)
    produced = 0
    for mutated, fragment in _mutations(doc, rng, 50):
        violations = validate_document(mutated)
        assert violations, f"mutation near {fragment!r} produced no violation"
        hits = [v for v in violations if fragment in v.subject or fragment in v.detail]
        assert hits, f"no violation mentions {fragment!r}: {violations}"
        produced += 1
    assert produced == 50


def test_mutations_match_reachability_oracle():
    """Dropping one node must strand exactly the structure a brute-force
    path enumeration says it strands."""
    doc = load_golden(GOLDENS[1])
    base = pipeline_from_dict(doc)

    def all_paths(pipeline):
        start = pipeline.start_node().node_name
        end = next(n.node_name for n in pipeline.nodes if n.node_type is NodeType.END)
        paths, stack = [], [(start, (start,))]
        while stack:
            node, path = stack.pop()
            if node == end:
                paths.append(path)
                continue
            for edge in pipeline.outgoing(node):
                if edge.to_node not in path:  # acyclic anyway
                    stack.append((edge.to_node, path + (edge.to_node,)))
        return paths

    for drop in ("write_fail_reason_and_suggestions", "product_detail_retry"):
        mutated = copy.deepcopy(doc)
        mutated["nodes"] = [n for n in mutated["nodes"] if n["node_name"] != drop]
        mutated["edges"] = [
            e for e in mutated["edges"]
            if drop not in (e["from_node"], e["to_node"])
        ]
        survivor = pipeline_from_dict(mutated)
        on_paths = {node for path in all_paths(survivor) for node in path}
        expected_unreachable = {
            n.node_name for n in survivor.nodes
            if n.node_type is NodeType.TOOL_SERVER and n.node_name not in on_paths
        }
        flagged = {
            v.subject for v in validate_pipeline(survivor)
            if v.rule == "unreachable_tool_node"
        }
        assert flagged == expected_unreachable


def test_serialization_field_order_is_schema_order():
    doc = pipeline_to_dict(minimal_pipeline())
    assert list(doc) == ["pipeline_name", "pipeline_purpose", "nodes", "edges"]
    assert list(doc["nodes"][0]) == ["node_name", "tool_name", "node_type"]
    assert list(doc["edges"][0]) == ["edge_name", "edge_type", "from_node",
                                     "to_node", "comments"]

"""Deterministic generator of the checked-in benchmark suite.

Five research-brief scenarios, each present twice: a training task (the goal
as first seen) and a test task (a fresh variant of the same goal). Under a
plain planner the tasks start from a two-step plan whose second step fails
and gets rectified into the two steps that actually work; that detour is
exactly what consolidation distills away, so the measured arms show the
plain/exploited contrast with hand-countable call totals:

* standard arm, per task:  1 plan + 6 + 5 react calls, 1 rectify, 4 + 5
  react calls for the rectified steps             -> 22 calls, 3/4 leaves
* exploited arm, tasks 1-4: 1 plan + 3 pipelines x 2 parameter calls
                                                  -> 7 calls, 3/3 leaves
* exploited arm, task 5 adds one uncovered proofread subgoal (react, 3
  calls)                                          -> 10 calls, 4/4 leaves

The suite is regenerated by ``write_suite`` and compared byte-for-byte in
tests, so edits belong here, not in the generated JSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

TOPICS = [
    ("solar", "markets"),
    ("battery", "storage"),
    ("wind", "turbines"),
    ("grid", "software"),
    ("carbon", "offsets"),
]

ARMS = [
    {"name": "standard", "planning_ice": False, "execution_ice": False},
    {"name": "planning_ice", "planning_ice": True, "execution_ice": False},
    {"name": "execution_ice", "planning_ice": False, "execution_ice": True},
    {"name": "planning_execution", "planning_ice": True, "execution_ice": True},
    {"name": "ablation_none", "planning_ice": True, "execution_ice": True,
     "train_limit": 0},
    {"name": "ablation_small", "planning_ice": True, "execution_ice": True,
     "train_limit": 2},
]


def _topic(t): return f"{t[0]} {t[1]}"


def _slug(t): return f"{t[0]}_{t[1]}"


def _step(tool: str, **args: Any) -> dict[str, Any]:
    return {"thought": "next tool call", "tool_name": tool, "tool_args": args}


TERMINATE = {"thought": "the subgoal is complete", "terminate": True}

SEARCH = "SearchEnv_keyword_search"
WRITE = "FileSystemEnv_write_to_file"
READ = "FileSystemEnv_read_file"


def subgoal_specs(t) -> dict[str, dict[str, Any]]:
    topic, slug = _topic(t), _slug(t)
    return {
        "collect": {
            "description": f"Collect background facts about {topic}",
            "milestones": [f"tool_called:{SEARCH}", f"file_exists:notes_{slug}.txt"],
        },
        "summarize": {
            "description": f"Summarize key findings on {topic}",
            "milestones": [f"file_exists:summary_{slug}.txt"],
        },
        "draft": {
            "description": f"Draft the final brief about {topic}",
            "milestones": [f"file_contains:brief_{slug}.txt:{t[0]}"],
        },
        "compile": {  # the doomed one-pass step of the plain plan
            "description": f"Compile the complete brief about {topic} in one pass",
            "milestones": [f"file_exists:summary_{slug}.txt",
                           f"file_contains:brief_{slug}.txt:{t[0]}"],
        },
        "proofread": {
            "description": f"Proofread the final brief about {topic}",
            "milestones": [f"file_exists:brief_final_{slug}.txt"],
        },
    }


def train_goal(t): return f"Prepare a research brief about {_topic(t)}"


def test_goal(t): return f"Prepare a fresh research brief about {_topic(t)}"


def _react_script(t, name) -> list[dict[str, Any]]:
    """Per-subgoal scripted replies, one per loop iteration."""
    topic, slug = _topic(t), _slug(t)
    notes, summary, brief = (f"notes_{slug}.txt", f"summary_{slug}.txt",
                             f"brief_{slug}.txt")
    if name == "collect":  # wasteful on purpose: a repeat and a wrong call
        return [
            _step(SEARCH, query=topic),
            _step(SEARCH, query=topic),
            _step(READ, filepath=notes),
            _step(WRITE, filepath=notes, content=f"collected facts about {topic}"),
            _step(READ, filepath=notes),
            TERMINATE,
        ]
    if name == "compile":  # terminates believing it is done; milestones say no
        return [
            _step(SEARCH, query=f"{topic} summary"),
            _step(READ, filepath=summary),
            _step(WRITE, filepath=brief, content=f"one-pass brief about {topic}"),
            _step(SEARCH, query=topic),
            TERMINATE,
        ]
    if name == "summarize":
        return [
            _step(READ, filepath=notes),
            _step(WRITE, filepath=summary, content=f"summary of {topic}"),
            _step(READ, filepath=summary),
            TERMINATE,
        ]
    if name == "draft":
        return [
            _step(READ, filepath=summary),
            _step(WRITE, filepath=brief, content=f"final brief about {topic} ({t[0]})"),
            _step(READ, filepath=brief),
            _step(SEARCH, query=f"{topic} final check"),
            TERMINATE,
        ]
    # proofread
    return [
        _step(READ, filepath=brief),
        _step(WRITE, filepath=f"brief_final_{slug}.txt",
              content=f"polished brief about {topic}"),
        TERMINATE,
    ]


def _pipeline(name: str, purpose: str, tools: list[tuple[str, str, str]]) -> dict:
    """A linear pipeline through the given (node_name, tool_name, note) list."""
    nodes = [{"node_name": "start", "tool_name": "Start", "node_type": "Start"},
             {"node_name": "end", "tool_name": "End", "node_type": "End"}]
    nodes.extend({"node_name": n, "tool_name": tool, "node_type": "ToolServer"}
                 for n, tool, _ in tools)
    edges = []
    previous = "start"
    for node_name, _, note in tools:
        edges.append({"edge_name": f"{previous}_to_{node_name}", "edge_type": "data",
                      "from_node": previous, "to_node": node_name,
                      "comments": [note]})
        previous = node_name
    edges.append({"edge_name": "finish", "edge_type": "data", "from_node": previous,
                  "to_node": "end", "comments": []})
    return {"pipeline_name": name, "pipeline_purpose": purpose,
            "nodes": nodes, "edges": edges}


def _pipelines(t) -> dict[str, dict]:
    topic, slug = _topic(t), _slug(t)
    return {
        "collect": _pipeline(
            f"collect_facts_{slug}",
            f"Gather background facts about {topic} into the notes file.",
            [("search_topic", SEARCH, "Search the document fixtures for the topic."),
             ("write_notes", WRITE, "Write the collected facts into the notes file.")],
        ),
        "summarize": _pipeline(
            f"summarize_findings_{slug}",
            f"Summarize the collected notes on {topic}.",
            [("read_notes", READ, "Read the notes file."),
             ("write_summary", WRITE, "Write the summary file.")],
        ),
        "draft": _pipeline(
            f"draft_brief_{slug}",
            f"Draft the final brief about {topic} from the summary.",
            [("read_summary", READ, "Read the summary file."),
             ("write_brief", WRITE, "Write the final brief.")],
        ),
    }


def _param_args(t) -> dict[tuple[str, str], dict[str, Any]]:
    topic, slug = _topic(t), _slug(t)
    return {
        (f"collect_facts_{slug}", "search_topic"): {"query": topic},
        (f"collect_facts_{slug}", "write_notes"): {
            "filepath": f"notes_{slug}.txt",
            "content": f"collected facts about {topic}"},
        (f"summarize_findings_{slug}", "read_notes"): {"filepath": f"notes_{slug}.txt"},
        (f"summarize_findings_{slug}", "write_summary"): {
            "filepath": f"summary_{slug}.txt", "content": f"summary of {topic}"},
        (f"draft_brief_{slug}", "read_summary"): {"filepath": f"summary_{slug}.txt"},
        (f"draft_brief_{slug}", "write_brief"): {
            "filepath": f"brief_{slug}.txt",
            "content": f"final brief about {topic} ({t[0]})"},
    }


def build_scenario() -> list[dict[str, Any]]:
    rules: list[dict[str, Any]] = []
    for index, t in enumerate(TOPICS):
        specs = subgoal_specs(t)
        good_names = ["collect", "summarize", "draft"]
        if index == len(TOPICS) - 1:
            good_names.append("proofread")  # one uncovered subgoal in the suite
        good_plan = {"subgoals": [specs[n] for n in good_names]}
        plain_plan = {"subgoals": [specs["collect"], specs["compile"]]}

        rules.append({"match": f"Goal: {test_goal(t)}\nReference workflow",
                      "response": good_plan})
        rules.append({"match": f"Goal: {test_goal(t)}\nNo reference workflow",
                      "response": plain_plan})
        rules.append({"match": f"Goal: {train_goal(t)}\nNo reference workflow",
                      "response": plain_plan})

        rules.append({
            "match": f"Failed subgoal: {specs['compile']['description']}",
            "response": {"actions": [{
                "kind": "split", "target": "2",
                "subgoals": [specs["summarize"], specs["draft"]],
            }]},
        })

        for name in ("collect", "compile", "summarize", "draft", "proofread"):
            description = specs[name]["description"]
            for k, reply in enumerate(_react_script(t, name)):
                rules.append({
                    "match": f"Subgoal: {description}\nCompleted steps: {k}",
                    "response": reply,
                })

        pipelines = _pipelines(t)
        for name in ("collect", "summarize", "draft"):
            rules.append({
                "match": f"Query: {specs[name]['description']}\n",
                "response": pipelines[name],
            })
        for (pipeline_name, node_name), args in _param_args(t).items():
            rules.append({
                "match": f"Pipeline node: {pipeline_name} / {node_name}\n",
                "response": args,
            })
    return rules


def build_task(t, phase: str) -> dict[str, Any]:
    goal = train_goal(t) if phase == "train" else test_goal(t)
    return {
        "id": f"{phase}-{_slug(t)}",
        "goal": goal,
        "env_setup": [
            {"dataset": "documents", "fixture": f"fixtures/docs_{_slug(t)}.json"},
        ],
        "milestones": {},
    }


def build_fixture(t) -> list[str]:
    topic = _topic(t)
    return [
        f"Recent analysis of {topic} shows steady growth across regions.",
        f"Background report: {topic} overview, risks, and outlook.",
    ]


def build_bench_spec() -> dict[str, Any]:
    return {
        "backend": "scripted:scenario.json",
        "train_tasks": [f"tasks/train_{_slug(t)}.json" for t in TOPICS],
        "test_tasks": [f"tasks/test_{_slug(t)}.json" for t in TOPICS],
        "arms": ARMS,
    }


def _dump(doc: Any) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def suite_files() -> dict[str, str]:
    files = {
        "bench.json": _dump(build_bench_spec()),
        "scenario.json": _dump(build_scenario()),
    }
    for t in TOPICS:
        files[f"tasks/train_{_slug(t)}.json"] = _dump(build_task(t, "train"))
        files[f"tasks/test_{_slug(t)}.json"] = _dump(build_task(t, "test"))
        files[f"tasks/fixtures/docs_{_slug(t)}.json"] = _dump(build_fixture(t))
    return files


def write_suite(root: Path) -> None:
    for relative, text in suite_files().items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "suite"
    write_suite(target)
    print(f"wrote suite to {target}")

"""Seeded synthetic topics for the benchmark's generated workloads.

Each topic is a research-brief scenario shaped like the checked-in suite
(``tests/suite_builder.py``): under a plain planner the task starts from a
two-step plan whose second step fails and is rectified into the two steps
that work. Training it costs 22 calls plus 3 consolidation calls and stores
one workflow and three pipelines; a test task on a trained topic costs 7
calls (plan + 3 pipelines x 2 argument fills); a test task on an unknown
topic costs the plain 22.

Topics are three pseudo-words long. A draw is rejected when it would share
two or more hash buckets of the program's own embedder with an accepted
topic, or put a word in the bucket of a fixed template word: one shared
bucket is the most a key can take and still stay under the 0.85 retrieval
threshold (see NOTES.md, "embedder conflation"). ``TopicEmbeddings`` then
checks the exact similarities, since the file names in pipeline keys hash
to buckets too.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from typing import Any

import numpy as np

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

SEARCH = "SearchEnv_keyword_search"
WRITE = "FileSystemEnv_write_to_file"
READ = "FileSystemEnv_read_file"
TERMINATE = {"thought": "the subgoal is complete", "terminate": True}

Topic = tuple[str, str, str]

#: Topic whose trained records are rewritten into every pre-fill topic. Its
#: letters q and x never occur in generated words or in the template text.
TEMPLATE: Topic = ("qxalpha", "qxbeta", "qxgamma")


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(3))


class TopicDrawer:
    """Seeded stream of topics that pairwise share at most one embedder bucket.

    A draw is also rejected when one of its words lands in the bucket of a
    fixed template word ("Prepare", "fresh", ...) or two of its words share a
    bucket. ``redraws`` counts every rejected draw."""

    def __init__(self, seed: int, embedder: Any) -> None:
        self._rng = random.Random(seed)
        self._embedder = embedder
        self._used_pairs: set[tuple[int, int]] = set()
        self._reserved = {self._bucket(w) for w in template_words()}
        self.redraws = 0

    def _bucket(self, word: str) -> int:
        return int(self._embedder.embed(word).values.argmax())

    def draw(self) -> Topic:
        while True:
            words = (_word(self._rng), _word(self._rng), _word(self._rng))
            buckets = {self._bucket(w) for w in words}
            pairs = set(combinations(sorted(buckets), 2))
            if len(buckets) == 3 and not buckets & self._reserved \
                    and not pairs & self._used_pairs:
                self._used_pairs |= pairs
                return words
            self.redraws += 1

    def draw_many(self, count: int) -> list[Topic]:
        return [self.draw() for _ in range(count)]


def key_texts(t: Topic) -> dict[str, list[str]]:
    """What training on ``t`` stores, and every text a task on ``t`` retrieves
    with, by record kind."""
    from ice.memory import pipeline_key

    specs = subgoal_specs(t)

    def key(sub: str) -> str:
        return pipeline_key(specs[sub]["description"], specs[sub]["milestones"])

    return {
        "workflow_keys": [train_goal(t)],
        "workflow_queries": [train_goal(t), test_goal(t), specs["compile"]["description"]],
        "pipeline_keys": [key(s) for s in ("collect", "summarize", "draft")],
        "pipeline_queries": [key(s) for s in ("collect", "compile", "summarize", "draft")],
    }


def template_words() -> set[str]:
    texts = key_texts(TEMPLATE)
    return {w for group in texts.values() for x in group for w in x.split()
            if "qx" not in w}


class TopicEmbeddings:
    """The program's embeddings of each topic's stored keys and retrieval
    texts (see ``key_texts``), computed once per topic."""

    BLOCK = 256  # query rows per similarity block

    def __init__(self, embedder: Any) -> None:
        self._embedder = embedder
        self._cache: dict[Topic, dict[str, np.ndarray]] = {}

    def of(self, t: Topic) -> dict[str, np.ndarray]:
        if t not in self._cache:
            self._cache[t] = {group: np.array([self._embedder.embed(x).values for x in texts])
                              for group, texts in key_texts(t).items()}
        return self._cache[t]

    def _stack(self, topic_list: list[Topic], group: str):
        blocks = [self.of(t)[group] for t in topic_list]
        owners = [t for t, block in zip(topic_list, blocks) for _ in range(len(block))]
        return np.vstack(blocks), owners

    def stored_keys(self, topic_list: list[Topic]):
        """Stored key embeddings of ``topic_list`` by kind, and each row's topic."""
        keys, owners = {}, {}
        for kind in ("workflow", "pipeline"):
            keys[kind], owners[kind] = self._stack(topic_list, f"{kind}_keys")
        return keys, owners

    def false_hits(self, candidates: list[Topic], keys: dict[str, np.ndarray],
                   key_owners: dict[str, list[Topic]] | None,
                   threshold: float) -> set[Topic]:
        """Candidates with a retrieval text that reaches ``threshold`` on a
        stored key of another topic. ``keys`` maps "workflow"/"pipeline" to
        stored key embeddings; ``key_owners`` names each row's topic (None:
        no candidate owns any of them)."""
        index = {t: i for i, t in enumerate(candidates)}
        bad: set[Topic] = set()
        for kind in ("workflow", "pipeline"):
            queries, owners = self._stack(candidates, f"{kind}_queries")
            q = np.array([index[t] for t in owners])
            k = np.array([index.get(t, -1) for t in key_owners[kind]]) if key_owners else None
            # row blocks keep the similarity matrix small, so set-up does not
            # set the process's peak memory
            for lo in range(0, len(queries), self.BLOCK):
                sims = queries[lo:lo + self.BLOCK] @ keys[kind].T
                if k is not None:
                    sims[q[lo:lo + self.BLOCK, None] == k[None, :]] = 0.0
                rows = np.flatnonzero(sims.max(axis=1) >= threshold)
                bad.update(owners[lo + i] for i in rows)
        return bad


def name(t: Topic) -> str:
    return " ".join(t)


def slug(t: Topic) -> str:
    return "_".join(t)


def train_goal(t: Topic) -> str:
    return f"Prepare a research brief about {name(t)}"


def test_goal(t: Topic) -> str:
    return f"Prepare a fresh research brief about {name(t)}"


def _step(tool: str, **args: Any) -> dict[str, Any]:
    return {"thought": "next tool call", "tool_name": tool, "tool_args": args}


def subgoal_specs(t: Topic) -> dict[str, dict[str, Any]]:
    topic, s = name(t), slug(t)
    return {
        "collect": {
            "description": f"Collect background facts about {topic}",
            "milestones": [f"tool_called:{SEARCH}", f"file_exists:notes_{s}.txt"],
        },
        "summarize": {
            "description": f"Summarize key findings on {topic}",
            "milestones": [f"file_exists:summary_{s}.txt"],
        },
        "draft": {
            "description": f"Draft the final brief about {topic}",
            "milestones": [f"file_contains:brief_{s}.txt:{t[0]}"],
        },
        "compile": {  # the doomed one-pass step of the plain plan
            "description": f"Compile the complete brief about {topic} in one pass",
            "milestones": [f"file_exists:summary_{s}.txt",
                           f"file_contains:brief_{s}.txt:{t[0]}"],
        },
    }


def _react_scripts(t: Topic) -> dict[str, list[dict[str, Any]]]:
    topic, s = name(t), slug(t)
    notes, summary, brief = f"notes_{s}.txt", f"summary_{s}.txt", f"brief_{s}.txt"
    return {
        "collect": [  # wasteful on purpose: a repeat and a wrong call
            _step(SEARCH, query=topic),
            _step(SEARCH, query=topic),
            _step(READ, filepath=notes),
            _step(WRITE, filepath=notes, content=f"collected facts about {topic}"),
            _step(READ, filepath=notes),
            TERMINATE,
        ],
        "compile": [  # terminates believing it is done; milestones say no
            _step(SEARCH, query=f"{topic} summary"),
            _step(READ, filepath=summary),
            _step(WRITE, filepath=brief, content=f"one-pass brief about {topic}"),
            _step(SEARCH, query=topic),
            TERMINATE,
        ],
        "summarize": [
            _step(READ, filepath=notes),
            _step(WRITE, filepath=summary, content=f"summary of {topic}"),
            _step(READ, filepath=summary),
            TERMINATE,
        ],
        "draft": [
            _step(READ, filepath=summary),
            _step(WRITE, filepath=brief, content=f"final brief about {topic} ({t[0]})"),
            _step(READ, filepath=brief),
            _step(SEARCH, query=f"{topic} final check"),
            TERMINATE,
        ],
        "proofread": [  # never planned here; kept so each topic has 36 rules
            _step(READ, filepath=brief),
            _step(WRITE, filepath=f"brief_final_{s}.txt",
                  content=f"polished brief about {topic}"),
            TERMINATE,
        ],
    }


def _pipeline(pipeline_name: str, purpose: str, tools: list[tuple[str, str, str]]):
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
    return {"pipeline_name": pipeline_name, "pipeline_purpose": purpose,
            "nodes": nodes, "edges": edges}


def _pipelines(t: Topic) -> dict[str, dict[str, Any]]:
    topic, s = name(t), slug(t)
    return {
        "collect": _pipeline(
            f"collect_facts_{s}",
            f"Gather background facts about {topic} into the notes file.",
            [("search_topic", SEARCH, "Search the document fixtures for the topic."),
             ("write_notes", WRITE, "Write the collected facts into the notes file.")],
        ),
        "summarize": _pipeline(
            f"summarize_findings_{s}",
            f"Summarize the collected notes on {topic}.",
            [("read_notes", READ, "Read the notes file."),
             ("write_summary", WRITE, "Write the summary file.")],
        ),
        "draft": _pipeline(
            f"draft_brief_{s}",
            f"Draft the final brief about {topic} from the summary.",
            [("read_summary", READ, "Read the summary file."),
             ("write_brief", WRITE, "Write the final brief.")],
        ),
    }


def _param_args(t: Topic) -> dict[tuple[str, str], dict[str, Any]]:
    topic, s = name(t), slug(t)
    return {
        (f"collect_facts_{s}", "search_topic"): {"query": topic},
        (f"collect_facts_{s}", "write_notes"): {
            "filepath": f"notes_{s}.txt", "content": f"collected facts about {topic}"},
        (f"summarize_findings_{s}", "read_notes"): {"filepath": f"notes_{s}.txt"},
        (f"summarize_findings_{s}", "write_summary"): {
            "filepath": f"summary_{s}.txt", "content": f"summary of {topic}"},
        (f"draft_brief_{s}", "read_summary"): {"filepath": f"summary_{s}.txt"},
        (f"draft_brief_{s}", "write_brief"): {
            "filepath": f"brief_{s}.txt", "content": f"final brief about {topic} ({t[0]})"},
    }


def scenario_rules(t: Topic) -> list[dict[str, Any]]:
    """The 36 scripted rules that drive every task run on topic ``t``."""
    specs = subgoal_specs(t)
    good_plan = {"subgoals": [specs[n] for n in ("collect", "summarize", "draft")]}
    plain_plan = {"subgoals": [specs["collect"], specs["compile"]]}
    rules = [
        {"match": f"Goal: {test_goal(t)}\nReference workflow", "response": good_plan},
        {"match": f"Goal: {test_goal(t)}\nNo reference workflow", "response": plain_plan},
        {"match": f"Goal: {train_goal(t)}\nNo reference workflow", "response": plain_plan},
        {"match": f"Failed subgoal: {specs['compile']['description']}",
         "response": {"actions": [{"kind": "split", "target": "2",
                                   "subgoals": [specs["summarize"], specs["draft"]]}]}},
    ]
    for sub, script in _react_scripts(t).items():
        description = (specs[sub]["description"] if sub in specs
                       else f"Proofread the final brief about {name(t)}")
        rules.extend({"match": f"Subgoal: {description}\nCompleted steps: {k}",
                      "response": reply} for k, reply in enumerate(script))
    for sub, doc in _pipelines(t).items():
        rules.append({"match": f"Query: {specs[sub]['description']}\n", "response": doc})
    for (pipeline_name, node_name), args in _param_args(t).items():
        rules.append({"match": f"Pipeline node: {pipeline_name} / {node_name}\n",
                      "response": args})
    return rules


def task_doc(t: Topic, phase: str) -> dict[str, Any]:
    """Keyword arguments for ``ice.engine.TaskSpec``; fixtures are inline."""
    topic = name(t)
    return {
        "task_id": f"{phase}-{slug(t)}",
        "goal": train_goal(t) if phase == "train" else test_goal(t),
        "env_setup": [{"dataset": "documents", "records": [
            f"Recent analysis of {topic} shows steady growth across regions.",
            f"Background report: {topic} overview, risks, and outlook.",
        ]}],
    }


def substitute(text: str, old: Topic, new: Topic) -> str:
    """Rewrite a JSON text made for topic ``old`` so it is about ``new``.

    Safe because topic words never occur inside the fixed template text."""
    for a, b in zip(old, new):
        text = text.replace(a, b)
    return text


def records_as_json(records: list[Any]) -> str:
    return json.dumps([[r.kind.value, r.key_text, r.payload] for r in records],
                      ensure_ascii=False)

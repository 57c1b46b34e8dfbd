"""Properties of the reply parsers behind the one repair loop.

``extract_json_document`` gives what it gave when each candidate went
through ``json.loads``; the reference below is that version.

``complete_parsed`` re-prompts on ``ValueError`` and on nothing else, so a
parser that raised anything else would end the task instead of asking again.
A milestone that passes parsing must also be judgeable later, or the task
would end when its subgoal is judged.
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ice.consolidate import extract_json_document
from ice.engine import parse_plan_reply, parse_rectify_reply, parse_react_reply
from ice.env import SimulatedEnvironment, builtin_toolkit, evaluate_milestones, parse_predicate
from ice.errors import BadPredicate

_KEYS = st.sampled_from([
    "subgoals", "description", "milestones", "actions", "kind", "target",
    "after", "thought", "terminate", "tool_name", "tool_args",
])
_HEADS = st.sampled_from(["file_exists", "file_contains", "tool_called", "custom", "x", ""])
# decimal digits (Nd) and digit-like characters that int() rejects (No, Nl)
_DIGITS = st.text(st.characters(categories=["Nd", "No", "Nl"]), max_size=3)

milestone_texts = st.one_of(
    st.text(max_size=20),
    st.builds(lambda head, rest: f"{head}:{rest}", _HEADS, st.text(max_size=12)),
    st.builds(lambda name, count: f"tool_called:{name}:{count}",
              st.text(max_size=8), _DIGITS),
)

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=10), st.sampled_from(["split", "add", "2", "1-1", "root"]),
    milestone_texts,
)
json_values = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_KEYS | st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
reply_texts = st.one_of(
    st.text(max_size=60),
    st.builds(json.dumps, st.dictionaries(_KEYS, json_values, max_size=4)),
    st.builds(lambda before, doc, after: before + json.dumps(doc) + after,
              st.text(max_size=8), json_values, st.text(max_size=8)),
)


def _returns_or_raises_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(reply_texts)
@example('{"subgoals": [{"description": "d", "milestones": ["tool_called:x:\u00b2"]}]}')
@example('{"actions": [{"kind": "split", "target": "0", "subgoals": [{"description": "d"}]}]}')
@example('{"thought": "t", "tool_name": "x", "tool_args": []}')
@example("[" * 100_000)
@example('{"subgoals": ' + "[" * 100_000)
def test_every_reply_parser_returns_or_raises_value_error(text):
    _returns_or_raises_value_error(parse_plan_reply, text)
    _returns_or_raises_value_error(parse_rectify_reply, text)
    _returns_or_raises_value_error(parse_react_reply, text)


@settings(max_examples=300, deadline=None)
@given(milestone_texts)
@example("tool_called:x:\u00b2")
@example("tool_called:x:\u2460")
@example("tool_called:x:\u0663")
def test_a_parsed_milestone_can_always_be_judged(text):
    try:
        parse_predicate(text)
    except BadPredicate:
        return
    env = SimulatedEnvironment(tools=builtin_toolkit())
    assert evaluate_milestones([text], env) in (True, False)


def _extract_with_loads(text):
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


def _outcome(parse, text):
    try:
        return repr(parse(text))
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(reply_texts)
@example(' \n{"a": 1}\t ')
@example('\ufeff{"a": 1}')
@example('\x1c{"a": 1} \x85')
@example('"a": 1, "b": [2] ')
@example('{"a": 1} {"b": 2}')
@example('"a": 1} {"b": 2')
@example('{"a": 1}\n')
@example("```json\n{\"a\": NaN}\n```")
def test_extract_json_document_matches_the_json_loads_reference(text):
    assert _outcome(extract_json_document, text) == _outcome(_extract_with_loads, text)

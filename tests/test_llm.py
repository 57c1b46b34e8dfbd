from __future__ import annotations

import json
import random
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import scripted
from ice.errors import HttpBackendError, NoScenarioMatch
from ice.llm import (
    CallTag,
    CompletionRequest,
    HttpChatBackend,
    Message,
    Role,
    ScriptedBackend,
    ScriptedScenario,
    _RuleIndex,
    render_request,
)


def request(content: str, tag: CallTag = CallTag.TOOL_HANDLING,
            system: str = "sys") -> CompletionRequest:
    return CompletionRequest(system, (Message(Role.USER, content),), tag)


def test_render_layout_is_stable():
    req = CompletionRequest(
        "system text",
        (Message(Role.USER, "hello"), Message(Role.ASSISTANT, "hi"),
         Message(Role.USER, "go on")),
        CallTag.PLANNING,
    )
    assert render_request(req) == "system text\nUser: hello\nAssistant: hi\nUser: go on"


def test_requests_need_messages():
    with pytest.raises(ValueError):
        CompletionRequest("sys", (), CallTag.OTHER)
    with pytest.raises(ValueError, match="at least one message"):
        CompletionRequest(system="sys", messages=(), tag=CallTag.OTHER)
    # the NamedTuple helpers build through the same check
    with pytest.raises(ValueError, match="at least one message"):
        request("x")._replace(messages=())
    with pytest.raises(ValueError, match="at least one message"):
        CompletionRequest._make(("sys", (), CallTag.OTHER))
    assert CompletionRequest._make(request("x")) == request("x")


def test_scripted_match_and_counters():
    backend = scripted([
        {"match": "Subtask: research climate", "response": json.dumps(
            {"thought": "search", "tool_name": "SearchEnv_keyword_search",
             "tool_args": {"query": "climate"}})},
    ])
    reply = backend.complete(request("Subtask: research climate"))
    assert json.loads(reply)["tool_name"] == "SearchEnv_keyword_search"
    assert backend.calls == {CallTag.PLANNING: 0, CallTag.TOOL_HANDLING: 1,
                             CallTag.CONSOLIDATION: 0, CallTag.OTHER: 0}


def test_counters_sum_over_tags():
    backend = scripted([{"match": "", "response": "ok"}])
    for _ in range(3):
        backend.complete(request("x", CallTag.PLANNING))
    for _ in range(5):
        backend.complete(request("x", CallTag.TOOL_HANDLING))
    assert sum(backend.calls.values()) == 8
    assert backend.calls[CallTag.PLANNING] == 3


def test_no_match_is_an_error_never_a_default():
    backend = scripted([{"match": "something specific", "response": "ok"}])
    with pytest.raises(NoScenarioMatch):
        backend.complete(request("entirely different"))
    # failed attempts are still counted: the call reached the provider
    assert sum(backend.calls.values()) == 1


def test_first_matching_rule_with_remaining_uses_fires():
    backend = scripted([
        {"match": "step", "response": "first", "max_uses": 2},
        {"match": "step", "response": "second"},
    ])
    replies = [backend.complete(request("step")) for _ in range(4)]
    assert replies == ["first", "first", "second", "second"]


def test_regex_rules():
    backend = scripted([
        {"match": r"Completed steps: [02468]$", "response": "even", "regex": True},
        {"match": "Completed steps:", "response": "odd"},
    ])
    assert backend.complete(request("Completed steps: 0")) == "even"
    assert backend.complete(request("Completed steps: 1")) == "odd"


def test_structured_responses_are_serialized():
    scenario = ScriptedScenario.from_list(
        [{"match": "", "response": {"subgoals": []}}]
    )
    backend = ScriptedBackend(scenario)
    assert json.loads(backend.complete(request("x"))) == {"subgoals": []}


def test_counters_match_shadow_accumulator():
    backend = scripted([{"match": "", "response": "ok"}])
    rng = random.Random(31)
    shadow = {tag: 0 for tag in CallTag}
    for _ in range(300):
        tag = rng.choice(list(CallTag))
        backend.complete(request("x", tag))
        shadow[tag] += 1
        assert backend.calls == shadow


def test_scenario_file_round_trip(tmp_path):
    rules = [{"match": "hello", "response": "world", "max_uses": 3}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(rules), encoding="utf-8")
    scenario = ScriptedScenario.from_file(str(path))
    assert scenario.rules[0].match == "hello"
    assert scenario.rules[0].max_uses == 3


# -- the rule index against a linear scan -----------------------------------------

# "ket" and "ab" are parts of longer words, and words and separators are drawn
# apart, so a match may start or end inside a token of the request
WORDS = ["ab", "abc", "b", "market", "ket", "trends", "now", "Goal:", "x"]
SEPARATORS = [" ", "\t", "\n", "\xa0", "  "]
REGEXES = [r"ket\s+tr", r"^abc", r"now$", r"a.b", r"(?:ab|b)\sx", r""]

texts = st.lists(st.sampled_from(WORDS + SEPARATORS), max_size=10).map("".join)


@st.composite
def scripted_runs(draw):
    """A rule list and a request sequence. Most plain matches are slices of a
    rendered request, so that they match, often from or to the middle of a token."""
    systems = draw(st.lists(texts, min_size=1, max_size=4))
    messages = st.lists(st.builds(Message, st.sampled_from(list(Role)), texts),
                        min_size=1, max_size=3).map(tuple)
    requests = draw(st.lists(
        st.builds(CompletionRequest, st.sampled_from(systems), messages,
                  st.sampled_from(list(CallTag))),
        min_size=1, max_size=8))
    rendered = [render_request(r) for r in requests]
    rules = []
    for i in range(draw(st.integers(0, 10))):
        rule = {"response": f"rule {i}",
                "max_uses": draw(st.none() | st.integers(0, 3))}
        kind = draw(st.sampled_from(["slice", "text", "regex"]))
        if kind == "slice":
            text = draw(st.sampled_from(rendered))
            start = draw(st.integers(0, len(text)))
            rule["match"] = text[start:draw(st.integers(start, len(text)))]
        elif kind == "text":
            rule["match"] = draw(texts)
        else:
            rule.update(match=draw(st.sampled_from(REGEXES)), regex=True)
        rules.append(rule)
    return rules, requests


def linear_replies(scenario, requests):
    """Every rule in order, the scan the index must agree with."""
    uses = [0] * len(scenario.rules)
    replies = []
    for request in requests:
        rendered = render_request(request)
        for i, rule in enumerate(scenario.rules):
            if rule.max_uses is not None and uses[i] >= rule.max_uses:
                continue
            if rule.matches(rendered):
                uses[i] += 1
                replies.append(rule.response)
                break
        else:
            replies.append(NoScenarioMatch)
    return replies


@settings(max_examples=200, deadline=None)
@given(scripted_runs(), st.sampled_from([1, _RuleIndex.SYSTEMS]))
def test_indexed_backend_replies_as_a_linear_scan_does(run, systems_kept):
    rules, requests = run
    scenario = ScriptedScenario.from_list(rules)
    expected = linear_replies(scenario, requests)
    # with one system text kept, the kept candidates are cleared on each change
    old, _RuleIndex.SYSTEMS = _RuleIndex.SYSTEMS, systems_kept
    try:
        backend = ScriptedBackend(scenario)
        for request, reply in zip(requests, expected):
            if reply is NoScenarioMatch:
                with pytest.raises(NoScenarioMatch):
                    backend.complete(request)
            else:
                assert backend.complete(request) == reply
    finally:
        _RuleIndex.SYSTEMS = old


def test_rules_are_filed_under_their_rarest_middle_token():
    scenario = ScriptedScenario.from_list([
        {"match": "Subgoal: collect facts now", "response": "a"},
        {"match": "Subgoal: collect notes now", "response": "b"},
        {"match": "Goal: draft", "response": "c"},
        {"match": "Subgoal: .* now", "response": "d", "regex": True},
    ])
    assert scenario.index.filed == {"facts": 0b0001, "notes": 0b0010}
    assert scenario.index.always == 0b1100
    # the first and last tokens may be parts of longer ones
    backend = ScriptedBackend(scenario)
    assert backend.complete(request("subSubgoal: collect notes nowhere")) == "b"


def test_http_backend_requires_endpoint(monkeypatch):
    monkeypatch.delenv("ICE_LLM_ENDPOINT", raising=False)
    with pytest.raises(HttpBackendError):
        HttpChatBackend()


def test_http_backend_reads_environment(monkeypatch):
    monkeypatch.setenv("ICE_LLM_ENDPOINT", "http://localhost:1/v1/chat")
    monkeypatch.setenv("ICE_LLM_MODEL", "demo-model")
    monkeypatch.setenv("ICE_LLM_API_KEY", "secret")
    backend = HttpChatBackend(timeout=0.05)
    assert backend.model == "demo-model"
    with pytest.raises(HttpBackendError):
        backend.complete(request("x"))  # nothing listens on port 1
    assert sum(backend.calls.values()) == 1


# -- the HTTP transport, with urlopen patched: no socket is opened -----------------


class _Response:
    def __init__(self, body: bytes) -> None:
        self.body = body

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def read(self) -> bytes:
        return self.body


def patch_urlopen(monkeypatch, outcome):
    """Make ``urlopen`` keep each request and its timeout, then return a
    response whose body is ``outcome``, or raise ``outcome``."""
    sent = []

    def urlopen(http_request, timeout):
        sent.append((http_request, timeout))
        if isinstance(outcome, BaseException):
            raise outcome
        return _Response(outcome)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    return sent


def chat_body(content: str) -> bytes:
    return json.dumps({"choices": [{"message": {"role": "assistant",
                                                "content": content}}]}).encode()


def test_http_backend_sends_the_conversation_and_returns_the_content(monkeypatch):
    sent = patch_urlopen(monkeypatch, chat_body("the reply"))
    backend = HttpChatBackend(endpoint="http://127.0.0.1:9/v1/chat", model="demo-model",
                              api_key="secret", timeout=7.5)
    conversation = (Message(Role.USER, "hi"), Message(Role.ASSISTANT, "oops"),
                    Message(Role.USER, "again"))
    assert backend.complete(CompletionRequest("be brief", conversation,
                                              CallTag.PLANNING)) == "the reply"
    [(http_request, timeout)] = sent
    assert timeout == 7.5
    assert http_request.full_url == "http://127.0.0.1:9/v1/chat"
    assert http_request.get_method() == "POST"
    assert http_request.get_header("Authorization") == "Bearer secret"
    assert json.loads(http_request.data) == {"model": "demo-model", "messages": [
        {"role": "system", "content": "be brief"},
        {"role": "user", "content": "hi"},
        {"role": "assistant", "content": "oops"},
        {"role": "user", "content": "again"},
    ]}
    assert backend.calls[CallTag.PLANNING] == 1


def test_http_backend_without_a_key_sends_no_bearer_header(monkeypatch):
    sent = patch_urlopen(monkeypatch, chat_body("ok"))
    HttpChatBackend(endpoint="http://127.0.0.1:9/v1/chat").complete(request("x"))
    assert sent[0][0].get_header("Authorization") is None


@pytest.mark.parametrize("outcome", [
    b"not json",
    b"\xff",
    json.dumps({"id": "no choices"}).encode(),
    json.dumps({"choices": []}).encode(),
    b"[" * 100_000,
    urllib.error.URLError("connection refused"),
    urllib.error.HTTPError("http://127.0.0.1:9/v1/chat", 503, "unavailable", None, None),
    TimeoutError("timed out"),
], ids=["not-json", "not-utf8", "no-choices", "empty-choices", "deeply-nested",
        "url-error", "http-503", "timeout"])
def test_http_backend_failures_raise_and_count_each_attempt_once(monkeypatch, outcome):
    sent = patch_urlopen(monkeypatch, outcome)
    backend = HttpChatBackend(endpoint="http://127.0.0.1:9/v1/chat")
    for attempt in (1, 2):
        with pytest.raises(HttpBackendError):
            backend.complete(request("x"))
        assert len(sent) == attempt
        assert sum(backend.calls.values()) == attempt

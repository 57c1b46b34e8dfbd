"""Completion backends with per-tag call accounting.

Every completion is tagged with what it is for (planning, tool handling,
consolidation, other) and counted exactly once, including calls that fail
after reaching the provider. Embedding lookups never go through this module,
so they never enter the call counts. ``complete_parsed`` is the one loop
that asks for a reply, parses it, and re-prompts when it is malformed.

Two providers ship: a scripted backend that replays canned responses for
tests and benchmarks, and a generic HTTP chat-completion client for live use.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Any, Callable, NamedTuple

from .errors import HttpBackendError, NoScenarioMatch, read_json

__all__ = [
    "CallTag",
    "Role",
    "Message",
    "CompletionRequest",
    "complete_parsed",
    "REPAIR_LIMIT",
    "CallCounters",
    "render_request",
    "LlmBackend",
    "ScriptedRule",
    "ScriptedScenario",
    "ScriptedBackend",
    "HttpChatBackend",
    "TagRoutingBackend",
]

ENV_ENDPOINT = "ICE_LLM_ENDPOINT"
ENV_MODEL = "ICE_LLM_MODEL"
ENV_API_KEY = "ICE_LLM_API_KEY"

#: Re-prompts ``complete_parsed`` spends on malformed replies before it gives up.
REPAIR_LIMIT = 3


class CallTag(str, Enum):
    PLANNING = "planning"
    TOOL_HANDLING = "tool_handling"
    CONSOLIDATION = "consolidation"
    OTHER = "other"


class Role(str, Enum):
    USER = "User"
    ASSISTANT = "Assistant"


_USER = Role.USER  # read once: a read through ``Role`` goes through ``EnumType.__getattr__``


class Message(NamedTuple):
    role: Role
    content: str


class _Request(NamedTuple):
    system: str
    messages: tuple[Message, ...]
    tag: CallTag


class CompletionRequest(_Request):
    """A system text, at least one message, and what the call is for."""

    __slots__ = ()

    def __new__(cls, system: str, messages: tuple[Message, ...], tag: CallTag):
        if not messages:
            raise ValueError("a completion request needs at least one message")
        return tuple.__new__(cls, (system, messages, tag))


def _retry_text(exc: ValueError) -> str:
    return f"Could not apply that reply: {exc}. Reply again with valid JSON."


def complete_parsed(backend: LlmBackend, system: str, user: str, tag: CallTag,
                    parse: Callable[[str], Any], error: type[Exception],
                    retry: Callable[[ValueError], str] = _retry_text) -> Any:
    """Call the backend and parse the reply. A ``ValueError`` from ``parse``
    appends the reply and ``retry(exc)`` to the conversation and asks again,
    up to ``REPAIR_LIMIT`` re-prompts; then ``error`` is raised."""
    messages = (Message(_USER, user),)
    last: ValueError | None = None
    for _ in range(REPAIR_LIMIT + 1):
        reply = backend.complete(CompletionRequest(system, messages, tag))
        try:
            return parse(reply)
        except ValueError as exc:
            last = exc
            messages += (Message(Role.ASSISTANT, reply), Message(_USER, retry(exc)))
    raise error(f"repair limit exhausted: {last}")


def render_request(request: CompletionRequest) -> str:
    """Flatten a request to one string: system first, then role-prefixed messages.

    Scripted rules match against exactly this surface, so the layout is part
    of the scenario-file contract and must stay stable.
    """
    lines = [request.system]
    lines.extend(f"{m.role.value}: {m.content}" for m in request.messages)
    return "\n".join(lines)


#: Each tag's value in ``CallTag`` order (``Enum.value`` is a Python-level property).
_TAG_VALUES = tuple(tag.value for tag in CallTag)


class CallCounters:
    """Totals per tag."""

    def __init__(self) -> None:
        self._by_tag: dict[CallTag, int] = {tag: 0 for tag in CallTag}

    def record(self, tag: CallTag) -> None:
        self._by_tag[tag] += 1

    def by_tag(self, tag: CallTag) -> int:
        return self._by_tag[tag]

    def snapshot(self) -> dict[str, Any]:
        by_tag = dict(zip(_TAG_VALUES, self._by_tag.values()))
        return {"all": sum(by_tag.values()), "by_tag": by_tag}

    def reset(self) -> None:
        for tag in self._by_tag:
            self._by_tag[tag] = 0


def counters_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    old, new = before["by_tag"], after["by_tag"]
    by_tag = {tag: new[tag] - old[tag] for tag in _TAG_VALUES}
    return {"all": sum(by_tag.values()), "by_tag": by_tag}


class LlmBackend:
    """Base class: counts every call, then dispatches to the provider."""

    def __init__(self) -> None:
        self.counters = CallCounters()

    def complete(self, request: CompletionRequest) -> str:
        self.counters.record(request.tag)
        return self._complete(request)

    def _complete(self, request: CompletionRequest) -> str:
        raise NotImplementedError

    def reset_counters(self) -> None:
        self.counters.reset()


@dataclass
class ScriptedRule:
    """First matching rule with remaining uses fires; no match is an error."""

    match: str
    response: str
    max_uses: int | None = None
    regex: bool = False

    def matches(self, rendered: str) -> bool:
        if self.regex:
            return re.search(self.match, rendered, flags=re.DOTALL) is not None
        return self.match in rendered


class _RuleIndex:
    """The rules of a scenario that can match a request, found without a
    substring search.

    A plain rule whose match splits into three or more tokens is filed under
    one of its middle tokens: a text that contains the match holds each middle
    token as a whole ``str.split()`` token, while the first and the last may be
    parts of longer tokens ("ket trends now" occurs in "market trends now").
    Of its middle tokens, the one least often found among the middle tokens of
    all rules is chosen. Regex rules and shorter matches are candidates for
    every request. A set of rules is an integer whose bit ``i`` is rule ``i``.
    """

    __slots__ = ("always", "filed", "by_system")

    #: Distinct system texts whose candidates are kept; the engine has six.
    SYSTEMS = 16

    def __init__(self, rules: list[ScriptedRule]) -> None:
        middles = [[] if rule.regex else rule.match.split()[1:-1] for rule in rules]
        counts = Counter(chain.from_iterable(middles))
        self.always = 0
        self.filed: dict[str, int] = {}
        for i, middle in enumerate(middles):
            if middle:
                # interned: scenarios built from one template share their keys
                key = sys.intern(min(middle, key=counts.__getitem__))
                self.filed[key] = self.filed.get(key, 0) | 1 << i
            else:
                self.always |= 1 << i
        self.by_system: dict[str, int] = {}

    def _add_filed(self, rules: int, text: str) -> int:
        """``rules`` and the rules filed under a token of ``text``."""
        filed = self.filed
        for token in filed.keys() & text.split():
            rules |= filed[token]
        return rules

    def candidates(self, system: str, messages: str) -> int:
        """The rules whose match may occur in the request rendered from
        ``system`` and the rendered ``messages``. The newline between them is
        whitespace, so no token spans the two."""
        rules = self.by_system.get(system)
        if rules is None:
            if len(self.by_system) >= self.SYSTEMS:
                self.by_system.clear()
            rules = self.by_system[system] = self._add_filed(self.always, system)
        return self._add_filed(rules, messages)


@dataclass
class ScriptedScenario:
    """An ordered rule list; it is not changed once a backend replays it."""

    rules: list[ScriptedRule] = field(default_factory=list)

    @cached_property
    def index(self) -> _RuleIndex:
        """Built once, on first use, and shared by every backend on this scenario."""
        return _RuleIndex(self.rules)

    @classmethod
    def from_list(cls, raw: Any, source: str = "scenario") -> "ScriptedScenario":
        """Build the rules of a scenario document. A document that is not a
        list, or a malformed rule, raises one ``ValueError`` naming ``source``
        and the rule's index."""
        if not isinstance(raw, list):
            raise ValueError(f"{source}: a scenario is a list of rules")
        rules = []
        for i, item in enumerate(raw):
            if not (isinstance(item, dict)
                    and isinstance(item.get("match"), str) and "response" in item
                    and (item.get("max_uses") is None
                         or type(item["max_uses"]) is int and item["max_uses"] >= 0)
                    and isinstance(item.get("regex", False), bool)):
                raise ValueError(
                    f"{source}: rule {i} is not an object with a string match, a "
                    "response, a max_uses of null or an integer of at least 0, and "
                    "a boolean regex")
            if item.get("regex", False):
                try:
                    re.compile(item["match"])
                except re.error as exc:
                    raise ValueError(f"{source}: rule {i}: bad regex match: {exc}") from exc
            response = item["response"]
            if not isinstance(response, str):
                response = json.dumps(response, ensure_ascii=False)
            rules.append(
                ScriptedRule(
                    match=item["match"],
                    response=response,
                    max_uses=item.get("max_uses"),
                    regex=item.get("regex", False),
                )
            )
        return cls(rules=rules)

    @classmethod
    def from_file(cls, path: str) -> "ScriptedScenario":
        return cls.from_list(read_json(path), source=path)


class ScriptedBackend(LlmBackend):
    """Deterministic test double driven by an ordered rule list."""

    def __init__(self, scenario: ScriptedScenario) -> None:
        super().__init__()
        self._scenario = scenario
        self._uses = [0] * len(scenario.rules)

    def _complete(self, request: CompletionRequest) -> str:
        rendered = render_request(request)
        rules = self._scenario.rules
        candidates = self._scenario.index.candidates(
            request.system, rendered[len(request.system) + 1:])
        while candidates:  # the lowest rule number first
            lowest = candidates & -candidates
            candidates ^= lowest
            i = lowest.bit_length() - 1
            rule = rules[i]
            if rule.max_uses is not None and self._uses[i] >= rule.max_uses:
                continue
            if rule.matches(rendered):
                self._uses[i] += 1
                return rule.response
        excerpt = rendered if len(rendered) <= 400 else rendered[:200] + " ... " + rendered[-180:]
        raise NoScenarioMatch(
            f"no scripted rule matched a {request.tag.value} request: {excerpt!r}"
        )


class HttpChatBackend(LlmBackend):
    """Minimal chat-completions client; endpoint, model, and key come from
    arguments or the ICE_LLM_* environment variables."""

    def __init__(
        self,
        endpoint: str | None = None,
        model: str | None = None,
        api_key: str | None = None,
        timeout: float = 60.0,
    ) -> None:
        super().__init__()
        self.endpoint = endpoint or os.environ.get(ENV_ENDPOINT, "")
        self.model = model or os.environ.get(ENV_MODEL, "")
        self.api_key = api_key or os.environ.get(ENV_API_KEY, "")
        self.timeout = timeout
        if not self.endpoint:
            raise HttpBackendError(
                f"no endpoint configured; set {ENV_ENDPOINT} or pass endpoint="
            )

    def _complete(self, request: CompletionRequest) -> str:
        import urllib.error
        import urllib.request

        wire_messages = [{"role": "system", "content": request.system}]
        wire_messages.extend(
            {"role": m.role.value.lower(), "content": m.content}
            for m in request.messages
        )
        body = json.dumps({"model": self.model, "messages": wire_messages}).encode()
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        http_request = urllib.request.Request(
            self.endpoint, data=body, headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(http_request, timeout=self.timeout) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
            return payload["choices"][0]["message"]["content"]
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise HttpBackendError(f"chat completion failed: {exc}") from exc
        except (KeyError, IndexError, ValueError, RecursionError) as exc:
            raise HttpBackendError(f"malformed chat completion reply: {exc}") from exc


class TagRoutingBackend(LlmBackend):
    """Route requests to different providers per tag (e.g. a cheaper model for
    tool handling). The router's own counters still see every call."""

    def __init__(
        self, default: LlmBackend, overrides: dict[CallTag, LlmBackend] | None = None
    ) -> None:
        super().__init__()
        self.default = default
        self.overrides = dict(overrides or {})

    def _complete(self, request: CompletionRequest) -> str:
        backend = self.overrides.get(request.tag, self.default)
        return backend.complete(request)

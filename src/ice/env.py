"""Deterministic simulated tool environment.

Tools are named functions over an in-memory world state (files, datasets, an
append-only invocation log). Behavior is a pure function of fixtures and the
invocation sequence: no clock, no randomness, no network. Milestone
predicates evaluate against the world state alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

from .errors import BadPredicate, UnknownTool, read_json
from .trajectory import StepOutcome

__all__ = [
    "ToolFailure",
    "ToolSpec",
    "InvocationRecord",
    "WorldState",
    "SimulatedEnvironment",
    "parse_predicate",
    "MilestoneChecks",
    "evaluate_milestones",
    "builtin_toolkit",
    "is_setup_entry",
    "build_environment",
    "with_fixture_records",
]


class ToolFailure(Exception):
    """Raised inside a tool behavior; recorded as a tool-error step, never
    propagated to callers."""


class InvocationRecord(NamedTuple):
    tool: str
    args: dict[str, Any]
    outcome: StepOutcome


@dataclass
class WorldState:
    files: dict[str, str] = field(default_factory=dict)
    datasets: dict[str, Any] = field(default_factory=dict)
    invocation_log: list[InvocationRecord] = field(default_factory=list)


Behavior = Callable[[dict[str, Any], WorldState], str]

# read once: a read through an Enum class goes through ``EnumType.__getattr__``
_OK, _TOOL_ERROR = StepOutcome.OK, StepOutcome.TOOL_ERROR

_ARG_TYPES: dict[str, type | tuple[type, ...]] = {
    "str": str,
    "int": int,
    "float": (int, float),
    "bool": bool,
    "list": list,
    "dict": dict,
}


@dataclass(frozen=True)
class ToolSpec:
    name: str
    schema: dict[str, str]
    behavior: Behavior
    description: str = ""


class SimulatedEnvironment:
    """Registry of tools plus one world state, owned by a single task run."""

    def __init__(
        self,
        tools: Iterable[ToolSpec] | None = None,
        world: WorldState | None = None,
    ) -> None:
        self._tools: dict[str, ToolSpec] = {tool.name: tool for tool in tools or ()}
        self.world = world or WorldState()

    def register(self, tool: ToolSpec) -> None:
        self._tools[tool.name] = tool

    def tool_names(self) -> list[str]:
        return list(self._tools)

    def invoke(self, name: str, args: dict[str, Any]) -> tuple[str, StepOutcome]:
        """Run a registered tool. Schema violations and behavior failures come
        back as tool-error outcomes, not exceptions; only an unregistered name
        raises."""
        tool = self._tools.get(name)
        if tool is None:
            raise UnknownTool(f"no tool named {name!r}")
        problem = self._check_args(tool, args)
        if problem is not None:
            output, outcome = problem, _TOOL_ERROR
        else:
            try:
                output, outcome = tool.behavior(args, self.world), _OK
            except ToolFailure as exc:
                output, outcome = str(exc), _TOOL_ERROR
        self.world.invocation_log.append(InvocationRecord(name, dict(args), outcome))
        return output, outcome

    @staticmethod
    def _check_args(tool: ToolSpec, args: dict[str, Any]) -> str | None:
        for arg_name, type_name in tool.schema.items():
            if arg_name not in args:
                return f"tool error: missing required argument {arg_name!r}"
            expected = _ARG_TYPES.get(type_name)
            if expected is not None and not isinstance(args[arg_name], expected):
                return (
                    f"tool error: argument {arg_name!r} must be of type {type_name}"
                )
        return None


# -- milestone predicates ----------------------------------------------------


def parse_predicate(text: str) -> Callable[[WorldState], bool]:
    """Parse the colon syntax used in scripted mode into its check:

    - ``file_exists:<path>``
    - ``file_contains:<path>:<needle>``
    - ``tool_called:<name>`` or ``tool_called:<name>:<min_count>``
    """
    head, _, rest = text.partition(":")
    if head == "file_exists" and rest:
        return lambda world: rest in world.files
    if head == "file_contains" and rest:
        path, sep, needle = rest.partition(":")
        if sep:
            return lambda world: needle in world.files.get(path, "")
    if head == "tool_called" and rest:
        name, sep, count = rest.partition(":")
        if not sep or count.isdecimal():
            min_count = int(count) if sep else 1
            # only clean invocations count toward the milestone
            return lambda world: sum(
                1 for rec in world.invocation_log
                if rec.tool == name and rec.outcome is StepOutcome.OK
            ) >= min_count
    raise BadPredicate(f"cannot parse milestone predicate {text!r}")


class MilestoneChecks(dict):
    """Milestone text -> its check; a text is parsed on its first lookup."""

    def __missing__(self, text: str) -> Callable[[WorldState], bool]:
        check = self[text] = parse_predicate(text)
        return check


def evaluate_milestones(milestones: list[str], env: SimulatedEnvironment,
                        checks: MilestoneChecks | None = None) -> bool:
    """Conjunction over the goal's predicates; vacuously true when empty. A
    text already in ``checks`` is not parsed again."""
    checks = MilestoneChecks() if checks is None else checks
    return all(checks[m](env.world) for m in milestones)


# -- builtin demo tools --------------------------------------------------------


def _products_detail(args: dict[str, Any], world: WorldState) -> str:
    sku = args["sku"]
    products = world.datasets.get("products", {})
    if sku not in products:
        supported = ", ".join(sorted(products))
        raise ToolFailure(
            f"fail. Can not find product {sku}. Supported product: {supported}, ..."
        )
    return str(products[sku])


def _reviews_list(args: dict[str, Any], world: WorldState) -> str:
    sku = args["sku"]
    reviews = world.datasets.get("reviews", {})
    if sku not in reviews:
        raise ToolFailure(f"fail. Can not find reviews for product {sku}.")
    return str(reviews[sku])


def _write_to_file(args: dict[str, Any], world: WorldState) -> str:
    world.files[args["filepath"]] = args["content"]
    return args["content"]


def _read_file(args: dict[str, Any], world: WorldState) -> str:
    path = args["filepath"]
    if path not in world.files:
        raise ToolFailure(f"fail. No such file {path}.")
    return world.files[path]


def _keyword_search(args: dict[str, Any], world: WorldState) -> str:
    query = args["query"]
    tokens = query.lower().split()
    documents = world.datasets.get("documents", [])
    matches = [doc for doc, lowered in zip(documents, map(str.lower, documents))
               if all(token in lowered for token in tokens)]
    if not matches:
        return f"No results for {query}."
    return "\n".join(matches)


def builtin_toolkit() -> list[ToolSpec]:
    """The demo tools: product lookups, reviews, a file system, and a
    keyword search over document fixtures."""
    return [
        ToolSpec(
            name="RapidAPIEnv_rapi_wayfair_products_detail",
            schema={"sku": "str"},
            behavior=_products_detail,
            description="Fetch the detail record of a product by sku.",
        ),
        ToolSpec(
            name="RapidAPIEnv_rapi_wayfair_reviews_list",
            schema={"sku": "str"},
            behavior=_reviews_list,
            description="Fetch the reviews of a product by sku.",
        ),
        ToolSpec(
            name="FileSystemEnv_write_to_file",
            schema={"filepath": "str", "content": "str"},
            behavior=_write_to_file,
            description="Write content to a path in the simulated file system.",
        ),
        ToolSpec(
            name="FileSystemEnv_read_file",
            schema={"filepath": "str"},
            behavior=_read_file,
            description="Read a path from the simulated file system.",
        ),
        ToolSpec(
            name="SearchEnv_keyword_search",
            schema={"query": "str"},
            behavior=_keyword_search,
            description="Search the document fixtures for all query tokens.",
        ),
    ]


#: Built once: every environment copies these into a dict of its own.
_BUILTIN_TOOLS = tuple(builtin_toolkit())


def is_setup_entry(entry: Any) -> bool:
    """Whether ``entry`` has one of the shapes ``build_environment`` reads."""
    if not isinstance(entry, dict):
        return False
    if "dataset" in entry:
        return isinstance(entry["dataset"], str) and (
            "records" in entry or isinstance(entry.get("fixture"), str))
    file = entry.get("file")
    return (isinstance(file, dict) and isinstance(file.get("path"), str)
            and isinstance(file.get("content"), str))


#: The datasets the built-in tools read: the shape each must have, and its test.
_DATASET_SHAPES: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "documents": ("a list of strings",
                  lambda v: isinstance(v, list) and all(isinstance(d, str) for d in v)),
    "products": ("an object", lambda v: isinstance(v, dict)),
    "reviews": ("an object", lambda v: isinstance(v, dict)),
}


def build_environment(
    env_setup: list[dict[str, Any]], base_dir: str | Path | None = None
) -> SimulatedEnvironment:
    """Build an environment from a task file's env_setup section.

    Entries either register a dataset (inline ``records`` or a ``fixture``
    file resolved relative to ``base_dir``) or create a file:

        {"dataset": "products", "records": {...}}
        {"dataset": "documents", "fixture": "fixtures/docs.json"}
        {"file": {"path": "notes.txt", "content": "..."}}

    A dataset a built-in tool reads (``documents``, ``products``, ``reviews``)
    of another shape raises ``ValueError`` naming its fixture; other datasets
    are free-form. An entry with both ``records`` and a ``fixture`` reads no file.
    """
    env = SimulatedEnvironment(_BUILTIN_TOOLS)
    for entry in env_setup:
        if not is_setup_entry(entry):
            raise ValueError(f"unrecognized env_setup entry: {entry}")
        if "dataset" in entry:
            name = entry["dataset"]
            records = entry["records"] if "records" in entry else read_json(
                _fixture_path(entry, base_dir))
            shape, holds = _DATASET_SHAPES.get(name, (None, None))
            if holds and not holds(records):
                source = f"{_fixture_path(entry, base_dir)}: " if "fixture" in entry else ""
                raise ValueError(f"{source}env_setup dataset {name!r} must be {shape}")
            env.world.datasets[name] = records
        else:
            env.world.files[entry["file"]["path"]] = entry["file"]["content"]
    return env


def _fixture_path(entry: dict[str, Any], base_dir: str | Path | None) -> Path:
    return (Path.cwd() if base_dir is None else Path(base_dir)) / entry["fixture"]


def with_fixture_records(entry: dict[str, Any], base_dir: str | Path | None,
                         fixtures: dict[Path, Any]) -> dict[str, Any]:
    """``entry`` with the value of the dataset fixture it names as ``records``;
    a file is read once per ``fixtures`` dict, and its entries share the value."""
    if "dataset" not in entry or "records" in entry:
        return entry
    path = _fixture_path(entry, base_dir)
    if path not in fixtures:
        fixtures[path] = read_json(path)
    return {**entry, "records": fixtures[path]}

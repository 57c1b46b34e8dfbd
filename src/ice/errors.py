"""Exception hierarchy shared across the package, and the one reader of
JSON files, whose decode errors name the file."""

from __future__ import annotations

import json
import os
from typing import Any


def read_json(path: str | os.PathLike[str]) -> Any:
    """The JSON document in the file at ``path``. A file that does not
    decode, or nests too deeply for the decoder, raises ``ValueError``
    naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"{path}: nests too deeply for the JSON decoder") from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: {exc}") from exc


class IceError(Exception):
    """Base class for every error raised by this package."""


# --- plan trees ---------------------------------------------------------


class InvalidGoal(IceError):
    """A goal or goal id violates a structural constraint."""


class UnknownGoal(IceError):
    """A goal id does not resolve to any goal in the tree."""


class SplitOfSuccessfulGoal(IceError):
    """Splitting a goal that already finished successfully."""


class CannotAddSiblingToRoot(IceError):
    """The root goal has no siblings."""


class IllegalTransition(IceError):
    """A goal status move outside the allowed transition table."""


# --- trajectories -------------------------------------------------------


class AppendAfterFinalize(IceError):
    """Mutating a trajectory after its final status was set."""


class NonLeafTrajectory(IceError):
    """A trajectory claims a goal that is not a leaf of the tree."""


# --- consolidation ------------------------------------------------------


class UnfinalizedTree(IceError):
    """Consolidating a tree that still has in-progress goals."""


class PipelineSchemaError(IceError):
    """A pipeline document does not follow the wire schema; ``violations``
    holds every problem found, and the message renders them."""

    def __init__(self, message: str, violations: tuple = ()) -> None:
        super().__init__(message)
        self.violations = violations


class ConsolidationFailed(IceError):
    """The backend never produced a valid pipeline within the repair budget."""


# --- memory -------------------------------------------------------------


class DimensionMismatch(IceError):
    """Embedding dimensions disagree between store and embedder."""


class PayloadKindMismatch(IceError):
    """A record payload does not match its declared kind."""


class UnknownRecord(IceError):
    """A record id does not exist in the memory store."""


# --- llm backends -------------------------------------------------------


class BackendError(IceError):
    """A completion provider failed."""


class NoScenarioMatch(BackendError):
    """No scripted rule matched the rendered request."""


class HttpBackendError(BackendError):
    """The HTTP chat-completion call failed (transport, timeout, or bad reply)."""


# --- simulated environment ----------------------------------------------


class UnknownTool(IceError):
    """Invoking a tool name that is not registered."""


class BadPredicate(IceError, ValueError):
    """A milestone predicate could not be parsed. A ``ValueError`` too, so
    the repair loop re-prompts on it and the CLI reports it as bad input."""


# --- task engine --------------------------------------------------------


class PlanParseError(IceError):
    """The backend never produced a parseable plan within the repair budget."""


class RectifyParseError(IceError):
    """The backend never produced applicable rectification actions."""


class StepParseError(IceError):
    """Too many consecutive unparseable replies inside a step loop."""


class PipelineRunFailed(IceError):
    """Automaton execution hit a dead end or exhausted its repair budget."""


class TaskAborted(IceError):
    """A task run stopped on an unrecoverable backend failure."""

"""Goal trees for hierarchical task runs.

A tree starts from one root goal and decomposes into dash-numbered subgoals
("1", "2-1", ...). Structural edits made while a task is running (splitting a
failed goal, adding a sibling after one) are appended to a rectification log,
so the plan history of a run stays reconstructable and countable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator

from .errors import (
    CannotAddSiblingToRoot,
    IllegalTransition,
    InvalidGoal,
    SplitOfSuccessfulGoal,
    UnknownGoal,
)

__all__ = [
    "GoalStatus",
    "GoalId",
    "Goal",
    "RectificationKind",
    "RectificationEvent",
    "PlanTree",
    "new_plan",
    "LEGAL_STATUS_TRANSITIONS",
]


class GoalStatus(str, Enum):
    PENDING = "pending"
    IN_PROGRESS = "in_progress"
    SUCCESS = "success"
    FAILURE = "failure"


#: The only legal status moves. A failed goal may gain children through
#: rectification, but its own status never becomes success afterwards.
LEGAL_STATUS_TRANSITIONS: frozenset[tuple[GoalStatus, GoalStatus]] = frozenset(
    {
        (GoalStatus.PENDING, GoalStatus.IN_PROGRESS),
        (GoalStatus.IN_PROGRESS, GoalStatus.SUCCESS),
        (GoalStatus.IN_PROGRESS, GoalStatus.FAILURE),
    }
)


@dataclass(frozen=True, order=True)
class GoalId:
    """Position of a goal in the tree as a path of 1-based child indexes.

    The root is the empty path and renders as "root"; every other goal
    renders its segments joined by dashes, e.g. ``GoalId((2, 1))`` is "2-1".
    """

    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if any(not isinstance(seg, int) or isinstance(seg, bool) or seg < 1 for seg in self.path):
            raise InvalidGoal(f"goal id segments must be positive integers: {self.path!r}")

    @property
    def is_root(self) -> bool:
        return not self.path

    @property
    def parent(self) -> "GoalId":
        if self.is_root:
            raise InvalidGoal("the root goal has no parent")
        return GoalId(self.path[:-1])

    def child(self, index: int) -> "GoalId":
        return GoalId(self.path + (index,))

    def render(self) -> str:
        return "root" if self.is_root else "-".join(str(seg) for seg in self.path)

    @classmethod
    def parse(cls, text: str) -> "GoalId":
        if text == "root":
            return cls(())
        try:
            return cls(tuple(int(seg) for seg in text.split("-")))
        except ValueError as exc:
            raise InvalidGoal(f"malformed goal id {text!r}") from exc

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


@dataclass
class Goal:
    """One node of the plan tree."""

    id: GoalId
    description: str
    milestones: list[str] = field(default_factory=list)
    status: GoalStatus = GoalStatus.PENDING
    children: list["Goal"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def set_status(self, status: GoalStatus) -> None:
        if (self.status, status) not in LEGAL_STATUS_TRANSITIONS:
            raise IllegalTransition(f"{self.status.value} -> {status.value} is not "
                                    f"allowed for goal {self.id.render()!r}")
        self.status = status


class RectificationKind(str, Enum):
    SPLIT = "split"
    ADD = "add"


@dataclass(frozen=True)
class RectificationEvent:
    """One logged structural edit of the tree."""

    kind: RectificationKind
    target: GoalId
    introduced: tuple[GoalId, ...]
    sequence_no: int


@dataclass
class PlanTree:
    """A single-rooted goal tree plus its append-only rectification log."""

    root: Goal
    log: list[RectificationEvent] = field(default_factory=list)

    # -- traversal ---------------------------------------------------------

    def goals(self) -> Iterator[Goal]:
        """Depth-first iteration, parents before children, siblings in order."""
        stack = [self.root]
        while stack:
            goal = stack.pop()
            yield goal
            stack.extend(reversed(goal.children))

    def leaves(self) -> list[Goal]:
        return [g for g in self.goals() if g.is_leaf]

    def find(self, goal_id: GoalId) -> Goal:
        node = self.root
        for seg in goal_id.path:
            for child in node.children:
                if child.id.path[-1] == seg:
                    node = child
                    break
            else:
                raise UnknownGoal(f"no goal with id {goal_id.render()!r}")
        return node

    def parent_of(self, goal_id: GoalId) -> Goal:
        return self.find(goal_id.parent)

    @property
    def rectification_count(self) -> int:
        return len(self.log)

    def is_finalized(self) -> bool:
        return all(g.status is not GoalStatus.IN_PROGRESS for g in self.goals())

    def copy(self) -> "PlanTree":
        """A copy to edit apart from this tree: fresh goals and lists, sharing
        the frozen ``GoalId``s and ``RectificationEvent``s."""
        def copied(goal: Goal) -> Goal:
            return Goal(goal.id, goal.description, list(goal.milestones), goal.status,
                        [copied(child) for child in goal.children])
        return PlanTree(copied(self.root), list(self.log))

    # -- operations --------------------------------------------------------

    def split_goal(
        self, target: GoalId, new_children: list[tuple[str, list[str]]]
    ) -> "PlanTree":
        """Append fresh children under ``target`` and log one split event.

        An empty ``new_children`` list is the identity: the tree is returned
        unchanged and nothing is logged.
        """
        goal = self.find(target)
        if goal.status is GoalStatus.SUCCESS:
            raise SplitOfSuccessfulGoal(f"goal {target.render()!r} already succeeded")
        if not new_children:
            return self
        introduced = []
        base = max((c.id.path[-1] for c in goal.children), default=0)
        for offset, (description, milestones) in enumerate(new_children, start=1):
            child = Goal(id=goal.id.child(base + offset), description=description,
                         milestones=list(milestones))
            goal.children.append(child)
            introduced.append(child.id)
        self._log_event(RectificationKind.SPLIT, target, tuple(introduced))
        return self

    def add_goal(self, after: GoalId, new_goal: tuple[str, list[str]]) -> "PlanTree":
        """Insert one sibling immediately after ``after`` and log an add event.

        The new goal takes a fresh index (max sibling index + 1); existing ids
        are never renumbered, so logged events stay valid.
        """
        if after.is_root:
            raise CannotAddSiblingToRoot("cannot add a sibling next to the root goal")
        self.find(after)  # raises UnknownGoal when absent
        parent = self.parent_of(after)
        position = next(
            i for i, c in enumerate(parent.children) if c.id == after
        )
        fresh = max(c.id.path[-1] for c in parent.children) + 1
        description, milestones = new_goal
        child = Goal(id=parent.id.child(fresh), description=description,
                     milestones=list(milestones))
        parent.children.insert(position + 1, child)
        self._log_event(RectificationKind.ADD, after, (child.id,))
        return self

    def set_status(self, target: GoalId, status: GoalStatus) -> "PlanTree":
        self.find(target).set_status(status)
        return self

    def _log_event(
        self, kind: RectificationKind, target: GoalId, introduced: tuple[GoalId, ...]
    ) -> None:
        self.log.append(
            RectificationEvent(
                kind=kind,
                target=target,
                introduced=introduced,
                sequence_no=len(self.log) + 1,
            )
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        doc = _goal_to_dict(self.root)
        doc["log"] = [
            {
                "kind": ev.kind.value,
                "target": ev.target.render(),
                "introduced": [g.render() for g in ev.introduced],
                "sequence_no": ev.sequence_no,
            }
            for ev in self.log
        ]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n"


def new_plan(
    root_description: str, subgoals: list[tuple[str, list[str]]]
) -> PlanTree:
    """Build a fresh tree: the root goal plus one pending child per subgoal.

    ``subgoals`` may be empty for degenerate single-goal tasks; the root then
    doubles as the only executable leaf.
    """
    if not root_description.strip():
        raise InvalidGoal("root description must be non-empty")
    root = Goal(id=GoalId(), description=root_description)
    for index, (description, milestones) in enumerate(subgoals, start=1):
        root.children.append(
            Goal(id=root.id.child(index), description=description,
                 milestones=list(milestones))
        )
    return PlanTree(root=root)


def _goal_to_dict(goal: Goal) -> dict[str, Any]:
    return {
        "id": goal.id.render(),
        "description": goal.description,
        "milestones": list(goal.milestones),
        "status": goal.status.value,
        "children": [_goal_to_dict(c) for c in goal.children],
    }

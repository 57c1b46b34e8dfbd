"""Tool-call trajectories recorded while executing leaf subgoals.

A trajectory is the ordered record of one subgoal's execution: thought, tool
name, arguments, output, and whether the tool call itself errored. Steps with
tool errors stay in the record; only the goal's final milestone verdict
decides whether the trajectory counts as successful.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from .errors import AppendAfterFinalize, InvalidGoal, NonLeafTrajectory, read_json
from .plan import GoalId, GoalStatus, PlanTree

__all__ = [
    "StepOutcome",
    "TrajectoryStatus",
    "Step",
    "Trajectory",
    "investigate_trajectories",
    "read_trajectory_log",
    "write_trajectory_log",
]


class StepOutcome(str, Enum):
    OK = "ok"
    TOOL_ERROR = "tool_error"


class TrajectoryStatus(str, Enum):
    SUCCESS = "success"
    FAILURE = "failure"


@dataclass(frozen=True)
class Step:
    """One tool invocation inside a trajectory. Indexes are 1-based."""

    index: int
    thought: str
    tool_name: str
    tool_args: dict[str, Any]
    tool_output: str
    outcome: StepOutcome = StepOutcome.OK


@dataclass
class Trajectory:
    goal_id: GoalId
    steps: list[Step] = field(default_factory=list)
    final_status: TrajectoryStatus | None = None

    @property
    def is_finalized(self) -> bool:
        return self.final_status is not None

    def record_step(self, step: Step) -> Step:
        """Append a step, forcing the next contiguous index."""
        if self.is_finalized:
            raise AppendAfterFinalize(
                f"trajectory for {self.goal_id.render()!r} is finalized"
            )
        expected = len(self.steps) + 1
        if step.index != expected:
            step = dataclasses.replace(step, index=expected)
        self.steps.append(step)
        return step

    def finalize(self, status: TrajectoryStatus) -> None:
        if self.is_finalized:
            raise AppendAfterFinalize(
                f"trajectory for {self.goal_id.render()!r} is already finalized"
            )
        self.final_status = status

    # -- log file format ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "goal_id": self.goal_id.render(),
            "final_status": self.final_status.value if self.final_status else None,
            "steps": [
                {
                    "thought": s.thought,
                    "tool_name": s.tool_name,
                    "tool_args": s.tool_args,
                    "tool_output": s.tool_output,
                    "outcome": s.outcome.value,
                }
                for s in self.steps
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Trajectory":
        traj = cls(goal_id=GoalId.parse(doc["goal_id"]))
        for i, raw in enumerate(doc.get("steps", []), start=1):
            traj.steps.append(
                Step(
                    index=i,
                    thought=raw.get("thought", ""),
                    tool_name=raw["tool_name"],
                    tool_args=dict(raw.get("tool_args", {})),
                    tool_output=raw.get("tool_output", ""),
                    outcome=StepOutcome(raw.get("outcome", "ok")),
                )
            )
        status = doc.get("final_status")
        if status is not None:
            traj.final_status = TrajectoryStatus(status)
        return traj


def investigate_trajectories(
    tree: PlanTree, all_trajectories: list[Trajectory]
) -> list[Trajectory]:
    """Select the trajectories worth consolidating: those of successful leaves.

    Trajectories containing tool-error steps are kept as long as the goal
    itself ended in success. Passing a trajectory whose goal is not a leaf of
    ``tree`` raises ``NonLeafTrajectory``.
    """
    kept = []
    for traj in all_trajectories:
        goal = tree.find(traj.goal_id)
        if not goal.is_leaf:
            raise NonLeafTrajectory(
                f"goal {traj.goal_id.render()!r} has children; only leaves carry trajectories"
            )
        if goal.status is GoalStatus.SUCCESS:
            kept.append(traj)
    return kept


def read_trajectory_log(path: str) -> tuple[Trajectory, str]:
    """Load a trajectory log file.

    Returns the trajectory plus the optional goal description stored in the
    header (used as the query line by the offline consolidation command). A
    file that is not JSON, or a document that ``Trajectory.from_dict``
    cannot read, raises one ``ValueError`` naming the file.
    """
    doc = read_json(path)
    try:
        return Trajectory.from_dict(doc), doc.get("description", "")
    except (LookupError, TypeError, AttributeError, ValueError, InvalidGoal) as exc:
        raise ValueError(
            f"{path}: not a trajectory log, an object with a goal_id string and a steps "
            f"list of objects, each with a tool_name ({type(exc).__name__}: {exc})") from exc


def write_trajectory_log(path: str, traj: Trajectory, description: str = "") -> None:
    doc = traj.to_dict()
    if description:
        doc = {"goal_id": doc["goal_id"], "description": description,
               "final_status": doc["final_status"], "steps": doc["steps"]}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, ensure_ascii=False) + "\n")

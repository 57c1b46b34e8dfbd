from __future__ import annotations

import random

import pytest

from helpers import finish, g
from ice.errors import AppendAfterFinalize, NonLeafTrajectory
from ice.plan import GoalStatus, new_plan
from ice.trajectory import (
    Step,
    StepOutcome,
    Trajectory,
    TrajectoryStatus,
    investigate_trajectories,
)


def make_step(i: int = 0, tool: str = "SearchEnv_keyword_search",
              outcome: StepOutcome = StepOutcome.OK) -> Step:
    return Step(index=i, thought="t", tool_name=tool, tool_args={"query": "x"},
                tool_output="out", outcome=outcome)


def test_record_step_assigns_contiguous_indices():
    traj = Trajectory(goal_id=g("1"))
    for _ in range(4):
        traj.record_step(make_step(99))
    assert [s.index for s in traj.steps] == [1, 2, 3, 4]


def test_record_step_renumbers_a_step_with_the_wrong_index_and_keeps_its_fields():
    traj = Trajectory(goal_id=g("1"))
    traj.record_step(make_step(1))
    wrong = make_step(7, tool="FileSystemEnv_read_file", outcome=StepOutcome.TOOL_ERROR)
    stored = traj.record_step(wrong)
    assert type(stored) is Step and stored is traj.steps[-1]
    assert stored == wrong._replace(index=2)
    assert wrong.index == 7  # the caller's step is left as it was


def test_append_after_finalize_rejected():
    traj = Trajectory(goal_id=g("1"))
    traj.finalize(TrajectoryStatus.SUCCESS)
    with pytest.raises(AppendAfterFinalize):
        traj.record_step(make_step())


def test_double_finalize_rejected():
    traj = Trajectory(goal_id=g("1"))
    traj.finalize(TrajectoryStatus.FAILURE)
    with pytest.raises(AppendAfterFinalize):
        traj.finalize(TrajectoryStatus.SUCCESS)


def test_random_interleavings_match_reference_machine():
    # reference: two states (open, finalized); append legal only while open,
    # finalize legal exactly once
    rng = random.Random(5)
    for _ in range(200):
        traj = Trajectory(goal_id=g("1"))
        finalized = False
        appended = 0
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.7:
                if finalized:
                    with pytest.raises(AppendAfterFinalize):
                        traj.record_step(make_step())
                else:
                    traj.record_step(make_step())
                    appended += 1
            else:
                if finalized:
                    with pytest.raises(AppendAfterFinalize):
                        traj.finalize(TrajectoryStatus.SUCCESS)
                else:
                    traj.finalize(TrajectoryStatus.SUCCESS)
                    finalized = True
        assert len(traj.steps) == appended
        assert [s.index for s in traj.steps] == list(range(1, appended + 1))
        assert traj.is_finalized == finalized


# -- investigation ----------------------------------------------------------------


def climate_trajectory() -> Trajectory:
    """A successful run that still contains a repeated and a wrong tool call."""
    traj = Trajectory(goal_id=g("1"))
    traj.record_step(make_step(tool="SearchEnv_keyword_search"))
    traj.record_step(make_step(tool="SearchEnv_keyword_search"))  # repeated
    traj.record_step(make_step(tool="FileSystemEnv_read_file",
                               outcome=StepOutcome.TOOL_ERROR))  # wrong call
    traj.record_step(make_step(tool="FileSystemEnv_write_to_file"))
    traj.finalize(TrajectoryStatus.SUCCESS)
    return traj


def test_successful_trajectory_with_errors_is_kept():
    tree = new_plan("research climate change", [("search climate news", [])])
    finish(tree, "1", GoalStatus.SUCCESS)
    kept = investigate_trajectories(tree, [climate_trajectory()])
    assert len(kept) == 1
    assert any(s.outcome is StepOutcome.TOOL_ERROR for s in kept[0].steps)


def test_failed_goal_trajectory_is_excluded():
    tree = new_plan("root", [("a", [])])
    finish(tree, "1", GoalStatus.FAILURE)
    traj = Trajectory(goal_id=g("1"))
    traj.finalize(TrajectoryStatus.FAILURE)
    assert investigate_trajectories(tree, [traj]) == []


def test_non_leaf_trajectory_rejected():
    tree = new_plan("root", [("a", [])])
    finish(tree, "1", GoalStatus.FAILURE)
    tree.split_goal(g("1"), [("x", [])])
    traj = Trajectory(goal_id=g("1"))
    with pytest.raises(NonLeafTrajectory):
        investigate_trajectories(tree, [traj])


def test_investigation_matches_brute_force_filter():
    rng = random.Random(9)
    for _ in range(50):
        count = rng.randint(1, 6)
        tree = new_plan("root", [(f"s{i}", []) for i in range(count)])
        trajectories = []
        status_by_goal = {}
        for i in range(1, count + 1):
            status = rng.choice(
                [GoalStatus.PENDING, GoalStatus.SUCCESS, GoalStatus.FAILURE]
            )
            if status is not GoalStatus.PENDING:
                finish(tree, str(i), status)
            status_by_goal[str(i)] = status
            trajectories.append(Trajectory(goal_id=g(str(i))))
        kept = investigate_trajectories(tree, trajectories)
        expected = [
            t for t in trajectories
            if status_by_goal[t.goal_id.render()] is GoalStatus.SUCCESS
        ]
        assert kept == expected  # equality also checks order preservation


# -- log format ----------------------------------------------------------------------


def test_trajectory_dict_round_trip():
    traj = climate_trajectory()
    restored = Trajectory.from_dict(traj.to_dict())
    assert restored.to_dict() == traj.to_dict()
    assert [s.index for s in restored.steps] == [1, 2, 3, 4]


def test_trajectory_log_file_round_trip(tmp_path):
    from ice.trajectory import read_trajectory_log, write_trajectory_log

    path = tmp_path / "log.json"
    write_trajectory_log(str(path), climate_trajectory(), description="climate research")
    restored, description = read_trajectory_log(str(path))
    assert description == "climate research"
    assert restored.final_status is TrajectoryStatus.SUCCESS
    assert len(restored.steps) == 4

from __future__ import annotations

import copy
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import finish, g
from ice.errors import (
    CannotAddSiblingToRoot,
    IllegalTransition,
    InvalidGoal,
    SplitOfSuccessfulGoal,
    UnknownGoal,
)
from ice.plan import (
    LEGAL_STATUS_TRANSITIONS,
    GoalId,
    GoalStatus,
    PlanTree,
    new_plan,
)


def walk_validate(tree: PlanTree) -> None:
    """Independent invariant walker: unique ids, parent-prefixed paths,
    single root, positive segments."""
    seen: set[tuple[int, ...]] = set()

    def visit(goal, parent_path):
        assert goal.id.path not in seen, "duplicate goal id"
        seen.add(goal.id.path)
        if parent_path is None:
            assert goal.id.path == ()
        else:
            assert goal.id.path[:-1] == parent_path
            assert goal.id.path[-1] >= 1
        for child in goal.children:
            visit(child, goal.id.path)

    visit(tree.root, None)


# -- goal ids -----------------------------------------------------------------


def test_goal_id_rendering_and_parsing():
    assert GoalId().render() == "root"
    assert GoalId((1, 2, 3)).render() == "1-2-3"
    assert GoalId.parse("root") == GoalId()
    assert GoalId.parse("2-1") == GoalId((2, 1))


def test_goal_id_rejects_bad_segments():
    with pytest.raises(InvalidGoal):
        GoalId((0,))
    with pytest.raises(InvalidGoal):
        GoalId.parse("1-x")


def test_goal_id_parent_and_child():
    assert GoalId((2, 1)).parent == GoalId((2,))
    assert GoalId((2,)).child(3) == GoalId((2, 3))
    with pytest.raises(InvalidGoal):
        _ = GoalId().parent


# -- new_plan -------------------------------------------------------------------


def test_new_plan_blog_shape():
    tree = new_plan(
        "write blog post",
        [("research", []), ("draft", []), ("polish", [])],
    )
    leaves = [goal.id.render() for goal in tree.leaves()]
    assert leaves == ["1", "2", "3"]
    assert all(goal.status is GoalStatus.PENDING for goal in tree.goals())
    assert tree.log == []


def test_new_plan_degenerate_single_goal():
    tree = new_plan("g", [])
    assert tree.root.is_leaf
    assert list(tree.goals()) == [tree.root]


def test_new_plan_rejects_empty_description():
    with pytest.raises(InvalidGoal):
        new_plan("   ", [("a", [])])


def test_new_plan_allows_duplicate_subgoal_descriptions():
    tree = new_plan("root", [("same", []), ("same", [])])
    assert [c.description for c in tree.root.children] == ["same", "same"]


@settings(max_examples=100, deadline=None)
@given(
    description=st.text(min_size=1).filter(lambda s: s.strip()),
    subgoals=st.lists(st.tuples(st.text(), st.lists(st.text(), max_size=3)), max_size=5),
)
def test_new_plan_outputs_satisfy_invariants(description, subgoals):
    walk_validate(new_plan(description, subgoals))


# -- split_goal -------------------------------------------------------------------


def test_split_failed_goal_adds_pending_child():
    tree = new_plan("root", [("a", []), ("b", [])])
    finish(tree, "2", GoalStatus.FAILURE)
    tree.split_goal(g("2"), [("b attempt 2", [])])
    child = tree.find(g("2-1"))
    assert child.status is GoalStatus.PENDING
    assert len(tree.log) == 1
    assert tree.log[0].introduced == (g("2-1"),)


def test_split_with_empty_children_is_identity():
    tree = new_plan("root", [("a", [])])
    tree.split_goal(g("1"), [])
    assert tree.find(g("1")).is_leaf
    assert tree.log == []


def test_split_guards():
    tree = new_plan("root", [("a", [])])
    finish(tree, "1", GoalStatus.SUCCESS)
    with pytest.raises(SplitOfSuccessfulGoal):
        tree.split_goal(g("1"), [("x", [])])
    with pytest.raises(UnknownGoal):
        tree.split_goal(g("9"), [("x", [])])


# -- add_goal -------------------------------------------------------------------


def test_add_renumbers_nothing_and_matches_case_labels():
    tree = new_plan("root", [("a", []), ("b", []), ("c", [])])
    finish(tree, "2", GoalStatus.FAILURE)
    tree.split_goal(g("2"), [("first attempt", [])])
    tree.add_goal(g("2-1"), ("second", []))
    tree.add_goal(g("2-2"), ("third", []))
    ids = [c.id.render() for c in tree.find(g("2")).children]
    assert ids == ["2-1", "2-2", "2-3"]


def test_add_after_last_sibling_appends():
    tree = new_plan("root", [("a", []), ("b", [])])
    tree.add_goal(g("2"), ("c", []))
    assert [c.id.render() for c in tree.root.children] == ["1", "2", "3"]


def test_add_guards():
    tree = new_plan("root", [("a", [])])
    with pytest.raises(CannotAddSiblingToRoot):
        tree.add_goal(GoalId(), ("x", []))
    with pytest.raises(UnknownGoal):
        tree.add_goal(g("7"), ("x", []))


def test_add_insertion_keeps_dfs_position():
    tree = new_plan("root", [("a", []), ("b", []), ("c", [])])
    tree.add_goal(g("1"), ("a2", []))
    # fresh index 4, but positioned right after goal 1
    assert [c.id.render() for c in tree.root.children] == ["1", "4", "2", "3"]


# -- fuzzing against a shadow tree ------------------------------------------------


class _ShadowNode:
    def __init__(self, label):
        self.label = label
        self.children = []


def _shadow_apply(shadow_index, op):
    kind, target, count = op
    node = shadow_index[target]
    if kind == "split":
        base = max((int(c.label.rsplit("-", 1)[-1]) for c in node.children), default=0)
        for i in range(1, count + 1):
            label = f"{node.label}-{base + i}" if node.label != "root" else str(base + i)
            child = _ShadowNode(label)
            node.children.append(child)
            shadow_index[label] = child
    else:  # add
        parent_label = target.rsplit("-", 1)[0] if "-" in target else "root"
        parent = shadow_index[parent_label]
        position = next(i for i, c in enumerate(parent.children) if c.label == target)
        fresh = max(int(c.label.rsplit("-", 1)[-1]) for c in parent.children) + 1
        label = f"{parent_label}-{fresh}" if parent_label != "root" else str(fresh)
        child = _ShadowNode(label)
        parent.children.insert(position + 1, child)
        shadow_index[label] = child


def _shadow_leaves(node):
    if not node.children:
        return [node.label]
    out = []
    for child in node.children:
        out.extend(_shadow_leaves(child))
    return out


def test_interleaved_split_add_matches_ordered_list_oracle():
    rng = random.Random(7)
    for _ in range(50):
        tree = new_plan("root", [("s", []), ("s", [])])
        shadow_root = _ShadowNode("root")
        shadow_index = {"root": shadow_root}
        _shadow_apply(shadow_index, ("split", "root", 2))
        for _ in range(rng.randint(1, 15)):
            labels = [goal.id.render() for goal in tree.goals()]
            target = rng.choice(labels)
            if rng.random() < 0.5:
                count = rng.randint(1, 3)
                tree.split_goal(g(target), [("s", [])] * count)
                _shadow_apply(shadow_index, ("split", target, count))
            elif target != "root":
                tree.add_goal(g(target), ("s", []))
                _shadow_apply(shadow_index, ("add", target, 1))
        walk_validate(tree)
        assert [goal.id.render() for goal in tree.leaves()] == _shadow_leaves(shadow_root)


def test_identical_operation_sequences_are_deterministic():
    def build():
        tree = new_plan("root", [("a", []), ("b", [])])
        finish(tree, "1", GoalStatus.FAILURE)
        tree.split_goal(g("1"), [("x", []), ("y", [])])
        tree.add_goal(g("1-1"), ("z", []))
        return [goal.id.render() for goal in tree.leaves()]

    assert build() == build()


# -- set_status --------------------------------------------------------------------


def test_status_legal_chain():
    tree = new_plan("root", [("a", [])])
    tree.set_status(g("1"), GoalStatus.IN_PROGRESS)
    tree.set_status(g("1"), GoalStatus.SUCCESS)
    assert tree.find(g("1")).status is GoalStatus.SUCCESS


def test_status_success_to_failure_rejected():
    tree = new_plan("root", [("a", [])])
    finish(tree, "1", GoalStatus.SUCCESS)
    with pytest.raises(IllegalTransition):
        tree.set_status(g("1"), GoalStatus.FAILURE)


def test_status_full_transition_matrix():
    for current, target in itertools.product(GoalStatus, GoalStatus):
        tree = new_plan("root", [("a", [])])
        tree.find(g("1")).status = current  # place the goal directly for the matrix
        should_pass = (current, target) in LEGAL_STATUS_TRANSITIONS
        if should_pass:
            tree.set_status(g("1"), target)
            assert tree.find(g("1")).status is target
        else:
            with pytest.raises(IllegalTransition):
                tree.set_status(g("1"), target)


# -- bookkeeping -----------------------------------------------------------------------


def test_rectification_count_tracks_logged_events():
    tree = new_plan("root", [("a", [])])
    finish(tree, "1", GoalStatus.FAILURE)
    tree.split_goal(g("1"), [("x", [])])
    tree.split_goal(g("1"), [])  # identity, not logged
    tree.add_goal(g("1-1"), ("y", []))
    assert tree.rectification_count == 2
    assert [ev.sequence_no for ev in tree.log] == [1, 2]


def test_random_split_add_sequences_keep_invariants():
    rng = random.Random(11)
    for _ in range(100):
        tree = new_plan("root", [(f"d{i}", []) for i in range(rng.randint(0, 5))])
        for _ in range(rng.randint(0, 10)):
            goals = [goal for goal in tree.goals()]
            target = rng.choice(goals)
            if rng.random() < 0.6:
                tree.split_goal(target.id, [("s", [])] * rng.randint(0, 3))
            elif not target.id.is_root:
                tree.add_goal(target.id, ("a", []))
        walk_validate(tree)


# -- copy --------------------------------------------------------------------------------


def test_edits_of_a_copy_leave_the_original_as_it_was():
    tree = new_plan("root", [("a", ["file_exists:a.txt"]), ("b", []), ("c", [])])
    finish(tree, "1", GoalStatus.FAILURE)
    tree.split_goal(g("1"), [("a1", ["file_exists:a1.txt"])])
    before = tree.to_dict()
    staged = tree.copy()
    assert staged.to_dict() == before
    # the frozen ids and log events are shared, the goals are not
    assert staged.log[0] is tree.log[0]
    assert staged.find(g("1-1")).id is tree.find(g("1-1")).id
    assert staged.find(g("1-1")) is not tree.find(g("1-1"))

    staged.split_goal(g("1"), [("a2", [])])
    staged.split_goal(g("2"), [("b1", [])])
    staged.add_goal(g("1-1"), ("a1b", []))
    staged.add_goal(g("3"), ("d", []))
    staged.set_status(g("3"), GoalStatus.IN_PROGRESS)
    staged.find(g("1-1")).milestones.append("file_exists:x.txt")
    assert tree.to_dict() == before
    assert len(staged.log) == 5


def test_a_copy_edits_as_a_deep_copy_does_and_leaves_the_original_alone():
    rng = random.Random(23)
    for _ in range(100):
        tree = new_plan("root", [(f"d{i}", [f"file_exists:d{i}"]) for i in range(rng.randint(0, 4))])
        for _ in range(rng.randint(0, 6)):
            target = rng.choice(list(tree.goals()))
            tree.split_goal(target.id, [("s", ["file_exists:s"])] * rng.randint(0, 2))
        before = tree.to_dict()
        staged, oracle = tree.copy(), copy.deepcopy(tree)
        for _ in range(rng.randint(1, 8)):
            target = rng.choice(list(oracle.goals())).id
            roll, count = rng.random(), rng.randint(0, 2)
            for edited in (staged, oracle):
                if roll < 0.4:
                    edited.split_goal(target, [("s", [])] * count)
                elif roll < 0.7 and not target.is_root:
                    edited.add_goal(target, ("a", ["file_exists:a"]))
                elif edited.find(target).status is GoalStatus.PENDING:
                    edited.set_status(target, GoalStatus.IN_PROGRESS)
        assert staged.to_dict() == oracle.to_dict()
        assert tree.to_dict() == before

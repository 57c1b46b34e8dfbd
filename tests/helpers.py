"""Shared test utilities: canned trees, random tree generation, and the
independent brute-force oracle for workflow consolidation."""

from __future__ import annotations

import random
from typing import Any

from ice.consolidate import Workflow, WorkflowEntry
from ice.llm import ScriptedBackend, ScriptedScenario
from ice.plan import Goal, GoalId, GoalStatus, PlanTree, new_plan

g = GoalId.parse


def scripted(rules: list[dict[str, Any]]) -> ScriptedBackend:
    return ScriptedBackend(ScriptedScenario.from_list(rules))


def finish(tree: PlanTree, goal_id: str, status: GoalStatus) -> None:
    tree.set_status(g(goal_id), GoalStatus.IN_PROGRESS)
    tree.set_status(g(goal_id), status)


def blog_case_tree() -> PlanTree:
    """The blog-post case: subgoal 2 fails, is split into 2-1 which also
    fails, and two added siblings 2-2 and 2-3 carry the work to success."""
    tree = new_plan(
        "prepare a blog post about two wayfair products",
        [
            ("gather product information", ["tool_called:RapidAPIEnv_rapi_wayfair_products_detail"]),
            ("collect review material", ["file_exists:review_material.txt"]),
            ("draft the blog post", ["file_exists:blog_post.txt"]),
        ],
    )
    finish(tree, "1", GoalStatus.SUCCESS)
    finish(tree, "2", GoalStatus.FAILURE)
    tree.split_goal(g("2"), [("fetch all reviews in one bulk call", ["file_exists:review_material.txt"])])
    finish(tree, "2-1", GoalStatus.FAILURE)
    tree.add_goal(g("2-1"), ("fetch reviews per product", ["tool_called:RapidAPIEnv_rapi_wayfair_reviews_list"]))
    tree.add_goal(g("2-2"), ("write the review material file", ["file_exists:review_material.txt"]))
    finish(tree, "2-2", GoalStatus.SUCCESS)
    finish(tree, "2-3", GoalStatus.SUCCESS)
    finish(tree, "3", GoalStatus.SUCCESS)
    finish(tree, "root", GoalStatus.SUCCESS)
    return tree


def random_finalized_tree(rng: random.Random, max_depth: int = 5, max_fanout: int = 4) -> PlanTree:
    tree = new_plan(
        f"root goal {rng.randrange(10_000)}",
        [(f"subgoal {rng.randrange(10_000)}", []) for _ in range(rng.randint(0, max_fanout))],
    )
    for _ in range(rng.randint(0, 12)):
        leaves = [goal for goal in tree.goals() if goal.is_leaf and len(goal.id.path) < max_depth]
        if not leaves:
            break
        target = rng.choice(leaves)
        tree.split_goal(
            target.id,
            [(f"subgoal {rng.randrange(10_000)}", []) for _ in range(rng.randint(1, max_fanout))],
        )
    for goal in list(tree.goals()):
        roll = rng.random()
        if roll < 0.25:
            continue  # stays pending
        finish(tree, goal.id.render(), GoalStatus.SUCCESS if roll < 0.65 else GoalStatus.FAILURE)
    return tree


def oracle_workflows(tree: PlanTree) -> list[Workflow]:
    """Brute-force reference: explicitly build the failure-pruned mirror of
    each subtree (failed nodes removed, children spliced in place), list its
    leaves depth-first, and keep the ones that were executed successfully."""

    def prune(goal: Goal) -> list[dict]:
        pruned_children: list[dict] = []
        for child in goal.children:
            pruned_children.extend(prune(child))
        if goal.status is GoalStatus.FAILURE:
            return pruned_children
        return [{"goal": goal, "children": pruned_children}]

    def dfs_leaves(node: dict) -> list[Goal]:
        if not node["children"]:
            return [node["goal"]]
        collected: list[Goal] = []
        for child in node["children"]:
            collected.extend(dfs_leaves(child))
        return collected

    def surviving(goal: Goal) -> list[Goal]:
        forest: list[dict] = []
        for child in goal.children:
            forest.extend(prune(child))
        if not forest:
            return [] if goal.status is GoalStatus.FAILURE else [goal]
        leaves: list[Goal] = []
        for node in forest:
            leaves.extend(dfs_leaves(node))
        return leaves

    def executed(leaf: Goal) -> bool:
        # trajectories exist exactly for original leaves that ran to success
        return leaf.is_leaf and leaf.status is GoalStatus.SUCCESS

    workflows = []
    for goal in tree.goals():
        if goal.is_leaf:
            continue
        leaves = surviving(goal)
        entries = [leaf for leaf in leaves if executed(leaf)]
        if goal.status is GoalStatus.SUCCESS:
            workflows.append(
                Workflow(
                    source_goal=goal.id,
                    source_description=goal.description,
                    entries=[
                        WorkflowEntry(leaf.id, leaf.description, tuple(leaf.milestones))
                        for leaf in entries
                    ],
                )
            )
    return workflows

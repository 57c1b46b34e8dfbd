"""Plan trees, rectification tracking, and workflow consolidation.

Walks the blog-post scenario: a three-step plan whose second step fails, gets
split, fails again, and is carried to success by two added siblings. The
finished tree is then consolidated into linear workflows.
"""

from ice import GoalId, GoalStatus, new_plan
from ice.consolidate import consolidate_workflows

g = GoalId.parse

# The planner proposed three subgoals for the user goal.
tree = new_plan(
    "prepare a blog post about two wayfair products",
    [
        ("gather product information", ["tool_called:RapidAPIEnv_rapi_wayfair_products_detail"]),
        ("collect review material", ["file_exists:review_material.txt"]),
        ("draft the blog post", ["file_exists:blog_post.txt"]),
    ],
)

# Subgoal 1 succeeds; subgoal 2 fails its milestones.
tree.set_status(g("1"), GoalStatus.IN_PROGRESS)
tree.set_status(g("1"), GoalStatus.SUCCESS)
tree.set_status(g("2"), GoalStatus.IN_PROGRESS)
tree.set_status(g("2"), GoalStatus.FAILURE)

# First rectification: split the failed goal into a smaller one ... which fails too.
tree.split_goal(g("2"), [("fetch all reviews in one bulk call", [])])
tree.set_status(g("2-1"), GoalStatus.IN_PROGRESS)
tree.set_status(g("2-1"), GoalStatus.FAILURE)

# Second rectification: add two siblings after the failed attempt. Note the
# fresh indexes 2-2 and 2-3; nothing is ever renumbered.
tree.add_goal(g("2-1"), ("fetch reviews per product", []))
tree.add_goal(g("2-2"), ("write the review material file", []))
for goal_id in ("2-2", "2-3", "3", "root"):
    tree.set_status(g(goal_id), GoalStatus.IN_PROGRESS)
    tree.set_status(g(goal_id), GoalStatus.SUCCESS)

print("final statuses:")
for goal in tree.goals():
    print(f"  {goal.id.render():<5} {goal.status.value:<11} {goal.description}")

print(f"\nrectification log ({tree.rectification_count} events):")
for event in tree.log:
    introduced = ", ".join(i.render() for i in event.introduced)
    print(f"  #{event.sequence_no} {event.kind.value:<5} at {event.target.render()}: +[{introduced}]")

# Consolidation prunes every failed goal and linearizes the surviving
# executed leaves. Only successfully achieved goals get workflows:
print("\nworkflows:")
for wf in consolidate_workflows(tree):
    print(f"  {wf.source_goal.render()}: {[e.goal_id.render() for e in wf.entries]}")

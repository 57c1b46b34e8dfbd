"""One task end to end, twice: a training run, then an exploited rerun.

Everything is scripted: the backend replays canned replies, the environment
simulates the tools. The training run plans, executes its two subgoals with
step-wise tool calls, and consolidates the successful trajectories into
pipelines plus a workflow. The rerun retrieves those and finishes the same
task with a fraction of the backend calls.
"""

from ice import (
    ExperienceMemory,
    RunConfig,
    ScriptedBackend,
    ScriptedScenario,
    TaskSpec,
    run_task,
)
from ice.engine import RunMode

detail_pipeline = {
    "pipeline_name": "look up product details",
    "pipeline_purpose": "fetch the product record",
    "nodes": [
        {"node_name": "start", "tool_name": "Start", "node_type": "Start"},
        {"node_name": "end", "tool_name": "End", "node_type": "End"},
        {"node_name": "detail_node",
         "tool_name": "RapidAPIEnv_rapi_wayfair_products_detail",
         "node_type": "ToolServer"},
    ],
    "edges": [
        {"edge_name": "s", "edge_type": "data", "from_node": "start",
         "to_node": "detail_node", "comments": ["fetch the sku named in the goal"]},
        {"edge_name": "e", "edge_type": "data", "from_node": "detail_node",
         "to_node": "end", "comments": []},
    ],
}
note_pipeline = {
    "pipeline_name": "write the research note",
    "pipeline_purpose": "write the note file",
    "nodes": [
        {"node_name": "start", "tool_name": "Start", "node_type": "Start"},
        {"node_name": "end", "tool_name": "End", "node_type": "End"},
        {"node_name": "write_node", "tool_name": "FileSystemEnv_write_to_file",
         "node_type": "ToolServer"},
    ],
    "edges": [
        {"edge_name": "s", "edge_type": "data", "from_node": "start",
         "to_node": "write_node", "comments": ["write the note file"]},
        {"edge_name": "e", "edge_type": "data", "from_node": "write_node",
         "to_node": "end", "comments": []},
    ],
}

scenario = ScriptedScenario.from_list([
    {"match": "Goal: assemble a product research note", "response": {"subgoals": [
        {"description": "look up product details",
         "milestones": ["tool_called:RapidAPIEnv_rapi_wayfair_products_detail"]},
        {"description": "write the research note",
         "milestones": ["file_exists:note.txt"]},
    ]}},
    {"match": "Subgoal: look up product details\nCompleted steps: 0",
     "response": {"thought": "fetch it", "tool_name":
                  "RapidAPIEnv_rapi_wayfair_products_detail",
                  "tool_args": {"sku": "A"}}},
    {"match": "Subgoal: look up product details\nCompleted steps: 1",
     "response": {"thought": "done", "terminate": True}},
    {"match": "Subgoal: write the research note\nCompleted steps: 0",
     "response": {"thought": "write it", "tool_name": "FileSystemEnv_write_to_file",
                  "tool_args": {"filepath": "note.txt", "content": "product A notes"}}},
    {"match": "Subgoal: write the research note\nCompleted steps: 1",
     "response": {"thought": "done", "terminate": True}},
    {"match": "Query: look up product details", "response": detail_pipeline},
    {"match": "Query: write the research note", "response": note_pipeline},
    {"match": "Pipeline node: look up product details / detail_node",
     "response": {"sku": "A"}},
    {"match": "Pipeline node: write the research note / write_node",
     "response": {"filepath": "note.txt", "content": "product A notes"}},
])

task = TaskSpec(
    task_id="note",
    goal="assemble a product research note",
    env_setup=[{"dataset": "products", "records": {"A": "record A"}}],
)

memory = ExperienceMemory()
backend = ScriptedBackend(scenario)

train = run_task(task, memory, backend, RunConfig(mode=RunMode.TRAIN))
print("training run:")
print(f"  backend calls: {train.counters['all']} "
      f"(tool handling {train.counters['by_tag']['tool_handling']}, "
      f"consolidation {train.counters['by_tag']['consolidation']})")
print(f"  memory now holds {len(memory)} records")

exploit = run_task(
    task, memory, backend,
    RunConfig(planning_ice=True, execution_ice=True, mode=RunMode.EXPLOIT),
)
print("exploited rerun:")
print(f"  backend calls: {exploit.counters['all']}")
for outcome in exploit.outcomes:
    print(f"  {outcome.goal_id.render()}: served by {outcome.method.value} "
          f"({outcome.pipeline_used}), success={outcome.success}")

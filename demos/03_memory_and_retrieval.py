"""The embedding memory: keys, cosine retrieval, and the threshold gate.

Records are keyed by text; the local embedder hashes tokens into a fixed
number of buckets and normalizes, so everything here is offline and
reproducible. Retrieval returns the most similar record of a kind only when
the similarity clears the threshold the caller passes; the engine passes the
one in its ``RunConfig``.
"""

import tempfile
from pathlib import Path

from ice.engine import DEFAULT_RETRIEVAL_THRESHOLD
from ice.memory import (
    ExperienceMemory,
    RecordKind,
    pipeline_key,
    workflow_key,
)

memory = ExperienceMemory()

# Workflows are keyed by the goal description alone; pipelines by the
# subgoal description plus its milestones.
workflow_payload = {"source_goal": "root",
                    "source_description": "Prepare a research brief about solar markets",
                    "entries": []}
memory.store(RecordKind.WORKFLOW,
             workflow_key("Prepare a research brief about solar markets"),
             workflow_payload)

pipeline_payload = {"pipeline_name": "collect_facts", "pipeline_purpose": "demo",
                    "nodes": [], "edges": []}
memory.store(RecordKind.PIPELINE,
             pipeline_key("Collect background facts about solar markets",
                          ["tool_called:SearchEnv_keyword_search"]),
             pipeline_payload)

queries = [
    "Prepare a fresh research brief about solar markets",   # same topic
    "Prepare a fresh research brief about battery storage",  # different topic
    "Write a poem about the sea",                            # unrelated
]
print(f"workflow retrieval at the default threshold ({DEFAULT_RETRIEVAL_THRESHOLD}):")
for query in queries:
    hit = memory.retrieve(RecordKind.WORKFLOW, query, DEFAULT_RETRIEVAL_THRESHOLD)
    if hit is None:
        # below the threshold the engine ignores memory and works from scratch
        best = memory.retrieve(RecordKind.WORKFLOW, query, threshold=0.0)
        print(f"  MISS  {query!r} (best similarity {best[1]:.3f})")
    else:
        print(f"  HIT   {query!r} -> record {hit[0].record_id} at {hit[1]:.3f}")

# Identical key text retrieves at similarity 1.0, up to rounding.
exact = memory.retrieve(
    RecordKind.PIPELINE,
    pipeline_key("Collect background facts about solar markets",
                 ["tool_called:SearchEnv_keyword_search"]),
    DEFAULT_RETRIEVAL_THRESHOLD,
)
print(f"\nself-retrieval similarity: {exact[1]:.12f}")

# Snapshots are plain JSON; loading them back preserves ids and embeddings.
with tempfile.TemporaryDirectory() as tmp:
    path = str(Path(tmp) / "memory.json")
    memory.save(path)
    restored = ExperienceMemory.load(path)
print(f"snapshot round-trip: {len(restored)} records, "
      f"dimension {restored.dimension}")

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ice.errors import DimensionMismatch, PayloadKindMismatch, UnknownRecord
from ice.memory import (
    DEFAULT_RETRIEVAL_THRESHOLD,
    Embedding,
    EmbedderProvider,
    EmbedderSpec,
    ExperienceMemory,
    LocalDeterministicEmbedder,
    RecordKind,
    pipeline_key,
    workflow_key,
)

WORKFLOW_PAYLOAD = {"source_goal": "root", "source_description": "d", "entries": []}
PIPELINE_PAYLOAD = {"pipeline_name": "p", "pipeline_purpose": "x",
                    "nodes": [], "edges": []}


# -- embeddings -----------------------------------------------------------------


def test_embed_empty_text_is_zero_vector():
    embedder = LocalDeterministicEmbedder(dimension=32)
    embedding = embedder.embed("")
    assert embedding.is_zero
    assert embedding.dimension == 32


def test_embed_is_deterministic():
    embedder = LocalDeterministicEmbedder()
    a = embedder.embed("retrieve product reviews")
    b = embedder.embed("retrieve product reviews")
    assert np.array_equal(a.values, b.values)


def test_embeddings_are_unit_norm():
    embedder = LocalDeterministicEmbedder()
    rng = random.Random(2)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    for _ in range(50):
        text = " ".join(rng.choices(words, k=rng.randint(1, 12)))
        norm = float(np.linalg.norm(embedder.embed(text).values))
        assert abs(norm - 1.0) <= 1e-9


def test_embedding_constructor_enforces_norm_invariant():
    with pytest.raises(ValueError):
        Embedding([3.0, 4.0])
    with pytest.raises(ValueError):
        Embedding([float("nan"), 0.0])
    Embedding([0.0, 0.0])  # zero vector allowed
    Embedding([0.6, 0.8])  # unit vector allowed


def test_cosine_properties():
    embedder = LocalDeterministicEmbedder(dimension=64)
    a = embedder.embed("one two three")
    b = embedder.embed("three four five")
    zero = embedder.embed("")
    assert a.cosine(a) == pytest.approx(1.0, abs=1e-9)
    assert a.cosine(b) == pytest.approx(b.cosine(a), abs=1e-12)
    assert abs(a.cosine(b)) <= 1.0 + 1e-9
    assert a.cosine(zero) == 0.0


def test_embedder_spec_builds_local_provider():
    embedder = EmbedderSpec(provider=EmbedderProvider.LOCAL_DETERMINISTIC,
                            dimension=16).build()
    assert isinstance(embedder, LocalDeterministicEmbedder)
    assert embedder.dimension == 16


# -- store / retrieve ---------------------------------------------------------------


def test_store_then_self_retrieve_with_key_contract():
    memory = ExperienceMemory()
    key = pipeline_key("search climate news", ["file_exists:notes.txt", "tool_called:x"])
    memory.store(RecordKind.PIPELINE, key, PIPELINE_PAYLOAD)
    hit = memory.retrieve(RecordKind.PIPELINE, key, threshold=0.85)
    assert hit is not None
    record, similarity = hit
    assert record.key_text == key
    assert similarity == pytest.approx(1.0, abs=1e-9)


def test_key_construction_contract():
    assert workflow_key("write a post") == "write a post"
    assert pipeline_key("goal", ["m1", "m2"]) == "goal\nm1; m2"


def test_retrieve_from_empty_store_is_none():
    memory = ExperienceMemory()
    assert memory.retrieve(RecordKind.WORKFLOW, "anything") is None


def test_retrieve_ignores_other_kinds():
    memory = ExperienceMemory()
    memory.store(RecordKind.WORKFLOW, "shared key", WORKFLOW_PAYLOAD)
    assert memory.retrieve(RecordKind.PIPELINE, "shared key") is None


def test_threshold_gate_blocks_weak_matches():
    memory = ExperienceMemory()
    memory.store(RecordKind.WORKFLOW, "alpha beta gamma delta", WORKFLOW_PAYLOAD)
    weak_query = "totally unrelated words here"
    assert memory.retrieve(RecordKind.WORKFLOW, weak_query, threshold=0.85) is None
    hit = memory.retrieve(RecordKind.WORKFLOW, weak_query, threshold=0.0)
    assert hit is not None  # similarity 0 still clears a zero threshold


def test_tie_break_keeps_earliest_record():
    memory = ExperienceMemory()
    first = memory.store(RecordKind.WORKFLOW, "same key text", WORKFLOW_PAYLOAD)
    memory.store(RecordKind.WORKFLOW, "same key text", WORKFLOW_PAYLOAD)
    hit = memory.retrieve(RecordKind.WORKFLOW, "same key text", threshold=0.5)
    assert hit is not None and hit[0].record_id == first


def test_payload_kind_mismatch_rejected():
    memory = ExperienceMemory()
    with pytest.raises(PayloadKindMismatch):
        memory.store(RecordKind.PIPELINE, "k", WORKFLOW_PAYLOAD)
    with pytest.raises(PayloadKindMismatch):
        memory.store(RecordKind.WORKFLOW, "k", PIPELINE_PAYLOAD)


def test_store_ids_match_shadow_list():
    memory = ExperienceMemory()
    rng = random.Random(17)
    shadow = []
    for i in range(200):
        kind = rng.choice([RecordKind.WORKFLOW, RecordKind.PIPELINE])
        payload = WORKFLOW_PAYLOAD if kind is RecordKind.WORKFLOW else PIPELINE_PAYLOAD
        rid = memory.store(kind, f"key {rng.randrange(100)}", payload)
        shadow.append(rid)
    assert shadow == list(range(1, 201))
    assert len(memory) == 200
    assert memory.stats.writes == 200


def test_get_unknown_record_raises():
    memory = ExperienceMemory()
    with pytest.raises(UnknownRecord):
        memory.get(1)


WORDS = ["solar", "battery", "grid", "wind", "carbon", "market", "report",
         "news", "search", "write", "review", "draft", "plan", "brief"]


def test_retrieval_matches_linear_scan_oracle():
    rng = random.Random(23)
    memory = ExperienceMemory()
    keys = []
    for _ in range(100):
        key = " ".join(rng.choices(WORDS, k=rng.randint(1, 8)))
        keys.append(key)
        memory.store(RecordKind.WORKFLOW, key, WORKFLOW_PAYLOAD)
    embedder = LocalDeterministicEmbedder()
    for _ in range(20):
        query = " ".join(rng.choices(WORDS, k=rng.randint(1, 8)))
        threshold = rng.choice([0.0, 0.3, 0.6, 0.85, 1.0])
        # independent brute force over the raw keys
        query_vec = embedder.embed(query).values
        sims = [float(query_vec @ embedder.embed(k).values) for k in keys]
        best_index = max(range(len(sims)), key=lambda i: (sims[i], -i))
        expected = (best_index + 1, sims[best_index]) if sims[best_index] >= threshold else None
        hit = memory.retrieve(RecordKind.WORKFLOW, query, threshold=threshold)
        if expected is None:
            assert hit is None
        else:
            assert hit is not None
            assert (hit[0].record_id, hit[1]) == (expected[0], pytest.approx(expected[1]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(alphabet="abcdef ", min_size=0, max_size=20), min_size=0,
                max_size=12),
       st.text(alphabet="abcdef ", max_size=20))
def test_retrieve_never_returns_below_threshold(keys, query):
    memory = ExperienceMemory(embedder=LocalDeterministicEmbedder(dimension=16))
    for key in keys:
        memory.store(RecordKind.WORKFLOW, key, WORKFLOW_PAYLOAD)
    hit = memory.retrieve(RecordKind.WORKFLOW, query, threshold=0.5)
    if hit is not None:
        assert hit[1] >= 0.5


# -- persistence ----------------------------------------------------------------------


def test_snapshot_round_trip(tmp_path):
    memory = ExperienceMemory()
    memory.store(RecordKind.WORKFLOW, "key one", WORKFLOW_PAYLOAD)
    memory.store(RecordKind.PIPELINE, pipeline_key("k", ["m"]), PIPELINE_PAYLOAD)
    path = tmp_path / "memory.json"
    memory.save(str(path))
    restored = ExperienceMemory.load(str(path))
    assert restored.to_dict() == memory.to_dict()
    # and the snapshot file itself is byte-stable
    restored.save(str(tmp_path / "memory2.json"))
    assert (tmp_path / "memory2.json").read_bytes() == path.read_bytes()


def test_snapshot_dimension_mismatch_rejected(tmp_path):
    memory = ExperienceMemory(embedder=LocalDeterministicEmbedder(dimension=8))
    memory.store(RecordKind.WORKFLOW, "k", WORKFLOW_PAYLOAD)
    path = tmp_path / "memory.json"
    memory.save(str(path))
    with pytest.raises(DimensionMismatch):
        ExperienceMemory.load(str(path))  # default dimension is 256


def test_snapshot_format_shape(tmp_path):
    memory = ExperienceMemory(embedder=LocalDeterministicEmbedder(dimension=4))
    memory.store(RecordKind.WORKFLOW, "a b", WORKFLOW_PAYLOAD)
    path = tmp_path / "memory.json"
    memory.save(str(path))
    doc = json.loads(path.read_text())
    assert doc["dimension"] == 4
    record = doc["records"][0]
    assert set(record) == {"id", "kind", "key_text", "embedding", "payload"}
    assert isinstance(record["embedding"], list)


def _write_snapshot(tmp_path, records, dimension=4):
    path = tmp_path / "memory.json"
    path.write_text(json.dumps({"dimension": dimension, "records": records}))
    return str(path)


def _raw_record(record_id, kind=RecordKind.WORKFLOW, embedding=(1.0, 0.0, 0.0, 0.0)):
    payload = WORKFLOW_PAYLOAD if kind is RecordKind.WORKFLOW else PIPELINE_PAYLOAD
    return {"id": record_id, "kind": kind.value, "key_text": f"key {record_id}",
            "embedding": list(embedding), "payload": payload}


def test_store_after_loading_ids_with_a_gap_assigns_a_new_id(tmp_path):
    path = _write_snapshot(tmp_path, [_raw_record(1), _raw_record(3)])
    memory = ExperienceMemory.load(path, embedder=LocalDeterministicEmbedder(dimension=4))
    new_id = memory.store(RecordKind.WORKFLOW, "fresh key", WORKFLOW_PAYLOAD)
    assert [r.record_id for r in memory.records()] == [1, 3, 4]
    assert new_id == 4 and memory.get(4).key_text == "fresh key"
    assert memory.get(3).key_text == "key 3"


@pytest.mark.parametrize("records, error", [
    ([_raw_record(1), _raw_record(2), _raw_record(1)], ValueError),
    ([_raw_record(1), {**_raw_record(2, RecordKind.PIPELINE), "payload": WORKFLOW_PAYLOAD}],
     PayloadKindMismatch),
    ([_raw_record(1, embedding=(1.0, 0.0, 0.0))], DimensionMismatch),
    ([_raw_record(1, embedding=(3.0, 4.0, 0.0, 0.0))], ValueError),
    ([_raw_record(1, embedding=(float("nan"), 0.0, 0.0, 0.0))], ValueError),
], ids=["duplicate-id", "payload-of-other-kind", "short-embedding", "not-unit", "nan"])
def test_load_rejects_a_bad_snapshot(tmp_path, records, error):
    path = _write_snapshot(tmp_path, records)
    with pytest.raises(error):
        ExperienceMemory.load(path, embedder=LocalDeterministicEmbedder(dimension=4))


def test_default_threshold_is_configurable_per_kind():
    memory = ExperienceMemory(thresholds={RecordKind.WORKFLOW: 0.2})
    assert memory.threshold(RecordKind.WORKFLOW) == 0.2
    assert memory.threshold(RecordKind.PIPELINE) == DEFAULT_RETRIEVAL_THRESHOLD

"""Retrieval over the per-kind embedding blocks of ``ExperienceMemory``.

The reference is the per-record scan that block scoring replaced: it embeds
every key afresh and compares ``Embedding.cosine`` values one at a time, so a
different record or a different last bit in the score fails a test.
"""

from __future__ import annotations

import hashlib
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ice.memory import Embedding, ExperienceMemory, LocalDeterministicEmbedder, RecordKind

PAYLOADS = {
    RecordKind.WORKFLOW: {"source_goal": "root", "source_description": "d", "entries": []},
    RecordKind.PIPELINE: {"pipeline_name": "p", "pipeline_purpose": "x",
                          "nodes": [], "edges": []},
}
WORDS = ["solar", "battery", "grid", "wind", "carbon", "market", "report", "news"]


class DenseEmbedder:
    """Dense random unit vectors seeded by the text (zero for blank text).

    No entry is zero, so the matrix product and the per-row dot product
    round differently far more often than with the token-hash embedder.
    """

    def __init__(self, dimension: int) -> None:
        self.dimension = dimension

    def embed(self, text: str) -> Embedding:
        if not text.split():
            return Embedding(np.zeros(self.dimension))
        seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
        return Embedding.from_raw(np.random.default_rng(seed).standard_normal(self.dimension))


EMBEDDERS = {
    "local-16": lambda: LocalDeterministicEmbedder(dimension=16),
    "dense-256": lambda: DenseEmbedder(256),
    "dense-37": lambda: DenseEmbedder(37),
}


def linear_scan(stored, kind, query, threshold):
    """The loop ``retrieve`` ran before block scoring, over fresh embeddings.

    ``stored`` holds ``(record_id, kind, embedding)`` in store order; the
    result is ``(record_id, similarity)`` or None.
    """
    best = None
    for record_id, record_kind, embedding in stored:
        if record_kind is not kind:
            continue
        similarity = query.cosine(embedding)
        if best is None or similarity > best[1]:
            best = (record_id, similarity)
    if best is not None and best[1] >= threshold:
        return best
    return None


def random_key(rng: random.Random) -> str:
    # few words and short keys: many duplicate keys, some empty ones
    return " ".join(rng.choices(WORDS, k=rng.randint(0, 4)))


def as_pair(hit):
    return None if hit is None else (hit[0].record_id, hit[1])


@settings(max_examples=40, deadline=None)
@given(embedder_name=st.sampled_from(sorted(EMBEDDERS)),
       workflows=st.sampled_from([0, 1, 15, 16, 17, 48, 49, 1100]),
       pipelines=st.integers(min_value=0, max_value=40),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_retrieve_equals_the_linear_scan_exactly(embedder_name, workflows, pipelines, seed):
    rng = random.Random(seed)
    embedder = EMBEDDERS[embedder_name]()
    memory = ExperienceMemory(embedder=embedder)
    kinds = [RecordKind.WORKFLOW] * workflows + [RecordKind.PIPELINE] * pipelines
    rng.shuffle(kinds)
    stored, keys = [], []
    for kind in kinds:
        key = random_key(rng)
        record_id = memory.store(kind, key, PAYLOADS[kind])
        stored.append((record_id, kind, embedder.embed(key)))
        keys.append(key)
    queries = [""] + [random_key(rng) for _ in range(3)] + rng.sample(keys, min(4, len(keys)))
    for text in queries:
        query = embedder.embed(text)
        for kind in RecordKind:
            unbounded = linear_scan(stored, kind, query, -np.inf)
            thresholds = [0.0, 0.85, 1.0]
            if unbounded is not None:
                best = unbounded[1]
                thresholds += [best, np.nextafter(best, np.inf), np.nextafter(best, -np.inf)]
            for threshold in thresholds:
                expected = linear_scan(stored, kind, query, threshold)
                assert as_pair(memory.retrieve(kind, text, threshold=threshold)) == expected


def test_retrieval_makes_no_per_record_cosine_calls(monkeypatch):
    memory = ExperienceMemory(embedder=DenseEmbedder(256))
    for i in range(5000):
        memory.store(RecordKind.WORKFLOW, f"record {i}", PAYLOADS[RecordKind.WORKFLOW])
    calls = []
    cosine = Embedding.cosine

    def counted(self, other):
        calls.append(other)
        return cosine(self, other)

    monkeypatch.setattr(Embedding, "cosine", counted)
    assert memory.retrieve(RecordKind.WORKFLOW, "never stored", threshold=0.85) is None
    assert calls == []
    hit = memory.retrieve(RecordKind.WORKFLOW, "record 4321", threshold=0.85)
    assert hit is not None and hit[0].record_id == 4322
    assert len(calls) == 1


def test_concurrent_stores_and_retrievals():
    memory = ExperienceMemory(embedder=LocalDeterministicEmbedder(dimension=16))
    per_writer = 300
    writers_done = threading.Event()
    problems: list[str] = []

    def write(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(per_writer):
            kind = rng.choice(list(RecordKind))
            memory.store(kind, random_key(rng), PAYLOADS[kind])

    def read(seed: int) -> None:
        rng = random.Random(seed)
        rounds = 0
        while not writers_done.is_set() or rounds < 50:
            rounds += 1
            kind = rng.choice(list(RecordKind))
            text = random_key(rng)
            query = memory.embed(text)
            visible = memory.records(kind)
            hit = memory.retrieve(kind, text, threshold=0.0)
            if hit is None:
                if visible:
                    problems.append(f"miss at threshold 0 with {len(visible)} records")
                continue
            record, similarity = hit
            if similarity != query.cosine(record.embedding):
                problems.append(f"score {similarity} of record {record.record_id} is not exact")
            if visible:
                best = linear_scan([(r.record_id, kind, r.embedding) for r in visible],
                                   kind, query, 0.0)
                if similarity < best[1] or (similarity == best[1]
                                            and record.record_id > best[0]):
                    problems.append(f"record {record.record_id} beaten by {best}")

    def guarded(work, seed: int) -> None:
        try:
            work(seed)
        except Exception as exc:  # a thread's exception would only be printed
            problems.append(repr(exc))

    threads = [threading.Thread(target=guarded, args=(work, seed))
               for work, seed in ((write, 1), (write, 2), (read, 3), (read, 4))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads[:2]:
            thread.join(timeout=60)
        writers_done.set()
        for thread in threads[2:]:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert problems == []
    ids = [record.record_id for record in memory.records()]
    assert ids == list(range(1, 2 * per_writer + 1))
    for kind in RecordKind:
        assert memory.records(kind) == [r for r in memory.records() if r.kind is kind]


def test_embeddings_are_read_only_rows_of_shared_blocks(tmp_path):
    memory = ExperienceMemory()
    for i in range(20):
        kind = RecordKind.WORKFLOW if i % 4 else RecordKind.PIPELINE
        memory.store(kind, f"key {i} {WORDS[i % len(WORDS)]}", PAYLOADS[kind])
    path = tmp_path / "memory.json"
    memory.save(str(path))
    loaded = ExperienceMemory.load(str(path))
    for store in (memory, loaded):
        for record in store.records():
            values = record.embedding.values
            assert values.flags.writeable is False
            with pytest.raises(ValueError):
                values[0] = 1.0
        first, second = store.records(RecordKind.WORKFLOW)[:2]
        block = first.embedding.values.base
        assert block is not None and second.embedding.values.base is block


def test_loaded_memory_retrieves_what_the_saved_one_did(tmp_path):
    rng = random.Random(11)
    memory = ExperienceMemory(embedder=DenseEmbedder(64))
    keys = []
    for _ in range(300):
        kind = rng.choice(list(RecordKind))
        keys.append(random_key(rng))
        memory.store(kind, keys[-1], PAYLOADS[kind])
    path = tmp_path / "memory.json"
    memory.save(str(path))
    loaded = ExperienceMemory.load(str(path), embedder=DenseEmbedder(64))
    for text in keys[:40] + [random_key(rng) for _ in range(20)]:
        for kind in RecordKind:
            for threshold in (0.0, 0.85):
                assert (as_pair(loaded.retrieve(kind, text, threshold=threshold))
                        == as_pair(memory.retrieve(kind, text, threshold=threshold)))

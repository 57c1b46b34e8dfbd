"""Retrieval over the per-kind embedding blocks of ``ExperienceMemory``.

The reference is the per-record scan that block scoring replaced: it embeds
every key afresh and compares ``Embedding.cosine`` values one at a time, so a
different record or a different last bit in the score fails a test.
"""

from __future__ import annotations

import collections
import hashlib
import random
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ice.memory import (
    _MAX_ANSWERS,
    Embedding,
    ExperienceMemory,
    LocalDeterministicEmbedder,
    RecordKind,
)

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
    "local-256": lambda: LocalDeterministicEmbedder(dimension=256),
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
@example(embedder_name="local-256", workflows=1100, pipelines=40, seed=0)
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


def test_a_zero_query_is_answered_without_cosine_calls(monkeypatch):
    embedder = DenseEmbedder(256)
    memory = ExperienceMemory(embedder=embedder)
    stored = []
    for i in range(5000):
        key = f"record {i}" if i % 7 else ""  # some stored embeddings are zero too
        record_id = memory.store(RecordKind.WORKFLOW, key, PAYLOADS[RecordKind.WORKFLOW])
        stored.append((record_id, RecordKind.WORKFLOW, embedder.embed(key)))
    thresholds = [-1.0, -5e-324, 0.0, 5e-324, 1e-12, 1e-9, 0.85]
    expected = [linear_scan(stored, RecordKind.WORKFLOW, embedder.embed(""), threshold)
                for threshold in thresholds]
    calls = []
    cosine = Embedding.cosine

    def counted(self, other):
        calls.append(other)
        return cosine(self, other)

    monkeypatch.setattr(Embedding, "cosine", counted)
    got = [as_pair(memory.retrieve(RecordKind.WORKFLOW, " ", threshold=threshold))
           for threshold in thresholds]
    assert got == expected
    assert got[2] == (1, 0.0) and got[3] is None
    assert calls == []


def test_stored_embeddings_score_like_fresh_ones_bit_for_bit():
    embedder = DenseEmbedder(256)
    memory = ExperienceMemory(embedder=embedder)
    keys = [f"record {i}" for i in range(1100)]  # 7 blocks: 16, 32, ..., 1,024
    for key in keys:
        memory.store(RecordKind.WORKFLOW, key, PAYLOADS[RecordKind.WORKFLOW])
    records = memory.records(RecordKind.WORKFLOW)
    assert len({id(record.embedding.values.base) for record in records}) == 7
    for query in (embedder.embed("record 7"), embedder.embed("never stored")):
        for record, key in zip(records, keys):
            fresh = embedder.embed(key)
            assert query.cosine(record.embedding) == query.cosine(fresh)
            assert record.embedding.cosine(query) == fresh.cosine(query)


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


# -- remembered answers ------------------------------------------------------------


class CountingEmbedder(LocalDeterministicEmbedder):
    """Counts ``embed`` calls by text. ``before[text]`` runs once, first
    thing in the next ``embed`` of ``text``."""

    def __init__(self) -> None:
        super().__init__(dimension=16)
        self.calls: collections.Counter[str] = collections.Counter()
        self.before: dict[str, Callable[[], object]] = {}

    def embed(self, text: str) -> Embedding:
        self.calls[text] += 1
        hook = self.before.pop(text, None)
        if hook is not None:
            hook()
        return super().embed(text)


W, P = RecordKind.WORKFLOW, RecordKind.PIPELINE
MEMO_TEXTS = ["", "solar", "solar grid", "grid solar battery", "wind", "wind market", "news"]


def assert_fresh_answer(memory, stored, kind, text, threshold, hit):
    """``hit`` is what a never-queried memory holding ``stored`` answers:
    the same record of ``memory`` and the same float."""
    fresh = ExperienceMemory(embedder=LocalDeterministicEmbedder(dimension=16))
    for stored_kind, key in stored:
        fresh.store(stored_kind, key, PAYLOADS[stored_kind])
    expected = fresh.retrieve(kind, text, threshold)
    if expected is None:
        assert hit is None
    else:
        assert hit is not None and hit[0] is memory.get(expected[0].record_id)
        assert hit[1] == expected[1]


@settings(max_examples=60, deadline=None)
# an answer kept across a store into its kind, or scored without a store that
# landed while the query was embedded, fails here
@example(ops=[("retrieve", P, "wind", 0.0, W, ""), ("store", P, "wind", 0.0, W, ""),
              ("retrieve", P, "wind", 0.0, W, ""), ("race", W, "solar", 0.85, W, "solar")])
@given(ops=st.lists(st.tuples(st.sampled_from(["store", "retrieve", "retrieve", "race"]),
                              st.sampled_from([W, P]), st.sampled_from(MEMO_TEXTS),
                              st.sampled_from([0.0, 0.85, 1.0]),
                              st.sampled_from([W, P]), st.sampled_from(MEMO_TEXTS)),
                    max_size=30))
def test_remembered_answers_equal_those_of_a_fresh_memory(ops):
    embedder = CountingEmbedder()
    memory = ExperienceMemory(embedder=embedder)
    stored: list[tuple[RecordKind, str]] = []

    def store(kind, text):
        memory.store(kind, text, PAYLOADS[kind])
        stored.append((kind, text))

    for op, kind, text, threshold, other_kind, other_text in ops:
        if op == "store":
            store(kind, text)
            continue
        if op == "race":
            # the store lands while the retrieve embeds the query, before it
            # scores; a remembered answer makes no embed
            embedder.before[text] = lambda: store(other_kind, other_text)
        hit = memory.retrieve(kind, text, threshold)
        # the records present when the answer was scored, a race's store included
        assert_fresh_answer(memory, stored, kind, text, threshold, hit)
        pending = embedder.before.pop(text, None)
        if pending is not None:
            pending()
        # and asked again at once, after the store of a race
        again = memory.retrieve(kind, text, threshold)
        assert_fresh_answer(memory, stored, kind, text, threshold, again)
    assert memory.stats.reads == 2 * sum(op != "store" for op, *_ in ops)


def test_a_text_is_embedded_once_until_its_kind_gets_a_record():
    embedder = CountingEmbedder()
    memory = ExperienceMemory(embedder=embedder)
    memory.store(W, "solar grid", PAYLOADS[W])
    memory.store(P, "wind market", PAYLOADS[P])
    embedder.calls.clear()
    for _ in range(3):
        for text in ("solar", "grid", "news"):
            memory.retrieve(W, text, threshold=0.0)
    assert embedder.calls == {"solar": 1, "grid": 1, "news": 1}
    assert memory.stats.reads == 9

    memory.store(P, "solar", PAYLOADS[P])  # the other kind
    memory.retrieve(W, "solar", threshold=0.0)
    assert embedder.calls["solar"] == 2  # one of them is the store's key
    memory.store(W, "news", PAYLOADS[W])  # the same kind
    hit = memory.retrieve(W, "news", threshold=0.0)
    assert embedder.calls["news"] == 3 and hit[0].key_text == "news"
    memory.retrieve(W, "solar", threshold=0.0)
    assert embedder.calls["solar"] == 3


def test_remembered_answers_stay_within_the_bound():
    embedder = CountingEmbedder()
    memory = ExperienceMemory(embedder=embedder)
    memory.store(W, "solar grid", PAYLOADS[W])
    answers = memory._kinds[W].answers
    for i in range(_MAX_ANSWERS + 1):
        memory.retrieve(W, f"text {i}", threshold=0.85)
        assert len(answers) <= _MAX_ANSWERS
    memory.retrieve(W, "text 0", threshold=0.85)
    assert embedder.calls["text 0"] == 2


def test_a_retrieve_after_a_store_sees_the_new_record():
    embedder = CountingEmbedder()
    memory = ExperienceMemory(embedder=embedder)
    memory.store(W, "solar grid", PAYLOADS[W])

    # a remembered answer, then a better record stored
    assert memory.retrieve(W, "solar battery grid", threshold=0.0)[0].record_id == 1
    memory.store(W, "solar battery grid", PAYLOADS[W])
    assert memory.retrieve(W, "solar battery grid", threshold=0.0)[0].record_id == 2

    # a better record stored while a retrieve embeds its query
    embedder.before["wind market"] = lambda: memory.store(W, "wind market", PAYLOADS[W])
    hit = memory.retrieve(W, "wind market", threshold=0.85)
    assert hit is not None and hit[0].record_id == 3
    hit = memory.retrieve(W, "wind market", threshold=0.85)
    assert hit is not None and hit[0].record_id == 3

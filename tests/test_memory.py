from __future__ import annotations

import errno
import gc
import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ice.errors import DimensionMismatch, IceError, PayloadKindMismatch, UnknownRecord
from ice.memory import (
    Embedding,
    ExperienceMemory,
    LocalDeterministicEmbedder,
    MemoryRecord,
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
    assert not embedding.values.any()
    assert embedding.dimension == 32


def sha256_embedding(text, dimension):
    """Each whitespace token counted in the bucket its sha256 names, scaled to
    unit length."""
    counts = np.zeros(dimension)
    for token in text.split():
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        counts[int.from_bytes(digest[:8], "big") % dimension] += 1.0
    norm = np.linalg.norm(counts)
    return counts / norm if norm else counts


def test_embeddings_match_a_sha256_reference_bit_for_bit():
    """More distinct tokens than the bucket memo holds, so it evicts, and the
    texts are embedded twice over, at two dimensions sharing the memo."""
    tokens = [f"tok{i}" if i % 3 else f"зерно{i}_工具" for i in range(5000)]
    texts = ["", " ", "\t\n \u3000\u2003 ", "a  b\t\tb\n\na", "ü ü\u00a0ü 🌞 e\u0301"]
    texts += [" ".join(tokens[i:i + 40]) for i in range(0, len(tokens), 40)]
    texts += [" \n ".join(reversed(tokens[i:i + 25])) for i in range(0, len(tokens), 250)]
    for dimension in (256, 7):
        embedder = LocalDeterministicEmbedder(dimension=dimension)
        for text in texts + texts:
            assert (embedder.embed(text).values.tobytes()
                    == sha256_embedding(text, dimension).tobytes()), (dimension, text[:40])


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


def test_from_raw_scales_once_and_rejects_non_finite_norms():
    rng = np.random.default_rng(5)
    for raw in [rng.standard_normal(256), np.arange(37.0), [0.0, 3.0, 4.0], [3e-150, -4e-150]]:
        arr = np.asarray(raw, dtype=np.float64)
        embedding = Embedding.from_raw(raw)
        # the bits of dividing by the norm once, and a read-only result
        assert embedding.values.tobytes() == (arr / np.linalg.norm(arr)).tobytes()
        assert embedding.values.flags.writeable is False
    for raw in ([0.0, -0.0], [1e-200, -2e-200]):  # the second's squares underflow to 0
        assert Embedding.from_raw(raw).values.tobytes() == np.zeros(2).tobytes()
    # NaN, inf, an overflowing norm, and squares that underflowed only in part
    for raw in ([float("nan"), 1.0], [float("inf"), 0.0], [1e200, 1e200], [1e-160, 1e-160]):
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            Embedding.from_raw(raw)
    with pytest.raises(ValueError):
        Embedding.from_raw([[0.6, 0.8]])


def test_cosine_properties():
    embedder = LocalDeterministicEmbedder(dimension=64)
    a = embedder.embed("one two three")
    b = embedder.embed("three four five")
    zero = embedder.embed("")
    assert a.cosine(a) == pytest.approx(1.0, abs=1e-9)
    assert a.cosine(b) == pytest.approx(b.cosine(a), abs=1e-12)
    assert abs(a.cosine(b)) <= 1.0 + 1e-9
    assert a.cosine(zero) == 0.0


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
    assert memory.retrieve(RecordKind.WORKFLOW, "anything", threshold=0.85) is None


def test_retrieve_ignores_other_kinds():
    memory = ExperienceMemory()
    memory.store(RecordKind.WORKFLOW, "shared key", WORKFLOW_PAYLOAD)
    assert memory.retrieve(RecordKind.PIPELINE, "shared key", threshold=0.85) is None


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
    for kind in RecordKind:  # each kind's records in store order
        assert memory.records(kind) == [r for r in memory.records() if r.kind is kind]


def test_derived_values_are_computed_once_and_left_out_of_equality():
    memory = ExperienceMemory()
    record = memory.get(memory.store(RecordKind.PIPELINE, "k", PIPELINE_PAYLOAD))
    fresh = MemoryRecord(record.record_id, record.kind, record.key_text,
                         record.embedding, dict(PIPELINE_PAYLOAD))
    before = repr(record)
    seen = []

    def name_of(payload):
        seen.append(payload)
        return payload["pipeline_name"]

    assert record.derived("name", name_of) == "p"
    assert record.derived("name", name_of) == "p"
    assert record.derived("nodes", len) == 4
    assert seen == [PIPELINE_PAYLOAD]
    assert record == fresh and fresh == record
    assert repr(record) == before == repr(fresh)
    assert fresh.derived("name", lambda payload: "other") == "other"


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


class QueueEmbedder:
    """Hands out the given vectors in order, whatever the text."""

    def __init__(self, dimension, vectors=()):
        self.dimension = dimension
        self.vectors = list(vectors)

    def embed(self, text):
        return Embedding(self.vectors.pop(0))


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
               1.0, -1.0, 0.9999999999999999, 1.0000000000000002, 1 / 3]
# lone surrogates (category Cs) have no UTF-8 form; their save is tested apart
SNAPSHOT_TEXT = st.text(st.characters(exclude_categories=("Cs",))
                        | st.sampled_from('"\\\n\r\t\x00\x1f\x7f é中😀'))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | SNAPSHOT_TEXT
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(SNAPSHOT_TEXT, inner, max_size=3),
    max_leaves=10,
)


@st.composite
def unit_vectors(draw, dimension):
    """Sparse or dense rows with norm 1, or 0; -0.0 survives the scaling."""
    raw = np.zeros(dimension)
    if dimension:
        if draw(st.booleans()):
            seed = draw(st.integers(0, 2**32 - 1))
            raw = np.random.default_rng(seed).uniform(-1.0, 1.0, dimension)
        cell = st.sampled_from(EDGE_FLOATS) | st.floats(-1.0, 1.0)
        for i, value in draw(st.dictionaries(st.integers(0, dimension - 1), cell,
                                             max_size=12)).items():
            raw[i] = value
    norm = float(np.linalg.norm(raw))
    if not norm:
        return raw
    # cells so small that their squares lose bits (a lone 1e-160) scale to a
    # row that is not unit, which Embedding rightly rejects
    assume(abs(float(np.linalg.norm(raw / norm)) - 1.0) <= 1e-9)
    return raw / norm


@st.composite
def snapshot_contents(draw):
    dimension = draw(st.integers(0, 300))
    records = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(list(RecordKind)))
        required = ("entries",) if kind is RecordKind.WORKFLOW else ("nodes", "edges")
        payload = draw(st.dictionaries(SNAPSHOT_TEXT, JSON_VALUES, max_size=3))
        payload.update({key: draw(JSON_VALUES) for key in required})
        records.append((kind, draw(SNAPSHOT_TEXT), payload, draw(unit_vectors(dimension))))
    return dimension, records


@given(contents=snapshot_contents())
@example(contents=(256, []))
@settings(max_examples=80, deadline=None)
def test_save_writes_the_indented_json_of_to_dict(tmp_path_factory, contents):
    dimension, records = contents
    memory = ExperienceMemory(embedder=QueueEmbedder(dimension, [r[3] for r in records]))
    for kind, key_text, payload, _ in records:
        memory.store(kind, key_text, payload)
    path = tmp_path_factory.mktemp("snapshot") / "memory.json"
    memory.save(str(path))
    expected = json.dumps(memory.to_dict(), indent=2, ensure_ascii=False) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")

    loaded = ExperienceMemory.load(str(path), embedder=QueueEmbedder(dimension))
    assert len(loaded) == len(records)
    for before, after in zip(memory.records(), loaded.records()):
        assert (after.record_id, after.kind, after.key_text, after.payload) == (
            before.record_id, before.kind, before.key_text, before.payload)
        # bit patterns, so a lost sign on -0.0 fails too
        assert after.embedding.values.tobytes() == before.embedding.values.tobytes()


@given(contents=snapshot_contents())
@example(contents=(256, []))
@settings(max_examples=60, deadline=None)
def test_a_version_1_snapshot_loads_like_its_version_2_save(tmp_path_factory, contents):
    dimension, records = contents
    memory = ExperienceMemory(embedder=QueueEmbedder(dimension, [r[3] for r in records]))
    for kind, key_text, payload, _ in records:
        memory.store(kind, key_text, payload)
    folder = tmp_path_factory.mktemp("snapshots")
    v2_path, v1_path, resaved_path = (folder / name for name in ("v2.json", "v1.json", "re.json"))
    memory.save(str(v2_path))
    # the version 1 layout: no "version" key, every cell of every embedding
    v1 = {"dimension": dimension, "records": [
        {"id": r.record_id, "kind": r.kind.value, "key_text": r.key_text,
         "embedding": r.embedding.values.tolist(), "payload": r.payload}
        for r in memory.records()]}
    v1_path.write_text(json.dumps(v1, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")

    from_v1 = ExperienceMemory.load(str(v1_path), embedder=QueueEmbedder(dimension))
    from_v2 = ExperienceMemory.load(str(v2_path), embedder=QueueEmbedder(dimension))
    assert len(from_v1) == len(from_v2) == len(records)
    for a, b in zip(from_v1.records(), from_v2.records()):
        assert (a.record_id, a.kind, a.key_text, a.payload) == (
            b.record_id, b.kind, b.key_text, b.payload)
        assert a.embedding.values.tobytes() == b.embedding.values.tobytes()
    from_v1.save(str(resaved_path))
    assert resaved_path.read_bytes() == v2_path.read_bytes()


def _edge_rows(count, dimension, seed):
    """Sparse unit rows with two -0.0 and two subnormal cells besides the
    others; every seventh row is zero instead, half of those with -0.0 cells."""
    rng = np.random.default_rng(seed)
    rows = []
    for n in range(count):
        row = np.zeros(dimension)
        if n % 7:
            cells = rng.choice(dimension, size=rng.integers(1, 9), replace=False)
            row[cells] = rng.uniform(-1.0, 1.0, cells.size)
            row /= np.linalg.norm(row)
            # subnormals too small to move the norm
            row[np.flatnonzero(row == 0.0)[:4]] = [-0.0, -0.0, 5e-324, -1e-310]
        elif n % 14 == 0:
            row[:2] = -0.0
        rows.append(row)
    return rows


def test_save_of_blocks_past_the_first_writes_the_indented_json_of_to_dict(tmp_path):
    # 120 records of each kind fill the 16-, 32- and 64-column blocks and
    # start a fourth, the kinds interleaved in store order
    dimension, count = 40, 240
    rows = _edge_rows(count, dimension, seed=5)
    memory = ExperienceMemory(embedder=QueueEmbedder(dimension, rows))
    for n in range(count):
        if n % 2:
            memory.store(RecordKind.PIPELINE, f"pipeline {n}", {**PIPELINE_PAYLOAD, "n": n})
        else:
            memory.store(RecordKind.WORKFLOW, f"workflow {n}", {**WORKFLOW_PAYLOAD, "n": n})
    assert [len(k.blocks) for k in memory._kinds.values()] == [4, 4]
    path = tmp_path / "memory.json"
    memory.save(str(path))
    expected = json.dumps(memory.to_dict(), indent=2, ensure_ascii=False) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")

    loaded = ExperienceMemory.load(str(path), embedder=QueueEmbedder(dimension))
    assert len(loaded) == count
    for before, after, row in zip(memory.records(), loaded.records(), rows):
        assert (after.record_id, after.kind, after.key_text, after.payload) == (
            before.record_id, before.kind, before.key_text, before.payload)
        assert after.embedding.values.tobytes() == row.tobytes()


@pytest.mark.parametrize("payload", [
    {"entries": [], 7: "int", 2.5: "float", True: "bool", None: "null"},
    {"entries": [{"a": 1, 3: ["x", {False: None, "b": 2.5}]}], "z": {}},
    {1: {"entries": "inner"}, "entries": [[], {}, {0.1: [None]}]},
], ids=["top-level", "nested-in-a-list", "first-key"])
def test_save_of_keys_that_are_not_strings_writes_the_indented_json_of_to_dict(
        tmp_path, payload):
    memory = ExperienceMemory(embedder=LocalDeterministicEmbedder(dimension=8))
    memory.store(RecordKind.WORKFLOW, "one", payload)
    memory.store(RecordKind.PIPELINE, "two", {"nodes": [payload], "edges": {"e": payload}})
    path = tmp_path / "memory.json"
    memory.save(str(path))
    expected = json.dumps(memory.to_dict(), indent=2, ensure_ascii=False) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("embedder", [None, QueueEmbedder(2, [np.array([0.0, 1.0])])],
                         ids=["token-hash", "queue"])
def test_store_refuses_a_key_text_that_is_not_a_string(embedder):
    # load refuses such a record, so a snapshot holding one would not load
    memory = ExperienceMemory(embedder=embedder)
    with pytest.raises(ValueError, match="key_text must be a string"):
        memory.store(RecordKind.WORKFLOW, ["a", {"b": None}], {"entries": []})
    assert len(memory) == 0


def test_save_of_a_lone_surrogate_raises_and_keeps_the_old_snapshot(tmp_path):
    memory = ExperienceMemory(embedder=QueueEmbedder(4, [np.array([1.0, 0.0, 0.0, 0.0])] * 2))
    memory.store(RecordKind.WORKFLOW, "ok", {"entries": []})
    path = tmp_path / "memory.json"
    memory.save(str(path))
    before = path.read_bytes()
    memory.store(RecordKind.WORKFLOW, "\ud800", {"entries": []})
    with pytest.raises(UnicodeEncodeError):
        memory.save(str(path))
    assert path.read_bytes() == before


class _HalfWrittenFile:
    """A file whose write stores half the bytes and then finds the disk full."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _failing_write(monkeypatch):
    monkeypatch.setattr("ice.memory.open",
                        lambda file, mode: _HalfWrittenFile(open(file, mode)), raising=False)


def _failing_replace(monkeypatch):
    def refuse(src, dst):
        raise PermissionError(errno.EACCES, "Permission denied", dst)

    monkeypatch.setattr("ice.memory.os.replace", refuse)


@pytest.mark.parametrize("fail", [_failing_write, _failing_replace], ids=["write", "replace"])
def test_a_failed_save_keeps_the_old_snapshot_and_leaves_no_temporary_file(
        tmp_path, monkeypatch, fail):
    memory = ExperienceMemory()
    memory.store(RecordKind.WORKFLOW, "first", {"entries": []})
    path = tmp_path / "memory.json"
    memory.save(str(path))
    before = path.read_bytes()
    memory.store(RecordKind.WORKFLOW, "second", {"entries": []})
    fail(monkeypatch)
    with pytest.raises(OSError):
        memory.save(str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["memory.json"]


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


@pytest.mark.parametrize("record_id", [1.5, True, "7"], ids=["float", "bool", "string"])
def test_load_rejects_an_id_that_is_not_an_integer(tmp_path, record_id):
    path = _write_snapshot(tmp_path, [_raw_record(record_id)])
    with pytest.raises(ValueError, match=f"record id {record_id!r} is not an integer"):
        ExperienceMemory.load(path, embedder=LocalDeterministicEmbedder(dimension=4))


@pytest.mark.parametrize("key_text", [5, None, ["key"]], ids=["int", "null", "list"])
def test_load_rejects_a_key_text_that_is_not_a_string(tmp_path, key_text):
    path = _write_snapshot(tmp_path, [{**_raw_record(1), "key_text": key_text}])
    with pytest.raises(ValueError, match="record 1 has a key_text that is not a string"):
        ExperienceMemory.load(path, embedder=LocalDeterministicEmbedder(dimension=4))


def test_load_of_a_deeply_nested_document_raises_value_error(tmp_path):
    path = tmp_path / "memory.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ValueError, match="nests too deeply"):
        ExperienceMemory.load(str(path), embedder=LocalDeterministicEmbedder(dimension=4))


@pytest.mark.parametrize("text", [
    '{"version": 2, "dimension": 4, "records": []}',
    '{"version": 2, "dimension": 4, "records": [{"id": 1}]}',
    "[" * 100_000,
], ids=["good", "bad-record", "deeply-nested"])
@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_load_pauses_the_collector_and_leaves_it_as_it_found_it(
        tmp_path, monkeypatch, text, enabled):
    path = tmp_path / "memory.json"
    path.write_text(text)
    parse, during = json.load, []

    def watched_parse(fh):
        during.append(gc.isenabled())
        return parse(fh)

    monkeypatch.setattr("ice.memory.json.load", watched_parse)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            ExperienceMemory.load(str(path), embedder=LocalDeterministicEmbedder(dimension=4))
        except ValueError:
            pass
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == [False]


def _write_v2_snapshot(tmp_path, embeddings, version=2, dimension=4):
    """One workflow record per embedding, given as its [index, value] pairs."""
    path = tmp_path / "memory.json"
    path.write_text(json.dumps({"version": version, "dimension": dimension, "records": [
        {"id": i, "kind": "workflow", "key_text": f"key {i}", "embedding": pairs,
         "payload": WORKFLOW_PAYLOAD}
        for i, pairs in enumerate(embeddings, start=1)]}))
    return str(path)


def test_load_reads_version_2_pairs(tmp_path):
    path = _write_v2_snapshot(tmp_path, [[[1, 0.6], [3, -0.8]], [], [[0, -0.0], [2, 1.0]]])
    memory = ExperienceMemory.load(path, embedder=LocalDeterministicEmbedder(dimension=4))
    rows = [r.embedding.values.tolist() for r in memory.records()]
    assert rows == [[0.0, 0.6, 0.0, -0.8], [0.0] * 4, [-0.0, 0.0, 1.0, 0.0]]
    assert np.signbit(memory.records()[2].embedding.values[0])


@pytest.mark.parametrize("embedding, version, error", [
    ([[4, 1.0]], 2, DimensionMismatch),
    ([[-1, 1.0]], 2, DimensionMismatch),
    ([[1, 1.0], [1, 1.0]], 2, ValueError),
    ([[2, 0.6], [1, 0.8]], 2, ValueError),
    ([[1.0, 1.0]], 2, ValueError),
    ([[True, 1.0]], 2, ValueError),
    ([[0, 1.0, 0.0]], 2, ValueError),
    ([[0, "1.0"]], 2, ValueError),
    ([[0, 1.0]], 3, ValueError),
    ([[0, 3.0], [1, 4.0]], 2, ValueError),
    ([[0, float("nan")]], 2, ValueError),
], ids=["index-past-dimension", "negative-index", "repeated-index", "descending-indices",
        "float-index", "bool-index", "three-element-pair", "string-value", "version-3",
        "not-unit", "nan"])
def test_load_rejects_a_bad_version_2_snapshot(tmp_path, embedding, version, error):
    path = _write_v2_snapshot(tmp_path, [[[0, 1.0]], embedding], version=version)
    with pytest.raises(error):
        ExperienceMemory.load(path, embedder=LocalDeterministicEmbedder(dimension=4))


def _objects(likely):
    """Objects with the fields of ``likely``, all of them holding likely values,
    or any of them holding any JSON value, or any subset of them missing."""
    anything = {key: values | JSON_VALUES for key, values in likely.items()}
    return (st.fixed_dictionaries(likely) | st.fixed_dictionaries(anything)
            | st.fixed_dictionaries({}, optional=anything))


SNAPSHOT_RECORDS = _objects({
    "id": st.integers(1, 3),
    "kind": st.sampled_from(["workflow", "pipeline"]),
    "key_text": SNAPSHOT_TEXT,
    # a version 1 row or version 2 pairs, either fitting a 4-cell embedder
    "embedding": st.lists(st.sampled_from([0.0, 1.0]), min_size=4, max_size=4)
    | st.lists(st.tuples(st.integers(-1, 4), st.sampled_from([1.0, -1.0, 0.5])).map(list),
               max_size=3),
    "payload": st.sampled_from([WORKFLOW_PAYLOAD, PIPELINE_PAYLOAD]),
})
SNAPSHOT_DOCUMENTS = JSON_VALUES | _objects({
    "version": st.sampled_from([1, 2]),
    "dimension": st.just(4),
    "records": st.lists(SNAPSHOT_RECORDS | JSON_VALUES, max_size=3),
})


def _record_with(**fields):
    return {**_raw_record(1), "embedding": [[0, 1.0]], **fields}


@given(doc=SNAPSHOT_DOCUMENTS)
@example(doc=[])
@example(doc={"version": 2, "dimension": 4, "records": [_record_with(id=float("inf"))]})
@example(doc={"version": 2, "dimension": 4, "records": [_record_with(embedding=[[0, 10**400]])]})
@settings(max_examples=200, deadline=None)
def test_load_of_any_json_document_returns_or_raises_value_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "any_json_memory.json"
    path.write_text(json.dumps(doc))
    try:
        ExperienceMemory.load(str(path), embedder=LocalDeterministicEmbedder(dimension=4))
    except (ValueError, IceError):
        pass


@pytest.fixture(scope="module")
def saved_snapshot(tmp_path_factory):
    """The bytes ``save`` writes for records of both kinds, one with a zero key."""
    memory = ExperienceMemory(embedder=LocalDeterministicEmbedder(dimension=4))
    memory.store(RecordKind.WORKFLOW, "collect notes é中", WORKFLOW_PAYLOAD)
    memory.store(RecordKind.PIPELINE, pipeline_key("draft", ["file_exists:a.txt"]),
                 PIPELINE_PAYLOAD)
    memory.store(RecordKind.WORKFLOW, "", {"entries": [{"id": "1", "milestones": ["m"]}]})
    path = tmp_path_factory.mktemp("saved") / "memory.json"
    memory.save(str(path))
    return path.read_bytes()


# a stray continuation byte, a lead byte with no continuation, an encoded
# surrogate, a five-byte form, and a byte UTF-8 never uses
INVALID_UTF8 = [b"\x80", b"\xc3", b"\xc3(", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80", b"\xff"]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_load_of_any_bytes_returns_or_raises_a_typed_error(
        tmp_path_factory, saved_snapshot, data):
    saved, size = saved_snapshot, len(saved_snapshot)
    text = data.draw(st.one_of(
        st.binary(max_size=64),
        # a truncation
        st.integers(0, size).map(lambda end: saved[:end]),
        # one byte replaced by any other
        st.tuples(st.integers(0, size - 1), st.binary(min_size=1, max_size=1)).map(
            lambda edit: saved[:edit[0]] + edit[1] + saved[edit[0] + 1:]),
        # invalid UTF-8 put in anywhere
        st.tuples(st.integers(0, size), st.sampled_from(INVALID_UTF8)).map(
            lambda edit: saved[:edit[0]] + edit[1] + saved[edit[0]:]),
    ))
    path = tmp_path_factory.getbasetemp() / "any_bytes_memory.json"
    path.write_bytes(text)
    try:
        ExperienceMemory.load(str(path), embedder=LocalDeterministicEmbedder(dimension=4))
    except (ValueError, DimensionMismatch, PayloadKindMismatch):
        pass

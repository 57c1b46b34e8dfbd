"""Embedding-keyed experience store.

Workflows and pipelines are stored under text keys; retrieval embeds the
query and returns the best record by cosine similarity when it clears the
threshold the caller passes.

Each kind keeps its records in store order and their embeddings as float64
columns of column-major blocks, ``(dimension, n)`` with n = 16, 32, 64, ... up
to 1,024. Blocks are never copied or resized, so a record's
``embedding.values`` is a read-only view of its column and each vector is held
once. Retrieval scores each block with one vector-matrix product of the
query's non-zero cells (the token-hash embedder's are mostly zero) and the
block rows of their coordinates, which are contiguous in this layout; the
terms left out are exact zeros. The records whose fast score is within 1e-9
of the best are then scored again with ``Embedding.cosine``, and the highest,
earliest on ties, is returned with that exact score, which is also the value
compared with the threshold. The fast and exact products round differently
(by about 1e-16 for unit vectors), and this gives the record and the float of
a per-record scan whenever they differ by less than 5e-10. A zero query
scores exactly 0 against every record, so it gets the earliest record, with no
score computed, when the threshold is at most 0, and nothing otherwise.

Records are append-only, so each kind remembers up to 4,096 answers by query
text and threshold until it gets a record, and answers a repeat without
embedding or scoring it.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterator, TypeVar

import numpy as np

from .errors import DimensionMismatch, PayloadKindMismatch, UnknownRecord, read_json

__all__ = [
    "RecordKind",
    "Embedding",
    "LocalDeterministicEmbedder",
    "MemoryRecord",
    "MemoryStats",
    "ExperienceMemory",
    "workflow_key",
    "pipeline_key",
]

DEFAULT_DIMENSION = 256

_T = TypeVar("_T")

_UNIT_TOLERANCE = 1e-9
# above this norm no square in the sum of squares underflowed enough to move
# the norm, so dividing by it gives a unit vector without checking again
_EXACT_NORM_FLOOR = 1e-140


class RecordKind(str, Enum):
    WORKFLOW = "workflow"
    PIPELINE = "pipeline"


class Embedding:
    """A unit-length vector, or the all-zero vector for empty text."""

    __slots__ = ("values",)

    def __init__(self, values: Any) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("embeddings are one-dimensional")
        norm = float(np.linalg.norm(arr))
        if norm != 0.0 and not abs(norm - 1.0) <= _UNIT_TOLERANCE:
            raise ValueError(f"embedding norm must be 1 or 0, got {norm}")
        arr = arr.copy()
        arr.setflags(write=False)
        self.values = arr

    @classmethod
    def _wrap(cls, values: np.ndarray) -> "Embedding":
        """Wrap a read-only vector of norm 1 or 0 without checking or copying it."""
        embedding = cls.__new__(cls)
        embedding.values = values
        return embedding

    @classmethod
    def from_raw(cls, raw: Any) -> "Embedding":
        """``raw`` scaled to unit length; the zero vector stays zero."""
        arr = np.asarray(raw, dtype=np.float64)
        norm = float(np.linalg.norm(arr))
        if not math.isfinite(norm):
            raise ValueError(f"embedding norm must be finite, got {norm}")
        if arr.ndim != 1 or norm < _EXACT_NORM_FLOOR:
            # zero, tiny or malformed: the constructor checks the result
            return cls(arr / norm if norm else np.zeros_like(arr))
        values = arr / norm
        values.setflags(write=False)
        return cls._wrap(values)

    @property
    def dimension(self) -> int:
        return int(self.values.shape[0])

    def cosine(self, other: "Embedding") -> float:
        """Dot product of unit vectors; 0 whenever either side is zero."""
        # a stored embedding is a strided block column, and BLAS rounds a
        # strided dot product differently from a contiguous one; contiguous
        # operands give a stored record the score of a fresh embedding
        return float(np.ascontiguousarray(self.values) @ np.ascontiguousarray(other.values))


@functools.lru_cache(maxsize=4096)
def _token_bucket(token: str, dimension: int) -> int:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dimension


class LocalDeterministicEmbedder:
    """Hash each whitespace token into a bucket, count, then L2-normalize.

    Fully offline and stable across processes (sha256, not the salted builtin
    hash), so snapshots and retrieval results are reproducible. The buckets of
    the 4,096 most recently used tokens are memoized."""

    def __init__(self, dimension: int = DEFAULT_DIMENSION) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension

    def embed(self, text: str) -> Embedding:
        counts = np.zeros(self.dimension, dtype=np.float64)
        for token in text.split():
            counts[_token_bucket(token, self.dimension)] += 1.0
        return Embedding.from_raw(counts)


@dataclass(frozen=True)
class MemoryRecord:
    """One stored experience.

    A payload is immutable once stored: nothing may change it in place,
    because what is derived from it is computed once and kept with the
    record (see ``derived``).
    """

    record_id: int
    kind: RecordKind
    key_text: str
    embedding: Embedding
    payload: dict[str, Any]

    @functools.cached_property
    def _derived(self) -> dict[str, Any]:
        return {}

    def derived(self, name: str, compute: Callable[[dict[str, Any]], _T]) -> _T:
        """``compute(payload)``, computed on the first call for ``name`` and
        returned again on later ones.

        The value is kept in the record's own ``__dict__``, so it lives and
        dies with the record, and it takes no part in equality or ``repr``.
        """
        memo = self._derived
        if name not in memo:
            memo[name] = compute(self.payload)
        return memo[name]


@dataclass
class MemoryStats:
    """Read/write tallies; the baseline-purity checks assert these stay zero."""

    reads: int = 0
    writes: int = 0


def workflow_key(description: str) -> str:
    """Workflows are keyed by the goal description alone."""
    return description


def pipeline_key(description: str, milestones: list[str] | tuple[str, ...]) -> str:
    """Pipelines are keyed by the subgoal description plus its milestones."""
    return description + "\n" + "; ".join(milestones)


def _check_payload(kind: RecordKind, payload: dict[str, Any]) -> None:
    if not isinstance(payload, dict):
        raise PayloadKindMismatch("payloads are JSON objects")
    if kind is RecordKind.PIPELINE and not ("nodes" in payload and "edges" in payload):
        raise PayloadKindMismatch("a pipeline payload carries nodes and edges")
    if kind is RecordKind.WORKFLOW and "entries" not in payload:
        raise PayloadKindMismatch("a workflow payload carries entries")


_FIRST_BLOCK_COLUMNS = 16
_MAX_BLOCK_COLUMNS = 1024
_SCORE_TOLERANCE = 1e-9
_MAX_ANSWERS = 4096  # per kind; one more clears them


class _KindRecords:
    """One kind's records in store order, their embeddings in column blocks.

    Column ``j`` of the blocks, counted across them in order, is record
    ``j``'s embedding. A column is written before its record is appended and
    never changes after; blocks are only appended.

    ``answers`` holds what ``best`` returned for all the current records, by
    ``(query text, threshold)``; ``append`` empties it.
    """

    def __init__(self, kind: RecordKind, dimension: int) -> None:
        self.kind = kind
        self.dimension = dimension
        self.records: list[MemoryRecord] = []
        self.blocks: list[np.ndarray] = []
        self._capacity = 0
        self.answers: dict[tuple[str, float], tuple[MemoryRecord, float] | None] = {}

    def append(
        self, record_id: int, key_text: str, payload: dict[str, Any], values: Any,
        cells: Any = slice(None),
    ) -> MemoryRecord:
        """Copy ``values`` into the ``cells`` of the next free column, which
        are all of it by default, and append a record viewing the column.
        A fresh column is all zeros: blocks are made by ``np.zeros`` and
        their columns are never reused."""
        count = len(self.records)
        if count == self._capacity:
            size = (min(2 * self.blocks[-1].shape[1], _MAX_BLOCK_COLUMNS)
                    if self.blocks else _FIRST_BLOCK_COLUMNS)
            self.blocks.append(np.zeros((self.dimension, size)))
            self._capacity += size
        block = self.blocks[-1]
        column = block[:, count - (self._capacity - block.shape[1])]
        column[cells] = values
        column.flags.writeable = False
        record = MemoryRecord(record_id, self.kind, key_text,
                              Embedding._wrap(column), payload)
        self.records.append(record)
        self.answers.clear()
        return record

    def check_norms(self) -> None:
        """Raise ValueError unless every column has norm 1 or 0, like an ``Embedding``."""
        # a block is made only for a record, so each one holds at least one
        unchecked = len(self.records)
        for block in self.blocks:
            columns = block[:, :unchecked]
            unchecked -= block.shape[1]
            norms = np.sqrt(np.einsum("ij,ij->j", columns, columns))
            bad = (norms != 0.0) & ~(np.abs(norms - 1.0) <= _UNIT_TOLERANCE)
            if bad.any():
                raise ValueError(f"embedding norm must be 1 or 0, got {norms[bad][0]}")

    def best(self, query: Embedding, threshold: float) -> tuple[MemoryRecord, float] | None:
        """The best record and its similarity, if that clears the threshold."""
        count = len(self.records)
        if count == 0:
            return None
        # zero cells add exact zeros to every score: read only the block rows
        # of the query's non-zero coordinates. ``take`` copies whole rows,
        # faster than slicing them first; the scores of the last block's
        # unfilled columns are cut
        coordinates = np.flatnonzero(query.values)
        if not coordinates.size:
            # every cosine with the zero vector is exactly 0: the earliest
            # record is the best, with no score to compute
            return (self.records[0], 0.0) if threshold <= 0 else None
        values = query.values[coordinates]
        scores = np.concatenate(
            [values @ block.take(coordinates, axis=0) for block in self.blocks])[:count]
        best = scores.max()
        if best < threshold - _SCORE_TOLERANCE:
            return None
        near_best = [self.records[i] for i in np.flatnonzero(scores >= best - _SCORE_TOLERANCE)]
        # max keeps the first of equal scores: the earliest-stored record
        record, similarity = max(
            ((r, query.cosine(r.embedding)) for r in near_best), key=lambda hit: hit[1]
        )
        return (record, similarity) if similarity >= threshold else None


# -- snapshot text ---------------------------------------------------------------
#
# A version 2 snapshot stores each embedding as the ``[index, value]`` pairs
# of its cells with a set bit, in ascending index order: +0.0 is the only
# float with no bit set, so -0.0 keeps its sign, and every value is written by
# ``repr``, so a round trip is bit-exact. Version 1 snapshots, with no
# ``"version"`` key, stored every cell as a dense list; ``load`` still reads
# them.
#
# ``json.dumps`` with ``indent`` falls back to the pure-Python encoder.
# ``save`` renders the same text, byte for byte, from each record's parts
# instead: a payload's objects, arrays and strings are laid out directly at
# the record's depth, and any other value is dumped on its own with its lines
# shifted to that depth, which is safe because JSON text never has a raw
# newline inside a string. Embeddings are rendered per kind, a block at a
# time: one ``nonzero`` over the bits of the block's filled columns gives
# every pair, by record and then by index, and each distinct value is
# ``repr``-ed once for the whole block.
#
# ``load`` pauses the cyclic garbage collector while it parses and builds, and
# then restores the caller's setting: what it allocates is either kept or freed
# by reference counting, so a collection during a load frees nothing.

_SNAPSHOT_VERSION = 2
_KIND_JSON = {kind: json.dumps(kind.value) for kind in RecordKind}
_PAYLOAD_NEWLINE = "\n" + " " * 6
_PAIR_SEPARATOR = "\n        ],\n        [\n          "
_encode_string = json.encoder.encode_basestring


def _set_cells(values: np.ndarray) -> tuple[list[int], list[float]]:
    """The indices and values of the cells of ``values`` with a set bit."""
    indices = np.flatnonzero(values.view(np.int64))
    return indices.tolist(), values[indices].tolist()


def _embedding_texts(blocks: list[np.ndarray], count: int) -> list[str]:
    """The snapshot text of each of the first ``count`` columns of ``blocks``."""
    texts: list[str] = []
    for block in blocks:
        filled = min(count - len(texts), block.shape[1])
        if filled <= 0:
            break
        # transposed, so the pairs come out by record and then by index
        records, indices = np.nonzero(block.view(np.int64)[:, :filled].T)
        starts = np.searchsorted(records, np.arange(filled + 1)).tolist()
        indices, values = indices.tolist(), block[indices, records].tolist()
        # a token-hash embedding repeats few values; equal floats have equal
        # reprs, as the only zero among set cells is -0.0
        reprs = {value: repr(value) for value in set(values)}
        pairs = [f"{i},\n          {reprs[value]}" for i, value in zip(indices, values)]
        texts += ["[\n        [\n          " + _PAIR_SEPARATOR.join(pairs[start:end])
                  + "\n        ]\n      ]" if end > start else "[]"
                  for start, end in zip(starts, starts[1:])]
    return texts


def _sparse_cells(pairs: Any, dimension: int, record_id: Any) -> tuple[list[int], list[Any]]:
    """Split a version 2 embedding into its indices and values.

    Raises DimensionMismatch for an index outside ``[0, dimension)`` and
    ValueError for any other fault of form or order. Norms are checked later,
    for a whole block at once.
    """
    if not isinstance(pairs, list):
        raise ValueError(f"record {record_id}: an embedding is a list of [index, value] pairs")
    indices, values = [], []
    last = -1
    for pair in pairs:
        # type(...) is int, not isinstance: a bool is no index
        if (type(pair) is not list or len(pair) != 2 or type(pair[0]) is not int
                or type(pair[1]) not in (float, int)):
            raise ValueError(f"record {record_id}: {pair!r} is not an [index, value] pair")
        index, value = pair
        if not 0 <= index < dimension:
            raise DimensionMismatch(
                f"record {record_id}: index {index} is outside dimension {dimension}")
        if index <= last:
            raise ValueError(f"record {record_id}: indices must be strictly ascending")
        last = index
        indices.append(index)
        values.append(value)
    return indices, values


def _payload_json(value: Any, newline: str) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)`` with ``newline``
    (a newline and the current line's indentation) in place of each newline."""
    if isinstance(value, str):
        return _encode_string(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        try:
            # string leaves, the most common value, are encoded without a call
            items = [f"{_encode_string(key)}: "
                     f"{_encode_string(item) if type(item) is str else _payload_json(item, inner)}"
                     for key, item in value.items()]
        except TypeError:
            # a key that is not a string, which json.dumps converts or refuses,
            # or a value below that json.dumps refuses just the same
            return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", newline)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_encode_string(item) if type(item) is str else _payload_json(item, inner)
                 for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, bool):  # before int, of which bool is a subclass
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    # None, floats, and what json rejects
    return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", newline)


def _record_json(record: MemoryRecord, embedding: str) -> str:
    payload = _payload_json(record.payload, _PAYLOAD_NEWLINE)
    return (
        "    {\n"
        f'      "id": {record.record_id},\n'
        f'      "kind": {_KIND_JSON[record.kind]},\n'
        f'      "key_text": {_payload_json(record.key_text, _PAYLOAD_NEWLINE)},\n'
        f'      "embedding": {embedding},\n'
        f'      "payload": {payload}\n'
        "    }"
    )


def _snapshot_text(dimension: int, records: list[MemoryRecord],
                   embeddings: dict[RecordKind, Iterator[str]]) -> str:
    """The snapshot of ``records``, which are in store order; ``embeddings``
    yields each kind's embedding texts in the same order."""
    head = (f'{{\n  "version": {_SNAPSHOT_VERSION},\n'
            f'  "dimension": {json.dumps(dimension)},\n  "records": ')
    if not records:
        return head + "[]\n}\n"
    return head + "[\n" + ",\n".join(
        _record_json(record, next(embeddings[record.kind])) for record in records
    ) + "\n  ]\n}\n"


class ExperienceMemory:
    """Record store with cosine retrieval. Single-threaded, like the engine
    that drives it: it takes no lock, so one thread at a time may use it."""

    def __init__(
        self,
        embedder: LocalDeterministicEmbedder | None = None,
    ) -> None:
        self._embedder = embedder or LocalDeterministicEmbedder()
        self._by_id: dict[int, MemoryRecord] = {}
        self._kinds = {kind: _KindRecords(kind, self.dimension) for kind in RecordKind}
        self._next_id = 1
        self.stats = MemoryStats()

    @property
    def dimension(self) -> int:
        return self._embedder.dimension

    def embed(self, text: str) -> Embedding:
        return self._embedder.embed(text)

    def store(self, kind: RecordKind, key_text: str, payload: dict[str, Any]) -> int:
        # a snapshot holding any other key text would not load
        if not isinstance(key_text, str):
            raise ValueError(f"a key_text must be a string, got {type(key_text).__name__}")
        _check_payload(kind, payload)
        embedding = self.embed(key_text)
        if embedding.dimension != self.dimension:
            raise DimensionMismatch(
                f"embedding dimension {embedding.dimension} != store dimension {self.dimension}"
            )
        record = self._kinds[kind].append(self._next_id, key_text, payload, embedding.values)
        self._next_id += 1
        self._by_id[record.record_id] = record
        self.stats.writes += 1
        return record.record_id

    def retrieve(
        self, kind: RecordKind, query_text: str, threshold: float
    ) -> tuple[MemoryRecord, float] | None:
        """Best record of ``kind`` by cosine similarity, if it clears the threshold.

        Ties keep the earliest-stored record, so results do not depend on
        insertion order beyond first-come precedence. The answer is given
        again, without an ``embed`` call, until a record of ``kind`` is stored.
        """
        self.stats.reads += 1
        kind_records = self._kinds[kind]
        answers = kind_records.answers
        key = (query_text, threshold)
        if key not in answers:
            query = self.embed(query_text)
            if len(answers) >= _MAX_ANSWERS:
                answers.clear()
            answers[key] = kind_records.best(query, threshold)
        return answers[key]

    def get(self, record_id: int) -> MemoryRecord:
        record = self._by_id.get(record_id)
        if record is None:
            raise UnknownRecord(f"no record with id {record_id}")
        return record

    def records(self, kind: RecordKind | None = None) -> list[MemoryRecord]:
        return list(self._by_id.values() if kind is None else self._kinds[kind].records)

    def __len__(self) -> int:
        return len(self._by_id)

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": _SNAPSHOT_VERSION,
            "dimension": self.dimension,
            "records": [
                {
                    "id": r.record_id,
                    "kind": r.kind.value,
                    "key_text": r.key_text,
                    "embedding": [[i, v] for i, v in zip(*_set_cells(r.embedding.values))],
                    "payload": r.payload,
                }
                for r in self.records()
            ],
        }

    def save(self, path: str) -> None:
        """Write the snapshot: the bytes of ``json.dumps(self.to_dict(),
        indent=2, ensure_ascii=False) + "\\n"``, rendered record by record
        with each kind's embeddings rendered a block at a time.

        The bytes go to a new file beside ``path`` that then replaces it, so
        a save that fails leaves the old snapshot as it was."""
        embeddings = {k.kind: iter(_embedding_texts(k.blocks, len(k.records)))
                      for k in self._kinds.values()}
        data = _snapshot_text(self.dimension, self.records(), embeddings).encode("utf-8")
        temporary = f"{path}.{os.urandom(6).hex()}.tmp"
        fh = open(temporary, "xb")
        try:
            with fh:
                fh.write(data)
            os.replace(temporary, path)
        except BaseException:
            os.remove(temporary)
            raise

    @classmethod
    def load(
        cls,
        path: str,
        embedder: LocalDeterministicEmbedder | None = None,
    ) -> "ExperienceMemory":
        """Read a snapshot written by ``save``, or a version 1 snapshot,
        validating every record, with the cyclic garbage collector paused."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return cls._load(path, embedder)
        finally:
            if enabled:
                gc.enable()

    @classmethod
    def _load(cls, path: str, embedder: LocalDeterministicEmbedder | None) -> "ExperienceMemory":
        doc = read_json(path)
        # a document of another shape fails below on a missing key or a value of
        # the wrong type (OverflowError: an integer too large for a float)
        try:
            version = doc.get("version", 1)
            if type(version) is not int or version not in (1, _SNAPSHOT_VERSION):
                raise ValueError(f"unknown snapshot version {version!r}")
            store = cls(embedder=embedder)
            if doc["dimension"] != store.dimension:
                raise DimensionMismatch(
                    f"snapshot dimension {doc['dimension']} != embedder dimension {store.dimension}"
                )
            for raw in doc.get("records", []):
                record_id, key_text = raw["id"], raw["key_text"]
                # type(...) is int, not isinstance: a bool is no id
                if type(record_id) is not int:
                    raise ValueError(f"snapshot record id {record_id!r} is not an integer")
                if not isinstance(key_text, str):
                    raise ValueError(f"snapshot record {record_id} has a key_text that is not a string")
                kind = RecordKind(raw["kind"])
                _check_payload(kind, raw["payload"])
                embedding = raw["embedding"]
                if version == 1:
                    if not isinstance(embedding, list) or len(embedding) != store.dimension:
                        raise DimensionMismatch(
                            f"record {record_id} lacks an embedding of dimension {store.dimension}"
                        )
                    cells = slice(None)
                else:
                    cells, embedding = _sparse_cells(embedding, store.dimension, record_id)
                # parsed straight into the blocks, with no Embedding copy in between
                record = store._kinds[kind].append(
                    record_id, key_text, raw["payload"], embedding, cells
                )
                if record.record_id in store._by_id:
                    raise ValueError(
                        f"snapshot has more than one record with id {record.record_id}")
                store._by_id[record.record_id] = record
        except KeyError as exc:
            raise ValueError(f"snapshot lacks the key {exc}") from exc
        except (TypeError, AttributeError, OverflowError) as exc:
            raise ValueError(f"snapshot has the wrong shape: {exc}") from exc
        for kind_records in store._kinds.values():
            kind_records.check_norms()
        store._next_id = max(store._by_id, default=0) + 1
        return store

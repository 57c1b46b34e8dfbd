"""Embedding-keyed experience store.

Workflows and pipelines are stored under text keys; retrieval embeds the
query and returns the best record by cosine similarity when it clears a
per-kind threshold.

Each kind keeps its records in store order and their embeddings as float64
rows of blocks of 16, 32, 64, ... up to 1,024 rows. Blocks are never copied
or resized, so a record's ``embedding.values`` is a read-only view of its row
and each vector is held once. Retrieval scores each block with one
matrix-vector product, then scores the rows within 1e-9 of the best again
with ``Embedding.cosine`` and returns the highest, earliest on ties, with that
exact score, which is also the value compared with the threshold. The two
products round differently (by about 1e-16 for unit vectors), and this gives
the record and the float of a per-record scan whenever they differ by less
than 5e-10.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterator

import numpy as np

from .errors import (
    DimensionMismatch,
    EmbeddingBackendError,
    PayloadKindMismatch,
    UnknownRecord,
)

__all__ = [
    "RecordKind",
    "Embedding",
    "LocalDeterministicEmbedder",
    "ExternalApiEmbedder",
    "EmbedderProvider",
    "EmbedderSpec",
    "MemoryRecord",
    "MemoryStats",
    "ExperienceMemory",
    "workflow_key",
    "pipeline_key",
    "DEFAULT_RETRIEVAL_THRESHOLD",
]

DEFAULT_RETRIEVAL_THRESHOLD = 0.85
DEFAULT_DIMENSION = 256

_UNIT_TOLERANCE = 1e-9


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
    def _of_row(cls, row: np.ndarray) -> "Embedding":
        """Wrap a checked, read-only block row without copying it."""
        embedding = cls.__new__(cls)
        embedding.values = row
        return embedding

    @classmethod
    def from_raw(cls, raw: Any) -> "Embedding":
        arr = np.asarray(raw, dtype=np.float64)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            return cls(np.zeros_like(arr))
        return cls(arr / norm)

    @property
    def dimension(self) -> int:
        return int(self.values.shape[0])

    @property
    def is_zero(self) -> bool:
        return not self.values.any()

    def cosine(self, other: "Embedding") -> float:
        """Dot product of unit vectors; 0 whenever either side is zero."""
        return float(self.values @ other.values)


class LocalDeterministicEmbedder:
    """Hash each whitespace token into a bucket, count, then L2-normalize.

    Fully offline and stable across processes (sha256, not the salted builtin
    hash), so snapshots and retrieval results are reproducible.
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION) -> None:
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension

    def embed(self, text: str) -> Embedding:
        counts = np.zeros(self.dimension, dtype=np.float64)
        for token in text.split():
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            counts[int.from_bytes(digest[:8], "big") % self.dimension] += 1.0
        return Embedding.from_raw(counts)


class ExternalApiEmbedder:
    """Proxy an embeddings endpoint (OpenAI-style body) and normalize."""

    def __init__(
        self,
        endpoint: str,
        model: str = "",
        api_key: str = "",
        dimension: int = DEFAULT_DIMENSION,
        timeout: float = 30.0,
    ) -> None:
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.dimension = dimension
        self.timeout = timeout

    def embed(self, text: str) -> Embedding:
        import urllib.error
        import urllib.request

        body = json.dumps({"model": self.model, "input": text}).encode()
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(
            self.endpoint, data=body, headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
            raw = payload["data"][0]["embedding"]
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise EmbeddingBackendError(f"embedding call failed: {exc}") from exc
        except (KeyError, IndexError, ValueError) as exc:
            raise EmbeddingBackendError(f"malformed embedding reply: {exc}") from exc
        embedding = Embedding.from_raw(raw)
        if embedding.dimension != self.dimension:
            raise DimensionMismatch(
                f"provider returned dimension {embedding.dimension}, expected {self.dimension}"
            )
        return embedding


class EmbedderProvider(str, Enum):
    LOCAL_DETERMINISTIC = "local_deterministic"
    EXTERNAL_API = "external_api"


@dataclass(frozen=True)
class EmbedderSpec:
    provider: EmbedderProvider = EmbedderProvider.LOCAL_DETERMINISTIC
    dimension: int = DEFAULT_DIMENSION
    endpoint: str = ""
    model: str = ""
    api_key: str = ""

    def build(self) -> LocalDeterministicEmbedder | ExternalApiEmbedder:
        if self.provider is EmbedderProvider.LOCAL_DETERMINISTIC:
            return LocalDeterministicEmbedder(self.dimension)
        return ExternalApiEmbedder(
            self.endpoint, self.model, self.api_key, self.dimension
        )


@dataclass(frozen=True)
class MemoryRecord:
    record_id: int
    kind: RecordKind
    key_text: str
    embedding: Embedding
    payload: dict[str, Any]


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


_FIRST_BLOCK_ROWS = 16
_MAX_BLOCK_ROWS = 1024
_SCORE_TOLERANCE = 1e-9


class _KindRows:
    """One kind's records in store order, their embeddings in row blocks.

    A row is written before its record is appended and never changes after;
    blocks are only appended. A reader holding ``len(records)`` and a copy of
    ``blocks`` taken under the store's lock may therefore score those rows
    without the lock while ``append`` fills later ones.
    """

    def __init__(self, kind: RecordKind, dimension: int) -> None:
        self.kind = kind
        self.dimension = dimension
        self.records: list[MemoryRecord] = []
        self.blocks: list[np.ndarray] = []
        self._capacity = 0

    def append(
        self, record_id: int, key_text: str, payload: dict[str, Any], values: Any
    ) -> MemoryRecord:
        """Copy ``values`` into the next free row and append a record viewing it."""
        count = len(self.records)
        if count == self._capacity:
            size = (min(2 * len(self.blocks[-1]), _MAX_BLOCK_ROWS)
                    if self.blocks else _FIRST_BLOCK_ROWS)
            self.blocks.append(np.zeros((size, self.dimension)))
            self._capacity += size
        block = self.blocks[-1]
        row = block[count - (self._capacity - len(block))]
        row[...] = values
        row.flags.writeable = False
        record = MemoryRecord(record_id, self.kind, key_text, Embedding._of_row(row), payload)
        self.records.append(record)
        return record

    def check_norms(self) -> None:
        """Raise ValueError unless every row has norm 1 or 0, like an ``Embedding``."""
        for rows in _filled(self.blocks, len(self.records)):
            norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
            bad = (norms != 0.0) & ~(np.abs(norms - 1.0) <= _UNIT_TOLERANCE)
            if bad.any():
                raise ValueError(f"embedding norm must be 1 or 0, got {norms[bad][0]}")


def _filled(blocks: list[np.ndarray], count: int) -> Iterator[np.ndarray]:
    """The first ``count`` rows of ``blocks``, one slice per block."""
    for block in blocks:
        if count <= 0:
            return
        yield block[:count]
        count -= len(block)


class ExperienceMemory:
    """Concurrent-read, serialized-write record store with cosine retrieval."""

    def __init__(
        self,
        embedder: LocalDeterministicEmbedder | ExternalApiEmbedder | None = None,
        thresholds: dict[RecordKind, float] | None = None,
    ) -> None:
        self._embedder = embedder or LocalDeterministicEmbedder()
        self._records: list[MemoryRecord] = []
        self._by_id: dict[int, MemoryRecord] = {}
        self._kinds = {kind: _KindRows(kind, self.dimension) for kind in RecordKind}
        self._next_id = 1
        self._lock = threading.Lock()
        self._thresholds = {kind: DEFAULT_RETRIEVAL_THRESHOLD for kind in RecordKind}
        self._thresholds.update(thresholds or {})
        self.stats = MemoryStats()

    @property
    def dimension(self) -> int:
        return self._embedder.dimension

    def threshold(self, kind: RecordKind) -> float:
        return self._thresholds[kind]

    def embed(self, text: str) -> Embedding:
        return self._embedder.embed(text)

    def store(self, kind: RecordKind, key_text: str, payload: dict[str, Any]) -> int:
        _check_payload(kind, payload)
        embedding = self.embed(key_text)
        if embedding.dimension != self.dimension:
            raise DimensionMismatch(
                f"embedding dimension {embedding.dimension} != store dimension {self.dimension}"
            )
        with self._lock:
            record = self._kinds[kind].append(self._next_id, key_text, payload, embedding.values)
            self._next_id += 1
            self._records.append(record)
            self._by_id[record.record_id] = record
            self.stats.writes += 1
        return record.record_id

    def retrieve(
        self, kind: RecordKind, query_text: str, threshold: float | None = None
    ) -> tuple[MemoryRecord, float] | None:
        """Best record of ``kind`` by cosine similarity, if it clears the threshold.

        Ties keep the earliest-stored record, so results do not depend on
        insertion order beyond first-come precedence.
        """
        if threshold is None:
            threshold = self._thresholds[kind]
        kind_rows = self._kinds[kind]
        with self._lock:
            count, blocks = len(kind_rows.records), list(kind_rows.blocks)
            self.stats.reads += 1
        query = self.embed(query_text)
        if count == 0:
            return None
        scores = np.concatenate([part @ query.values for part in _filled(blocks, count)])
        best = scores.max()
        if best < threshold - _SCORE_TOLERANCE:
            return None
        near_best = [kind_rows.records[i]
                     for i in np.flatnonzero(scores >= best - _SCORE_TOLERANCE)]
        # max keeps the first of equal scores: the earliest-stored record
        record, similarity = max(
            ((r, query.cosine(r.embedding)) for r in near_best), key=lambda hit: hit[1]
        )
        return (record, similarity) if similarity >= threshold else None

    def get(self, record_id: int) -> MemoryRecord:
        with self._lock:
            record = self._by_id.get(record_id)
        if record is None:
            raise UnknownRecord(f"no record with id {record_id}")
        return record

    def records(self, kind: RecordKind | None = None) -> list[MemoryRecord]:
        with self._lock:
            return list(self._records if kind is None else self._kinds[kind].records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "dimension": self.dimension,
            "records": [
                {
                    "id": r.record_id,
                    "kind": r.kind.value,
                    "key_text": r.key_text,
                    "embedding": r.embedding.values.tolist(),
                    "payload": r.payload,
                }
                for r in self.records()
            ],
        }

    def save(self, path: str) -> None:
        # to_dict snapshots the record list under the lock itself
        text = json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    @classmethod
    def load(
        cls,
        path: str,
        embedder: LocalDeterministicEmbedder | ExternalApiEmbedder | None = None,
        thresholds: dict[RecordKind, float] | None = None,
    ) -> "ExperienceMemory":
        """Read a snapshot written by ``save``, validating every record."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        store = cls(embedder=embedder, thresholds=thresholds)
        if doc["dimension"] != store.dimension:
            raise DimensionMismatch(
                f"snapshot dimension {doc['dimension']} != embedder dimension {store.dimension}"
            )
        for raw in doc.get("records", []):
            kind = RecordKind(raw["kind"])
            _check_payload(kind, raw["payload"])
            embedding = raw["embedding"]
            if not isinstance(embedding, list) or len(embedding) != store.dimension:
                raise DimensionMismatch(
                    f"record {raw['id']} lacks an embedding of dimension {store.dimension}"
                )
            # parsed straight into the blocks, with no Embedding copy in between
            record = store._kinds[kind].append(
                int(raw["id"]), raw["key_text"], raw["payload"], embedding
            )
            if record.record_id in store._by_id:
                raise ValueError(f"snapshot has more than one record with id {record.record_id}")
            store._by_id[record.record_id] = record
            store._records.append(record)
        for kind_rows in store._kinds.values():
            kind_rows.check_norms()
        store._next_id = max(store._by_id, default=0) + 1
        return store

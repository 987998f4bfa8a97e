"""Embedding index, exact k-NN retrieval, and join-type semantics.

The index is an exact scan over query blocks: for l2, one matrix product
per block shortlists candidates that the difference formula re-scores,
so scores never depend on the block. ``topk`` ranks for every scorer,
ties by ascending id. An approximate backend may replace the scan only
if it passes the exactness suite at recall 1.0 or marks its output as
approximate. Built indexes are read-only and safe to query concurrently.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Literal, Sequence

import numpy as np

from .joinspec import JoinSpec, JoinType

Metric = Literal["l2", "inner_product"]

# Floats per query block of scores, and per re-scoring step (4 MB).
_BLOCK_CELLS = 1 << 19


class JoinError(ValueError):
    """Invalid join input (dimension mismatch, empty side, broken chain)."""


def id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Rank of each id under ascending-id order, for tie-breaking."""
    return np.argsort(sorted(range(len(ids)), key=ids.__getitem__))


def topk(scores: np.ndarray, k: int, id_rank: np.ndarray, descending: bool,
         keep: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The best ``k`` entries of each row of ``scores`` (one row (n,) or a
    block (m, n)): lowest first unless ``descending``, ties by ascending
    ``id_rank``, never an entry outside ``keep``; both broadcast against
    ``scores``. Returns their ``(rows, cols)``, ordered by row, then rank."""
    key = np.array(scores, dtype=np.float64, ndmin=2) * (-1.0 if descending else 1.0)
    keep = np.ones(key.shape, bool) if keep is None else np.broadcast_to(keep, key.shape)
    key[~keep] = np.inf
    if k < key.shape[1]:  # keep everything tied with the k-th; id ranks decide
        keep = keep & (key <= np.partition(key, k - 1, axis=1)[:, k - 1 : k])
    rows, cols = np.nonzero(keep)
    order = np.lexsort((np.broadcast_to(id_rank, key.shape)[rows, cols], key[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    first = np.arange(rows.size) - np.searchsorted(rows, rows) < k
    return rows[first], cols[first]


@dataclass
class EmbeddingIndex:
    ids: tuple[str, ...]
    vectors: np.ndarray  # (n, d) float64
    metric: Metric = "l2"

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2:
            raise JoinError("index vectors must form a 2-d array")
        if len(self.ids) != self.vectors.shape[0]:
            raise JoinError("id count does not match vector count")
        if len(set(self.ids)) != len(self.ids):
            raise JoinError("index record ids must be unique")
        self._id_rank = id_ranks(self.ids)
        self._sq_norms = np.einsum("ij,ij->i", self.vectors, self.vectors)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


def build_index(
    embeddings: Sequence[tuple[str, np.ndarray]],
    metric: Metric = "l2",
) -> EmbeddingIndex:
    """Build an exact index over (record_id, vector) pairs."""
    if not embeddings:
        raise JoinError("cannot build an index over zero embeddings")
    if metric not in ("l2", "inner_product"):
        raise JoinError(f"unknown metric {metric!r}")
    dims = {np.asarray(vec).shape for _, vec in embeddings}
    if len(dims) != 1 or len(next(iter(dims))) != 1:
        raise JoinError(f"embedding dimension mismatch: saw shapes {sorted(dims)}")
    ids = tuple(rid for rid, _ in embeddings)
    matrix = np.asarray([np.asarray(vec, dtype=np.float64) for _, vec in embeddings])
    return EmbeddingIndex(ids=ids, vectors=matrix, metric=metric)


def _search(index: EmbeddingIndex, queries: np.ndarray, k: int,
            threshold: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact top-k of every query row: ``(rows, cols, scores)`` ordered by
    query row, then rank; ``cols`` are index positions."""
    if queries.shape[1:] != (index.dimension,):
        raise JoinError(f"query dimension {queries.shape[1:]} does not match index "
                        f"dimension {index.dimension}")
    found = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    step = max(1, _BLOCK_CELLS // index.n)
    for start in range(0, len(queries), step):
        block = queries[start : start + step]
        if index.metric == "inner_product":
            scores = np.stack([index.vectors @ q for q in block])
            keep = None if threshold is None else scores >= threshold
        else:
            # Rounding makes ||x||^2 - 2 q.x and the formula below differ by
            # less than E = 4 (d + 2) eps (||q||^2 + ||x||^2), so a candidate
            # that can beat the k-th best lies within 2E of the k-th shortlist
            # score; the band is twice that.
            approx = index._sq_norms - 2.0 * (block @ index.vectors.T)
            kth = np.partition(approx, min(k, index.n) - 1, axis=1)[:, min(k, index.n) - 1]
            tol = 16.0 * (index.dimension + 4) * np.finfo(np.float64).eps
            band = tol * (np.einsum("ij,ij->i", block, block) + index._sq_norms.max())
            keep = approx <= (kth + band)[:, None]
            rows, cols = np.nonzero(keep)
            scores = np.full(keep.shape, np.inf)
            pairs = _BLOCK_CELLS // index.dimension + 1
            for at in range(0, rows.size, pairs):
                r, c = rows[at : at + pairs], cols[at : at + pairs]
                diff = index.vectors[c] - block[r]
                scores[r, c] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            if threshold is not None:
                keep &= scores <= threshold
        rows, cols = topk(scores, k, index._id_rank, index.metric != "l2", keep)
        found.append((rows + start, cols, scores[rows, cols]))
    return tuple(np.concatenate(part) for part in zip(*found))  # type: ignore[return-value]


def knn(
    index: EmbeddingIndex,
    query: np.ndarray,
    k: int,
    threshold: float | None = None,
) -> list[tuple[str, float]]:
    """Exact top-k under the index metric; ties break by ascending id.

    With a threshold, l2 keeps scores <= threshold and inner_product keeps
    scores >= threshold.
    """
    if k < 1:
        raise JoinError("k must be >= 1")
    _, cols, scores = _search(index, np.asarray(query, dtype=np.float64)[None], k, threshold)
    return [(index.ids[c], s) for c, s in zip(cols.tolist(), scores.tolist())]


@dataclass(frozen=True)
class Match:
    """One joined tuple; a None id marks an unenriched (ABSENT) side."""

    base_id: str | None
    aux_id: str | None
    rank: int
    score: float
    direction: str = "forward"  # forward: base queried aux; reverse: mirror
    path: tuple[str, ...] = ()  # intermediate record ids for chained joins

    @property
    def absent(self) -> bool:
        return self.base_id is None or self.aux_id is None


@dataclass
class JoinResult:
    matches: list[Match]
    spec: JoinSpec | None = None

    def for_base(self, base_id: str) -> list[Match]:
        return [m for m in self.matches if m.base_id == base_id and not m.absent]

    def matched_pairs(self) -> set[tuple[str, str]]:
        return {(m.base_id, m.aux_id) for m in self.matches if not m.absent}

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["base_id", "aux_id", "rank", "score"])
        for m in self.matches:
            writer.writerow(
                [
                    m.base_id if m.base_id is not None else "",
                    m.aux_id if m.aux_id is not None else "",
                    m.rank,
                    repr(m.score) if not m.absent else "",
                ]
            )
        return buf.getvalue()

    def write_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv_text(), encoding="utf-8")

    @classmethod
    def from_csv(cls, path: str | Path) -> "JoinResult":
        matches: list[Match] = []
        with Path(path).open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[:4] != ["base_id", "aux_id", "rank", "score"]:
                raise JoinError(f"{path}: unexpected result header {header!r}")
            for row in reader:
                if not row:
                    continue
                base_id = row[0] or None
                aux_id = row[1] or None
                rank = int(row[2])
                score = float(row[3]) if row[3] else float("nan")
                matches.append(Match(base_id=base_id, aux_id=aux_id, rank=rank, score=score))
        return cls(matches=matches)


Embeddings = Sequence[tuple[str, np.ndarray]]


def _retrieve(
    query_emb: Embeddings,
    target_emb: Embeddings,
    k: int,
    metric: Metric,
    threshold: float | None,
    index_on: Literal["target", "query"],
) -> dict[str, list[tuple[str, float]]]:
    """Ranked candidates per query record.

    ``index_on`` picks the execution strategy only: indexing the query side
    computes the same distances row-by-row from the other direction and
    transposes, so results are identical either way.
    """
    if index_on == "target":
        index, queries = build_index(target_emb, metric), build_index(query_emb, metric)
        rows, cols, scores = _search(index, queries.vectors, k, threshold)
        hits: list[list[tuple[str, float]]] = [[] for _ in queries.ids]
        for row, col, score in zip(rows.tolist(), cols.tolist(), scores.tolist()):
            hits[row].append((index.ids[col], score))
        return dict(zip(queries.ids, hits))

    index = build_index(query_emb, metric)
    per_query: dict[str, list[tuple[str, float]]] = {qid: [] for qid, _ in query_emb}
    for tid, tvec in target_emb:
        for qid, score in knn(index, tvec, index.n, threshold=None):
            per_query[qid].append((tid, score))
    sign = 1.0 if metric == "l2" else -1.0
    out: dict[str, list[tuple[str, float]]] = {}
    for qid, cands in per_query.items():
        if threshold is not None:
            if metric == "l2":
                cands = [c for c in cands if c[1] <= threshold]
            else:
                cands = [c for c in cands if c[1] >= threshold]
        cands.sort(key=lambda c: (sign * c[1], c[0]))
        out[qid] = cands[:k]
    return out


def _ranked_matches(
    retrieved: dict[str, list[tuple[str, float]]],
    query_order: Iterable[str],
    direction: Literal["forward", "reverse"],
    absent: bool = False,
) -> list[Match]:
    """Matches in query order, best first; forward means base records queried
    aux records. With ``absent``, a query without matches gets an ABSENT row."""
    matches: list[Match] = []
    for qid in query_order:
        hits = retrieved.get(qid) or ([(None, float("nan"))] if absent else [])
        for rank, (tid, score) in enumerate(hits, start=1):
            pair = (qid, tid) if direction == "forward" else (tid, qid)
            matches.append(Match(*pair, rank=rank if tid is not None else 0, score=score,
                                 direction=direction))
    return matches


def _cap_per_target(
    retrieved: dict[str, list[tuple[str, float]]],
    cap: int,
    metric: Metric,
) -> dict[str, list[tuple[str, float]]]:
    """Keep each target record's best ``cap`` query matches by score, ties
    by ascending query id."""
    by_target: dict[str, list[tuple[float, str]]] = {}
    for qid, cands in retrieved.items():
        for tid, score in cands:
            by_target.setdefault(tid, []).append((score, qid))
    dropped: set[tuple[str, str]] = set()
    for tid, entries in by_target.items():
        if len(entries) > cap:
            scores, qids = zip(*entries)
            _, best = topk(scores, cap, id_ranks(qids), metric != "l2")
            dropped.update((qids[i], tid) for i in set(range(len(qids))) - set(best.tolist()))
    return {
        qid: [(tid, score) for tid, score in cands if (qid, tid) not in dropped]
        for qid, cands in retrieved.items()
    }


def execute_join(
    spec: JoinSpec,
    base_emb: Embeddings,
    aux_emb: Embeddings,
    metric: Metric = "l2",
    threshold: float | None = None,
    index_side: Literal["auto", "base", "aux"] = "auto",
    both_directions: bool = False,
) -> JoinResult:
    """Execute the join over precomputed embeddings.

    INNER retrieves in a single direction: the smaller dataset queries the
    larger one, with k set by the retrieved side's size bound, then the
    query side's own bound is enforced as a per-retrieved-record cap.
    ``index_side`` selects which side physically holds the index; indexing
    the querying side runs the slower per-record reference scan (same l2
    bytes; inner-product scores may differ in the last bit). ``both_directions``
    switches INNER to the union of both retrieval directions.
    """
    if not base_emb or not aux_emb:
        raise JoinError("both sides must have at least one embedding")
    base_order = [rid for rid, _ in base_emb]
    aux_order = [rid for rid, _ in aux_emb]

    strategy = {side: "query" if index_side == side else "target" for side in ("base", "aux")}

    jt = spec.join_type
    if jt == JoinType.LEFT:
        retrieved = _retrieve(base_emb, aux_emb, spec.right_size, metric, threshold,
                              strategy["base"])
        return JoinResult(_ranked_matches(retrieved, base_order, "forward", True), spec)

    if jt == JoinType.RIGHT:
        retrieved = _retrieve(aux_emb, base_emb, spec.left_size, metric, threshold,
                              strategy["aux"])
        return JoinResult(_ranked_matches(retrieved, aux_order, "reverse", True), spec)

    if jt == JoinType.FULL or (jt == JoinType.INNER and both_directions):
        fwd = _retrieve(base_emb, aux_emb, spec.right_size, metric, threshold,
                        strategy["base"])
        rev = _retrieve(aux_emb, base_emb, spec.left_size, metric, threshold,
                        strategy["aux"])
        matches = _ranked_matches(fwd, base_order, "forward")
        seen = {(m.base_id, m.aux_id) for m in matches}
        matches += [m for m in _ranked_matches(rev, aux_order, "reverse")
                    if (m.base_id, m.aux_id) not in seen]
        if jt == JoinType.FULL:
            matched_base, matched_aux = {m.base_id for m in matches}, {m.aux_id for m in matches}
            matches += _ranked_matches({}, [b for b in base_order if b not in matched_base],
                                       "forward", True)
            matches += _ranked_matches({}, [a for a in aux_order if a not in matched_aux],
                                       "reverse", True)
        return JoinResult(matches=matches, spec=spec)

    # INNER, single direction: the smaller side queries the larger one.
    forward = len(base_emb) <= len(aux_emb)
    queries, targets = (base_emb, aux_emb) if forward else (aux_emb, base_emb)
    k, cap = (spec.right_size, spec.left_size) if forward else (spec.left_size, spec.right_size)
    retrieved = _retrieve(queries, targets, k, metric, threshold,
                          strategy["base" if forward else "aux"])
    if cap < len(queries):
        retrieved = _cap_per_target(retrieved, cap, metric)
    order, direction = (base_order, "forward") if forward else (aux_order, "reverse")
    return JoinResult(_ranked_matches(retrieved, order, direction), spec)


def chain_joins(
    base_emb: Embeddings,
    stages: Sequence[tuple[JoinSpec, EmbeddingIndex]],
    threshold: float | None = None,
) -> JoinResult:
    """Run a multi-hop join: each stage queries its index with the records
    retrieved by the previous stage, using the stored vectors as queries.

    The result relates stage-0 query records to last-stage matches; each
    match carries the intermediate id per hop in ``path``.
    """
    if not stages:
        raise JoinError("chain requires at least one stage")
    if not base_emb:
        return JoinResult(matches=[], spec=stages[-1][0])
    # Frontier: a query vector per (origin, hop path so far), each hop's index position.
    first = build_index(base_emb)
    queries, origins = first.vectors, np.arange(first.n)
    hops: list[np.ndarray] = []
    for spec, index in stages:
        rows, cols, scores = _search(index, queries, spec.right_size, threshold)
        origins = origins[rows]
        hops = [hop[rows] for hop in hops] + [cols]
        queries = index.vectors[cols]

    # Re-rank final matches per origin record, ties by endpoint id, then by
    # frontier order; path keeps one id per hop before the endpoint.
    last = stages[-1][1]
    bounds = np.searchsorted(origins, np.arange(first.n + 1)).tolist()
    matches: list[Match] = []
    for o, origin in enumerate(first.ids):
        lo, hi = bounds[o], bounds[o + 1]
        tie = last._id_rank[hops[-1][lo:hi]] * (hi - lo) + np.arange(hi - lo)
        _, order = topk(scores[lo:hi], hi - lo, tie, last.metric != "l2")
        for rank, e in enumerate((order + lo).tolist(), start=1):
            path = tuple(index.ids[hop[e]] for (_, index), hop in zip(stages, hops[:-1]))
            matches.append(Match(base_id=origin, aux_id=last.ids[hops[-1][e]], rank=rank,
                                 score=float(scores[e]), path=path))
    return JoinResult(matches=matches, spec=stages[-1][0])


# ---------------------------------------------------------------------------
# Embeddings cache: versioned binary, little-endian float64 row-major.
# ---------------------------------------------------------------------------

_EMB_MAGIC = b"KJEB"
_EMB_VERSION = 1


def save_embeddings(embeddings: Embeddings, path: str | Path) -> None:
    import struct

    path = Path(path)
    with path.open("wb") as fh:
        dim = int(np.asarray(embeddings[0][1]).shape[0]) if embeddings else 0
        fh.write(struct.pack("<4sIQQ", _EMB_MAGIC, _EMB_VERSION, len(embeddings), dim))
        for rid, vec in embeddings:
            encoded = rid.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(np.ascontiguousarray(vec, dtype="<f8").tobytes())


def load_embeddings(path: str | Path) -> list[tuple[str, np.ndarray]]:
    import struct

    path = Path(path)
    raw = path.read_bytes()
    head = struct.Struct("<4sIQQ")
    if len(raw) < head.size:
        raise JoinError(f"{path}: truncated embeddings file")
    magic, version, count, dim = head.unpack_from(raw)
    if magic != _EMB_MAGIC:
        raise JoinError(f"{path}: not an embeddings file (bad magic {magic!r})")
    if version != _EMB_VERSION:
        raise JoinError(f"{path}: unsupported embeddings version {version}")
    offset = head.size
    out: list[tuple[str, np.ndarray]] = []
    for _ in range(count):
        if offset + 4 > len(raw):
            raise JoinError(f"{path}: truncated embeddings file")
        (id_len,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        rid = raw[offset : offset + id_len].decode("utf-8")
        offset += id_len
        if offset + 8 * dim > len(raw):
            raise JoinError(f"{path}: truncated embeddings file")
        vec = np.frombuffer(raw, dtype="<f8", count=dim, offset=offset).copy()
        offset += 8 * dim
        out.append((rid, vec))
    return out


def aggregate_labels(
    result: JoinResult,
    labels: dict[str, float],
    k: int,
) -> dict[str, float]:
    """Average the labels of each base record's top-k matches.

    Base records with no matches are absent from the output; ABSENT rows
    contribute nothing.
    """
    if k < 1:
        raise JoinError("k must be >= 1")
    per_base: dict[str, list[tuple[int, float]]] = {}
    for m in result.matches:
        if m.absent:
            continue
        if m.aux_id not in labels:
            raise JoinError(f"no label for matched aux id {m.aux_id!r}")
        per_base.setdefault(m.base_id, []).append((m.rank, labels[m.aux_id]))
    out: dict[str, float] = {}
    for base_id, entries in per_base.items():
        entries.sort()
        top = [label for _, label in entries[:k]]
        out[base_id] = sum(top) / len(top)
    return out

"""Embedding index, exact k-NN retrieval, and join-type semantics.

The index is an exact scan over query blocks: for l2, one matrix product
per block shortlists candidates that the difference formula re-scores,
so scores never depend on the block. ``rank_pairs`` ranks candidates for
every scorer, ties by ascending id: ``topk`` hands it a dense block of
scores, the l2 scan only its re-scored shortlist. An approximate backend
may replace the scan only if it passes the exactness suite at recall 1.0
or marks its output as approximate. Built indexes are read-only and safe to query concurrently.

Every join returns a columnar ``JoinResult``: the two id tuples plus
per-row arrays of base and aux position (-1 for an ABSENT side), rank,
score and direction. The arrays go from ``_search`` to ``result.csv`` and
into the metrics with no per-row object.
"""

from __future__ import annotations

import csv
import io
import os
import struct
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, Literal, Sequence, TextIO

import numpy as np

from .joinspec import JoinSpec, JoinType

Metric = Literal["l2", "inner_product"]

# Record ids and one (n, d) float64 row per record, in the same order.
Embeddings = tuple[Sequence[str], np.ndarray]

# Floats per query block of scores (4 MB). Smaller blocks re-read the whole
# index more often: at 2^16 a 2k-over-10k scan took about twice as long.
_BLOCK_CELLS = 1 << 19
# Floats per re-scoring step of the l2 shortlist and per partitioned chunk
# of a topk block (0.5 MB).
_RESCORE_CELLS = 1 << 16
# Rows per chunk of a result file that is formatted in memory.
_WRITE_ROWS = 1 << 14


class JoinError(ValueError):
    """Invalid join input (dimension mismatch, empty side, broken chain)."""


@contextmanager
def atomic_write(path: str | Path, mode: str = "wb", **kwargs) -> Iterator[IO]:
    """Open a temporary file beside ``path`` (``.<name>.partial``) and
    replace ``path`` with it once the block completes: a write that fails
    leaves ``path`` as it was, never truncated, and no temporary file."""
    path = Path(path)
    partial = path.with_name(f".{path.name}.partial")
    try:
        with partial.open(mode, **kwargs) as fh:
            yield fh
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Rank of each id under ascending-id order, for tie-breaking."""
    return np.argsort(sorted(range(len(ids)), key=ids.__getitem__))


def _offsets(keys: np.ndarray) -> np.ndarray:
    """Each entry's 0-based position within its run of equal sorted ``keys``."""
    return np.arange(keys.size) - np.searchsorted(keys, keys)


def rank_pairs(rows: np.ndarray, key: np.ndarray, tie: np.ndarray, k: int) -> np.ndarray:
    """Positions of the best ``k`` candidates of each row, where candidate
    i lies in row ``rows[i]`` with sort key ``key[i]`` and tie rank
    ``tie[i]``, both lowest first. Ordered by row, then key, then tie."""
    order = np.lexsort((tie, key, rows))
    return order[_offsets(rows[order]) < k]


def topk(scores: np.ndarray, k: int, id_rank: np.ndarray, descending: bool,
         keep: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The best ``k`` entries of each row of ``scores`` (one row (n,) or a
    block (m, n)): lowest first unless ``descending``, ties by ascending
    ``id_rank``, never an entry outside ``keep``; both broadcast against
    ``scores``. Returns their ``(rows, cols)``, ordered by row, then rank."""
    key = np.array(scores, dtype=np.float64, ndmin=2)
    if descending:
        key *= -1.0
    keep = np.ones(key.shape, bool) if keep is None else np.broadcast_to(keep, key.shape)
    key[~keep] = np.inf
    if k < key.shape[1]:  # keep everything tied with the k-th; id ranks decide
        # Partitioned a few rows at a time, so no second copy of the block.
        kth = np.empty((key.shape[0], 1))
        step = max(1, _RESCORE_CELLS // key.shape[1])
        for at in range(0, key.shape[0], step):
            kth[at : at + step] = np.partition(key[at : at + step], k - 1, axis=1)[:, k - 1 : k]
        keep = keep & (key <= kth)
    rows, cols = np.nonzero(keep)
    best = rank_pairs(rows, key[rows, cols], np.broadcast_to(id_rank, key.shape)[rows, cols], k)
    return rows[best], cols[best]


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


def build_index(embeddings: Embeddings, metric: Metric = "l2") -> EmbeddingIndex:
    """Build an exact index over ``(ids, vectors)``."""
    ids, vectors = embeddings
    if not len(ids):
        raise JoinError("cannot build an index over zero embeddings")
    if metric not in ("l2", "inner_product"):
        raise JoinError(f"unknown metric {metric!r}")
    return EmbeddingIndex(ids=tuple(ids), vectors=np.asarray(vectors, dtype=np.float64),
                          metric=metric)


def _search(index: EmbeddingIndex, queries: np.ndarray, k: int,
            threshold: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact top-k of every query row: ``(rows, cols, scores)`` ordered by
    query row, then rank; ``cols`` are index positions."""
    if queries.shape[1:] != (index.dimension,):
        raise JoinError(f"query dimension {queries.shape[1:]} does not match index "
                        f"dimension {index.dimension}")
    found = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    step = max(1, _BLOCK_CELLS // index.n)
    # One block of scores, and for l2 its partitioned copy, serve every query
    # block: blocks allocated afresh each time were returned to the system
    # and paged in again.
    product = np.empty((min(step, len(queries)), index.n))
    partitioned = np.empty_like(product) if index.metric == "l2" else None
    for start in range(0, len(queries), step):
        block = queries[start : start + step]
        if index.metric == "inner_product":
            scores = product[: len(block)]
            for i, q in enumerate(block):
                scores[i] = index.vectors @ q
            keep = None if threshold is None else scores >= threshold
            rows, cols = topk(scores, k, index._id_rank, True, keep)
            found.append((rows + start, cols, scores[rows, cols]))
        else:
            # Rounding makes ||x||^2 - 2 q.x and the formula below differ by
            # less than E = 4 (d + 2) eps (||q||^2 + ||x||^2), so a candidate
            # that can beat the k-th best lies within 2E of the k-th shortlist
            # score; the band is twice that. Scaling by -2 is exact, so the
            # in-place form has the bits of ||x||^2 - 2 (q.x).
            approx = np.matmul(block, index.vectors.T, out=product[: len(block)])
            approx *= -2.0
            approx += index._sq_norms
            last = min(k, index.n) - 1
            ordered = partitioned[: len(block)]
            ordered[:] = approx
            ordered.partition(last, axis=1)
            tol = 16.0 * (index.dimension + 4) * np.finfo(np.float64).eps
            band = tol * (np.einsum("ij,ij->i", block, block) + index._sq_norms.max())
            rows, cols = np.nonzero(approx <= (ordered[:, last] + band)[:, None])
            scores = np.empty(rows.size)
            pairs = _RESCORE_CELLS // index.dimension + 1
            for at in range(0, rows.size, pairs):
                diff = index.vectors[cols[at : at + pairs]]
                diff -= block[rows[at : at + pairs]]
                scores[at : at + pairs] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            if threshold is not None:
                inside = scores <= threshold
                rows, cols, scores = rows[inside], cols[inside], scores[inside]
            best = rank_pairs(rows, scores, index._id_rank[cols], k)
            found.append((rows[best] + start, cols[best], scores[best]))
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


@dataclass(eq=False)
class JoinResult:
    """Join rows as parallel columns over the two sides' id tuples.

    Row i relates ``base_ids[base[i]]`` to ``aux_ids[aux[i]]``; a position
    of -1 marks that side ABSENT (unenriched), and such a row has rank 0
    and score nan. ``rank`` counts from 1 within the querying record's
    matches, ``reverse`` marks rows an aux record queried, and ``path``
    (chain results only) holds one intermediate id per hop before the last.
    ``matches`` is a read-only view of the rows as ``Match`` objects.
    """

    base_ids: tuple[str, ...]
    aux_ids: tuple[str, ...]
    base: np.ndarray  # (n,) int64
    aux: np.ndarray  # (n,) int64
    rank: np.ndarray  # (n,) int64
    score: np.ndarray  # (n,) float64
    reverse: np.ndarray  # (n,) bool
    path: np.ndarray | None = None  # (n, hops - 1) object array of ids
    spec: JoinSpec | None = None

    @classmethod
    def from_ids(cls, rows: Iterable[tuple[str | None, str | None, int, float]],
                 spec: JoinSpec | None = None) -> "JoinResult":
        """A forward result from ``(base_id, aux_id, rank, score)`` rows;
        a None or empty id marks an ABSENT side. Rows are consumed one at a
        time into typed columns, each id coded in first-seen order."""
        # "" is coded first and sorts first, so an ABSENT side gets -1.
        base_codes, aux_codes = {"": 0}, {"": 0}
        base, aux, rank, score = array("q"), array("q"), array("q"), array("d")
        for base_id, aux_id, row_rank, row_score in rows:
            base.append(base_codes.setdefault(base_id or "", len(base_codes)))
            aux.append(aux_codes.setdefault(aux_id or "", len(aux_codes)))
            rank.append(row_rank)
            score.append(row_score)
        (base_ids, base_at), (aux_ids, aux_at) = map(_sorted_codes, (base_codes, aux_codes))
        return cls(base_ids, aux_ids, base_at[np.frombuffer(base, np.int64)],
                   aux_at[np.frombuffer(aux, np.int64)], np.frombuffer(rank, np.int64),
                   np.frombuffer(score, np.float64), np.zeros(len(rank), bool), spec=spec)

    @cached_property
    def matches(self) -> tuple[Match, ...]:
        base, aux = (*self.base_ids, None), (*self.aux_ids, None)
        paths = self.path.tolist() if self.path is not None else [()] * len(self.rank)
        columns = (c.tolist() for c in (self.base, self.aux, self.rank, self.score, self.reverse))
        return tuple(Match(base[b], aux[a], r, s, "reverse" if rev else "forward", tuple(p))
                     for b, a, r, s, rev, p in zip(*columns, paths))

    def for_base(self, base_id: str) -> list[Match]:
        return [m for m in self.matches if m.base_id == base_id and not m.absent]

    def matched_pairs(self) -> set[tuple[str, str]]:
        return {(m.base_id, m.aux_id) for m in self.matches if not m.absent}

    def _write_rows(self, fh: TextIO) -> None:
        """Write the result file to ``fh``, ``_WRITE_ROWS`` rows at a time."""
        # The writer quotes fields holding its "\n" terminator but not a bare
        # "\r", which a reader takes for a line end; one such id anywhere
        # quotes every field of the file, so no chunk decides alone.
        quote_all = any("\r" in rid for rid in (*self.base_ids, *self.aux_ids))
        writer = csv.writer(fh, lineterminator="\n",
                            quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)
        writer.writerow(["base_id", "aux_id", "rank", "score"])
        base_ids = np.array([*self.base_ids, ""], dtype=object)
        aux_ids = np.array([*self.aux_ids, ""], dtype=object)
        for at in range(0, self.rank.size, _WRITE_ROWS):
            rows = slice(at, at + _WRITE_ROWS)
            base, aux = self.base[rows], self.aux[rows]
            absent = ((base < 0) | (aux < 0)).tolist()
            writer.writerows(zip(
                base_ids[base].tolist(),
                aux_ids[aux].tolist(),
                self.rank[rows].tolist(),
                ["" if gone else repr(s) for s, gone in zip(self.score[rows].tolist(), absent)],
            ))

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        self._write_rows(buf)
        return buf.getvalue()

    def write_csv(self, path: str | Path) -> None:
        """Stream the result file through ``atomic_write``."""
        with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
            self._write_rows(fh)

    @classmethod
    def from_csv(cls, path: str | Path) -> "JoinResult":
        """Read a result file, streaming its rows into columns; a malformed
        line raises ``JoinError`` naming it."""
        with Path(path).open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[:4] != ["base_id", "aux_id", "rank", "score"]:
                raise JoinError(f"{path}: line 1: no result header (found {header!r})")

            def rows() -> Iterator[tuple[str, str, int, float]]:
                for row in reader:
                    if not row:
                        continue
                    try:
                        base_id, aux_id, rank, score = row[:4]
                        rank, score = int(rank), float(score or "nan")
                        if not -(1 << 63) <= rank < 1 << 63:
                            raise ValueError("rank outside int64")
                    except ValueError:
                        raise JoinError(f"{path}: line {reader.line_num}: expected an id pair, "
                                        f"an integer rank and a score, found {row!r}") from None
                    yield base_id, aux_id, rank, score

            return cls.from_ids(rows())


def _sorted_codes(coded: dict[str, int]) -> tuple[tuple[str, ...], np.ndarray]:
    """The ids of ``coded`` (id -> code, with "" among them) in ascending
    order without "", and each code's position among them: -1 for ""."""
    distinct = sorted(coded)
    position = np.empty(len(coded), np.int64)
    position[[coded[rid] for rid in distinct]] = np.arange(-1, len(distinct) - 1)
    return tuple(distinct[1:]), position


def ranked_columns(rows: Sequence[int], cols: Sequence[int], scores: Sequence[float],
                   reverse: bool = False,
                   absent: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """The ``JoinResult`` columns ``(base, aux, rank, score, reverse)`` of
    matches ordered by query position ``rows``, best first, with ``cols``
    their target positions. Forward rows have base records querying; with
    ``absent``, those query positions get an ABSENT row in query order."""
    rows, cols = np.asarray(rows, np.int64), np.asarray(cols, np.int64)
    scores = np.asarray(scores, np.float64)
    if absent is not None:
        at = np.searchsorted(rows, absent)
        rows, cols, scores = (np.insert(column, at, fill) for column, fill in
                              ((rows, absent), (cols, -1), (scores, np.nan)))
    base, aux = (cols, rows) if reverse else (rows, cols)
    rank = np.where(cols < 0, 0, _offsets(rows) + 1)
    return base, aux, rank, scores, np.full(rows.size, reverse)


def _retrieve(
    query_emb: Embeddings,
    target_emb: Embeddings,
    k: int,
    metric: Metric,
    threshold: float | None,
    index_on: Literal["target", "query"],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ranked candidates of every query record as ``_search`` returns them:
    ``(rows, cols, scores)`` ordered by query position, then rank.

    ``index_on`` picks the execution strategy only. Indexing the query side
    scans every target record against it and transposes. l2 results are
    identical either way. Inner-product scores may differ in the last
    digits, because that scan computes ``t.q`` with a different
    matrix-vector shape than ``q.t``; ranks can differ only between scores
    that close.
    """
    if index_on == "target":
        return _search(build_index(target_emb, metric), query_emb[1], k, threshold)
    index = build_index(query_emb, metric)
    targets, queries, found = _search(index, target_emb[1], index.n, None)
    scores = np.empty((index.n, len(target_emb[0])))
    scores[queries, targets] = found
    keep = None if threshold is None else (
        scores <= threshold if metric == "l2" else scores >= threshold)
    rows, cols = topk(scores, k, id_ranks(target_emb[0]), metric != "l2", keep)
    return rows, cols, scores[rows, cols]


def _cap_per_target(rows: np.ndarray, cols: np.ndarray, scores: np.ndarray, cap: int,
                    metric: Metric,
                    query_rank: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep each target record's best ``cap`` matches by score, ties by
    ascending query id."""
    keep = np.sort(rank_pairs(cols, scores * (1.0 if metric == "l2" else -1.0),
                              query_rank[rows], cap))
    return rows[keep], cols[keep], scores[keep]


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
    switches INNER to the union of both retrieval directions. That union and
    FULL hold the forward rows, then the reverse rows whose pair is not
    already present; FULL then adds an ABSENT row per unmatched base record,
    then per unmatched aux record.
    """
    base_ids, aux_ids = tuple(base_emb[0]), tuple(aux_emb[0])
    if not base_ids or not aux_ids:
        raise JoinError("both sides must have at least one embedding")
    strategy = {side: "query" if index_side == side else "target" for side in ("base", "aux")}

    def result(*parts: tuple[np.ndarray, ...]) -> JoinResult:
        return JoinResult(base_ids, aux_ids, *map(np.concatenate, zip(*parts)), spec=spec)

    def retrieve(reverse: bool, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        queries, targets = (aux_emb, base_emb) if reverse else (base_emb, aux_emb)
        return _retrieve(queries, targets, k, metric, threshold,
                         strategy["aux" if reverse else "base"])

    def unmatched(n: int, *matched: np.ndarray) -> np.ndarray:
        return np.setdiff1d(np.arange(n), np.concatenate(matched))

    jt = spec.join_type
    if jt == JoinType.LEFT:
        rows, cols, scores = retrieve(False, spec.right_size)
        return result(ranked_columns(rows, cols, scores, False, unmatched(len(base_ids), rows)))

    if jt == JoinType.RIGHT:
        rows, cols, scores = retrieve(True, spec.left_size)
        return result(ranked_columns(rows, cols, scores, True, unmatched(len(aux_ids), rows)))

    if jt == JoinType.FULL or (jt == JoinType.INNER and both_directions):
        fwd = ranked_columns(*retrieve(False, spec.right_size))
        rev = ranked_columns(*retrieve(True, spec.left_size), reverse=True)
        # A reverse row is new unless its (base, aux) pair code is a forward row's.
        new = ~np.isin(rev[0] * len(aux_ids) + rev[1], fwd[0] * len(aux_ids) + fwd[1])
        parts = [fwd, tuple(column[new] for column in rev)]
        if jt == JoinType.FULL:
            parts += [ranked_columns((), (), (), False, unmatched(len(base_ids), fwd[0], rev[0])),
                      ranked_columns((), (), (), True, unmatched(len(aux_ids), fwd[1], rev[1]))]
        return result(*parts)

    # INNER, single direction: the smaller side queries the larger one.
    reverse = len(base_ids) > len(aux_ids)
    rows, cols, scores = retrieve(reverse, spec.left_size if reverse else spec.right_size)
    cap, query_ids = (spec.right_size, aux_ids) if reverse else (spec.left_size, base_ids)
    if cap < len(query_ids):
        rows, cols, scores = _cap_per_target(rows, cols, scores, cap, metric, id_ranks(query_ids))
    return result(ranked_columns(rows, cols, scores, reverse))


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
    base_ids, queries = base_emb
    # Frontier: a query vector per (origin, hop path so far), each hop's index position.
    origins = np.arange(len(base_ids))
    hops: list[np.ndarray] = []
    for spec, index in stages:
        rows, cols, scores = _search(index, queries, spec.right_size, threshold)
        origins = origins[rows]
        hops = [hop[rows] for hop in hops] + [cols]
        queries = index.vectors[cols]

    # Re-rank final matches per origin record, ties by endpoint id, then (a
    # stable sort) by frontier order; path keeps one id per hop before the endpoint.
    last = stages[-1][1]
    order = rank_pairs(origins, scores if last.metric == "l2" else -scores,
                       last._id_rank[hops[-1]], origins.size)
    origins, scores, hops = origins[order], scores[order], [hop[order] for hop in hops]
    path = np.empty((origins.size, len(stages) - 1), dtype=object)
    for j, ((_, index), hop) in enumerate(zip(stages, hops[:-1])):
        path[:, j] = np.array(index.ids, dtype=object)[hop]
    return JoinResult(tuple(base_ids), last.ids, origins, hops[-1], _offsets(origins) + 1,
                      scores, np.zeros(origins.size, bool), path, spec=stages[-1][0])


# ---------------------------------------------------------------------------
# Embeddings cache: versioned binary, little-endian float64 row-major.
# ---------------------------------------------------------------------------

_EMB_MAGIC = b"KJEB"
_EMB_VERSION = 1
_EMB_HEADER = struct.Struct("<4sIQQ")  # magic, version, count, dim


def save_embeddings(embeddings: Embeddings, path: str | Path) -> None:
    """Write the header, then per record a u32 id length, the UTF-8 id and
    its row of little-endian float64 values, through ``atomic_write``."""
    ids, vectors = embeddings
    rows = np.ascontiguousarray(vectors, dtype="<f8")
    with atomic_write(path) as fh:
        fh.write(_EMB_HEADER.pack(_EMB_MAGIC, _EMB_VERSION, len(ids), rows.shape[1]))
        for rid, row in zip(ids, rows):
            encoded = rid.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)) + encoded + row.tobytes())


def load_embeddings(path: str | Path) -> Embeddings:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _EMB_HEADER.size:
        raise JoinError(f"{path}: truncated embeddings file")
    magic, version, count, dim = _EMB_HEADER.unpack_from(raw)
    if magic != _EMB_MAGIC:
        raise JoinError(f"{path}: not an embeddings file (bad magic {magic!r})")
    if version != _EMB_VERSION:
        raise JoinError(f"{path}: unsupported embeddings version {version}")
    offset = _EMB_HEADER.size
    if offset + count * (4 + 8 * dim) > len(raw):
        raise JoinError(f"{path}: truncated embeddings file")
    ids: list[str] = []
    vectors = np.empty((count, dim))
    for i in range(count):
        if offset + 4 > len(raw):
            raise JoinError(f"{path}: truncated embeddings file")
        (id_len,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        ids.append(raw[offset : offset + id_len].decode("utf-8"))
        offset += id_len
        if offset + 8 * dim > len(raw):
            raise JoinError(f"{path}: truncated embeddings file")
        vectors[i] = np.frombuffer(raw, dtype="<f8", count=dim, offset=offset)
        offset += 8 * dim
    if offset != len(raw):
        raise JoinError(f"{path}: {len(raw) - offset} trailing bytes after the last record")
    return tuple(ids), vectors


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
    rows = np.flatnonzero((result.base >= 0) & (result.aux >= 0))
    labelled = np.array([aux_id in labels for aux_id in result.aux_ids], dtype=bool)
    unlabelled = rows[~labelled[result.aux[rows]]]
    if unlabelled.size:
        missing = result.aux_ids[result.aux[unlabelled[0]]]
        raise JoinError(f"no label for matched aux id {missing!r}")
    label = np.array([labels.get(aux_id, np.nan) for aux_id in result.aux_ids])[result.aux[rows]]
    # Each base record's matches by rank, ties by label; average the first k.
    order = np.lexsort((label, result.rank[rows], result.base[rows]))
    base, label = result.base[rows][order], label[order].tolist()
    starts = np.flatnonzero(_offsets(base) == 0).tolist()
    out: dict[str, float] = {}
    for lo, hi in zip(starts, [*starts[1:], base.size]):
        top = label[lo : min(hi, lo + k)]
        out[result.base_ids[base[lo]]] = sum(top) / len(top)
    return out

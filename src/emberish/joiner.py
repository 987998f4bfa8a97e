"""Embedding index, exact k-NN retrieval, and join-type semantics.

The index is an exact scan over tiles of queries by targets, one kernel
for l2 and inner product alike (``_tile``): one matrix product per tile,
of the smaller side scaled by -2 for l2 or -1 for inner product,
shortlists candidates that the difference formula or a fixed-order dot
product re-scores, so scores never depend on the tile or the BLAS thread
count. The tile is partitioned for each query's k-th best a few rows at a
time in one cache-sized scratch, and each chunk's shortlist is taken
while it is in cache. ``rank_pairs`` ranks candidates for every scorer,
ties by ascending id, on keys where lower is better (``_lower_first``):
the scan hands it its re-scored shortlists, ``topk`` (the lexical
rankers') a dense block of scores. An approximate backend may replace the
scan only if it passes the exactness suite at recall 1.0 or marks its
output as approximate. Built indexes are read-only and safe to query
concurrently.

Every join returns a columnar ``JoinResult``: the two id tuples plus
per-row arrays of base and aux position (-1 for an ABSENT side), rank,
score and direction. The arrays go from ``scan_join`` to ``result.csv`` and
into the metrics with no per-row object; the file renders each distinct
id once.

Every join is one function, ``scan_join``, over two ``Side``s: each a
side's ids and a reader of its vectors, whole or in blocks. It runs a
scan per retrieval direction (two, one index at a time, for FULL and the
INNER union). A scan holds one side, the one ``held_side`` names, read
whole into its index, and streams the other past it in ``scan_rows``
blocks, each dropped once scanned: it holds the smaller side, whether
that side queries or is retrieved from. Either way the scan is one loop,
``_scan``: a running top-k of each tile of queries over the target
blocks streamed past it, the held side being the one query tile or each
tile's one target block. ``execute_join``'s sides read in-memory
matrices; ``write_join`` takes any sides (the CLI's read embeddings
files) and renders rows to ``result.csv`` as they come, so the larger
side is never held whole. A chain join runs each hop as one
``retrieval_result``, an ``execute_join`` of a LEFT spec, over the
distinct records the previous hop matched, so no retrieval bypasses
``scan_join``.

An embeddings file is parsed as it is read, whole or a block at a time,
and a caller that checks its digest hashes the same bytes, so a reused
side is held once, or not at all.
"""

from __future__ import annotations

import os
import struct
from array import array
from contextlib import closing
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Literal, Sequence, TextIO

import numpy as np

from .data import atomic_write, quotes_all, read_table, table_field
from .joinspec import JoinSpec, JoinType

Metric = Literal["l2", "inner_product"]

# Record ids and one (n, d) float64 row per record, in the same order.
Embeddings = tuple[Sequence[str], np.ndarray]

# Floats per query block of scores (4 MB). Smaller blocks re-read the whole
# index more often: at 2^16 a 2k-over-10k scan took about twice as long.
_BLOCK_CELLS = 1 << 19
# Floats per re-scoring step of a scan's shortlist and per partitioned
# chunk of a scan's or topk's block (0.5 MB).
_RESCORE_CELLS = 1 << 16
# Floats per block of a streamed side at most (0.5 MB, an embedding block):
# a larger block adds its rows' scores to the tile past a small index.
_STREAM_CELLS = 1 << 16
# Rows per chunk of a result file, formatted and streamed to the file.
_WRITE_ROWS = 1 << 14
# Records per block of an embeddings file read for its ids only.
_ID_ROWS = 1 << 8


class JoinError(ValueError):
    """Invalid join input (dimension mismatch, empty side, broken chain)."""


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


def held_side(reverse: bool, n_base: int, n_aux: int) -> bool:
    """The side that a scan in direction ``reverse`` (aux records
    querying) over ``n_base`` and ``n_aux`` records holds, True for aux:
    the smaller side. That is the querying side when it is strictly
    smaller, the one query tile of its ``_scan``, which the retrieved side
    then streams past as target blocks, and otherwise the side retrieved
    from, the one target block of each tile of queries streamed past it."""
    n_query, n_target = (n_aux, n_base) if reverse else (n_base, n_aux)
    return reverse == (n_query < n_target)


def _lower_first(scores: np.ndarray, metric: Metric) -> np.ndarray:
    """``scores`` under ``metric`` as ranking keys, the best lowest: an l2
    distance as it is, an inner product negated, which is exact."""
    return scores if metric == "l2" else -scores


def scan_rows(index: EmbeddingIndex) -> int:
    """Rows per block of the side a scan streams past ``index``: a block
    of scores of about ``_BLOCK_CELLS`` floats at most, and a block of
    streamed rows of about ``_STREAM_CELLS``."""
    return max(1, min(_BLOCK_CELLS // max(index.n, index.dimension),
                      _STREAM_CELLS // index.dimension))


def _scratch(rows: int, cols: int, dim: int) -> tuple[np.ndarray, ...]:
    """Flat scratch for ``_tile`` over up to ``rows`` queries and ``cols``
    targets of ``dim`` floats: a block of scores, the smaller side scaled,
    and a chunk of a few of the block's rows partitioned, with their
    mask."""
    chunk = min(rows * cols, max(_RESCORE_CELLS, cols))
    return (np.empty(rows * cols), np.empty(min(rows, cols) * dim), np.empty(chunk),
            np.empty(chunk, bool))


def _tile(queries: np.ndarray, sq_queries: np.ndarray, targets: np.ndarray,
          sq_targets: np.ndarray, sq_max: float, k: int, ceiling: np.ndarray,
          threshold: float | None, metric: Metric,
          scratch: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidates among ``targets`` for the top ``k`` under ``metric``
    of each of the ``queries`` of a tile: ``(rows, cols, scores)``, tile
    positions and exact scores within ``threshold``, unranked.
    ``sq_queries`` and ``sq_targets`` are the rows' squared norms,
    ``sq_max`` at least any target's; a query's ``ceiling`` is the
    shortlist score past which no target can rank, up to the band.
    ``scratch`` is ``_scratch``'s.

    One matrix product gives each pair a shortlist score, lowest best.
    Under l2 the smaller side of the tile is scaled by -2, which is exact,
    so the product plus ||x||^2 has the bits of ||x||^2 - 2 (q.x); rounding
    makes that and the difference formula below differ by less than
    E = 4 (d + 2) eps (||q||^2 + ||x||^2). Under inner product it is scaled
    by -1, so the product is -(q.x), and that and the fixed-order dot
    product below each err from the true q.x by less than
    d eps ||q|| ||x||, within E. So a candidate that can beat the k-th best
    lies within 2E of the k-th shortlist score; the band is twice that.
    Scores come from the rows themselves, so they never depend on the tile
    or on the product's summation order."""
    product, scaled, partitioned, shortlisted = scratch
    m, t = len(queries), len(targets)
    l2 = metric == "l2"
    scale = -2.0 if l2 else -1.0
    left, right = queries, targets
    if m <= t:
        left = np.multiply(queries, scale, out=scaled[: queries.size].reshape(queries.shape))
    else:
        right = np.multiply(targets, scale, out=scaled[: targets.size].reshape(targets.shape))
    approx = np.matmul(left, right.T, out=product[: m * t].reshape(m, t))
    if l2:
        approx += sq_targets
    last = min(k, t) - 1
    band = 16.0 * (targets.shape[1] + 4) * np.finfo(np.float64).eps * (sq_queries + sq_max)
    # Each chunk of rows is partitioned and masked while it is in cache.
    chunk = max(1, _RESCORE_CELLS // t)
    shortlist = []
    for at in range(0, m, chunk):
        part = approx[at : at + chunk]
        ordered = partitioned[: part.size].reshape(part.shape)
        ordered[:] = part
        ordered.partition(last, axis=1)
        limit = np.minimum(ordered[:, last], ceiling[at : at + chunk])
        mask = np.less_equal(part, (limit + band[at : at + chunk])[:, None],
                             out=shortlisted[: part.size].reshape(part.shape))
        shortlist.append(np.flatnonzero(mask) + at * t)
    rows, cols = np.divmod(np.concatenate(shortlist), t)
    scores = np.empty(rows.size)
    pairs = _RESCORE_CELLS // targets.shape[1] + 1
    for at in range(0, rows.size, pairs):
        x = targets[cols[at : at + pairs]]
        if l2:
            x -= queries[rows[at : at + pairs]]
            scores[at : at + pairs] = np.sqrt(np.einsum("ij,ij->i", x, x))
        else:
            scores[at : at + pairs] = np.einsum("ij,ij->i", x, queries[rows[at : at + pairs]])
    if threshold is not None:
        inside = _lower_first(scores, metric) <= _lower_first(threshold, metric)
        rows, cols, scores = rows[inside], cols[inside], scores[inside]
    return rows, cols, scores


def _tiles(blocks: Iterable[np.ndarray], index: EmbeddingIndex) -> Iterator[np.ndarray]:
    """The rows of ``blocks``, streamed past ``index``, in tiles of at most
    ``scan_rows`` rows; ``JoinError`` at a block of another width."""
    step = scan_rows(index)
    for block in blocks:
        if block.shape[1:] != (index.dimension,):
            raise JoinError(f"row dimension {block.shape[1:]} does not match index "
                            f"dimension {index.dimension}")
        for at in range(0, len(block), step):
            yield block[at : at + step]


def _scan(queries: Iterable[np.ndarray], targets: Iterable[np.ndarray], k: int,
          threshold: float | None, metric: Metric, target_rank: np.ndarray
          ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """Exact top-k under ``metric`` of every row of each query tile of
    ``queries`` over the target blocks of ``targets``, whose id ranks are
    ``target_rank``. ``targets`` is read once per tile, so it may be a
    one-pass stream only past a single tile. Per tile it yields the tile's
    first and past-the-end query positions, then ``(rows, cols, scores)``
    ordered by query row, then rank, with ``cols`` target positions. The
    scan holds its tiles and blocks until the last is scanned.

    Each target block is one ``_tile``, whose candidates merge into a
    running top-k by ``rank_pairs``, ties by target id rank. A block
    shortlists only targets that can still rank: one enters a query's top
    k only if its exact score is no worse than the running k-th, s_k (a
    tie can win on its id). Under inner product its shortlist score is
    then below -s_k plus less than the band (``_tile``). Under l2 its
    squared exact score errs from ||x - q||^2 by less than
    2 (d + 5) eps (||q||^2 + ||x||^2), ||q||^2 by less than d eps ||q||^2,
    and its shortlist score from ||x - q||^2 - ||q||^2 by less than E, so
    its shortlist score is below s_k^2 - ||q||^2 plus less than the band.
    The band takes the largest target norm seen."""
    # One scratch serves the whole scan: arrays allocated afresh for each
    # tile were paged in again, or kept by the heap once the scan ended.
    size, stop = (0, 0), 0
    for tile in queries:
        sq_queries = np.einsum("ij,ij->i", tile, tile)
        rows, cols, scores = np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
        ceiling = np.full(len(tile), np.inf)
        sq_max, seen = 0.0, 0
        for block in targets:
            if seen + len(block) > target_rank.size:
                raise JoinError(f"more target rows than the {target_rank.size} target ids")
            if len(tile) > size[0] or len(block) > size[1]:
                size = max(size[0], len(tile)), max(size[1], len(block))
                scratch = _scratch(*size, tile.shape[1])
            sq_targets = np.einsum("ij,ij->i", block, block)
            sq_max = max(sq_max, sq_targets.max())
            found = _tile(tile, sq_queries, block, sq_targets, sq_max, k, ceiling, threshold,
                          metric, scratch)
            rows, cols, scores = (np.concatenate(pair) for pair in
                                  zip((rows, cols, scores), (found[0], found[1] + seen, found[2])))
            best = rank_pairs(rows, _lower_first(scores, metric), target_rank[cols], k)
            rows, cols, scores = rows[best], cols[best], scores[best]
            seen += len(block)
            count = np.bincount(rows, minlength=len(tile))
            full = count == k
            kth = _lower_first(scores[np.cumsum(count)[full] - 1], metric)
            ceiling[full] = kth ** 2 - sq_queries[full] if metric == "l2" else kth
        if seen != target_rank.size:
            raise JoinError(f"{seen} target rows for {target_rank.size} target ids")
        yield stop, stop + len(tile), rows + stop, cols, scores
        stop += len(tile)


def _scan_past(index: EmbeddingIndex, blocks: Iterable[np.ndarray], holds_queries: bool, k: int,
               threshold: float | None, target_rank: np.ndarray
               ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
    """``_scan`` of the rows of ``blocks``, in ``_tiles`` streamed past
    ``index``, and the rows of ``index``: its one query tile when
    ``holds_queries``, else each streamed tile's one target block."""
    tiles, held = _tiles(blocks, index), [index.vectors]
    return _scan(*((held, tiles) if holds_queries else (tiles, held)), k, threshold,
                 index.metric, target_rank)


@dataclass(eq=False)
class JoinResult:
    """Join rows as parallel columns over the two sides' id tuples.

    Row i relates ``base_ids[base[i]]`` to ``aux_ids[aux[i]]``; a position
    of -1 marks that side ABSENT (unenriched), and such a row has rank 0
    and score nan. ``rank`` counts from 1 within the querying record's
    matches, ``reverse`` marks rows an aux record queried, and ``path``
    (chain results only) holds one intermediate id per hop before the last.
    """

    base_ids: tuple[str, ...]
    aux_ids: tuple[str, ...]
    base: np.ndarray  # (n,) int64
    aux: np.ndarray  # (n,) int64
    rank: np.ndarray  # (n,) int64
    score: np.ndarray  # (n,) float64
    reverse: np.ndarray  # (n,) bool
    path: np.ndarray | None = None  # (n, hops - 1) object array of ids

    @classmethod
    def from_ids(cls, rows: Iterable[tuple[str | None, str | None, int, float]]) -> "JoinResult":
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
                   np.frombuffer(score, np.float64), np.zeros(len(rank), bool))

    @classmethod
    def from_columns(cls, base_ids: Sequence[str], aux_ids: Sequence[str],
                     columns: Iterable[tuple[np.ndarray, ...]]) -> "JoinResult":
        """The result over ``base_ids`` and ``aux_ids`` whose rows are the
        blocks of ``columns`` ``(base, aux, rank, score, reverse)``, in
        order; no block gives no row."""
        empty = ranked_columns((), (), ())
        return cls(tuple(base_ids), tuple(aux_ids),
                   *map(np.concatenate, zip(empty, *columns)))

    def write_csv(self, path: str | Path) -> None:
        """Write the result file through ``write_result``."""
        write_result(path, self.base_ids, self.aux_ids,
                     [(self.base, self.aux, self.rank, self.score, self.reverse)])

    @classmethod
    def from_csv(cls, path: str | Path,
                 keep: Callable[[str, int], bool] | None = None) -> "JoinResult":
        """Read a result file, streaming its rows into columns; a malformed
        line raises ``JoinError`` naming it. With ``keep``, only the rows
        for which ``keep(base_id, rank)`` is true are kept, though every
        line is checked."""
        lines = read_table(path)
        line_no, header = next(lines, (1, None))
        if header is None or header[:4] != ["base_id", "aux_id", "rank", "score"]:
            raise JoinError(f"{path}: line {line_no}: no result header (found {header!r})")

        def rows() -> Iterator[tuple[str, str, int, float]]:
            for line_no, row in lines:
                try:
                    base_id, aux_id, rank, score = row[:4]
                    rank, score = int(rank), float(score or "nan")
                    if not -(1 << 63) <= rank < 1 << 63:
                        raise ValueError("rank outside int64")
                except ValueError:
                    raise JoinError(f"{path}: line {line_no}: expected an id pair, "
                                    f"an integer rank and a score, found {row!r}") from None
                if keep is None or keep(base_id, rank):
                    yield base_id, aux_id, rank, score

        return cls.from_ids(rows())


def result_writer(fh: TextIO, base_ids: Sequence[str],
                  aux_ids: Sequence[str]) -> Callable[..., None]:
    """Write the header of a result file over ``base_ids`` and ``aux_ids``
    to ``fh``, and return the function that writes rows after it from the
    columns ``(base, aux, rank, score)``, ``_WRITE_ROWS`` rows at a time.
    Each distinct id is rendered once; all of the file's ids, not one
    chunk's, decide the quoting."""
    quote_all = quotes_all(chain(base_ids, aux_ids))
    # The last field of each side is its ABSENT one, at position -1.
    base_fields = [table_field(rid, quote_all) for rid in (*base_ids, "")]
    aux_fields = [table_field(rid, quote_all) for rid in (*aux_ids, "")]
    q = '"' if quote_all else ""  # the header, ranks and scores need no other quotes
    fh.write(f"{q}base_id{q},{q}aux_id{q},{q}rank{q},{q}score{q}\n")

    def write(base: np.ndarray, aux: np.ndarray, rank: np.ndarray, score: np.ndarray) -> None:
        for at in range(0, rank.size, _WRITE_ROWS):
            rows = slice(at, at + _WRITE_ROWS)
            absent = ((base[rows] < 0) | (aux[rows] < 0)).tolist()
            fh.writelines(f"{base_fields[b]},{aux_fields[a]},{q}{r}{q},"
                          f"{q}{'' if gone else repr(s)}{q}\n"
                          for b, a, r, s, gone in zip(base[rows].tolist(), aux[rows].tolist(),
                                                      rank[rows].tolist(),
                                                      score[rows].tolist(), absent))

    return write


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


def _cap_per_target(rows: np.ndarray, cols: np.ndarray, scores: np.ndarray, cap: int,
                    metric: Metric,
                    query_rank: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep each target record's best ``cap`` matches by score, ties by
    ascending query id."""
    keep = np.sort(rank_pairs(cols, _lower_first(scores, metric), query_rank[rows], cap))
    return rows[keep], cols[keep], scores[keep]


def scan_order(spec: JoinSpec, both_directions: bool, n_base: int,
               n_aux: int) -> tuple[bool, ...]:
    """The retrieval directions of ``spec`` over ``n_base`` and ``n_aux``
    records in scan order, True when aux records query: forward, then
    reverse, for FULL and INNER with ``both_directions``; else aux
    querying in RIGHT and in INNER when it is the smaller side. Which side
    each scan holds is ``held_side``'s choice, not the direction's."""
    inner = spec.join_type == JoinType.INNER
    if spec.join_type == JoinType.FULL or (inner and both_directions):
        return False, True
    return (spec.join_type == JoinType.RIGHT or (inner and n_base > n_aux),)


@dataclass(frozen=True)
class Side:
    """One side of a join: its record ids, and ``read(rows)``, a generator
    of its vectors in record order, in blocks of ``rows`` rows, or in one
    block when ``rows`` is None."""

    ids: Sequence[str]
    read: Callable[[int | None], Iterator[np.ndarray]]


def scan_join(spec: JoinSpec, base: Side, aux: Side, metric: Metric = "l2",
              both_directions: bool = False,
              threshold: float | None = None) -> Iterator[tuple[np.ndarray, ...]]:
    """The ``JoinResult`` columns of ``spec`` over ``base`` and ``aux``
    under ``metric``, from a scan in each direction of ``scan_order``.
    Each scan reads the side that ``held_side`` names whole into its
    index, once the previous scan's index is dropped, and streams the
    other side past it in blocks of ``scan_rows`` rows, none kept once it
    is scanned: ``_scan`` of the held rows as the one query tile or as
    each streamed tile's one target block (``_scan_past``), with the
    retrieved side's id ranks either way. The stream is closed when the
    scan ends or fails, or when this generator is closed.

    A query finds the k best records, k the retrieved side's size bound.
    LEFT and RIGHT yield each block's rows, with an ABSENT row at each
    query that found none. INNER caps the matches of each retrieved record
    at the querying side's bound and yields them after the last block.
    FULL and the INNER union yield the forward rows block by block,
    keeping their (base, aux) pair codes and which records matched, then
    the reverse rows whose pair is not a forward pair; FULL then yields an
    ABSENT row per unmatched base record, then per unmatched aux record."""
    base_ids, aux_ids = base.ids, aux.ids
    directions = scan_order(spec, both_directions, len(base_ids), len(aux_ids))
    union, inner = len(directions) == 2, spec.join_type == JoinType.INNER
    matched = np.zeros(len(base_ids), bool), np.zeros(len(aux_ids), bool)
    for reverse in directions:
        query_ids, target_ids = (aux_ids, base_ids) if reverse else (base_ids, aux_ids)
        k = spec.left_size if reverse else spec.right_size
        found, stop = [], 0  # matches, or for the forward union scan its pair codes
        held = held_side(reverse, len(base_ids), len(aux_ids))
        kept, streamed = (aux, base) if held else (base, aux)
        (vectors,) = kept.read(None)
        index = build_index((kept.ids, vectors), metric)
        del vectors
        with closing(streamed.read(scan_rows(index))) as blocks:
            hits = _scan_past(index, blocks, held == reverse, k, threshold, id_ranks(target_ids))
            del index  # held by the scan alone, until it ends
            for start, stop, rows, cols, scores in hits:
                if union:
                    columns = ranked_columns(rows, cols, scores, reverse)
                    code = columns[0] * len(aux_ids) + columns[1]
                    if reverse:
                        new = forward[np.searchsorted(forward, code)] != code
                        columns = tuple(column[new] for column in columns)
                    else:
                        found.append(code)
                    matched[0][columns[0]] = matched[1][columns[1]] = True
                    yield columns
                elif inner:
                    found.append((rows, cols, scores))
                else:
                    yield ranked_columns(rows, cols, scores, reverse,
                                         np.setdiff1d(np.arange(start, stop), rows))
        if stop != len(query_ids):
            raise JoinError(f"{stop} query rows for {len(query_ids)} query ids")
        if union and not reverse:
            # Sorted, then a code no pair has, so that every code's insertion
            # point names an entry.
            forward = np.concatenate([*found, [np.iinfo(np.int64).max]])
            forward.sort()
        elif inner and not union:
            rows, cols, scores = map(np.concatenate, zip(*found))
            cap = spec.right_size if reverse else spec.left_size
            if cap < len(query_ids):
                rows, cols, scores = _cap_per_target(rows, cols, scores, cap, metric,
                                                     id_ranks(query_ids))
            yield ranked_columns(rows, cols, scores, reverse)
    if spec.join_type == JoinType.FULL:
        yield ranked_columns((), (), (), False, np.flatnonzero(~matched[0]))
        yield ranked_columns((), (), (), True, np.flatnonzero(~matched[1]))


def write_result(path: str | Path, base_ids: Sequence[str], aux_ids: Sequence[str],
                 columns: Iterable[tuple[np.ndarray, ...]]) -> None:
    """Write the result file over ``base_ids`` and ``aux_ids`` through
    ``atomic_write``, rendering each block of ``columns`` ``(base, aux,
    rank, score, reverse)`` as it comes; a failure leaves the old file
    whole."""
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        write = result_writer(fh, base_ids, aux_ids)
        for base_at, aux_at, rank, score, _ in columns:
            write(base_at, aux_at, rank, score)


def write_join(path: str | Path, spec: JoinSpec, base: Side, aux: Side,
               metric: Metric = "l2", both_directions: bool = False,
               threshold: float | None = None) -> None:
    """``write_result`` of ``scan_join``'s blocks: a join that fails closes
    its stream and leaves the old file whole."""
    with closing(scan_join(spec, base, aux, metric, both_directions, threshold)) as columns:
        write_result(path, base.ids, aux.ids, columns)


def execute_join(
    spec: JoinSpec,
    base_emb: Embeddings,
    aux_emb: Embeddings,
    metric: Metric = "l2",
    threshold: float | None = None,
    both_directions: bool = False,
) -> JoinResult:
    """Execute the join over precomputed embeddings: ``scan_join`` over
    sides that slice each matrix into the blocks a scan reads."""
    base_ids, aux_ids = tuple(base_emb[0]), tuple(aux_emb[0])
    if not base_ids or not aux_ids:
        raise JoinError("both sides must have at least one embedding")

    def side(ids: tuple[str, ...], vectors: np.ndarray) -> Side:
        def read(rows: int | None) -> Iterator[np.ndarray]:
            step = rows or len(vectors)
            for at in range(0, len(vectors), step):
                yield vectors[at : at + step]
        return Side(ids, read)

    columns = scan_join(spec, side(base_ids, base_emb[1]), side(aux_ids, aux_emb[1]), metric,
                        both_directions, threshold)
    return JoinResult.from_columns(base_ids, aux_ids, columns)


def retrieval_result(base_emb: Embeddings, aux_emb: Embeddings, k: int,
                     metric: Metric = "l2") -> JoinResult:
    """Each base record's ``k`` best aux records: ``execute_join`` of a
    LEFT spec at RIGHT SIZE ``k`` with no threshold, so every base record
    finds min(k, n_aux) matches and no row is ABSENT."""
    spec = JoinSpec(base_ref="base", aux_ref="aux", join_type=JoinType.LEFT, left_size=1,
                    right_size=k, supervision_ref="eval")
    return execute_join(spec, base_emb, aux_emb, metric)


def chain_joins(base_emb: Embeddings, stages: Sequence[tuple[JoinSpec, Embeddings]],
                metric: Metric = "l2") -> JoinResult:
    """Run a multi-hop join: each stage retrieves its RIGHT SIZE best
    records of its embeddings for every record the previous stage matched,
    the matched records' stored vectors querying.

    The frontier holds one row per (origin, hop path so far). Each hop is
    one ``retrieval_result`` over the frontier's distinct records,
    expanded back to the frontier rows in order. The result relates
    stage-0 records to last-stage matches; each match carries the
    intermediate id per hop in ``path``."""
    if not stages:
        raise JoinError("chain requires at least one stage")
    ids, vectors = base_emb
    hops = [np.arange(len(ids))]  # each frontier row's record in the base, then per hop
    for spec, (aux_ids, aux_vectors) in stages:
        distinct, inverse = np.unique(hops[-1], return_inverse=True)
        if distinct.size < len(ids):  # else the side itself queries, not a copy of it
            ids, vectors = [ids[i] for i in distinct.tolist()], vectors[distinct]
        found = retrieval_result((ids, vectors), (aux_ids, aux_vectors), spec.right_size, metric)
        # Each distinct record's ``per`` matches are consecutive rows, best first.
        per = min(spec.right_size, len(aux_ids))
        rows = (inverse[:, None] * per + np.arange(per)).ravel()
        hops = [np.repeat(hop, per) for hop in hops] + [found.aux[rows]]
        scores = found.score[rows]
        ids, vectors = aux_ids, aux_vectors

    # Re-rank final matches per origin record, ties by endpoint id, then (a
    # stable sort) by frontier order; path keeps one id per hop before the endpoint.
    order = rank_pairs(hops[0], _lower_first(scores, metric), id_ranks(ids)[hops[-1]],
                       scores.size)
    origins, *middle, ends = (hop[order] for hop in hops)
    path = np.empty((origins.size, len(stages) - 1), dtype=object)
    for j, ((_, (stage_ids, _)), hop) in enumerate(zip(stages, middle)):
        path[:, j] = np.array(stage_ids, dtype=object)[hop]
    return JoinResult(tuple(base_emb[0]), tuple(ids), origins, ends, _offsets(origins) + 1,
                      scores[order], np.zeros(origins.size, bool), path)


# ---------------------------------------------------------------------------
# Embeddings file: versioned binary, little-endian float64 row-major. A
# learned join writes one per side, and a later join reads it back instead
# of embedding again when the file still holds what it was built from.
# ---------------------------------------------------------------------------

_EMB_MAGIC = b"KJEB"
EMBEDDINGS_VERSION = 1
_EMB_HEADER = struct.Struct("<4sIQQ")  # magic, version, count, dim
_EMB_ID_LEN = struct.Struct("<I")


def _header(path: Path, data: bytes) -> tuple[int, int]:
    """The record count and dimension of the embeddings file header
    ``data`` read from ``path``; ``JoinError`` on a bad magic or version."""
    magic, version, count, dim = _EMB_HEADER.unpack(data)
    if magic != _EMB_MAGIC:
        raise JoinError(f"{path}: not an embeddings file (bad magic {magic!r})")
    if version != EMBEDDINGS_VERSION:
        raise JoinError(f"{path}: unsupported embeddings version {version}")
    return count, dim


def embeddings_count(path: str | Path) -> int:
    """The record count that the header of an embeddings file gives. Raises
    ``JoinError`` on a header that is short or bad."""
    path = Path(path)
    with path.open("rb") as fh:
        data = fh.read(_EMB_HEADER.size)
    if len(data) != _EMB_HEADER.size:
        raise JoinError(f"{path}: truncated embeddings file")
    return _header(path, data)[0]


def embeddings_writer(fh: BinaryIO, count: int, dim: int,
                      digest: Callable[[bytes], object] | None = None
                      ) -> Callable[[Sequence[str], np.ndarray], None]:
    """Write the header of an embeddings file of ``count`` records of
    ``dim`` floats to ``fh``, and return the function that writes the next
    records after it from their ids and rows: per record a u32 id length,
    the UTF-8 id and its row of little-endian float64 values. With
    ``digest``, as for ``read_embeddings``, every byte written is passed
    to it too."""
    def put(data: bytes) -> None:
        fh.write(data)
        if digest is not None:
            digest(data)

    put(_EMB_HEADER.pack(_EMB_MAGIC, EMBEDDINGS_VERSION, count, dim))

    def write(ids: Sequence[str], vectors: np.ndarray) -> None:
        for rid, row in zip(ids, np.ascontiguousarray(vectors, dtype="<f8")):
            encoded = rid.encode("utf-8")
            put(_EMB_ID_LEN.pack(len(encoded)) + encoded + row.tobytes())

    return write


def save_embeddings(embeddings: Embeddings, path: str | Path) -> None:
    """Write an embeddings file through ``atomic_write`` and
    ``embeddings_writer``."""
    ids, vectors = embeddings
    rows = np.ascontiguousarray(vectors, dtype="<f8")
    with atomic_write(path) as fh:
        embeddings_writer(fh, len(ids), rows.shape[1])(ids, rows)


def read_embeddings(path: str | Path, digest: Callable[[bytes], object] | None = None,
                    rows: int | None = None) -> Iterator[Embeddings]:
    """The records of an embeddings file that ``save_embeddings`` wrote, as
    ``(ids, vectors)`` blocks of ``rows`` records (all of them in one block
    when None), each parsed record by record from the open file; a block's
    vectors are overwritten by the next block's. With ``digest``, such as a
    ``hashlib`` object's ``update``, every byte parsed is passed to it too,
    so a caller can hash the file without a second copy of it. Raises
    ``JoinError`` on a bad magic or version, a record count the file cannot
    hold (checked before the vectors are allocated), a truncated record, an
    id that is not UTF-8 or, after the last block, bytes after the last
    record. The file is closed when the blocks run out or the iterator is
    closed."""
    path = Path(path)
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        offset = 0

        def read(n: int) -> bytes:
            nonlocal offset
            data = fh.read(n) if offset + n <= size else b""
            if len(data) != n:
                raise JoinError(f"{path}: truncated embeddings file")
            if digest is not None:
                digest(data)
            offset += n
            return data

        count, dim = _header(path, read(_EMB_HEADER.size))
        row_bytes = 8 * dim
        if offset + count * (_EMB_ID_LEN.size + row_bytes) > size:
            raise JoinError(f"{path}: truncated embeddings file")
        step = max(1, rows or count)
        vectors = np.empty((min(step, count), dim), dtype="<f8")
        block = memoryview(vectors.view(np.uint8).reshape(-1))
        for start in range(0, max(1, count), step):
            ids: list[str] = []
            for i in range(min(step, count - start)):
                (id_len,) = _EMB_ID_LEN.unpack(read(_EMB_ID_LEN.size))
                try:
                    ids.append(read(id_len).decode("utf-8"))
                except UnicodeDecodeError:
                    raise JoinError(f"{path}: record {start + i} has an id that is not "
                                    "UTF-8") from None
                block[i * row_bytes : (i + 1) * row_bytes] = read(row_bytes)
            yield tuple(ids), vectors[: len(ids)]
    if offset != size:
        raise JoinError(f"{path}: {size - offset} trailing bytes after the last record")


def load_embeddings(path: str | Path,
                    digest: Callable[[bytes], object] | None = None) -> Embeddings:
    """Read a whole embeddings file: ``read_embeddings`` in one block."""
    (embeddings,) = read_embeddings(path, digest)
    return embeddings


def embeddings_ids(path: str | Path,
                   digest: Callable[[bytes], object] | None = None) -> tuple[str, ...]:
    """The ids of an embeddings file, read through ``read_embeddings``
    ``_ID_ROWS`` records at a time, so that only one block of its vectors
    is held; ``digest`` sees every byte."""
    return tuple(chain.from_iterable(ids for ids, _ in read_embeddings(path, digest, _ID_ROWS)))


def aggregate_labels(
    result: JoinResult,
    labels: dict[str, float],
    k: int,
) -> dict[str, float]:
    """Average the labels of each base record's top-k matches: ``label_means``
    at one k."""
    return label_means(result, labels, [k])[0]


def label_means(result: JoinResult, labels: dict[str, float],
                ks: Sequence[int]) -> list[dict[str, float]]:
    """For each k of ``ks``, the average label of each base record's top-k
    matches, ties by label; every k reads one ranking of the matched rows.

    Base records with no matches are absent from the output; ABSENT rows
    contribute nothing.
    """
    if any(k < 1 for k in ks):
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
    groups = [(result.base_ids[base[lo]], lo, hi)
              for lo, hi in zip(starts, [*starts[1:], base.size])]
    return [{name: sum(label[lo : min(hi, lo + k)]) / min(hi - lo, k) for name, lo, hi in groups}
            for k in ks]

"""Reference forms of engine computations, for the tests only.

Each helper here is a slow or one-at-a-time form of something the engine
does in bulk: one query's top-k, one document's BM25 score (by its own
Okapi arithmetic, not the index's), one sentence's embedding, the loss of
a batch with every sentence embedded alone, the rows of a result as
objects and a result file as text, written by ``write_csv`` or by a plain
``csv.writer``. Tests compare the engine's bulk paths against them;
``scan_queries`` is their way into the engine's scan.

The training step is also here in a plain form (``forward_group``,
``backward_group``, ``table_grads`` and ``batch_gradients``): masked copies
for every batch, fancy-indexed pooling, ``np.unique`` for the table rows,
and the affine gradient stacked per group and summed with ``reduce``. The
engine's step must equal it bit for bit.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from emberish import joiner, lexrank
from emberish.encoder import _TINY, EncoderError, EncoderModel, _forward_group, _Grads
from emberish.joiner import EmbeddingIndex, JoinError, JoinResult
from emberish.lexrank import Bm25Index, LexError, build_bm25_index
from emberish.prepare import Sentence, code_tokens

# ---------------------------------------------------------------------------
# Retrieval and results.
# ---------------------------------------------------------------------------


def knn(
    index: EmbeddingIndex,
    query: np.ndarray,
    k: int,
    threshold: float | None = None,
) -> list[tuple[str, float]]:
    """Exact top-k of one query under the index metric, by ``exact_topk``
    over the index's rows; ties break by ascending id.

    With a threshold, l2 keeps scores <= threshold and inner_product keeps
    scores >= threshold.
    """
    if k < 1:
        raise JoinError("k must be >= 1")
    _, cols, scores = exact_topk(np.asarray(query, dtype=np.float64)[None], index.vectors,
                                 index.ids, k, index.metric, threshold)
    return [(index.ids[c], s) for c, s in zip(cols.tolist(), scores.tolist())]


def scan_queries(index: EmbeddingIndex, queries: np.ndarray, k: int,
                 threshold: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The engine's exact top-k of every query row: ``joiner._scan`` of
    ``queries``, streamed as one block past ``index``, which is the one
    target block of each of their tiles; ``(rows, cols, scores)`` ordered
    by query row, then rank, with ``cols`` index positions. Not an oracle:
    the way in for tests that check the scan itself against one."""
    tiles = joiner._scan_past(index, [queries], False, k, threshold, joiner.id_ranks(index.ids))
    return tuple(map(np.concatenate, zip(*(found for _, _, *found in tiles))))  # type: ignore


def exact_topk(queries: np.ndarray, targets: np.ndarray, target_ids: Sequence[str], k: int,
               metric: str,
               threshold: float | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact top-k of each query over every target under ``metric``, one
    query at a time: each score over the whole target matrix, by the
    difference formula for l2 and by ``np.einsum`` of each target row with
    the query for inner product; sorted best first (lowest l2, highest
    inner product) with ties by ascending id, and kept when within
    ``threshold`` (l2 at most it, inner product at least it). Returns
    ``(rows, cols, scores)`` ordered by query, then rank, as the engine's
    scans do."""
    rows: list[int] = []
    cols: list[int] = []
    scores: list[float] = []
    sign = 1.0 if metric == "l2" else -1.0  # lowest first
    for q, query in enumerate(queries):
        if metric == "l2":
            diff = targets - query
            exact = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        else:
            exact = np.einsum("ij,ij->i", targets, np.broadcast_to(query, targets.shape))
        ranked = sorted(range(len(targets)), key=lambda j: (sign * exact[j], target_ids[j]))
        kept = [j for j in ranked
                if threshold is None or sign * exact[j] <= sign * threshold][:k]
        rows += [q] * len(kept)
        cols += kept
        scores += exact[kept].tolist()
    return np.array(rows, np.int64), np.array(cols, np.int64), np.array(scores, np.float64)


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


def matches(result: JoinResult) -> tuple[Match, ...]:
    """The rows of ``result`` as ``Match`` objects, in row order."""
    base, aux = (*result.base_ids, None), (*result.aux_ids, None)
    paths = result.path.tolist() if result.path is not None else [()] * len(result.rank)
    columns = (c.tolist() for c in (result.base, result.aux, result.rank, result.score,
                                    result.reverse))
    return tuple(Match(base[b], aux[a], r, s, "reverse" if rev else "forward", tuple(p))
                 for b, a, r, s, rev, p in zip(*columns, paths))


def for_base(result: JoinResult, base_id: str) -> list[Match]:
    """The matched (not ABSENT) rows of one base record."""
    return [m for m in matches(result) if m.base_id == base_id and not m.absent]


def matched_pairs(result: JoinResult) -> set[tuple[str, str]]:
    """The ``(base_id, aux_id)`` pairs of the matched rows."""
    return {(m.base_id, m.aux_id) for m in matches(result) if not m.absent}


def to_csv_text(result: JoinResult) -> str:
    """The result file as text, as ``write_csv`` writes it."""
    buf = io.StringIO()
    joiner.result_writer(buf, result.base_ids, result.aux_ids)(result.base, result.aux,
                                                               result.rank, result.score)
    return buf.getvalue()


def csv_writer_text(result: JoinResult) -> str:
    """The result file as a plain ``csv.writer`` writes it, row by row: "\\n"
    line ends, and every field quoted exactly when an id holds "\\r"."""
    buf = io.StringIO()
    carriage = any("\r" in rid for rid in (*result.base_ids, *result.aux_ids))
    writer = csv.writer(buf, lineterminator="\n",
                        quoting=csv.QUOTE_ALL if carriage else csv.QUOTE_MINIMAL)
    writer.writerow(["base_id", "aux_id", "rank", "score"])
    for m in matches(result):
        writer.writerow([m.base_id or "", m.aux_id or "", m.rank,
                         "" if m.absent else repr(m.score)])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# BM25.
# ---------------------------------------------------------------------------


def bm25_score(query_tokens: Sequence, doc_tokens: Sequence, corpus: Sequence[Sequence]) -> float:
    """Okapi BM25 of one document, given its tokens, for a query, under the
    statistics of ``corpus`` (every document's tokens): k1 = 1.5, b = 0.75
    and the non-negative IDF ln((N - df + 0.5) / (df + 0.5) + 1). Query
    tokens count per occurrence, their terms added in query order."""
    k1, b = 1.5, 0.75
    n = len(corpus)
    avgdl = sum(map(len, corpus)) / n
    tf = Counter(doc_tokens)
    score = 0.0
    for tok in query_tokens:
        freq = tf[tok]
        if freq:
            df = sum(tok in doc for doc in corpus)
            idf = float(np.log((n - df + 0.5) / (df + 0.5) + 1.0))
            norm = k1 * (1.0 - b + b * (len(doc_tokens) / avgdl))
            score += idf * (freq * (k1 + 1.0)) / (freq + norm)
    return score


def bm25_topk(index: Bm25Index, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """One query's (vocabulary ids) top-k docs as ``(doc id, score)``,
    descending; ties break by ascending doc id. The one-query form of
    ``lexrank.rank``."""
    if k < 1:
        raise LexError("k must be >= 1")
    _, cols, scores = lexrank.gather(lexrank.rank([query], index.scores, index.n_docs, k,
                                                  index.id_rank))
    return [(index.ids[i], s) for i, s in zip(cols.tolist(), scores.tolist())]


def coded(*groups: Sequence[Sequence[str]]) -> tuple:
    """Groups of token-string sequences coded in one vocabulary by
    ``prepare.code_tokens``: the vocabulary size, then per group its id
    arrays."""
    vocab, ids = code_tokens(groups)
    return (len(vocab), *ids)


def coded_index(docs: Sequence[tuple[str, Sequence[str]]],
                queries: Sequence[Sequence[str]] = ()) -> tuple[Bm25Index, list[np.ndarray]]:
    """``build_bm25_index`` over ``(doc id, token strings)`` documents,
    coded by ``coded`` together with ``queries``; returns the index and
    the coded queries."""
    size, doc_ids, query_ids = coded([tokens for _, tokens in docs], queries)
    return build_bm25_index([doc_id for doc_id, _ in docs], doc_ids, size), query_ids


# ---------------------------------------------------------------------------
# Encoder.
# ---------------------------------------------------------------------------


def encode(model: EncoderModel, sentence: Sentence) -> np.ndarray:
    """Embed one prepared sentence; an empty token list maps to zeros."""
    return _forward_group(model, [model.rows(sentence.tokens)])[1][0]


def triplet_loss(
    xa: np.ndarray,
    xp: np.ndarray,
    xn: np.ndarray,
    margin: float = 1.0,
) -> float:
    """Hinge loss max(||xa-xp|| - ||xa-xn|| + margin, 0) under the 2-norm."""
    xa, xp, xn = np.asarray(xa), np.asarray(xp), np.asarray(xn)
    if not (xa.shape == xp.shape == xn.shape):
        raise EncoderError(
            f"dimension mismatch: {xa.shape} vs {xp.shape} vs {xn.shape}"
        )
    d_pos = float(np.linalg.norm(xa - xp))
    d_neg = float(np.linalg.norm(xa - xn))
    return max(d_pos - d_neg + margin, 0.0)


def dense_table(grads: _Grads, hash_dim: int, dim: int) -> np.ndarray:
    """The table gradient as a dense (hash_dim, dim) array."""
    out = np.zeros((hash_dim, dim))
    out[grads.table_idx] = grads.table_rows
    return out


def batch_loss(
    anchor_model: EncoderModel,
    other_model: EncoderModel,
    anchors: list[np.ndarray],
    positives: list[np.ndarray],
    negatives: list[np.ndarray],
    margin: float,
) -> float:
    """Mean triplet hinge loss over a batch (bucket-array inputs), the
    finite-difference reference for ``batch_gradients``: each sentence runs
    through the forward pass alone, as in ``encode``."""
    xa, xp, xn = (np.vstack([_forward_group(model, [b])[1] for b in group])
                  for model, group in ((anchor_model, anchors), (other_model, positives),
                                       (other_model, negatives)))
    d_pos = np.sqrt(np.einsum("ij,ij->i", xa - xp, xa - xp))
    d_neg = np.sqrt(np.einsum("ij,ij->i", xa - xn, xa - xn))
    return float(np.maximum(d_pos - d_neg + margin, 0.0).mean())


# ---------------------------------------------------------------------------
# The training step in its plain form.
# ---------------------------------------------------------------------------


def forward_group(model: EncoderModel, bucket_arrays: list[np.ndarray]):
    """Embed a group of sentences, keeping intermediates for backprop."""
    n = len(bucket_arrays)
    d = model.dim
    E = np.zeros((n, d))
    counts = np.zeros(n, dtype=np.int64)
    for i, buckets in enumerate(bucket_arrays):
        counts[i] = buckets.size
        if buckets.size:
            E[i] = model.table[buckets].sum(axis=0) / buckets.size
    U = E @ model.projection + model.bias
    X = U.copy()
    R = np.sqrt(np.einsum("ij,ij->i", U, U))
    nonempty = counts > 0
    if model.normalize:
        scale = nonempty & (R > _TINY)
        X[scale] = U[scale] / R[scale, None]
    X[~nonempty] = 0.0
    return E, U, X, R, counts, nonempty


def backward_group(model, g_x, parts, E, U, X, R, counts, nonempty):
    """Backprop g_x through normalization, projection, and pooling; the
    affine gradient sums the ``parts`` groups' in group order."""
    g_u = g_x.copy()
    if model.normalize:
        scale = nonempty & (R > _TINY)
        dot = np.einsum("ij,ij->i", g_x[scale], X[scale])
        g_u[scale] = (g_x[scale] - dot[:, None] * X[scale]) / R[scale, None]
    g_u[~nonempty] = 0.0

    g_affine = reduce(np.add, (np.vstack((e.T @ g, g.sum(axis=0)))
                               for e, g in zip(np.split(E, parts), np.split(g_u, parts))))
    g_e = g_u @ model.projection.T
    return g_affine, g_e / np.maximum(counts, 1)[:, None]


def table_grads(bucket_arrays: list[np.ndarray], rows: np.ndarray):
    """Unique buckets by ``np.unique`` and their summed gradients,
    ``Cᵀ @ rows``."""
    lengths = np.array([b.size for b in bucket_arrays], dtype=np.int64)
    flat = np.concatenate(bucket_arrays)
    unique, inverse = np.unique(flat, return_inverse=True)
    sentence = np.repeat(np.arange(lengths.size), lengths)
    counts = np.bincount(sentence * unique.size + inverse, minlength=lengths.size * unique.size)
    return unique, counts.reshape(lengths.size, unique.size).T.astype(np.float64) @ rows


def batch_gradients(anchor_model, other_model, anchors, positives, negatives, margin):
    """Mean batch loss and one ``_Grads`` per model, as
    ``encoder.batch_gradients``."""
    groups = (anchors, positives, negatives)
    owned = ((0, 1, 2),) if anchor_model is other_model else ((0,), (1, 2))
    models = (anchor_model, other_model)[: len(owned)]
    sentences = [[b for i in own for b in groups[i]] for own in owned]
    forwards = [forward_group(m, s) for m, s in zip(models, sentences)]
    Xa, Xp, Xn = np.split(np.concatenate([f[2] for f in forwards]), 3)
    B = Xa.shape[0]

    dap = Xa - Xp
    dan = Xa - Xn
    d_pos = np.sqrt(np.einsum("ij,ij->i", dap, dap))
    d_neg = np.sqrt(np.einsum("ij,ij->i", dan, dan))
    losses = np.maximum(d_pos - d_neg + margin, 0.0)
    loss = float(losses.mean())

    active = (losses > 0.0).astype(np.float64) / B
    u_pos = np.where(d_pos[:, None] > _TINY, dap / np.maximum(d_pos, _TINY)[:, None], 0.0)
    u_neg = np.where(d_neg[:, None] > _TINY, dan / np.maximum(d_neg, _TINY)[:, None], 0.0)
    g_xa = active[:, None] * (u_pos - u_neg)
    g_xp = -active[:, None] * u_pos
    g_xn = active[:, None] * u_neg

    g_groups = (g_xa, g_xp, g_xn)
    grads = []
    for model, own, sents, forward in zip(models, owned, sentences, forwards):
        g_x = np.concatenate([g_groups[i] for i in own])
        g_affine, rows = backward_group(model, g_x, len(own), *forward)
        grads.append(_Grads(g_affine, *table_grads(sents, rows)))
    return loss, grads

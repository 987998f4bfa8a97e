"""Lexical similarity kernels: Okapi BM25, Jaccard, and Levenshtein.

These back the baseline joins, the hard-negative sampler tiers, and the
self-supervised pair selection. The BM25 IDF uses the non-negative
variant ln((N - df + 0.5)/(df + 0.5) + 1), so scores never go negative.
A built index is immutable; scoring it from many threads is safe.

BM25 and Jaccard both score from posting lists (token -> ascending
positions of the documents holding it). ``jaccard_topk`` counts a query's
|A ∩ B| against every document with one ``np.bincount`` over its tokens'
postings and takes |A ∪ B| = |A| + |B| - |A ∩ B|; two empty sets score
0.0, as in ``jaccard``, the pairwise reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .data import Dataset
from .joiner import JoinResult, id_ranks, ranked_columns, topk
from .joinspec import JoinSpec, JoinType
from .prepare import prepare_sentence, tokenize

BASELINE_KINDS = ("LD", "J-WS", "J-2G", "JK-WS", "JK-2G", "BM25")

# Thresholds the baseline joins apply.
LD_MAX_DISTANCE = 30
JACCARD_MIN_SIMILARITY = 0.3

# Similarities (queries x documents) that ``jaccard_topk`` ranks per block.
_JACCARD_CELLS = 1 << 15


class LexError(ValueError):
    """Bad kernel input (unknown doc, missing key column, unknown kind)."""


@dataclass
class Bm25Index:
    ids: tuple[str, ...]
    doc_term_freqs: tuple[Mapping[str, int], ...]
    doc_lengths: np.ndarray
    avgdl: float
    df: dict[str, int]
    k1: float = 1.5
    b: float = 0.75
    # token -> (doc positions, per-occurrence score contribution)
    _postings: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @property
    def n_docs(self) -> int:
        return len(self.ids)

    def idf(self, token: str) -> float:
        n_t = self.df.get(token, 0)
        return float(np.log((self.n_docs - n_t + 0.5) / (n_t + 0.5) + 1.0))


def _term_contribution(index: Bm25Index, token: str, freq: int, doc_len: int) -> float:
    norm = index.k1 * (1.0 - index.b + index.b * (doc_len / index.avgdl if index.avgdl > 0 else 0.0))
    return index.idf(token) * (freq * (index.k1 + 1.0)) / (freq + norm)


def _invert(docs: Sequence[Iterable[str]]) -> dict[str, np.ndarray]:
    """Posting lists: token -> ascending positions of the documents holding
    it. Each document's tokens must be distinct."""
    postings: dict[str, list[int]] = {}
    for pos, tokens in enumerate(docs):
        for tok in tokens:
            postings.setdefault(tok, []).append(pos)
    return {tok: np.array(positions, dtype=np.int64) for tok, positions in postings.items()}


def build_bm25_index(
    docs: Sequence[tuple[str, Sequence[str]]],
    k1: float = 1.5,
    b: float = 0.75,
) -> Bm25Index:
    """Index tokenized documents; doc ids must be unique."""
    ids = tuple(doc_id for doc_id, _ in docs)
    if len(set(ids)) != len(ids):
        raise LexError("document ids must be unique")
    freqs: list[dict[str, int]] = []
    for _, tokens in docs:
        tf: dict[str, int] = {}
        for tok in tokens:
            tf[tok] = tf.get(tok, 0) + 1
        freqs.append(tf)
    lengths = np.array([len(tokens) for _, tokens in docs], dtype=np.int64)
    avgdl = float(lengths.mean()) if len(docs) else 0.0
    df: dict[str, int] = {}
    for tf in freqs:
        for tok in tf:
            df[tok] = df.get(tok, 0) + 1

    index = Bm25Index(
        ids=ids,
        doc_term_freqs=tuple(freqs),
        doc_lengths=lengths,
        avgdl=avgdl,
        df=df,
        k1=k1,
        b=b,
    )
    for tok, positions in _invert(freqs).items():
        contribs = [_term_contribution(index, tok, freqs[pos][tok], int(lengths[pos]))
                    for pos in positions.tolist()]
        index._postings[tok] = (positions, np.array(contribs, dtype=np.float64))
    index._pos = {doc_id: i for i, doc_id in enumerate(ids)}  # type: ignore[attr-defined]
    index._id_rank = id_ranks(ids)  # type: ignore[attr-defined]
    return index


def bm25_score(index: Bm25Index, query_tokens: Sequence[str], doc_id: str) -> float:
    """Okapi score of one document; query tokens count per occurrence."""
    pos = getattr(index, "_pos", {}).get(doc_id)
    if pos is None:
        raise LexError(f"unknown doc id {doc_id!r}")
    tf = index.doc_term_freqs[pos]
    doc_len = int(index.doc_lengths[pos])
    score = 0.0
    for tok in query_tokens:
        freq = tf.get(tok, 0)
        if freq == 0:
            continue
        score += _term_contribution(index, tok, freq, doc_len)
    return score


def bm25_scores_all(index: Bm25Index, query_tokens: Sequence[str]) -> np.ndarray:
    """Scores for every indexed document, via the posting lists."""
    scores = np.zeros(index.n_docs, dtype=np.float64)
    for tok in query_tokens:
        posting = index._postings.get(tok)
        if posting is None:
            continue
        positions, contribs = posting
        scores[positions] += contribs
    return scores


def bm25_topk(
    index: Bm25Index,
    query_tokens: Sequence[str],
    k: int,
    exclude: Iterable[str] = (),
) -> list[tuple[str, float]]:
    """Top-k docs by score, descending; ties break by ascending doc id."""
    if k < 1:
        raise LexError("k must be >= 1")
    scores = bm25_scores_all(index, query_tokens)
    pos = index._pos  # type: ignore[attr-defined]
    keep = np.ones(index.n_docs, dtype=bool)
    keep[[pos[doc_id] for doc_id in exclude if doc_id in pos]] = False
    _, best = topk(scores, k, index._id_rank, True, keep)  # type: ignore[attr-defined]
    return [(index.ids[i], float(scores[i])) for i in best.tolist()]


def jaccard(a: set, b: set) -> float:
    """|A intersect B| / |A union B|; both empty gives 0."""
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def jaccard_topk(
    queries: Iterable[Collection[str]],
    docs: Sequence[Collection[str]],
    k: int,
    id_rank: np.ndarray,
    min_similarity: float | None = None,
) -> Iterator[list[tuple[int, float]]]:
    """For each query token set in turn, its best ``k`` documents as
    ``(doc position, jaccard similarity)``: descending, ties by ascending
    ``id_rank``, and only similarities >= ``min_similarity`` when given.

    A query's |A ∩ B| against every document is one ``np.bincount`` over
    the concatenated posting lists of its tokens; |A ∪ B| = |A| + |B| -
    |A ∩ B|, and two empty sets score 0.0. The quotient of the two small
    integer counts has the same bits as ``jaccard``'s. Queries are ranked
    in blocks of about ``_JACCARD_CELLS`` similarities, one ``topk`` each.
    """
    postings = _invert(docs)
    doc_sizes = np.array([len(doc) for doc in docs], dtype=np.int64)
    n = len(docs)
    step = max(1, _JACCARD_CELLS // max(n, 1))
    queries = iter(queries)
    while block := list(islice(queries, step)):
        inter = np.zeros((len(block), n), dtype=np.int64)
        for row, query in enumerate(block):
            hits = [postings[tok] for tok in query if tok in postings]
            if hits:
                inter[row] = np.bincount(np.concatenate(hits), minlength=n)
        union = np.array([len(query) for query in block])[:, None] + doc_sizes - inter
        sims = np.divide(inter, union, out=np.zeros(inter.shape), where=union > 0)
        keep = None if min_similarity is None else sims >= min_similarity
        rows, cols = topk(sims, k, id_rank, True, keep)
        bounds = np.searchsorted(rows, np.arange(len(block) + 1)).tolist()
        cols, best = cols.tolist(), sims[rows, cols].tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield list(zip(cols[lo:hi], best[lo:hi]))


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert, delete, substitute)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(b) < len(a):
        a, b = b, a
    prev = list(range(len(a) + 1))
    curr = [0] * (len(a) + 1)
    for j, cb in enumerate(b, start=1):
        curr[0] = j
        for i, ca in enumerate(a, start=1):
            cost = 0 if ca == cb else 1
            curr[i] = min(prev[i - 1] + cost, prev[i] + 1, curr[i - 1] + 1)
        prev, curr = curr, prev
    return prev[len(a)]


def _key_text(record, key_column: str) -> str:
    value = record.value(key_column)
    if value is None:
        raise LexError(f"key column {key_column!r} missing for record {record.id!r}")
    return value


def lexical_join(
    kind: str,
    base: Dataset,
    aux: Dataset,
    key_column: str | None = None,
    k: int = 10,
) -> JoinResult:
    """Baseline join under a lexical kernel.

    LD keeps candidates within 30 edits (ascending distance), and skips
    the edit DP for keys whose lengths differ by more. The Jaccard variants
    keep similarity >= 0.3 (descending), counted from posting lists over
    the aux token sets by ``jaccard_topk`` (two empty sets score 0.0, so
    they never match). BM25 keeps positive scores (descending). Ties always
    break by ascending aux id. LD and JK-* compare the designated key
    column; J-* and BM25 use the prepared sentences.
    """
    kind = kind.upper().replace("_", "-")
    if kind not in BASELINE_KINDS:
        raise LexError(f"unknown baseline kind {kind!r} (expected one of {BASELINE_KINDS})")
    if k < 1:
        raise LexError("k must be >= 1")
    if kind in ("LD", "JK-WS", "JK-2G") and key_column is None:
        raise LexError(f"baseline {kind} requires a key column")
    spec = JoinSpec(
        base_ref=base.name,
        aux_ref=aux.name,
        join_type=JoinType.INNER,
        left_size=max(base.n, 1),
        right_size=k,
        supervision_ref=kind.lower(),
    )

    if kind == "BM25":
        aux_tokens = [(r.id, prepare_sentence(r).tokens) for r in aux.records]
        index = build_bm25_index(aux_tokens)
        rows: list[tuple[str, str, int, float]] = []
        for rec in base.records:
            query = prepare_sentence(rec).tokens
            best = [(aid, s) for aid, s in bm25_topk(index, query, k) if s > 0.0]
            rows += [(rec.id, aid, rank, s) for rank, (aid, s) in enumerate(best, start=1)]
        return JoinResult.from_ids(rows, spec)

    aux_ids = aux.ids()
    aux_rank = id_ranks(aux_ids)
    if kind == "LD":
        aux_keys = [_key_text(r, key_column).lower() for r in aux.records]

        def nearest(rec) -> list[tuple[int, float]]:
            text = _key_text(rec, key_column).lower()
            # levenshtein >= the length difference, so a pair whose lengths
            # differ by more than the cut-off is dropped without the DP.
            dists = np.array([levenshtein(text, atext)
                              if abs(len(text) - len(atext)) <= LD_MAX_DISTANCE else np.inf
                              for atext in aux_keys], dtype=np.float64)
            _, best = topk(dists, k, aux_rank, False, dists <= LD_MAX_DISTANCE)
            return [(i, float(dists[i])) for i in best.tolist()]

        ranked = map(nearest, base.records)
    else:  # Jaccard variants.
        mode = "whitespace" if kind.endswith("WS") else "char2gram"
        if kind.startswith("JK"):
            token_set = lambda r: set(tokenize(_key_text(r, key_column), mode))
        else:
            token_set = lambda r: set(prepare_sentence(r, tokenizer=mode).tokens)
        ranked = jaccard_topk((token_set(r) for r in base.records),
                              [token_set(r) for r in aux.records], k, aux_rank,
                              JACCARD_MIN_SIMILARITY)
    hits = [(row, col, score) for row, best in enumerate(ranked) for col, score in best]
    columns = ranked_columns(*(list(zip(*hits)) or [()] * 3))
    return JoinResult(base.ids(), aux_ids, *columns, spec=spec)

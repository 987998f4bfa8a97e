"""Lexical similarity kernels: Okapi BM25, Jaccard, and Levenshtein.

These back the baseline joins, the hard-negative sampler tiers, and the
self-supervised pair selection. The BM25 IDF uses the non-negative
variant ln((N - df + 0.5)/(df + 0.5) + 1), so scores never go negative.
A built index is immutable; scoring it from many threads is safe.

Every lexical ranking goes through ``rank``: queries scored in blocks,
one ``joiner.topk`` per block. BM25 and Jaccard score a query against
every document from posting lists (token -> ascending positions of the
documents holding it), with one ``np.bincount`` over its tokens' postings:
weighted by BM25 contributions in ``Bm25Index.scores``, counting |A ∩ B|
in ``jaccard_topk``. LD scores by edit distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Collection, Iterable, Mapping, Sequence

import numpy as np

from .data import Dataset
from .joiner import JoinResult, id_ranks, ranked_columns, topk
from .joinspec import JoinSpec, JoinType
from .prepare import prepare_sentence, tokenize

BASELINE_KINDS = ("LD", "J-WS", "J-2G", "JK-WS", "JK-2G", "BM25")
# The baselines that compare a key column; the others compare whole records.
KEY_BASELINES = ("LD", "JK-WS", "JK-2G")

# Okapi BM25 term-frequency saturation and length normalization.
BM25_K1 = 1.5
BM25_B = 0.75

# Thresholds the baseline joins apply.
LD_MAX_DISTANCE = 30
JACCARD_MIN_SIMILARITY = 0.3

# Scores (queries x documents) that ``rank`` ranks per block.
_LEX_CELLS = 1 << 15


class LexError(ValueError):
    """Bad kernel input (unknown doc, missing key column, unknown kind)."""


@dataclass
class Bm25Index:
    ids: tuple[str, ...]
    doc_term_freqs: tuple[Mapping[str, int], ...]
    doc_lengths: np.ndarray
    avgdl: float
    df: dict[str, int]
    pos: dict[str, int]  # doc id -> position
    id_rank: np.ndarray  # for tie-breaking
    # token -> (doc positions, per-occurrence score contribution)
    postings: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @property
    def n_docs(self) -> int:
        return len(self.ids)

    def idf(self, token: str) -> float:
        n_t = self.df.get(token, 0)
        return float(np.log((self.n_docs - n_t + 0.5) / (n_t + 0.5) + 1.0))

    def scores(self, query_tokens: Sequence[str]) -> np.ndarray:
        """Every document's score; query tokens count per occurrence, their
        contributions added to each document in query order."""
        hits = [self.postings[tok] for tok in query_tokens if tok in self.postings]
        if not hits:
            return np.zeros(self.n_docs)
        positions, contribs = (np.concatenate(part) for part in zip(*hits))
        return np.bincount(positions, weights=contribs, minlength=self.n_docs)


def _term_contribution(index: Bm25Index, token: str, freq: int, doc_len: int) -> float:
    norm = BM25_K1 * (1.0 - BM25_B + BM25_B * (doc_len / index.avgdl if index.avgdl > 0 else 0.0))
    return index.idf(token) * (freq * (BM25_K1 + 1.0)) / (freq + norm)


def _invert(docs: Sequence[Iterable[str]]) -> dict[str, np.ndarray]:
    """Posting lists: token -> ascending positions of the documents holding
    it. Each document's tokens must be distinct."""
    postings: dict[str, list[int]] = {}
    for pos, tokens in enumerate(docs):
        for tok in tokens:
            postings.setdefault(tok, []).append(pos)
    return {tok: np.array(positions, dtype=np.int64) for tok, positions in postings.items()}


def build_bm25_index(docs: Sequence[tuple[str, Sequence[str]]]) -> Bm25Index:
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

    pos = {doc_id: i for i, doc_id in enumerate(ids)}
    index = Bm25Index(ids=ids, doc_term_freqs=tuple(freqs), doc_lengths=lengths, avgdl=avgdl,
                      df=df, pos=pos, id_rank=id_ranks(ids))
    for tok, positions in _invert(freqs).items():
        contribs = [_term_contribution(index, tok, freqs[pos][tok], int(lengths[pos]))
                    for pos in positions.tolist()]
        index.postings[tok] = (positions, np.array(contribs, dtype=np.float64))
    return index


def dataset_bm25_index(dataset: Dataset) -> Bm25Index:
    """The BM25 index over a dataset's prepared sentences, as the BM25
    baseline join, the BM25 sampler tiers and the pretraining pairs query
    it."""
    return build_bm25_index([(r.id, prepare_sentence(r).tokens) for r in dataset.records])


def uses_key_column(kind: str) -> bool:
    """Whether baseline ``kind`` (any case, ``_`` for ``-``) compares a key
    column."""
    return _kind(kind) in KEY_BASELINES


def _kind(kind: str) -> str:
    return kind.upper().replace("_", "-")


def bm25_score(index: Bm25Index, query_tokens: Sequence[str], doc_id: str) -> float:
    """Okapi score of one document; query tokens count per occurrence."""
    pos = index.pos.get(doc_id)
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


def rank(queries: Iterable[Any], score: Callable[[Any], np.ndarray], n_docs: int, k: int,
         id_rank: np.ndarray, descending: bool = True,
         keep: Callable[[np.ndarray], np.ndarray] | None = None) -> tuple[np.ndarray, ...]:
    """The best ``k`` of ``n_docs`` documents for each query, whose row of
    document scores is ``score(query)``, as ``joiner._search`` returns them:
    ``(rows, cols, scores)`` ordered by query position, then rank. Highest
    first unless not ``descending``, ties by ascending ``id_rank``, and only
    the scores ``keep`` marks True in a block. Blocks hold about
    ``_LEX_CELLS`` scores, one ``topk`` each."""
    found = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    step = max(1, _LEX_CELLS // max(n_docs, 1))
    queries, start = iter(queries), 0
    while block := list(islice(queries, step)):
        scores = np.array([score(query) for query in block], dtype=np.float64)
        rows, cols = topk(scores, k, id_rank, descending, None if keep is None else keep(scores))
        found.append((rows + start, cols, scores[rows, cols]))
        start += len(block)
    return tuple(np.concatenate(part) for part in zip(*found))


def bm25_topk(index: Bm25Index, query_tokens: Sequence[str], k: int) -> list[tuple[str, float]]:
    """One query's top-k docs as ``(doc id, score)``, descending; ties break
    by ascending doc id. The one-query form of ``rank`` over ``index``."""
    if k < 1:
        raise LexError("k must be >= 1")
    _, cols, scores = rank([query_tokens], index.scores, index.n_docs, k, index.id_rank)
    return [(index.ids[i], s) for i, s in zip(cols.tolist(), scores.tolist())]


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
) -> tuple[np.ndarray, ...]:
    """``rank`` of the query token sets against the document token sets by
    Jaccard similarity: descending, ties by ascending ``id_rank``, and only
    similarities >= ``min_similarity`` when given.

    A query's |A ∩ B| against every document is one ``np.bincount`` over
    the concatenated posting lists of its tokens; |A ∪ B| = |A| + |B| -
    |A ∩ B|, and two empty sets score 0.0. The quotient of the two small
    integer counts has the same bits as ``jaccard``'s.
    """
    postings = _invert(docs)
    doc_sizes = np.array([len(doc) for doc in docs], dtype=np.int64)
    n = len(docs)

    def similarities(query: Collection[str]) -> np.ndarray:
        hits = [postings[tok] for tok in query if tok in postings]
        inter = np.bincount(np.concatenate(hits), minlength=n) if hits else np.zeros(n, np.int64)
        union = len(query) + doc_sizes - inter
        return np.divide(inter, union, out=np.zeros(n), where=union > 0)

    keep = None if min_similarity is None else (lambda sims: sims >= min_similarity)
    return rank(queries, similarities, n, k, id_rank, keep=keep)


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
    """Baseline join under a lexical kernel, ranked by ``rank``.

    LD keeps candidates within 30 edits (ascending distance), and skips
    the edit DP for keys whose lengths differ by more. The Jaccard variants
    keep similarity >= 0.3 (descending), counted from posting lists over
    the aux token sets by ``jaccard_topk`` (two empty sets score 0.0, so
    they never match). BM25 keeps positive scores (descending). Ties always
    break by ascending aux id. LD and JK-* compare the designated key
    column; J-* and BM25 use the prepared sentences.
    """
    kind = _kind(kind)
    if kind not in BASELINE_KINDS:
        raise LexError(f"unknown baseline kind {kind!r} (expected one of {BASELINE_KINDS})")
    if k < 1:
        raise LexError("k must be >= 1")
    if kind in KEY_BASELINES and key_column is None:
        raise LexError(f"baseline {kind} requires a key column")
    spec = JoinSpec(
        base_ref=base.name,
        aux_ref=aux.name,
        join_type=JoinType.INNER,
        left_size=max(base.n, 1),
        right_size=k,
        supervision_ref=kind.lower(),
    )

    aux_ids = aux.ids()
    if kind == "BM25":
        index = dataset_bm25_index(aux)
        found = rank((prepare_sentence(r).tokens for r in base.records), index.scores,
                     index.n_docs, k, index.id_rank, keep=lambda scores: scores > 0.0)
    elif kind == "LD":
        aux_keys = [_key_text(r, key_column).lower() for r in aux.records]

        def distances(text: str) -> np.ndarray:
            # levenshtein >= the length difference, so a pair whose lengths
            # differ by more than the cut-off is dropped without the DP.
            return np.array([levenshtein(text, atext)
                             if abs(len(text) - len(atext)) <= LD_MAX_DISTANCE else np.inf
                             for atext in aux_keys], dtype=np.float64)

        found = rank((_key_text(r, key_column).lower() for r in base.records), distances,
                     aux.n, k, id_ranks(aux_ids), descending=False,
                     keep=lambda dists: dists <= LD_MAX_DISTANCE)
    else:  # Jaccard variants.
        mode = "whitespace" if kind.endswith("WS") else "char2gram"
        if kind.startswith("JK"):
            token_set = lambda r: set(tokenize(_key_text(r, key_column), mode))
        else:
            token_set = lambda r: set(prepare_sentence(r, tokenizer=mode).tokens)
        found = jaccard_topk((token_set(r) for r in base.records),
                             [token_set(r) for r in aux.records], k, id_ranks(aux_ids),
                             JACCARD_MIN_SIMILARITY)
    return JoinResult(base.ids(), aux_ids, *ranked_columns(*found), spec=spec)

"""Lexical similarity kernels: Okapi BM25, Jaccard, and Levenshtein.

These back the baseline joins, the hard-negative sampler tiers, and the
self-supervised pair selection. The BM25 IDF uses the non-negative
variant ln((N - df + 0.5)/(df + 0.5) + 1), so scores never go negative.
A built index is immutable; scoring it from many threads is safe.

Every lexical ranking goes through ``rank``: queries scored in blocks,
one ``joiner.topk`` per block, each block yielded as it is ranked. BM25
and Jaccard score a query, as its ``prepare.token_ids`` vocabulary ids,
against every document from CSR posting lists per id, with one
``np.bincount`` over its ids' postings: weighted by BM25 contributions in
``Bm25Index.scores``, counting |A ∩ B| in ``jaccard_topk``. The postings
are built by ``_invert`` straight from the documents' flat
``prepare.TokenIds`` array and its offsets. LD scores by edit distance.

``lexical_join`` runs the baselines of whole records (BM25, J-WS, J-2G)
from the aux ids and the two sides' token ids alone; ``key_join`` runs the
key-column baselines (LD, JK-WS, JK-2G), which read the records' text.
Both yield a ``JoinResult``'s columns one rank block at a time, so a
caller can write each block before the next is ranked.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .data import Dataset
from .joiner import id_ranks, ranked_columns, topk
from .prepare import Features, TokenIds, code_tokens, tokenize

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
    """Bad kernel input (duplicate doc ids, missing key column, unknown kind)."""


def _invert(docs: TokenIds, vocab_size: int) -> tuple[np.ndarray, ...]:
    """CSR posting lists over ids below ``vocab_size``: ``indptr``, then per
    distinct (token, document) pair in token-then-position order, the
    document's position and the token's count in it; and each doc's length.
    The ids are widened to int64 first: ``token * n + doc`` passes 2^31."""
    n = max(len(docs), 1)
    lengths = np.diff(docs.offsets)
    keys, counts = np.unique(docs.flat.astype(np.int64) * n
                             + np.repeat(np.arange(len(docs)), lengths),
                             return_counts=True)
    indptr = np.zeros(vocab_size + 1, np.int64)
    np.cumsum(np.bincount(keys // n, minlength=vocab_size), out=indptr[1:])
    return indptr, keys % n, counts, lengths


@dataclass
class Bm25Index:
    """Okapi BM25 over documents of vocabulary ids. ``postings[t]`` is id
    ``t``'s slice of the index's CSR arrays: the ascending positions of the
    documents holding it and its score contribution to each."""

    ids: tuple[str, ...]
    id_rank: np.ndarray  # for tie-breaking
    postings: list[tuple[np.ndarray, np.ndarray]]

    @property
    def n_docs(self) -> int:
        return len(self.ids)

    def scores(self, query: np.ndarray) -> np.ndarray:
        """Every document's score; query ids count per occurrence, their
        contributions added to each document in query order."""
        hits = [self.postings[t] for t in query.tolist()]
        if not hits:
            return np.zeros(self.n_docs)
        positions, contribs = (np.concatenate(part) for part in zip(*hits))
        # Without postings, bincount gives ints even with weights.
        scores = np.bincount(positions, weights=contribs, minlength=self.n_docs)
        return scores.astype(np.float64, copy=False)


def build_bm25_index(ids: Sequence[str], docs: TokenIds, vocab_size: int) -> Bm25Index:
    """Index documents given as vocabulary ids below ``vocab_size``, named
    by ``ids``, which must be unique."""
    ids = tuple(ids)
    if len(set(ids)) != len(ids):
        raise LexError("document ids must be unique")
    indptr, positions, tf, lengths = _invert(docs, vocab_size)
    n, df = len(ids), np.diff(indptr)
    idf = np.log((n - df + 0.5) / (df + 0.5) + 1.0)
    avgdl = lengths.mean() if n else 0.0
    norm = BM25_K1 * (1.0 - BM25_B + BM25_B * (lengths[positions] / avgdl))
    contribs = np.repeat(idf, df) * (tf * (BM25_K1 + 1.0)) / (tf + norm)
    # Views split once: slicing ``indptr`` per query token is slower.
    cuts = indptr[1:-1]
    return Bm25Index(ids, id_ranks(ids), list(zip(np.split(positions, cuts),
                                                  np.split(contribs, cuts))))


def uses_key_column(kind: str) -> bool:
    """Whether baseline ``kind`` (any case, ``_`` for ``-``) compares a key
    column."""
    return _kind(kind) in KEY_BASELINES


def baseline_tokenizer(kind: str) -> str:
    """The tokenizer of baseline ``kind``: char2gram for J-2G and JK-2G,
    whitespace for the others."""
    return "char2gram" if _kind(kind).endswith("2G") else "whitespace"


def _kind(kind: str) -> str:
    return kind.upper().replace("_", "-")


def rank(queries: Iterable[Any], score: Callable[[Any], np.ndarray], n_docs: int, k: int,
         id_rank: np.ndarray, descending: bool = True,
         keep: Callable[[np.ndarray], np.ndarray] | None = None
         ) -> Iterator[tuple[np.ndarray, ...]]:
    """The best ``k`` of ``n_docs`` documents for each query, whose row of
    document scores is ``score(query)``, per block of queries as it is
    ranked: ``(rows, cols, scores)`` ordered by query position, then rank,
    as ``joiner._scan`` yields them after each tile's query positions.
    Highest first unless not
    ``descending``, ties by ascending ``id_rank``, and only the scores
    ``keep`` marks True in a block. Blocks hold about ``_LEX_CELLS``
    scores, one ``topk`` each; ``gather`` joins them."""
    step = max(1, _LEX_CELLS // max(n_docs, 1))
    queries, start = iter(queries), 0
    while block := list(islice(queries, step)):
        scores = np.array([score(query) for query in block], dtype=np.float64)
        rows, cols = topk(scores, k, id_rank, descending, None if keep is None else keep(scores))
        yield rows + start, cols, scores[rows, cols]
        start += len(block)


def gather(blocks: Iterable[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """The ``(rows, cols, scores)`` of every block of ``rank``, in order."""
    empty = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))
    return tuple(map(np.concatenate, zip(empty, *blocks)))


def jaccard(a: set, b: set) -> float:
    """|A intersect B| / |A union B|; both empty gives 0."""
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def jaccard_topk(
    queries: Iterable[np.ndarray],
    docs: TokenIds,
    vocab_size: int,
    k: int,
    id_rank: np.ndarray,
    min_similarity: float | None = None,
) -> Iterator[tuple[np.ndarray, ...]]:
    """``rank`` of the queries against the documents, as sets of their ids
    below ``vocab_size``, by Jaccard similarity: descending, ties by
    ascending ``id_rank``, and only similarities >= ``min_similarity`` when given.

    A query's |A ∩ B| against every document is one ``np.bincount`` over
    the posting lists of its distinct ids; |A ∪ B| = |A| + |B| - |A ∩ B|,
    and two empty sets score 0.0. The quotient of the two small integer
    counts has the same bits as ``jaccard``'s.
    """
    indptr, positions, _, _ = _invert(docs, vocab_size)
    postings = np.split(positions, indptr[1:-1])
    n = len(docs)
    doc_sizes = np.bincount(positions, minlength=n)

    def similarities(query: np.ndarray) -> np.ndarray:
        hits = [postings[t] for t in dict.fromkeys(query.tolist())]
        inter = np.bincount(np.concatenate(hits), minlength=n) if hits else np.zeros(n, np.int64)
        union = len(hits) + doc_sizes - inter
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


def _checked(kind: str, k: int, key_kind: bool) -> str:
    """``kind`` in canonical form; raises unless it is a known baseline of
    the family asked for (one that compares a key column, or one that
    compares whole records) and ``k`` is at least 1."""
    kind = _kind(kind)
    if kind not in BASELINE_KINDS:
        raise LexError(f"unknown baseline kind {kind!r} (expected one of {BASELINE_KINDS})")
    if k < 1:
        raise LexError("k must be >= 1")
    if (kind in KEY_BASELINES) != key_kind:
        family = "compares a key column" if kind in KEY_BASELINES else "compares whole records"
        raise LexError(f"baseline {kind} {family}")
    return kind


def _ranked_join(kind: str, aux_ids: Sequence[str], features: Features,
                 k: int) -> Iterator[tuple[np.ndarray, ...]]:
    """BM25 or Jaccard (any other ``kind``) of the base records against the
    aux records, whose ids are ``aux_ids``, from their token ids: the
    ``JoinResult`` columns of each rank block. The index is built by the
    call, before the first block is asked for."""
    vocab, (queries, docs) = features
    if kind == "BM25":
        index = build_bm25_index(aux_ids, docs, len(vocab))
        found = rank(queries, index.scores, index.n_docs, k, index.id_rank,
                     keep=lambda scores: scores > 0.0)
    else:
        found = jaccard_topk(queries, docs, len(vocab), k, id_ranks(aux_ids),
                             JACCARD_MIN_SIMILARITY)
    return (ranked_columns(*block) for block in found)


def lexical_join(
    kind: str,
    aux_ids: Sequence[str],
    features: Features,
    k: int = 10,
) -> Iterator[tuple[np.ndarray, ...]]:
    """Baseline join of whole records (BM25, J-WS or J-2G), ranked by
    ``rank`` from ``features``: the base and aux records' token ids under
    ``baseline_tokenizer(kind)``, as ``prepare.read_token_ids`` gives them,
    the aux records' ids being ``aux_ids``. It yields the columns
    ``(base, aux, rank, score, reverse)`` of the result over the base and
    aux ids one rank block at a time; ``JoinResult.from_columns`` joins
    them. The kind and ``k`` are checked, and the index built, at the call.

    The Jaccard variants keep similarity >= 0.3 (descending), counted from
    posting lists over the aux token sets by ``jaccard_topk`` (two empty
    sets score 0.0, so they never match). BM25 keeps positive scores
    (descending). Ties always break by ascending aux id.
    """
    return _ranked_join(_checked(kind, k, key_kind=False), aux_ids, features, k)


def key_join(
    kind: str,
    base: Dataset,
    aux: Dataset,
    key_column: str | None,
    k: int = 10,
) -> Iterator[tuple[np.ndarray, ...]]:
    """Baseline join on the ``key_column`` value of each record (LD, JK-WS
    or JK-2G), so it reads the records themselves. It yields the columns
    of the ``JoinResult`` over the datasets' ids per rank block, as
    ``lexical_join`` does.

    LD keeps candidates within 30 edits (ascending distance), and skips
    the edit DP for keys whose lengths differ by more. JK-WS and JK-2G
    rank the keys' tokens as J-WS and J-2G rank whole records'. Ties
    always break by ascending aux id.
    """
    kind = _checked(kind, k, key_kind=True)
    if key_column is None:
        raise LexError(f"baseline {kind} requires a key column")
    aux_ids = aux.ids()
    if kind != "LD":
        mode = baseline_tokenizer(kind)
        features = code_tokens((tokenize(_key_text(r, key_column), mode) for r in dataset.records)
                               for dataset in (base, aux))
        return _ranked_join(kind, aux_ids, features, k)
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
    return (ranked_columns(*block) for block in found)

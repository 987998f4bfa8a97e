"""Lexical similarity kernels: Okapi BM25, Jaccard, and Levenshtein.

These back the baseline joins, the hard-negative sampler tiers, and the
self-supervised pair selection. The BM25 IDF uses the non-negative
variant ln((N - df + 0.5)/(df + 0.5) + 1), so scores never go negative.
A built index is immutable; scoring it from many threads is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import Dataset
from .joiner import JoinResult, Match, id_ranks, topk
from .joinspec import JoinSpec, JoinType
from .prepare import prepare_sentence, tokenize

BASELINE_KINDS = ("LD", "J-WS", "J-2G", "JK-WS", "JK-2G", "BM25")

# Thresholds the baseline joins apply.
LD_MAX_DISTANCE = 30
JACCARD_MIN_SIMILARITY = 0.3


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
    postings: dict[str, tuple[list[int], list[float]]] = {}
    for pos, tf in enumerate(freqs):
        for tok, freq in tf.items():
            contrib = _term_contribution(index, tok, freq, int(lengths[pos]))
            postings.setdefault(tok, ([], []))[0].append(pos)
            postings[tok][1].append(contrib)
    index._postings = {
        tok: (np.array(positions, dtype=np.int64), np.array(contribs, dtype=np.float64))
        for tok, (positions, contribs) in postings.items()
    }
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

    LD keeps candidates within 30 edits (ascending distance); the Jaccard
    variants keep similarity >= 0.3 (descending); BM25 keeps positive
    scores (descending). Ties always break by ascending aux id. LD and
    JK-* compare the designated key column; J-* and BM25 use the prepared
    sentences.
    """
    kind = kind.upper().replace("_", "-")
    if kind not in BASELINE_KINDS:
        raise LexError(f"unknown baseline kind {kind!r} (expected one of {BASELINE_KINDS})")
    if k < 1:
        raise LexError("k must be >= 1")
    if kind in ("LD", "JK-WS", "JK-2G") and key_column is None:
        raise LexError(f"baseline {kind} requires a key column")

    matches: list[Match] = []

    if kind == "BM25":
        aux_tokens = [(r.id, prepare_sentence(r).tokens) for r in aux.records]
        index = build_bm25_index(aux_tokens)
        for rec in base.records:
            query = prepare_sentence(rec).tokens
            ranked = [(aid, s) for aid, s in bm25_topk(index, query, k) if s > 0.0]
            for rank, (aid, score) in enumerate(ranked, start=1):
                matches.append(Match(base_id=rec.id, aux_id=aid, rank=rank, score=score))
        return _lexical_result(kind, base, aux, k, matches)

    aux_ids = aux.ids()
    aux_rank = id_ranks(aux_ids)

    def add_ranked(base_id: str, scores: np.ndarray, descending: bool, keep: np.ndarray) -> None:
        _, best = topk(scores, k, aux_rank, descending, keep)
        for rank, i in enumerate(best.tolist(), start=1):
            matches.append(Match(base_id=base_id, aux_id=aux_ids[i], rank=rank,
                                 score=float(scores[i])))

    if kind == "LD":
        aux_keys = [_key_text(r, key_column).lower() for r in aux.records]
        for rec in base.records:
            text = _key_text(rec, key_column).lower()
            dists = np.array([levenshtein(text, atext) for atext in aux_keys], dtype=np.float64)
            add_ranked(rec.id, dists, False, dists <= LD_MAX_DISTANCE)
        return _lexical_result(kind, base, aux, k, matches)

    # Jaccard variants.
    mode = "whitespace" if kind.endswith("WS") else "char2gram"
    if kind.startswith("JK"):
        token_set = lambda r: set(tokenize(_key_text(r, key_column), mode))
    else:
        token_set = lambda r: set(prepare_sentence(r, tokenizer=mode).tokens)
    aux_sets = [token_set(r) for r in aux.records]
    for rec in base.records:
        query = token_set(rec)
        sims = np.array([jaccard(query, aset) for aset in aux_sets], dtype=np.float64)
        add_ranked(rec.id, sims, True, sims >= JACCARD_MIN_SIMILARITY)
    return _lexical_result(kind, base, aux, k, matches)


def _lexical_result(kind: str, base: Dataset, aux: Dataset, k: int, matches: list[Match]) -> JoinResult:
    spec = JoinSpec(
        base_ref=base.name,
        aux_ref=aux.name,
        join_type=JoinType.INNER,
        left_size=max(base.n, 1),
        right_size=k,
        supervision_ref=kind.lower(),
    )
    return JoinResult(matches=matches, spec=spec)

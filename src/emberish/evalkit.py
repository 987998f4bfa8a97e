"""Retrieval metrics and the baseline-vs-learned comparison harness.

Recall is record-level: a base record scores a point only when every one
of its related records appears in the top-k, which is stricter than
counting recovered edges.

``run_comparison`` takes the two datasets as their record ids plus what
its methods compare, never as records: token ids for the baselines of
whole records (``prepare.read_token_ids``), key texts for the key-column
baselines (``prepare.read_key_texts``) and embeddings for the encoders.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import SupervisionPair
from .joiner import Embeddings, JoinResult, retrieval_result
from .lexrank import (
    BASELINE_KINDS,
    baseline_tokenizer,
    key_join,
    lexical_join,
    uses_key_column,
)
from .prepare import Features

ENCODER_METHODS = ("untrained-encoder", "trained-encoder")
COMPARISON_METHODS = BASELINE_KINDS + ENCODER_METHODS


class EvalError(ValueError):
    """Metric preconditions violated or unknown comparison method."""


@dataclass(frozen=True)
class TruthSet:
    """Related records per base id; every set is non-empty."""

    related: dict[str, frozenset[str]]

    def __post_init__(self) -> None:
        for base_id, aux_ids in self.related.items():
            if not aux_ids:
                raise EvalError(f"truth set for base id {base_id!r} is empty")

    @classmethod
    def from_pairs(cls, pairs: list[SupervisionPair]) -> "TruthSet":
        related: dict[str, set[str]] = {}
        for pair in pairs:
            related.setdefault(pair.base_id, set()).add(pair.aux_id)
        return cls(related={k: frozenset(v) for k, v in related.items()})

    def __len__(self) -> int:
        return len(self.related)


def _topk_by_base(result: JoinResult, truth: TruthSet,
                  k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match the top-k rows of ``result`` against the truth edges, listed
    base by base in ``truth.related`` order. Returns each edge's base (its
    index in ``truth.related``), whether a top-k row holds the edge, and per
    truth base the best rank of a row holding one of its edges (inf if none)."""
    sizes = [len(want) for want in truth.related.values()]
    edge_base = np.repeat(np.arange(len(sizes)), sizes)
    # Truth ids as the result's positions, -1 where the result lacks one; a
    # pair's code is base position * n + aux position, and -1 for no pair.
    base_at = {rid: i for i, rid in enumerate(result.base_ids)}
    aux_at = {rid: i for i, rid in enumerate(result.aux_ids)}
    truth_base = np.array([base_at.get(rid, -1) for rid in truth.related], np.int64)
    edge_aux = np.array([aux_at.get(rid, -1) for rid in chain(*truth.related.values())],
                        np.int64)
    n = len(result.aux_ids)
    edge_base_at = truth_base[edge_base]
    edges = np.where((edge_base_at >= 0) & (edge_aux >= 0), edge_base_at * n + edge_aux, -1)
    top = (result.base >= 0) & (result.aux >= 0) & (result.rank <= k)
    base, rank = result.base[top], result.rank[top]
    pairs = base * n + result.aux[top]
    hit = np.isin(pairs, edges)
    truth_index = np.zeros(len(result.base_ids), np.int64)
    known = truth_base >= 0
    truth_index[truth_base[known]] = np.flatnonzero(known)
    best = np.full(len(sizes), np.inf)
    np.minimum.at(best, truth_index[base[hit]], rank[hit])
    return edge_base, np.isin(edges, pairs), best


def scored_rows(path: str | Path, truth: TruthSet, k: int) -> JoinResult:
    """The rows of the result file at ``path`` that ``recall_at_k`` and
    ``mrr_at_k`` read at any k up to ``k``: those of truth base records,
    ranked at most ``k``. Every line is still checked, so a malformed one
    raises ``JoinError`` naming it (``JoinResult.from_csv``)."""
    related = truth.related
    return JoinResult.from_csv(path, lambda base_id, rank: rank <= k and base_id in related)


def recall_at_k(result: JoinResult, truth: TruthSet, k: int) -> float:
    """Fraction of truth base records whose whole truth set is in the top-k."""
    if k < 1:
        raise EvalError("k must be >= 1")
    if not truth.related:
        raise EvalError("truth set is empty")
    edge_base, found, _ = _topk_by_base(result, truth, k)
    missed = np.bincount(edge_base[~found], minlength=len(truth.related))
    return int(np.count_nonzero(missed == 0)) / len(truth.related)


def mrr_at_k(result: JoinResult, truth: TruthSet, k: int = 10) -> float:
    """Mean reciprocal rank of the first relevant match in the top-k;
    a query with no relevant match in the top-k contributes 0."""
    if k < 1:
        raise EvalError("k must be >= 1")
    if not truth.related:
        raise EvalError("truth set is empty")
    _, _, best = _topk_by_base(result, truth, k)
    # A running sum in truth order, as a loop over the truth records would add.
    return float(np.add.accumulate(1.0 / best)[-1]) / len(truth.related)


@dataclass
class ComparisonTable:
    rows: list[tuple[str, int, float]]  # (method, k, recall)

    def recall(self, method: str, k: int) -> float:
        for m, kk, r in self.rows:
            if m == method and kk == k:
                return r
        raise EvalError(f"no row for method {method!r} at k={k}")

    def format_table(self) -> str:
        ks = sorted({k for _, k, _ in self.rows})
        methods = []
        for method, _, _ in self.rows:
            if method not in methods:
                methods.append(method)
        width = max(len(m) for m in methods) if methods else 6
        header = "method".ljust(width) + "".join(f"  recall@{k:<4d}" for k in ks)
        lines = [header, "-" * len(header)]
        for method in methods:
            cells = []
            for k in ks:
                try:
                    cells.append(f"  {self.recall(method, k):<11.4f}")
                except EvalError:
                    cells.append("  " + "-".ljust(11))
            lines.append(method.ljust(width) + "".join(cells))
        return "\n".join(lines)


def run_comparison(
    base_ids: Sequence[str],
    aux_ids: Sequence[str],
    truth: TruthSet,
    methods: list[str],
    ks: list[int],
    *,
    embeddings: dict[str, tuple[Embeddings, Embeddings]],
    metric: str,
    features: dict[str, Features] | None = None,
    keys: tuple[Sequence[str], Sequence[str]] | None = None,
) -> ComparisonTable:
    """Record-level recall@k for each requested method.

    A baseline of whole records joins the base and aux records, whose ids
    are ``base_ids`` and ``aux_ids``, from the token ids that ``features``
    holds under its tokenizer; a key-column baseline joins them from
    ``keys``, their texts in the key column. An encoder method retrieves
    with the ``(base, aux)`` embeddings its caller made and passed in
    ``embeddings`` under the method's name, ranked by ``metric``.
    """
    if not methods:
        raise EvalError("methods must be non-empty")
    if not ks or any(k < 1 for k in ks):
        raise EvalError("ks must be positive")
    features = features or {}
    for method in methods:
        if method not in COMPARISON_METHODS:
            raise EvalError(
                f"unknown method {method!r} (expected one of {COMPARISON_METHODS})"
            )
        if method in ENCODER_METHODS:
            missing = method not in embeddings and "its (base, aux) embeddings"
        elif uses_key_column(method):
            missing = keys is None and "the (base, aux) key texts"
        else:
            tokenizer = baseline_tokenizer(method)
            missing = tokenizer not in features and f"the {tokenizer} token ids"
        if missing:
            raise EvalError(f"{method} needs {missing}")
    kmax = max(ks)

    rows: list[tuple[str, int, float]] = []
    for method in methods:
        if method in ENCODER_METHODS:
            result = retrieval_result(*embeddings[method], kmax, metric)  # type: ignore[arg-type]
        else:
            if uses_key_column(method):
                columns = key_join(method, aux_ids, keys, k=kmax)  # type: ignore[arg-type]
            else:
                columns = lexical_join(method, aux_ids, features[baseline_tokenizer(method)],
                                       k=kmax)
            result = JoinResult.from_columns(base_ids, aux_ids, columns)
        for k in ks:
            rows.append((method, k, recall_at_k(result, truth, k)))
    return ComparisonTable(rows=rows)

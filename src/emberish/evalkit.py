"""Retrieval metrics and the baseline-vs-learned comparison harness.

Recall is record-level: a base record scores a point only when every one
of its related records appears in the top-k, which is stricter than
counting recovered edges.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .data import Dataset, SupervisionPair
from .encoder import EncoderModel, embed_dataset, fit_encoder
from .joiner import JoinResult, execute_join
from .joinspec import EngineConfig, JoinSpec, JoinType
from .lexrank import BASELINE_KINDS, lexical_join
from .prepare import token_ids

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


def recall_at_k(result: JoinResult, truth: TruthSet, k: int) -> float:
    """Fraction of truth base records whose whole truth set is in the top-k."""
    if k < 1:
        raise EvalError("k must be >= 1")
    if not truth.related:
        raise EvalError("truth set is empty")
    edge_base, found, _ = _topk_by_base(result, truth, k)
    missed = np.bincount(edge_base[~found], minlength=len(truth.related))
    return int(np.count_nonzero(missed == 0)) / len(truth.related)


def edge_recall_at_k(result: JoinResult, truth: TruthSet, k: int) -> float:
    """Edge-level companion metric: fraction of truth edges recovered."""
    if k < 1:
        raise EvalError("k must be >= 1")
    if not truth.related:
        raise EvalError("truth set is empty")
    _, found, _ = _topk_by_base(result, truth, k)
    return int(np.count_nonzero(found)) / found.size


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


def mse(predictions: dict[str, float], truth: dict[str, float]) -> float:
    """Mean squared error over the prediction ids."""
    if not predictions:
        raise EvalError("predictions must be non-empty")
    missing = [k for k in predictions if k not in truth]
    if missing:
        raise EvalError(f"predictions reference ids missing from truth: {missing[:5]}")
    return sum((predictions[k] - truth[k]) ** 2 for k in predictions) / len(predictions)


@dataclass
class ComparisonTable:
    rows: list[tuple[str, int, float]]  # (method, k, recall)

    def recall(self, method: str, k: int) -> float:
        for m, kk, r in self.rows:
            if m == method and kk == k:
                return r
        raise EvalError(f"no row for method {method!r} at k={k}")

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["method", "k", "recall"])
        for method, k, r in self.rows:
            writer.writerow([method, k, repr(r)])
        return buf.getvalue()

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


def retrieval_result(
    base_emb,
    aux_emb,
    k: int,
    metric: str = "l2",
) -> JoinResult:
    """Per-base top-k retrieval used for evaluation (no caps, no threshold)."""
    spec = JoinSpec(
        base_ref="base",
        aux_ref="aux",
        join_type=JoinType.LEFT,
        left_size=1,
        right_size=k,
        supervision_ref="eval",
    )
    return execute_join(spec, base_emb, aux_emb, metric=metric)  # type: ignore[arg-type]


def run_comparison(
    base: Dataset,
    aux: Dataset,
    truth: TruthSet,
    methods: list[str],
    ks: list[int],
    *,
    key_column: str | None = None,
    train_pairs: list[SupervisionPair] | None = None,
    config: EngineConfig | None = None,
    hash_dim: int = 1 << 16,
) -> ComparisonTable:
    """Record-level recall@k for each requested method.

    ``untrained-encoder`` is a randomly initialized encoder (the no-training
    reference point); ``trained-encoder`` fits the encoder on ``train_pairs``
    under ``config`` first.
    """
    if not methods:
        raise EvalError("methods must be non-empty")
    if not ks or any(k < 1 for k in ks):
        raise EvalError("ks must be positive")
    for method in methods:
        if method not in COMPARISON_METHODS:
            raise EvalError(
                f"unknown method {method!r} (expected one of {COMPARISON_METHODS})"
            )
    config = config or EngineConfig(data_dir=".")
    kmax = max(ks)
    # The encoder methods featurize both datasets once, together.
    if set(methods) & set(ENCODER_METHODS):
        features = token_ids([base, aux], config.tokenizer)
        vocab, (base_ids, aux_ids) = features

    rows: list[tuple[str, int, float]] = []
    for method in methods:
        if method in BASELINE_KINDS:
            result = lexical_join(method, base, aux, key_column=key_column, k=kmax)
        else:
            if method == "trained-encoder":
                if not train_pairs:
                    raise EvalError("trained-encoder requires train_pairs")
                fit = fit_encoder(base, aux, train_pairs, config, hash_dim=hash_dim,
                                  features=features)
                model = fit.model
                aux_model = fit.models[-1]
            else:
                # Only the rows of the two datasets' tokens, not the dense table.
                model = EncoderModel.create(
                    dim=config.embedding_dim,
                    hash_dim=hash_dim,
                    seed=config.seed,
                    normalize=config.normalize,
                    tokens=vocab,
                )
                aux_model = model
            base_emb = embed_dataset(model, base, features=(vocab, base_ids))
            aux_emb = embed_dataset(aux_model, aux, features=(vocab, aux_ids))
            result = retrieval_result(base_emb, aux_emb, kmax, metric=config.distance)
        for k in ks:
            rows.append((method, k, recall_at_k(result, truth, k)))
    return ComparisonTable(rows=rows)

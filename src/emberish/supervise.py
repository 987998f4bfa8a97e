"""Negative sampling, self-supervised pair building, and the synthetic
fuzzy-join workload generator.

Everything here is deterministic under a fixed seed. Row-level generation
derives its RNG as seed XOR row-index, so parallel generation can
partition work without changing output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .data import (
    DataError,
    Dataset,
    DatasetRole,
    Record,
    SupervisionPair,
    SupervisionTriple,
)
from .joiner import id_ranks
from .lexrank import Bm25Index, dataset_bm25_index, jaccard_topk, rank
from .prepare import prepare_sentence


class SampleError(ValueError):
    """Sampler or generator precondition violated."""


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = "random"  # random | stratified_bm25 | stratified_jaccard
    tier_size: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("random", "stratified_bm25", "stratified_jaccard"):
            raise SampleError(f"unknown sampler kind {self.kind!r}")
        if self.tier_size < 1:
            raise SampleError("tier_size must be >= 1")


@dataclass(frozen=True)
class PerturbationConfig:
    perturbations_per_row: int = 5  # 5 = easy preset, 15 = hard preset
    max_fraction: float = 0.25
    copies_per_row: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.max_fraction <= 1.0):
            raise SampleError("max_fraction must be in (0, 1]")
        if self.perturbations_per_row < 0:
            raise SampleError("perturbations_per_row must be >= 0")
        if self.copies_per_row < 1:
            raise SampleError("copies_per_row must be >= 1")


def build_tiers(pairs: list[SupervisionPair], base: Dataset, aux: Dataset,
                cfg: SamplerConfig, index: Bm25Index | None = None) -> dict[str, list[str]]:
    """Each anchor's top ``tier_size`` auxiliary records by BM25 or Jaccard,
    zero scores included, ties by ascending id; none for the random
    sampler. Seed-independent. All anchors are ranked in one ``rank`` call;
    the BM25 tiers query ``index``, built from ``aux`` when not given."""
    if cfg.kind == "random":
        return {}
    anchors = list(dict.fromkeys(pair.base_id for pair in pairs))  # in pair order
    queries = (prepare_sentence(base.record(anchor_id)).tokens for anchor_id in anchors)
    aux_ids = aux.ids()
    if cfg.kind == "stratified_bm25":
        index = dataset_bm25_index(aux) if index is None else index
        rows, cols, _ = rank(queries, index.scores, index.n_docs, cfg.tier_size, index.id_rank)
    else:
        rows, cols, _ = jaccard_topk(map(set, queries),
                                     [set(prepare_sentence(r).tokens) for r in aux.records],
                                     cfg.tier_size, id_ranks(aux_ids))
    tiers: dict[str, list[str]] = {anchor_id: [] for anchor_id in anchors}
    for row, col in zip(rows.tolist(), cols.tolist()):
        tiers[anchors[row]].append(aux_ids[col])
    return tiers


def sample_triples(
    pairs: list[SupervisionPair],
    base: Dataset,
    aux: Dataset,
    cfg: SamplerConfig,
    tiers: dict[str, list[str]] | None = None,
) -> list[SupervisionTriple]:
    """Turn related pairs into training triples by drawing negatives.

    The random sampler draws uniformly from the auxiliary records that are
    not known positives of the anchor. Stratified samplers draw from the
    anchor's ``build_tiers`` tier (passing ``tiers`` skips rebuilding it),
    falling back to uniform when the tier holds only positives.
    """
    if not pairs:
        raise SampleError("pairs must be non-empty")
    if aux.n < 2:
        raise SampleError("cannot sample negative: auxiliary dataset has fewer than 2 records")
    tiers = build_tiers(pairs, base, aux, cfg) if tiers is None else tiers

    positives: dict[str, set[str]] = {}
    for pair in pairs:
        positives.setdefault(pair.base_id, set()).add(pair.aux_id)

    aux_ids = list(aux.ids())
    rng = random.Random(cfg.seed)
    triples: list[SupervisionTriple] = []
    for pair in pairs:
        known = positives[pair.base_id]
        candidates = [aid for aid in tiers.get(pair.base_id, ()) if aid not in known]
        if not candidates:
            candidates = [aid for aid in aux_ids if aid not in known]
        if not candidates:
            raise SampleError(
                f"cannot sample negative: every auxiliary record is a positive "
                f"of anchor {pair.base_id!r}"
            )
        negative = rng.choice(candidates)
        triples.append(
            SupervisionTriple(
                anchor_id=pair.base_id,
                positive_id=pair.aux_id,
                negative_id=negative,
            )
        )
    return triples


def build_pretraining_pairs(
    base: Dataset,
    aux: Dataset,
    per_record: int = 1,
    seed: int = 0,
    index: Bm25Index | None = None,
) -> list[SupervisionTriple]:
    """Self-supervised triples: positive is the BM25 top-1 auxiliary match
    (ties by ascending id, a zero score included), negative is a uniform
    draw among the rest: one of ``aux.n - 1`` positions, counted past the
    positive's. Every base record is ranked in one ``rank`` call against
    ``index``, built from ``aux`` when not given."""
    if base.n == 0 or aux.n == 0:
        raise SampleError("both datasets must be non-empty")
    if aux.n < 2:
        raise SampleError("cannot sample negative: auxiliary dataset has fewer than 2 records")
    if per_record < 1:
        raise SampleError("per_record must be >= 1")

    index = dataset_bm25_index(aux) if index is None else index
    _, top, _ = rank((prepare_sentence(rec).tokens for rec in base.records), index.scores,
                     index.n_docs, 1, index.id_rank)
    aux_ids = list(aux.ids())
    aux_pos = {aid: i for i, aid in enumerate(aux_ids)}
    rng = random.Random(seed)
    triples: list[SupervisionTriple] = []
    for rec, top_id in zip(base.records, (index.ids[i] for i in top.tolist())):
        top_pos = aux_pos[top_id]
        for _ in range(per_record):
            j = rng.randrange(len(aux_ids) - 1)
            j += j >= top_pos
            triples.append(
                SupervisionTriple(
                    anchor_id=rec.id,
                    positive_id=top_id,
                    negative_id=aux_ids[j],
                )
            )
    return triples


def _value_tokens(record: Record) -> list[tuple[int, str]]:
    """Value tokens tagged with the index of the field they came from."""
    out: list[tuple[int, str]] = []
    for field_idx, (_, value) in enumerate(record.fields):
        for token in value.split():
            out.append((field_idx, token))
    return out


def _rebuild_record(record: Record, tokens: list[tuple[int, str]], new_id: str) -> Record:
    per_field: dict[int, list[str]] = {}
    for field_idx, token in tokens:
        per_field.setdefault(field_idx, []).append(token)
    fields = tuple(
        (key, " ".join(per_field.get(i, [])))
        for i, (key, _) in enumerate(record.fields)
    )
    return Record(id=new_id, fields=fields)


def edits_for_length(cfg: PerturbationConfig, token_count: int) -> int:
    """Edit budget for one row: the per-row count capped at
    floor(max_fraction * length), but never below 1 when edits were asked for."""
    if cfg.perturbations_per_row == 0:
        return 0
    cap = int(cfg.max_fraction * token_count)
    return max(1, min(cfg.perturbations_per_row, cap))


def generate_fuzzy_join(
    source: Dataset,
    cfg: PerturbationConfig,
) -> tuple[Dataset, Dataset, list[SupervisionPair]]:
    """Build a synthetic fuzzy-join workload from a source dataset.

    The auxiliary side is the source unperturbed. The base side holds
    ``copies_per_row`` perturbed variants of each source row, each edited
    by token insertion, deletion, and replacement at uniform positions;
    inserted and replacement tokens come uniformly from the source
    vocabulary. The truth links every perturbed row to its origin.
    """
    vocabulary = sorted(
        {token for rec in source.records for _, token in _value_tokens(rec)}
    )
    if not vocabulary:
        raise SampleError("source records must contain at least one value token")

    base_records: list[Record] = []
    truth: list[SupervisionPair] = []
    for row_idx, rec in enumerate(source.records):
        original = _value_tokens(rec)
        if not original:
            raise SampleError(f"source record {rec.id!r} has no value tokens")
        rng = random.Random(cfg.seed ^ row_idx)
        n_edits = edits_for_length(cfg, len(original))
        for copy_idx in range(cfg.copies_per_row):
            tokens = list(original)
            for _ in range(n_edits):
                op = rng.choice(("insert", "delete", "replace"))
                if op == "delete" and len(tokens) == 1:
                    op = "replace"  # never empty a row
                if op == "insert":
                    pos = rng.randrange(len(tokens) + 1)
                    anchor = tokens[min(pos, len(tokens) - 1)][0]
                    tokens.insert(pos, (anchor, rng.choice(vocabulary)))
                elif op == "delete":
                    pos = rng.randrange(len(tokens))
                    del tokens[pos]
                else:
                    pos = rng.randrange(len(tokens))
                    tokens[pos] = (tokens[pos][0], rng.choice(vocabulary))
            new_id = f"{rec.id}-p{copy_idx}"
            base_records.append(_rebuild_record(rec, tokens, new_id))
            truth.append(SupervisionPair(base_id=new_id, aux_id=rec.id))

    base = Dataset(
        name=f"{source.name}-perturbed",
        role=DatasetRole.BASE,
        records=tuple(base_records),
        column_names=source.column_names,
    )
    aux = Dataset(
        name=source.name,
        role=DatasetRole.AUXILIARY,
        records=source.records,
        column_names=source.column_names,
    )
    return base, aux, truth


def split_train_test(
    truth: list[SupervisionPair],
    test_fraction: float = 0.2,
    seed: int = 0,
) -> tuple[list[SupervisionPair], list[SupervisionPair]]:
    """Split supervision by origin (auxiliary) record group, so perturbed
    variants of one origin never straddle the split."""
    if not (0.0 < test_fraction < 1.0):
        raise SampleError("test_fraction must be in (0, 1)")
    if not truth:
        raise SampleError("truth must be non-empty")
    groups = sorted({pair.aux_id for pair in truth})
    if len(groups) < 2:
        raise SampleError("need at least 2 origin groups to split")
    rng = random.Random(seed)
    rng.shuffle(groups)
    n_test = int(round(test_fraction * len(groups)))
    n_test = max(1, min(n_test, len(groups) - 1))
    test_groups = set(groups[:n_test])
    train = [p for p in truth if p.aux_id not in test_groups]
    test = [p for p in truth if p.aux_id in test_groups]
    return train, test

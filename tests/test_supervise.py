"""Negative samplers, pretraining pairs, and the synthetic workload generator."""

import random

import pytest

from emberish import lexrank
from emberish.data import SupervisionPair
from emberish.lexrank import jaccard
from emberish.prepare import prepare_sentence
from emberish.supervise import (
    PerturbationConfig,
    SampleError,
    SamplerConfig,
    edits_for_length,
    generate_fuzzy_join,
    split_train_test,
)
from oracles import bm25_score
from records import by_id, dataset_from_rows, pretraining_pairs, record, sample, tiers_of


def word_rows(prefix, texts):
    return [(f"{prefix}{i}", [("t", text)]) for i, text in enumerate(texts)]


def bm25_best(record, aux, k):
    """The ids of ``aux``'s best ``k`` records for ``record`` by the BM25
    oracle over prepared tokens: descending score, ties by ascending id."""
    corpus = [prepare_sentence(r).tokens for r in aux.records]
    query = prepare_sentence(record).tokens
    scored = sorted((-bm25_score(query, tokens, corpus), r.id)
                    for r, tokens in zip(aux.records, corpus))
    return [aux_id for _, aux_id in scored[:k]]


@pytest.fixture
def small_world():
    base = dataset_from_rows("b", "base", word_rows("b", ["red shoe", "blue boot"]))
    aux = dataset_from_rows(
        "a", "auxiliary",
        word_rows("a", ["red shoe", "blue boot", "green hat", "red boot"]),
    )
    pairs = [SupervisionPair("b0", "a0"), SupervisionPair("b1", "a1")]
    return base, aux, pairs


class TestSampleTriples:
    def test_forced_negative(self):
        base = dataset_from_rows("b", "base", word_rows("b", ["x y"]))
        aux = dataset_from_rows("a", "auxiliary", word_rows("a", ["x y", "q r"]))
        pairs = [SupervisionPair("b0", "a0")]
        triples = sample(pairs, base, aux, SamplerConfig(kind="random", seed=0))
        assert triples[0].negative_id == "a1"

    def test_never_emits_known_positive(self, small_world):
        base, aux, pairs = small_world
        pairs = pairs + [SupervisionPair("b0", "a3")]
        for seed in range(25):
            cfg = SamplerConfig(kind="random", seed=seed)
            for t in sample(pairs, base, aux, cfg):
                if t.anchor_id == "b0":
                    assert t.negative_id not in {"a0", "a3"}

    def test_stratified_negative_in_bm25_tier(self, small_world):
        base, aux, pairs = small_world
        cfg = SamplerConfig(kind="stratified_bm25", tier_size=2, seed=1)
        for t in sample(pairs, base, aux, cfg):
            tier = set(bm25_best(record(base, t.anchor_id), aux, 2))
            positives = {p.aux_id for p in pairs if p.base_id == t.anchor_id}
            if tier - positives:
                assert t.negative_id in tier

    def test_stratified_jaccard_runs(self, small_world):
        base, aux, pairs = small_world
        cfg = SamplerConfig(kind="stratified_jaccard", tier_size=2, seed=1)
        triples = sample(pairs, base, aux, cfg)
        assert len(triples) == len(pairs)

    def test_stratified_jaccard_tiers_match_brute_force(self, monkeypatch):
        # Several kernel blocks; aux rows repeat, so tiers cut through ties
        # that break by ascending id.
        rng = random.Random(4)
        vocab = ["red", "blue", "shoe", "boot", "hat", "gtx"]
        texts = [" ".join(rng.sample(vocab, rng.randrange(1, 4))) for _ in range(12)]
        aux = dataset_from_rows("a", "auxiliary", [(f"a{(7 * i) % 24:02d}", [("t", text)])
                                                   for i, text in enumerate(texts * 2)])
        base = dataset_from_rows("b", "base", word_rows("b", texts + ["zz qq"]))
        pairs = [SupervisionPair(f"b{i}", aux.ids()[i]) for i in reversed(range(base.n))]
        monkeypatch.setattr(lexrank, "_LEX_CELLS", 3 * aux.n)
        tokens = lambda r: set(prepare_sentence(r).tokens)
        for tier_size in (1, 3, 30):
            tiers = tiers_of(pairs, base, aux,
                             SamplerConfig(kind="stratified_jaccard", tier_size=tier_size))
            assert list(tiers) == [p.base_id for p in pairs]
            for anchor_id, tier in tiers.items():
                anchor = tokens(record(base, anchor_id))
                expected = sorted(aux.records, key=lambda r: (-jaccard(anchor, tokens(r)), r.id))
                assert tier == [r.id for r in expected[:tier_size]]

    def test_one_triple_per_pair(self, small_world):
        base, aux, pairs = small_world
        triples = sample(pairs, base, aux, SamplerConfig(seed=3))
        assert [t.anchor_id for t in triples] == [p.base_id for p in pairs]
        assert [t.positive_id for t in triples] == [p.aux_id for p in pairs]

    def test_tiny_aux_rejected(self):
        base = dataset_from_rows("b", "base", word_rows("b", ["x"]))
        aux = dataset_from_rows("a", "auxiliary", word_rows("a", ["x"]))
        with pytest.raises(SampleError, match="cannot sample negative"):
            sample([SupervisionPair("b0", "a0")], base, aux, SamplerConfig())

    def test_empty_pairs_rejected(self, small_world):
        base, aux, _ = small_world
        with pytest.raises(SampleError, match="non-empty"):
            sample([], base, aux, SamplerConfig())

    def test_deterministic_under_seed(self, small_world):
        base, aux, pairs = small_world
        cfg = SamplerConfig(kind="stratified_bm25", seed=9)
        assert sample(pairs, base, aux, cfg) == sample(pairs, base, aux, cfg)

    def test_full_tier_degenerates_to_uniform_over_support(self, small_world):
        # tier_size = |aux|: every non-positive candidate must keep appearing.
        base, aux, pairs = small_world
        counts = {}
        for seed in range(120):
            cfg = SamplerConfig(kind="stratified_bm25", tier_size=aux.n, seed=seed)
            for t in sample(pairs, base, aux, cfg):
                if t.anchor_id == "b0":
                    counts[t.negative_id] = counts.get(t.negative_id, 0) + 1
        assert set(counts) == {"a1", "a2", "a3"}
        assert max(counts.values()) < 4 * min(counts.values())


class TestPretrainingPairs:
    def test_identical_text_is_top1_positive(self):
        base = dataset_from_rows("b", "base", word_rows("b", ["unique marker words"]))
        aux = dataset_from_rows(
            "a", "auxiliary",
            word_rows("a", ["other stuff", "unique marker words", "more filler"]),
        )
        triples = pretraining_pairs(base, aux, seed=0)
        assert triples[0].positive_id == "a1"

    def test_cardinality(self):
        base = dataset_from_rows("b", "base", word_rows("b", ["x y", "y z", "z q"]))
        aux = dataset_from_rows("a", "auxiliary", word_rows("a", ["x", "y", "z"]))
        assert len(pretraining_pairs(base, aux, per_record=2, seed=0)) == 6

    def test_positives_match_bm25_top1_oracle(self):
        rng = random.Random(4)
        vocab = [f"v{i}" for i in range(15)]
        texts = [" ".join(rng.choice(vocab) for _ in range(5)) for _ in range(30)]
        aux = dataset_from_rows("a", "auxiliary", word_rows("a", texts))
        base = dataset_from_rows("b", "base", word_rows("b", texts[:10]))
        triples = pretraining_pairs(base, aux, seed=0)
        for rec, triple in zip(base.records, triples):
            [expected] = bm25_best(rec, aux, 1)
            assert triple.positive_id == expected
            assert triple.negative_id != expected

    def test_negatives_are_a_uniform_draw_from_the_pool_without_the_positive(self):
        # The reference draws from an explicit pool; the draw that skips the
        # positive's position must give the same negatives from the same seed.
        rng = random.Random(6)
        vocab = [f"v{i}" for i in range(12)]
        texts = [" ".join(rng.choice(vocab) for _ in range(4)) for _ in range(25)]
        aux = dataset_from_rows("a", "auxiliary", word_rows("a", texts))
        base = dataset_from_rows("b", "base", word_rows("b", texts[::2]))
        for seed in range(5):
            triples = pretraining_pairs(base, aux, per_record=3, seed=seed)
            draw = random.Random(seed)
            expected = []
            for top in [t.positive_id for t in triples][::3]:
                pool = [aid for aid in aux.ids() if aid != top]
                expected += [draw.choice(pool) for _ in range(3)]
            assert [t.negative_id for t in triples] == expected


class TestGenerateFuzzyJoin:
    def source(self, n=6, tokens_per_row=8, seed=2):
        rng = random.Random(seed)
        vocab = [f"v{i}" for i in range(30)]
        texts = [" ".join(rng.choice(vocab) for _ in range(tokens_per_row)) for _ in range(n)]
        return dataset_from_rows("src", "auxiliary", word_rows("s", texts))

    def test_zero_perturbations_is_identity(self):
        source = self.source()
        cfg = PerturbationConfig(perturbations_per_row=0, copies_per_row=2, seed=1)
        base, aux, truth = generate_fuzzy_join(source, cfg)
        aux_by_id = by_id(aux)
        for pair in truth:
            assert record(base, pair.base_id).fields == aux_by_id[pair.aux_id].fields

    def test_cap_arithmetic_four_tokens_hard_preset(self):
        # floor(0.25 * 4) = 1, so even 15 requested edits collapse to one.
        assert edits_for_length(PerturbationConfig(perturbations_per_row=15), 4) == 1

    def test_at_least_one_edit_when_requested(self):
        assert edits_for_length(PerturbationConfig(perturbations_per_row=5), 2) == 1
        assert edits_for_length(PerturbationConfig(perturbations_per_row=0), 2) == 0

    def test_cardinality_and_truth_links(self):
        source = self.source(n=4)
        cfg = PerturbationConfig(perturbations_per_row=2, copies_per_row=3, seed=5)
        base, aux, truth = generate_fuzzy_join(source, cfg)
        assert base.n == 12 and aux.n == 4
        assert len(truth) == 12
        for pair in truth:
            assert pair.base_id.startswith(pair.aux_id)

    def test_edit_budget_respected(self):
        source = self.source(n=10, tokens_per_row=12, seed=7)
        cfg = PerturbationConfig(perturbations_per_row=5, copies_per_row=2, seed=3)
        base, aux, truth = generate_fuzzy_join(source, cfg)
        budget = int(0.25 * 12)
        for pair in truth:
            src_tokens = record(aux, pair.aux_id).value("t").split()
            out_tokens = record(base, pair.base_id).value("t").split()
            # Each edit changes length by at most 1 and token multiset by at most 2.
            assert abs(len(out_tokens) - len(src_tokens)) <= budget

    def test_byte_identical_reruns(self):
        source = self.source()
        cfg = PerturbationConfig(perturbations_per_row=3, copies_per_row=2, seed=9)
        first = generate_fuzzy_join(source, cfg)
        second = generate_fuzzy_join(source, cfg)
        assert first[0] == second[0]
        assert first[2] == second[2]

    def test_vocabulary_sourced_insertions(self):
        source = self.source(n=5, tokens_per_row=10, seed=8)
        vocab = {tok for r in source.records for tok in r.value("t").split()}
        cfg = PerturbationConfig(perturbations_per_row=2, copies_per_row=3, seed=4)
        base, _, _ = generate_fuzzy_join(source, cfg)
        for rec in base.records:
            assert set(rec.value("t").split()) <= vocab


class TestSplit:
    def pairs(self, n_groups=10, per_group=3):
        out = []
        for g in range(n_groups):
            for c in range(per_group):
                out.append(SupervisionPair(base_id=f"g{g}c{c}", aux_id=f"g{g}"))
        return out

    def test_group_counts(self):
        train, test = split_train_test(self.pairs(10), test_fraction=0.2, seed=0)
        test_groups = {p.aux_id for p in test}
        assert len(test_groups) == 2
        assert len(train) + len(test) == 30

    def test_no_group_straddles_split(self):
        for seed in range(10):
            train, test = split_train_test(self.pairs(12, 4), 0.25, seed=seed)
            assert {p.aux_id for p in train}.isdisjoint({p.aux_id for p in test})

    def test_deterministic(self):
        pairs = self.pairs()
        assert split_train_test(pairs, 0.2, seed=5) == split_train_test(pairs, 0.2, seed=5)

    def test_fraction_bounds(self):
        with pytest.raises(SampleError):
            split_train_test(self.pairs(), test_fraction=0.0, seed=0)
        with pytest.raises(SampleError):
            split_train_test(self.pairs(), test_fraction=1.0, seed=0)

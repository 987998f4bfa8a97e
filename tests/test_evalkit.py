"""Metric definitions and the comparison harness."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emberish.data import SupervisionPair
from emberish.evalkit import (
    EvalError,
    TruthSet,
    mrr_at_k,
    recall_at_k,
    run_comparison,
    scored_rows,
)
from emberish.joiner import JoinResult
from oracles import matches
from emberish.prepare import TOKENIZERS
from records import baseline_join, dataset_from_rows, embed_dataset, key_texts, token_ids


def ranked_result(rows):
    """rows: {base_id: [aux ids in rank order]}"""
    return JoinResult.from_ids((base_id, aux_id, rank, float(rank))
                               for base_id, aux_ids in rows.items()
                               for rank, aux_id in enumerate(aux_ids, start=1))


def truth(mapping):
    return TruthSet(related={k: frozenset(v) for k, v in mapping.items()})


class TestRecall:
    def test_perfect_singletons(self):
        result = ranked_result({"q1": ["a"], "q2": ["b"]})
        assert recall_at_k(result, truth({"q1": {"a"}, "q2": {"b"}}), 1) == 1.0

    def test_record_level_strictness(self):
        # Two truth matches, only one retrieved inside top-k: contributes zero.
        result = ranked_result({"q1": ["a", "x", "y"]})
        ts = truth({"q1": {"a", "b"}})
        assert recall_at_k(result, ts, 3) == 0.0

    def test_hand_counted_fixture(self):
        result = ranked_result({
            "q1": ["a"],           # full truth at rank 1      -> 1
            "q2": ["x", "b"],      # truth {b} found at rank 2 -> 1 for k>=2
            "q3": ["x", "y"],      # truth {c} missing         -> 0
            "q4": ["d", "e"],      # truth {d, e} both in top2 -> 1
            "q5": ["f", "x"],      # truth {f, g}: g missing   -> 0
        })
        ts = truth({
            "q1": {"a"}, "q2": {"b"}, "q3": {"c"}, "q4": {"d", "e"}, "q5": {"f", "g"},
        })
        assert recall_at_k(result, ts, 1) == pytest.approx(1 / 5)
        assert recall_at_k(result, ts, 2) == pytest.approx(3 / 5)

    def test_monotone_in_k(self):
        rng = random.Random(0)
        aux_ids = [f"a{i}" for i in range(12)]
        rows = {}
        ts = {}
        for q in range(8):
            order = rng.sample(aux_ids, 6)
            rows[f"q{q}"] = order
            ts[f"q{q}"] = set(rng.sample(aux_ids, rng.randrange(1, 3)))
        result = ranked_result(rows)
        values = [recall_at_k(result, truth(ts), k) for k in range(1, 7)]
        assert values == sorted(values)

    def test_base_ids_missing_from_truth_excluded(self):
        result = ranked_result({"q1": ["a"], "unlabeled": ["zzz"]})
        assert recall_at_k(result, truth({"q1": {"a"}}), 1) == 1.0

    def test_invariant_under_row_permutation(self):
        rng = random.Random(7)
        aux_ids = [f"a{i}" for i in range(8)]
        rows = {f"q{i}": rng.sample(aux_ids, 4) for i in range(6)}
        ts = truth({f"q{i}": {rng.choice(aux_ids)} for i in range(6)})
        result = ranked_result(rows)
        rows = [(m.base_id, m.aux_id, m.rank, m.score) for m in matches(result)]
        rng.shuffle(rows)
        shuffled = JoinResult.from_ids(rows)
        for k in (1, 2, 4):
            assert recall_at_k(result, ts, k) == recall_at_k(shuffled, ts, k)
            assert mrr_at_k(result, ts, k) == mrr_at_k(shuffled, ts, k)


class TestMrr:
    def test_all_rank_one(self):
        result = ranked_result({"q1": ["a"], "q2": ["b"]})
        assert mrr_at_k(result, truth({"q1": {"a"}, "q2": {"b"}}), 10) == 1.0

    def test_first_relevant_at_rank_three(self):
        result = ranked_result({"q1": ["x", "y", "a"]})
        assert mrr_at_k(result, truth({"q1": {"a"}}), 10) == pytest.approx(1 / 3)

    def test_no_relevant_in_top_k_contributes_zero(self):
        result = ranked_result({"q1": ["x", "y"], "q2": ["b"]})
        ts = truth({"q1": {"a"}, "q2": {"b"}})
        assert mrr_at_k(result, ts, 10) == pytest.approx(0.5)

    def test_mrr1_equals_recall1_for_singletons(self):
        rng = random.Random(5)
        aux_ids = [f"a{i}" for i in range(8)]
        rows = {f"q{i}": rng.sample(aux_ids, 4) for i in range(10)}
        ts = {f"q{i}": {rng.choice(aux_ids)} for i in range(10)}
        result = ranked_result(rows)
        assert mrr_at_k(result, truth(ts), 1) == recall_at_k(result, truth(ts), 1)

    def test_monotone_in_k(self):
        result = ranked_result({"q1": ["x", "a"], "q2": ["y", "z", "b"]})
        ts = truth({"q1": {"a"}, "q2": {"b"}})
        values = [mrr_at_k(result, ts, k) for k in (1, 2, 3)]
        assert values == sorted(values)


def reference_metrics(rows, related, k):
    """Recall and MRR at k computed row by row, grouping
    ``(base_id, aux_id, rank)`` rows per base id."""
    per_base = {}
    for base_id, aux_id, rank in rows:
        if base_id is not None and aux_id is not None and rank <= k:
            per_base.setdefault(base_id, []).append((rank, aux_id))
    hits, mrr = 0, 0.0
    for base_id, want in related.items():
        ranked = sorted(per_base.get(base_id, []))
        got = {aux_id for _, aux_id in ranked}
        hits += want <= got
        mrr += next((1.0 / rank for rank, aux_id in ranked if aux_id in want), 0.0)
    return hits / len(related), mrr / len(related)


result_rows = st.lists(st.tuples(
    st.one_of(st.none(), st.sampled_from(["b0", "b1", "b2", "b3"])),
    st.one_of(st.none(), st.sampled_from(["a0", "a1", "a2", "a3", "a4"])),
    st.integers(1, 6),
))
# Truth ids b4, b5, a5 and a6 never appear in a result.
truth_sets = st.dictionaries(
    st.sampled_from(["b0", "b1", "b2", "b3", "b4", "b5"]),
    st.frozensets(st.sampled_from(["a0", "a1", "a2", "a3", "a4", "a5", "a6"]), min_size=1),
    min_size=1,
)


class TestMetricsAgainstRowReference:
    @settings(max_examples=300, deadline=None)
    @given(rows=result_rows, related=truth_sets, k=st.integers(1, 7))
    def test_recall_and_mrr(self, rows, related, k):
        # ABSENT rows (a None side) carry rank 0 and no score, as in result.csv.
        rows = [(b, a, r if b is not None and a is not None else 0) for b, a, r in rows]
        result = JoinResult.from_ids(
            (b, a, r, float(r) if r else float("nan")) for b, a, r in rows)
        ts = TruthSet(related=related)
        assert (recall_at_k(result, ts, k), mrr_at_k(result, ts, k)) == \
            reference_metrics(rows, related, k)

    @settings(max_examples=200, deadline=None)
    @given(rows=result_rows, related=truth_sets, kmax=st.integers(1, 7))
    def test_scored_rows_give_a_full_reads_metrics(self, tmp_path_factory, rows, related,
                                                   kmax):
        # Rows of base ids outside the truth, ABSENT rows on either side and
        # ranks above kmax are dropped; the metrics at every k up to kmax
        # are those of the whole file.
        rows = [(b, a, r if b is not None and a is not None else 0) for b, a, r in rows]
        path = tmp_path_factory.mktemp("scored") / "result.csv"
        JoinResult.from_ids((b, a, r, float(r) if r else float("nan"))
                            for b, a, r in rows).write_csv(path)
        ts = TruthSet(related=related)
        full, kept = JoinResult.from_csv(path), scored_rows(path, ts, kmax)
        assert set(kept.base_ids) <= set(related) and (kept.rank <= kmax).all()
        for k in range(1, kmax + 1):
            assert recall_at_k(kept, ts, k) == recall_at_k(full, ts, k)
            assert mrr_at_k(kept, ts, k) == mrr_at_k(full, ts, k)


class TestTruthSet:
    def test_from_pairs(self):
        ts = TruthSet.from_pairs([SupervisionPair("b0", "a0"), SupervisionPair("b0", "a1")])
        assert ts.related["b0"] == {"a0", "a1"}

    def test_empty_set_rejected(self):
        with pytest.raises(EvalError, match="empty"):
            TruthSet(related={"b0": frozenset()})


def tiny_world():
    rng = random.Random(0)
    vocab = [f"v{i}" for i in range(20)]
    aux_rows = [
        (f"a{i}", [("name", " ".join(rng.choice(vocab) for _ in range(4)))])
        for i in range(20)
    ]
    aux = dataset_from_rows("aux", "auxiliary", aux_rows)
    base_rows = [(f"b{i}", aux_rows[i][1]) for i in range(10)]  # exact copies
    base = dataset_from_rows("base", "base", base_rows)
    ts = truth({f"b{i}": {f"a{i}"} for i in range(10)})
    return base, aux, ts


def compare(base, aux, ts, methods, ks, key_column="name", **kwargs):
    """``run_comparison`` of two in-memory datasets, given their token ids
    under every tokenizer and their ``key_column`` texts."""
    features = {tokenizer: token_ids([base, aux], tokenizer) for tokenizer in TOKENIZERS}
    return run_comparison(base.ids(), aux.ids(), ts, methods, ks, features=features,
                          keys=key_texts([base, aux], key_column), **kwargs)


class TestRunComparison:
    def test_single_cell_table(self):
        base, aux, ts = tiny_world()
        table = compare(base, aux, ts, ["BM25"], [1], embeddings={}, metric="l2")
        assert len(table.rows) == 1
        assert table.rows[0][0] == "BM25" and table.rows[0][1] == 1

    def test_exact_copies_give_ld_recall_one(self):
        base, aux, ts = tiny_world()
        table = compare(base, aux, ts, ["LD"], [1], embeddings={}, metric="l2",
                        key_column="name")
        assert table.recall("LD", 1) == 1.0

    def test_values_match_individual_recall_calls(self):
        from emberish.encoder import EncoderModel
        from emberish.joiner import retrieval_result

        base, aux, ts = tiny_world()
        model = EncoderModel.create(dim=16, hash_dim=256, seed=0)
        embeddings = (embed_dataset(model, base), embed_dataset(model, aux))
        table = compare(
            base, aux, ts, ["BM25", "untrained-encoder"], [1, 5],
            embeddings={"untrained-encoder": embeddings}, metric="l2",
        )
        bm = baseline_join("BM25", base, aux, k=5)
        for k in (1, 5):
            assert table.recall("BM25", k) == recall_at_k(bm, ts, k)
        res = retrieval_result(embed_dataset(model, base), embed_dataset(model, aux), 5)
        for k in (1, 5):
            assert table.recall("untrained-encoder", k) == recall_at_k(res, ts, k)

    @pytest.mark.parametrize("method", ["untrained-encoder", "trained-encoder"])
    def test_encoder_method_requires_its_embeddings(self, method):
        base, aux, ts = tiny_world()
        with pytest.raises(EvalError, match=f"{method} needs its"):
            compare(base, aux, ts, ["BM25", method], [1], embeddings={}, metric="l2")

    @pytest.mark.parametrize("method, needs", [
        ("BM25", "the whitespace token ids"),
        ("J-2G", "the char2gram token ids"),
        ("LD", "the (base, aux) key texts"),
        ("JK-WS", "the (base, aux) key texts"),
    ])
    def test_a_baseline_requires_what_it_joins(self, method, needs):
        # A baseline of whole records joins token ids, a key-column
        # baseline its column's texts.
        base, aux, ts = tiny_world()
        with pytest.raises(EvalError, match=re.escape(f"{method} needs {needs}")):
            run_comparison(base.ids(), aux.ids(), ts, [method], [1], embeddings={},
                           metric="l2", features={"whitespace": token_ids([base, aux])}
                           if method != "BM25" else None)

    def test_unknown_method(self):
        base, aux, ts = tiny_world()
        with pytest.raises(EvalError, match="unknown method"):
            compare(base, aux, ts, ["word2vec"], [1], embeddings={}, metric="l2")

    def test_table_render(self):
        base, aux, ts = tiny_world()
        table = compare(base, aux, ts, ["BM25"], [1, 10], embeddings={}, metric="l2")
        assert "BM25" in table.format_table()

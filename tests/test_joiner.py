"""Index retrieval exactness, join semantics algebra, chaining, aggregation."""

import numpy as np
import pytest

from emberish import joiner
from emberish.joiner import (
    JoinError,
    JoinResult,
    Match,
    aggregate_labels,
    build_index,
    chain_joins,
    execute_join,
    id_ranks,
    knn,
    load_embeddings,
    save_embeddings,
    topk,
)
from emberish.joinspec import JoinSpec, JoinType


def vec(*values):
    return np.array(values, dtype=np.float64)


def grid_embeddings(prefix, n, d, seed):
    rng = np.random.default_rng(seed)
    return [(f"{prefix}{i}", rng.normal(size=d)) for i in range(n)]


class TestIndexAndKnn:
    def test_single_entry(self):
        index = build_index([("only", vec(1.0, 2.0))])
        assert knn(index, vec(0.0, 0.0), 3) == [("only", pytest.approx(np.sqrt(5)))]

    def test_duplicate_vectors_tie_break_by_id(self):
        index = build_index([("b", vec(1.0)), ("a", vec(1.0))])
        assert [rid for rid, _ in knn(index, vec(1.0), 2)] == ["a", "b"]

    def test_hand_arithmetic_three_points(self):
        index = build_index([("a", vec(0, 0)), ("b", vec(1, 0)), ("c", vec(0, 2))])
        out = knn(index, vec(0.6, 0.0), 2)
        assert out[0] == ("b", pytest.approx(0.4))
        assert out[1] == ("a", pytest.approx(0.6))

    def test_query_equal_to_indexed_vector(self):
        index = build_index([("x", vec(3.0, 4.0)), ("y", vec(0.0, 0.0))])
        assert knn(index, vec(3.0, 4.0), 1) == [("x", 0.0)]

    def test_threshold_excludes_everything(self):
        index = build_index([("x", vec(10.0)), ("y", vec(20.0))])
        assert knn(index, vec(0.0), 2, threshold=1.0) == []

    def test_inner_product_direction(self):
        index = build_index([("low", vec(1.0, 0.0)), ("high", vec(5.0, 0.0))],
                            metric="inner_product")
        out = knn(index, vec(1.0, 0.0), 2)
        assert [rid for rid, _ in out] == ["high", "low"]
        assert knn(index, vec(1.0, 0.0), 2, threshold=2.0) == [("high", 5.0)]

    def test_dimension_mismatch(self):
        with pytest.raises(JoinError, match="dimension"):
            build_index([("a", vec(1.0)), ("b", vec(1.0, 2.0))])
        index = build_index([("a", vec(1.0, 2.0))])
        with pytest.raises(JoinError, match="dimension"):
            knn(index, vec(1.0), 1)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(JoinError, match="unique"):
            build_index([("a", vec(1.0)), ("a", vec(2.0))])

    @pytest.mark.parametrize("metric", ["l2", "inner_product"])
    def test_knn_equals_exhaustive_sort(self, metric):
        rng = np.random.default_rng(42)
        for trial in range(30):
            n, d = int(rng.integers(2, 60)), int(rng.integers(1, 9))
            entries = [(f"r{i}", rng.normal(size=d)) for i in range(n)]
            index = build_index(entries, metric=metric)
            query = rng.normal(size=d)
            if metric == "l2":
                scored = sorted(
                    ((float(np.linalg.norm(v - query)), rid) for rid, v in entries),
                )
            else:
                scored = sorted(
                    ((-float(v @ query), rid) for rid, v in entries),
                )
            for k in (1, 5, n):
                got = [rid for rid, _ in knn(index, query, k)]
                assert got == [rid for _, rid in scored[:k]]

    def test_normalized_vectors_make_metrics_agree(self):
        rng = np.random.default_rng(0)
        entries = []
        for i in range(40):
            v = rng.normal(size=6)
            entries.append((f"r{i}", v / np.linalg.norm(v)))
        q = rng.normal(size=6)
        q /= np.linalg.norm(q)
        l2 = [rid for rid, _ in knn(build_index(entries, "l2"), q, 40)]
        ip = [rid for rid, _ in knn(build_index(entries, "inner_product"), q, 40)]
        assert l2 == ip


class TestTopk:
    @staticmethod
    def oracle(scores, k, ids, descending, keep):
        sign = -1.0 if descending else 1.0
        kept = [i for i in range(len(scores)) if keep[i]]
        return sorted(kept, key=lambda i: (sign * scores[i], ids[i]))[:k]

    @pytest.mark.parametrize("descending", [False, True])
    def test_equals_sorted_with_duplicates_and_masks(self, descending):
        rng = np.random.default_rng(5)
        for trial in range(200):
            m, n = int(rng.integers(1, 5)), int(rng.integers(0, 30))
            # Few distinct values, so most scores are tied.
            scores = rng.integers(0, 4, size=(m, n)).astype(np.float64) * 0.5
            ids = [f"r{j:02d}" for j in rng.permutation(n)]
            keep = rng.random((m, n)) < 0.7
            keep[0] = False if trial % 7 == 0 else keep[0]  # an all-masked row
            k = int(rng.integers(1, n + 3))  # k > n too
            rows, cols = topk(scores, k, id_ranks(ids), descending, keep)
            for r in range(m):
                got = cols[rows == r].tolist()
                assert got == self.oracle(scores[r], k, ids, descending, keep[r])
            assert rows.tolist() == sorted(rows.tolist())

    def test_one_row_without_mask(self):
        rows, cols = topk(np.array([3.0, 1.0, 1.0, 2.0]), 2, np.array([3, 2, 0, 1]), False)
        assert rows.tolist() == [0, 0]
        assert cols.tolist() == [2, 1]

    def test_all_masked_row_is_empty(self):
        rows, cols = topk(np.array([1.0, 2.0]), 1, np.array([0, 1]), True,
                          np.array([False, False]))
        assert rows.size == cols.size == 0

    def test_id_ranks_follow_string_order(self):
        assert id_ranks(["b", "a10", "a9", "a"]).tolist() == [3, 1, 2, 0]


class TestBlockedScan:
    @pytest.mark.parametrize("metric", ["l2", "inner_product"])
    def test_multi_block_join_equals_per_query_knn(self, metric, monkeypatch):
        rng = np.random.default_rng(70)
        aux = grid_embeddings("a", 12, 3, 71)
        aux[7] = ("a7", aux[2][1].copy())  # a duplicated index vector
        shared = rng.normal(size=3)
        base = [(f"b{i:02d}", rng.normal(size=3)) for i in range(11)]
        # Equal queries on both sides of the boundary between 4-row blocks.
        base[3] = ("b03", shared.copy())
        base[4] = ("b04", shared.copy())
        monkeypatch.setattr(joiner, "_BLOCK_CELLS", 4 * len(aux))
        s = spec(JoinType.LEFT, right=3)
        result = execute_join(s, base, aux, metric=metric, threshold=None)
        index = build_index(aux, metric)
        expected = [(bid, aid, rank, score) for bid, vec in base
                    for rank, (aid, score) in enumerate(knn(index, vec, 3), start=1)]
        got = [(m.base_id, m.aux_id, m.rank, m.score) for m in result.matches]
        assert got == expected
        if metric == "l2":
            oracle = [sorted(((float(np.linalg.norm(v - q)), aid) for aid, v in aux))[:3]
                      for _, q in base]
            assert [aid for _, aid, _, _ in got] == [aid for o in oracle for _, aid in o]

    def test_l2_near_ties_far_from_origin(self):
        # Vectors 1e6 from the origin: the shortlist product rounds by ~1e-4
        # in squared distance, far more than the 1e-7 gaps between these
        # candidates, so only a band scaled by the norms keeps all of them.
        rng = np.random.default_rng(80)
        d = 8
        offset = rng.normal(size=d)
        offset *= 1e6 / np.linalg.norm(offset)
        directions = rng.normal(size=(40, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = 1.0 + 1e-7 * rng.permutation(40)
        radii[5] = radii[6]  # one exact tie, broken by id
        entries = [(f"r{i:02d}", offset + radii[i] * directions[i]) for i in range(40)]
        entries.append(("r40", entries[5][1].copy()))
        entries += [(f"far{i}", offset + 3.0 * directions[i]) for i in range(10)]
        index = build_index(entries)
        query = offset.copy()
        expected = sorted((float(np.linalg.norm(v - query)), rid) for rid, v in entries)
        for k in (1, 5, 12, 41):
            assert [rid for rid, _ in knn(index, query, k)] == [rid for _, rid in expected[:k]]

    def test_scores_are_the_difference_formula_bits(self):
        rng = np.random.default_rng(90)
        unit = lambda v: v / np.linalg.norm(v)
        base = [(f"b{i}", unit(rng.normal(size=200))) for i in range(40)]
        aux = [(f"a{i}", unit(rng.normal(size=200))) for i in range(300)]
        aux_matrix = np.array([v for _, v in aux])
        row = {aid: j for j, (aid, _) in enumerate(aux)}

        def exact(q):
            diff = aux_matrix - q
            return np.sqrt(np.einsum("ij,ij->i", diff, diff))

        index = build_index(aux)
        for _, q in base[:5]:
            scores = exact(q)
            assert all(s == scores[row[aid]] for aid, s in knn(index, q, 10))
            ip = build_index(aux, "inner_product")
            assert all(s == (aux_matrix @ q)[row[aid]] for aid, s in knn(ip, q, 10))
        result = execute_join(spec(JoinType.LEFT, right=10), base, aux)
        base_vec = dict(base)
        for m in result.matches:
            assert m.score == exact(base_vec[m.base_id])[row[m.aux_id]]


def spec(join_type, left=1, right=1):
    return JoinSpec("base", "aux", join_type, left, right, "s")


class TestExecuteJoin:
    def line_embeddings(self):
        base = [(f"b{i}", vec(float(i), 0.0)) for i in range(4)]
        aux = [(f"a{i}", vec(float(i) + 0.1, 0.0)) for i in range(6)]
        return base, aux

    def test_left_join_emits_absent_when_threshold_kills(self):
        base = [("b0", vec(0.0)), ("b1", vec(100.0))]
        aux = [("a0", vec(0.5))]
        result = execute_join(spec(JoinType.LEFT, right=1), base, aux, threshold=1.0)
        rows = {m.base_id: m for m in result.matches}
        assert rows["b0"].aux_id == "a0"
        assert rows["b1"].aux_id is None

    def test_inner_indexes_larger_side(self):
        base, aux = self.line_embeddings()
        result = execute_join(spec(JoinType.INNER, left=6, right=2), base, aux)
        per_base = {}
        for m in result.matches:
            per_base.setdefault(m.base_id, []).append(m)
        assert all(len(v) <= 2 for v in per_base.values())
        assert all(m.direction == "forward" for m in result.matches)

    def test_inner_reverse_direction_when_base_larger(self):
        base, aux = self.line_embeddings()
        result = execute_join(spec(JoinType.INNER, left=2, right=6), aux, base)
        # aux side (6) larger than base side (4): base queries... here the roles
        # are swapped, so the smaller side (base arg = aux list here) queries.
        assert all(not m.absent for m in result.matches)

    def test_inner_dual_execution_identical(self):
        rng = np.random.default_rng(9)
        base = grid_embeddings("b", 20, 4, 1)
        aux = grid_embeddings("a", 30, 4, 2)
        s = spec(JoinType.INNER, left=3, right=2)
        natural = execute_join(s, base, aux, index_side="auto")
        transposed = execute_join(s, base, aux, index_side="base")
        assert natural.to_csv_text() == transposed.to_csv_text()

    def test_left_equals_inner_plus_absent_rows(self):
        # Caps non-binding: left_size = |base| so INNER keeps per-base lists.
        base = grid_embeddings("b", 10, 3, 3)
        aux = grid_embeddings("a", 10, 3, 4)
        inner = execute_join(spec(JoinType.INNER, left=10, right=2), base, aux, threshold=2.5)
        left = execute_join(spec(JoinType.LEFT, left=10, right=2), base, aux, threshold=2.5)
        inner_pairs = inner.matched_pairs()
        left_pairs = left.matched_pairs()
        assert inner_pairs == left_pairs
        absent_base = {m.base_id for m in left.matches if m.absent}
        matched_base = {b for b, _ in left_pairs}
        assert absent_base == {rid for rid, _ in base} - matched_base

    def test_inner_subset_of_full(self):
        base = grid_embeddings("b", 10, 3, 5)
        aux = grid_embeddings("a", 10, 3, 6)
        inner = execute_join(spec(JoinType.INNER, left=10, right=2), base, aux)
        full = execute_join(spec(JoinType.FULL, left=10, right=2), base, aux)
        assert inner.matched_pairs() <= full.matched_pairs()

    def test_right_mirrors_left(self):
        base = grid_embeddings("b", 10, 3, 7)
        aux = grid_embeddings("a", 10, 3, 8)
        left = execute_join(spec(JoinType.LEFT, left=2, right=2), base, aux, threshold=2.0)
        right = execute_join(spec(JoinType.RIGHT, left=2, right=2), aux, base, threshold=2.0)
        # Swapping the datasets and mirroring the join type yields mirrored pairs.
        mirrored = {(a, b) for b, a in right.matched_pairs()}
        assert left.matched_pairs() == mirrored

    def test_full_join_absent_on_both_sides(self):
        base = [("b0", vec(0.0)), ("b_far", vec(500.0))]
        aux = [("a0", vec(0.1)), ("a_far", vec(-500.0))]
        result = execute_join(spec(JoinType.FULL), base, aux, threshold=1.0)
        absent_base = {m.base_id for m in result.matches if m.aux_id is None}
        absent_aux = {m.aux_id for m in result.matches if m.base_id is None}
        assert absent_base == {"b_far"}
        assert absent_aux == {"a_far"}

    def test_full_deduplicates_shared_pairs(self):
        base = [("b0", vec(0.0))]
        aux = [("a0", vec(0.0))]
        result = execute_join(spec(JoinType.FULL), base, aux)
        assert len(result.matches) == 1

    def test_inner_per_aux_cap_enforced(self):
        # Both base records closest to a0; left_size=1 keeps only the better one.
        base = [("b0", vec(0.0)), ("b1", vec(0.2))]
        aux = [("a0", vec(0.1)), ("a1", vec(50.0)), ("a2", vec(60.0))]
        result = execute_join(spec(JoinType.INNER, left=1, right=1), base, aux)
        winners = [m for m in result.matches if m.aux_id == "a0"]
        assert len(winners) == 1
        assert winners[0].base_id == "b0"  # distance 0.1 beats 0.1? no: |0-0.1| < |0.2-0.1|

    def test_ranks_contiguous_after_cap(self):
        rng = np.random.default_rng(13)
        base = grid_embeddings("b", 8, 2, 14)
        aux = grid_embeddings("a", 12, 2, 15)
        result = execute_join(spec(JoinType.INNER, left=2, right=4), base, aux)
        per_query = {}
        for m in result.matches:
            per_query.setdefault(m.base_id, []).append(m.rank)
        for ranks in per_query.values():
            assert ranks == list(range(1, len(ranks) + 1))

    def test_sizes_exceeding_corpus_allowed(self):
        base = [("b0", vec(0.0))]
        aux = [("a0", vec(1.0)), ("a1", vec(2.0))]
        result = execute_join(spec(JoinType.LEFT, right=99), base, aux)
        assert len(result.for_base("b0")) == 2

    def test_empty_side_rejected(self):
        with pytest.raises(JoinError, match="at least one"):
            execute_join(spec(JoinType.INNER), [], [("a", vec(1.0))])

    def test_deterministic_output(self):
        base = grid_embeddings("b", 15, 3, 20)
        aux = grid_embeddings("a", 25, 3, 21)
        s = spec(JoinType.FULL, left=2, right=3)
        r1 = execute_join(s, base, aux).to_csv_text()
        r2 = execute_join(s, base, aux).to_csv_text()
        assert r1 == r2

    def test_inner_product_metric_join(self):
        rng = np.random.default_rng(60)
        base = [(f"b{i}", v / np.linalg.norm(v)) for i, v in
                enumerate(rng.normal(size=(5, 4)))]
        aux = [(f"a{i}", v / np.linalg.norm(v)) for i, v in
               enumerate(rng.normal(size=(9, 4)))]
        l2 = execute_join(spec(JoinType.LEFT, right=3), base, aux, metric="l2")
        ip = execute_join(spec(JoinType.LEFT, right=3), base, aux, metric="inner_product")
        # Unit vectors: both metrics rank identically.
        assert [(m.base_id, m.aux_id, m.rank) for m in l2.matches] == [
            (m.base_id, m.aux_id, m.rank) for m in ip.matches
        ]

    def test_scores_ordered_in_better_direction(self):
        rng = np.random.default_rng(61)
        base = grid_embeddings("b", 6, 3, 62)
        aux = grid_embeddings("a", 10, 3, 63)
        for metric, better_first in (("l2", True), ("inner_product", False)):
            result = execute_join(spec(JoinType.LEFT, right=5), base, aux, metric=metric)
            per_base = {}
            for m in result.matches:
                if not m.absent:
                    per_base.setdefault(m.base_id, []).append((m.rank, m.score))
            for entries in per_base.values():
                scores = [s for _, s in sorted(entries)]
                if better_first:
                    assert scores == sorted(scores)
                else:
                    assert scores == sorted(scores, reverse=True)


class TestChainJoins:
    def test_single_stage_equals_execute_join(self):
        base = grid_embeddings("b", 6, 3, 30)
        aux = grid_embeddings("a", 8, 3, 31)
        s = spec(JoinType.INNER, left=6, right=2)
        index = build_index(aux)
        chained = chain_joins(base, [(s, index)])
        direct = execute_join(s, base, aux)
        assert chained.matched_pairs() == direct.matched_pairs()

    def test_two_hop_composes_bijections(self):
        # Hop truths are bijections: x_i -> y_{sigma(i)} -> z_{tau(sigma(i))}.
        rng = np.random.default_rng(33)
        n = 5
        sigma = list(rng.permutation(n))
        tau = list(rng.permutation(n))
        inv_sigma = {sigma[i]: i for i in range(n)}
        inv_tau = {tau[j]: j for j in range(n)}

        d0 = [(f"x{i}", vec(10.0 * i, 0.0)) for i in range(n)]
        d1 = [(f"y{j}", vec(10.0 * inv_sigma[j] + 0.1, 0.0)) for j in range(n)]
        d2 = [(f"z{m}", vec(10.0 * inv_sigma[inv_tau[m]] + 0.2, 0.0)) for m in range(n)]

        one = spec(JoinType.INNER, left=n, right=1)
        result = chain_joins(d0, [(one, build_index(d1)), (one, build_index(d2))])
        assert len(result.matches) == n
        for m in result.matches:
            i = int(m.base_id[1:])
            assert m.path == (f"y{sigma[i]}",)
            assert m.aux_id == f"z{tau[sigma[i]]}"

    def test_path_lists_one_id_per_hop(self):
        base = grid_embeddings("b", 3, 2, 40)
        mid = grid_embeddings("m", 4, 2, 41)
        last = grid_embeddings("z", 5, 2, 42)
        stages = [
            (spec(JoinType.INNER, right=1), build_index(mid)),
            (spec(JoinType.INNER, right=1), build_index(last)),
        ]
        result = chain_joins(base, stages)
        for m in result.matches:
            assert len(m.path) == 1
            assert m.path[0].startswith("m")
            assert m.aux_id.startswith("z")

    def test_two_hop_equals_nested_knn(self):
        # Reference: every origin's hits expanded hop by hop with knn, then
        # re-ranked by score and endpoint id, stable in expansion order.
        base = grid_embeddings("b", 6, 2, 43)
        mid = grid_embeddings("m", 5, 2, 44)
        mid[3] = ("m3", mid[1][1].copy())
        last = grid_embeddings("z", 7, 2, 45)
        last[4] = ("z4", last[0][1].copy())
        stages = [(spec(JoinType.INNER, right=3), build_index(mid)),
                  (spec(JoinType.INNER, right=2), build_index(last))]
        expected = []
        for bid, vec in base:
            entries = []
            for mid_id, _ in knn(stages[0][1], vec, 3):
                mid_vec = dict(mid)[mid_id]
                for hit_id, score in knn(stages[1][1], mid_vec, 2):
                    entries.append((score, hit_id, (mid_id,)))
            entries.sort(key=lambda e: (e[0], e[1]))
            expected += [(bid, hit, rank, score, path)
                         for rank, (score, hit, path) in enumerate(entries, start=1)]
        result = chain_joins(base, stages)
        assert [(m.base_id, m.aux_id, m.rank, m.score, m.path)
                for m in result.matches] == expected

    def test_empty_chain_rejected(self):
        with pytest.raises(JoinError, match="at least one stage"):
            chain_joins([("b", vec(1.0))], [])


class TestAggregateLabels:
    def result_with(self, entries):
        matches = [
            Match(base_id=b, aux_id=a, rank=r, score=s) for b, a, r, s in entries
        ]
        return JoinResult(matches=matches)

    def test_k1_takes_top_label(self):
        result = self.result_with([("b0", "a0", 1, 0.1), ("b0", "a1", 2, 0.2)])
        out = aggregate_labels(result, {"a0": 5.0, "a1": 99.0}, k=1)
        assert out == {"b0": 5.0}

    def test_mean_of_top_two(self):
        result = self.result_with([("b0", "a0", 1, 0.1), ("b0", "a1", 2, 0.2)])
        out = aggregate_labels(result, {"a0": 2.0, "a1": 4.0}, k=2)
        assert out == {"b0": 3.0}

    def test_absent_rows_contribute_nothing(self):
        result = JoinResult(matches=[
            Match(base_id="b0", aux_id="a0", rank=1, score=0.0),
            Match(base_id="b1", aux_id=None, rank=0, score=float("nan")),
        ])
        out = aggregate_labels(result, {"a0": 1.0}, k=3)
        assert out == {"b0": 1.0}

    def test_missing_label_rejected(self):
        result = self.result_with([("b0", "a0", 1, 0.1)])
        with pytest.raises(JoinError, match="label"):
            aggregate_labels(result, {}, k=1)


class TestResultCsv:
    def test_round_trip(self, tmp_path):
        result = JoinResult(matches=[
            Match(base_id="b0", aux_id="a0", rank=1, score=0.25),
            Match(base_id="b1", aux_id=None, rank=0, score=float("nan")),
        ])
        path = tmp_path / "r.csv"
        result.write_csv(path)
        loaded = JoinResult.from_csv(path)
        assert loaded.matches[0].base_id == "b0"
        assert loaded.matches[0].score == 0.25
        assert loaded.matches[1].aux_id is None

    def test_header(self):
        result = JoinResult(matches=[])
        assert result.to_csv_text().splitlines()[0] == "base_id,aux_id,rank,score"


class TestEmbeddingsFile:
    def test_round_trip(self, tmp_path):
        emb = grid_embeddings("e", 7, 5, 50)
        path = tmp_path / "emb.bin"
        save_embeddings(emb, path)
        loaded = load_embeddings(path)
        assert [rid for rid, _ in loaded] == [rid for rid, _ in emb]
        for (_, v1), (_, v2) in zip(emb, loaded):
            assert np.array_equal(v1, v2)

    def test_truncation_detected(self, tmp_path):
        emb = grid_embeddings("e", 3, 4, 51)
        path = tmp_path / "emb.bin"
        save_embeddings(emb, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(JoinError, match="truncated"):
            load_embeddings(path)

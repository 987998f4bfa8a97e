"""Index retrieval exactness, join semantics algebra, chaining, aggregation."""

import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from emberish.data import SupervisionPair
from emberish.evalkit import TruthSet, mrr_at_k, recall_at_k
from emberish.joinspec import JoinSpec, JoinType


# Record ids with the characters CSV must quote, and any other non-empty text.
record_ids = st.text(st.one_of(st.sampled_from(',"\r\n \u00e9\u2192'),
                               st.characters(blacklist_categories=("Cs",))), min_size=1)


def vec(*values):
    return np.array(values, dtype=np.float64)


def pair(entries):
    """Embeddings ``(ids, matrix)`` from a list of ``(id, vector)`` entries."""
    return tuple(rid for rid, _ in entries), np.array([v for _, v in entries], dtype=np.float64)


def grid_embeddings(prefix, n, d, seed):
    rng = np.random.default_rng(seed)
    return tuple(f"{prefix}{i}" for i in range(n)), rng.normal(size=(n, d))


class TestIndexAndKnn:
    def test_single_entry(self):
        index = build_index(pair([("only", vec(1.0, 2.0))]))
        assert knn(index, vec(0.0, 0.0), 3) == [("only", pytest.approx(np.sqrt(5)))]

    def test_duplicate_vectors_tie_break_by_id(self):
        index = build_index(pair([("b", vec(1.0)), ("a", vec(1.0))]))
        assert [rid for rid, _ in knn(index, vec(1.0), 2)] == ["a", "b"]

    def test_hand_arithmetic_three_points(self):
        index = build_index(pair([("a", vec(0, 0)), ("b", vec(1, 0)), ("c", vec(0, 2))]))
        out = knn(index, vec(0.6, 0.0), 2)
        assert out[0] == ("b", pytest.approx(0.4))
        assert out[1] == ("a", pytest.approx(0.6))

    def test_query_equal_to_indexed_vector(self):
        index = build_index(pair([("x", vec(3.0, 4.0)), ("y", vec(0.0, 0.0))]))
        assert knn(index, vec(3.0, 4.0), 1) == [("x", 0.0)]

    def test_threshold_excludes_everything(self):
        index = build_index(pair([("x", vec(10.0)), ("y", vec(20.0))]))
        assert knn(index, vec(0.0), 2, threshold=1.0) == []

    def test_inner_product_direction(self):
        index = build_index(pair([("low", vec(1.0, 0.0)), ("high", vec(5.0, 0.0))]),
                            metric="inner_product")
        out = knn(index, vec(1.0, 0.0), 2)
        assert [rid for rid, _ in out] == ["high", "low"]
        assert knn(index, vec(1.0, 0.0), 2, threshold=2.0) == [("high", 5.0)]

    def test_dimension_mismatch(self):
        index = build_index(pair([("a", vec(1.0, 2.0))]))
        with pytest.raises(JoinError, match="dimension"):
            knn(index, vec(1.0), 1)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(JoinError, match="unique"):
            build_index(pair([("a", vec(1.0)), ("a", vec(2.0))]))

    @pytest.mark.parametrize("metric", ["l2", "inner_product"])
    def test_knn_equals_exhaustive_sort(self, metric):
        rng = np.random.default_rng(42)
        for trial in range(30):
            n, d = int(rng.integers(2, 60)), int(rng.integers(1, 9))
            entries = [(f"r{i}", rng.normal(size=d)) for i in range(n)]
            index = build_index(pair(entries), metric=metric)
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
        l2 = [rid for rid, _ in knn(build_index(pair(entries), "l2"), q, 40)]
        ip = [rid for rid, _ in knn(build_index(pair(entries), "inner_product"), q, 40)]
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
    @pytest.mark.parametrize("rescore_cells", [joiner._RESCORE_CELLS, 5])
    @pytest.mark.parametrize("metric", ["l2", "inner_product"])
    def test_multi_block_join_equals_per_query_knn(self, metric, rescore_cells, monkeypatch):
        rng = np.random.default_rng(70)
        aux = grid_embeddings("a", 12, 3, 71)
        aux[1][7] = aux[1][2]  # a duplicated index vector
        shared = rng.normal(size=3)
        base = [(f"b{i:02d}", rng.normal(size=3)) for i in range(11)]
        # Equal queries on both sides of the boundary between 4-row blocks.
        base[3] = ("b03", shared.copy())
        base[4] = ("b04", shared.copy())
        monkeypatch.setattr(joiner, "_BLOCK_CELLS", 4 * len(aux))
        monkeypatch.setattr(joiner, "_RESCORE_CELLS", rescore_cells)
        s = spec(JoinType.LEFT, right=3)
        result = execute_join(s, pair(base), aux, metric=metric, threshold=None)
        index = build_index(aux, metric)
        expected = [(bid, aid, rank, score) for bid, vec in base
                    for rank, (aid, score) in enumerate(knn(index, vec, 3), start=1)]
        got = [(m.base_id, m.aux_id, m.rank, m.score) for m in result.matches]
        assert got == expected
        if metric == "l2":
            oracle = [sorted(((float(np.linalg.norm(v - q)), aid) for aid, v in zip(*aux)))[:3]
                      for _, q in base]
            assert [aid for _, aid, _, _ in got] == [aid for o in oracle for _, aid in o]

    @pytest.mark.parametrize("rescore_cells", [joiner._RESCORE_CELLS, 5])
    @pytest.mark.parametrize("threshold", [None, 1.5])
    def test_l2_shortlist_ranking_equals_sorted_oracle(self, threshold, rescore_cells,
                                                       monkeypatch):
        # Small integer vectors, so most distances tie and ids decide; blocks
        # of three queries, so a block boundary falls between equal queries;
        # a re-scoring step of 5 cells takes 2 to 6 pairs.
        monkeypatch.setattr(joiner, "_BLOCK_CELLS", 3 * 25)
        monkeypatch.setattr(joiner, "_RESCORE_CELLS", rescore_cells)
        rng = np.random.default_rng(90)
        for trial in range(60):
            n, m, d = int(rng.integers(1, 25)), int(rng.integers(1, 9)), int(rng.integers(1, 4))
            ids = [f"r{j:02d}" for j in rng.permutation(n)]
            vectors = rng.integers(0, 3, size=(n, d)).astype(np.float64)
            queries = rng.integers(0, 3, size=(m, d)).astype(np.float64)
            k = int(rng.integers(1, n + 2))
            rows, cols, scores = joiner._search(build_index((ids, vectors)), queries, k,
                                                threshold)
            for q, query in enumerate(queries):
                ranked = sorted((float(np.linalg.norm(v - query)), rid)
                                for rid, v in zip(ids, vectors))
                expected = [(sc, rid) for sc, rid in ranked
                            if threshold is None or sc <= threshold][:k]
                mine = rows == q
                got = [(sc, ids[c]) for sc, c in zip(scores[mine].tolist(), cols[mine].tolist())]
                assert got == expected, trial
            assert rows.tolist() == sorted(rows.tolist())

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
        index = build_index(pair(entries))
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

        index = build_index(pair(aux))
        for _, q in base[:5]:
            scores = exact(q)
            assert all(s == scores[row[aid]] for aid, s in knn(index, q, 10))
            ip = build_index(pair(aux), "inner_product")
            assert all(s == (aux_matrix @ q)[row[aid]] for aid, s in knn(ip, q, 10))
        result = execute_join(spec(JoinType.LEFT, right=10), pair(base), pair(aux))
        base_vec = dict(base)
        for m in result.matches:
            assert m.score == exact(base_vec[m.base_id])[row[m.aux_id]]

    @pytest.mark.parametrize("metric, threshold", [("l2", None), ("l2", 10.0),
                                                   ("inner_product", None)])
    def test_scan_holds_its_output_and_a_few_blocks(self, metric, threshold):
        # tracemalloc sees numpy's buffers. An l2 scan holds a 4 MB block of
        # scores and its partitioned copy; an inner-product scan holds the
        # block and topk's key, which is partitioned a few rows at a time.
        # The output is counted twice, as its per-block parts and their
        # concatenation. 64 candidates of 64 floats per query make the
        # shortlist re-scoring as large as a block if it is done in one step.
        rng = np.random.default_rng(95)
        index = build_index(grid_embeddings("r", 2048, 64, 96), metric)
        queries = rng.normal(size=(1024, 64))
        tracemalloc.start()
        try:
            rows, cols, scores = joiner._search(index, queries, 64, threshold)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if threshold is not None:
            assert 0 < rows.size < 1024 * 64
        output = rows.nbytes + cols.nbytes + scores.nbytes
        assert peak <= 2 * output + 2.5 * 8 * (1 << 19)


def spec(join_type, left=1, right=1):
    return JoinSpec("base", "aux", join_type, left, right, "s")


class TestExecuteJoin:
    def line_embeddings(self):
        base = [(f"b{i}", vec(float(i), 0.0)) for i in range(4)]
        aux = [(f"a{i}", vec(float(i) + 0.1, 0.0)) for i in range(6)]
        return pair(base), pair(aux)

    def test_left_join_emits_absent_when_threshold_kills(self):
        base = [("b0", vec(0.0)), ("b1", vec(100.0))]
        aux = [("a0", vec(0.5))]
        result = execute_join(spec(JoinType.LEFT, right=1), pair(base), pair(aux), threshold=1.0)
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

    @pytest.mark.parametrize("metric", ["l2", "inner_product"])
    @pytest.mark.parametrize("join_type", list(JoinType))
    def test_dual_execution_every_join_type(self, join_type, metric):
        # Indexing the querying side gives the same rows; l2 scores are the
        # same bits, inner-product scores may differ in the last digits.
        base = grid_embeddings("b", 20, 4, 11)
        aux = grid_embeddings("a", 30, 4, 12)
        s = spec(join_type, left=3, right=2)
        natural = execute_join(s, base, aux, metric=metric)
        for side in ("base", "aux"):
            other = execute_join(s, base, aux, metric=metric, index_side=side)
            assert [(m.base_id, m.aux_id, m.rank) for m in other.matches] == [
                (m.base_id, m.aux_id, m.rank) for m in natural.matches]
            np.testing.assert_allclose([m.score for m in other.matches],
                                       [m.score for m in natural.matches], rtol=0, atol=1e-12)
            if metric == "l2":
                assert other.to_csv_text() == natural.to_csv_text()

    def test_one_index_per_retrieval_direction(self, monkeypatch):
        built = []
        original = joiner.EmbeddingIndex.__post_init__

        def counting(index):
            built.append(len(index.ids))
            original(index)

        monkeypatch.setattr(joiner.EmbeddingIndex, "__post_init__", counting)
        base, aux = grid_embeddings("b", 5, 3, 1), grid_embeddings("a", 8, 3, 2)
        execute_join(spec(JoinType.LEFT, right=2), base, aux)
        assert built == [8]
        built.clear()
        execute_join(spec(JoinType.FULL, left=2, right=2), base, aux)
        assert built == [8, 5]

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
        assert absent_base == set(base[0]) - matched_base

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
        result = execute_join(spec(JoinType.FULL), pair(base), pair(aux), threshold=1.0)
        absent_base = {m.base_id for m in result.matches if m.aux_id is None}
        absent_aux = {m.aux_id for m in result.matches if m.base_id is None}
        assert absent_base == {"b_far"}
        assert absent_aux == {"a_far"}

    def test_full_deduplicates_shared_pairs(self):
        base = [("b0", vec(0.0))]
        aux = [("a0", vec(0.0))]
        result = execute_join(spec(JoinType.FULL), pair(base), pair(aux))
        assert len(result.matches) == 1

    def test_inner_per_aux_cap_enforced(self):
        # Both base records closest to a0; left_size=1 keeps only the better one.
        base = [("b0", vec(0.0)), ("b1", vec(0.2))]
        aux = [("a0", vec(0.1)), ("a1", vec(50.0)), ("a2", vec(60.0))]
        result = execute_join(spec(JoinType.INNER, left=1, right=1), pair(base), pair(aux))
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
        result = execute_join(spec(JoinType.LEFT, right=99), pair(base), pair(aux))
        assert len(result.for_base("b0")) == 2

    def test_empty_side_rejected(self):
        with pytest.raises(JoinError, match="at least one"):
            execute_join(spec(JoinType.INNER), pair([]), pair([("a", vec(1.0))]))

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
        l2 = execute_join(spec(JoinType.LEFT, right=3), pair(base), pair(aux), metric="l2")
        ip = execute_join(spec(JoinType.LEFT, right=3), pair(base), pair(aux),
                          metric="inner_product")
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


def _reference_rows(spec, base_emb, aux_emb, metric, threshold, index_side, both_directions):
    """The result builder as it was before results became columnar: ranked
    candidates per query id, a per-target cap over them, one row per
    candidate and a set of seen pairs for FULL. Returns
    ``(base_id, aux_id, rank, score, direction)`` rows."""

    def retrieve(query_emb, target_emb, k, index_on):
        query_ids, query_vectors = query_emb
        if index_on == "target":
            index = build_index(target_emb, metric)
            rows, cols, scores = joiner._search(index, query_vectors, k, threshold)
            hits = [[] for _ in query_ids]
            for row, col, score in zip(rows.tolist(), cols.tolist(), scores.tolist()):
                hits[row].append((index.ids[col], score))
            return dict(zip(query_ids, hits))
        index = build_index(query_emb, metric)
        per_query = {qid: [] for qid in query_ids}
        for tid, tvec in zip(*target_emb):
            for qid, score in knn(index, tvec, index.n, threshold=None):
                per_query[qid].append((tid, score))
        sign = 1.0 if metric == "l2" else -1.0
        out = {}
        for qid, cands in per_query.items():
            if threshold is not None:
                if metric == "l2":
                    cands = [c for c in cands if c[1] <= threshold]
                else:
                    cands = [c for c in cands if c[1] >= threshold]
            cands.sort(key=lambda c: (sign * c[1], c[0]))
            out[qid] = cands[:k]
        return out

    def ranked(retrieved, query_order, direction, absent=False):
        rows = []
        for qid in query_order:
            hits = retrieved.get(qid) or ([(None, float("nan"))] if absent else [])
            for rank, (tid, score) in enumerate(hits, start=1):
                pair = (qid, tid) if direction == "forward" else (tid, qid)
                rows.append((*pair, rank if tid is not None else 0, score, direction))
        return rows

    def cap_per_target(retrieved, cap):
        by_target = {}
        for qid, cands in retrieved.items():
            for tid, score in cands:
                by_target.setdefault(tid, []).append((score, qid))
        dropped = set()
        for tid, entries in by_target.items():
            if len(entries) > cap:
                scores, qids = zip(*entries)
                _, best = topk(scores, cap, id_ranks(qids), metric != "l2")
                dropped.update((qids[i], tid) for i in set(range(len(qids))) - set(best.tolist()))
        return {qid: [(tid, score) for tid, score in cands if (qid, tid) not in dropped]
                for qid, cands in retrieved.items()}

    base_order, aux_order = base_emb[0], aux_emb[0]
    strategy = {side: "query" if index_side == side else "target" for side in ("base", "aux")}
    jt = spec.join_type
    if jt == JoinType.LEFT:
        fwd = retrieve(base_emb, aux_emb, spec.right_size, strategy["base"])
        return ranked(fwd, base_order, "forward", True)
    if jt == JoinType.RIGHT:
        rev = retrieve(aux_emb, base_emb, spec.left_size, strategy["aux"])
        return ranked(rev, aux_order, "reverse", True)
    if jt == JoinType.FULL or both_directions:
        fwd = retrieve(base_emb, aux_emb, spec.right_size, strategy["base"])
        rev = retrieve(aux_emb, base_emb, spec.left_size, strategy["aux"])
        rows = ranked(fwd, base_order, "forward")
        seen = {(b, a) for b, a, *_ in rows}
        rows += [r for r in ranked(rev, aux_order, "reverse") if (r[0], r[1]) not in seen]
        if jt == JoinType.FULL:
            matched_base, matched_aux = {r[0] for r in rows}, {r[1] for r in rows}
            rows += ranked({}, [b for b in base_order if b not in matched_base], "forward", True)
            rows += ranked({}, [a for a in aux_order if a not in matched_aux], "reverse", True)
        return rows
    forward = len(base_order) <= len(aux_order)
    queries, targets = (base_emb, aux_emb) if forward else (aux_emb, base_emb)
    k, cap = (spec.right_size, spec.left_size) if forward else (spec.left_size, spec.right_size)
    retrieved = retrieve(queries, targets, k, strategy["base" if forward else "aux"])
    if cap < len(queries[0]):
        retrieved = cap_per_target(retrieved, cap)
    return ranked(retrieved, queries[0], "forward" if forward else "reverse")


def _reference_csv(rows):
    lines = ["base_id,aux_id,rank,score"]
    for base_id, aux_id, rank, score, _ in rows:
        absent = base_id is None or aux_id is None
        lines.append(f"{base_id or ''},{aux_id or ''},{rank},{'' if absent else repr(score)}")
    return "\n".join(lines) + "\n"


def tied_grid(prefix, n, seed):
    """Integer 2-d vectors on a 3 x 3 grid, so many scores tie exactly, under
    ids whose storage order is not their ascending order."""
    rng = np.random.default_rng(seed)
    return (tuple(f"{prefix}{j}" for j in rng.permutation(n)),
            rng.integers(0, 3, size=(n, 2)).astype(np.float64))


class TestResultBuilderOracle:
    @pytest.mark.parametrize("sizes", [(9, 13), (13, 9)])
    @pytest.mark.parametrize("metric, threshold", [("l2", None), ("l2", 1.0),
                                                   ("inner_product", None),
                                                   ("inner_product", 3.0)])
    @pytest.mark.parametrize("index_side", ["auto", "base", "aux"])
    @pytest.mark.parametrize("join_type, both_directions",
                             [(jt, False) for jt in JoinType] + [(JoinType.INNER, True)])
    def test_rows_and_bytes_match_reference(self, sizes, metric, threshold, index_side,
                                            join_type, both_directions):
        base, aux = tied_grid("b", sizes[0], sizes[0]), tied_grid("a", sizes[1], 7 * sizes[1])
        s = spec(join_type, left=2, right=3)
        args = (metric, threshold, index_side, both_directions)
        expected = _reference_rows(s, base, aux, *args)
        result = execute_join(s, base, aux, *args)
        assert [(m.base_id, m.aux_id, m.rank, repr(m.score), m.direction)
                for m in result.matches] == [(*r[:3], repr(r[3]), r[4]) for r in expected]
        assert result.to_csv_text() == _reference_csv(expected)

    def test_no_match_objects_from_join_to_metrics(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("a Match was built on the result path")

        monkeypatch.setattr(Match, "__init__", refuse)
        base, aux = tied_grid("b", 9, 1), tied_grid("a", 13, 2)
        truth = TruthSet.from_pairs([SupervisionPair(b, a) for b, a in zip(base[0], aux[0])])
        for join_type in (JoinType.LEFT, JoinType.INNER):
            execute_join(spec(join_type, left=2, right=3), base, aux,
                         threshold=1.0).write_csv(tmp_path / "result.csv")
            loaded = JoinResult.from_csv(tmp_path / "result.csv")
            assert 0.0 <= recall_at_k(loaded, truth, 3) <= 1.0
            assert 0.0 <= mrr_at_k(loaded, truth, 3) <= 1.0
            assert aggregate_labels(loaded, dict.fromkeys(aux[0], 1.0), 2)
        with pytest.raises(AssertionError, match="Match"):
            loaded.matches


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
        stages = [(one, build_index(pair(d1))), (one, build_index(pair(d2)))]
        result = chain_joins(pair(d0), stages)
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
        mid[1][3] = mid[1][1]
        last = grid_embeddings("z", 7, 2, 45)
        last[1][4] = last[1][0]
        stages = [(spec(JoinType.INNER, right=3), build_index(mid)),
                  (spec(JoinType.INNER, right=2), build_index(last))]
        expected = []
        for bid, vec in zip(*base):
            entries = []
            for mid_id, _ in knn(stages[0][1], vec, 3):
                mid_vec = dict(zip(*mid))[mid_id]
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
            chain_joins(pair([("b", vec(1.0))]), [])


class TestAggregateLabels:
    def result_with(self, entries):
        return JoinResult.from_ids(entries)

    def test_k1_takes_top_label(self):
        result = self.result_with([("b0", "a0", 1, 0.1), ("b0", "a1", 2, 0.2)])
        out = aggregate_labels(result, {"a0": 5.0, "a1": 99.0}, k=1)
        assert out == {"b0": 5.0}

    def test_mean_of_top_two(self):
        result = self.result_with([("b0", "a0", 1, 0.1), ("b0", "a1", 2, 0.2)])
        out = aggregate_labels(result, {"a0": 2.0, "a1": 4.0}, k=2)
        assert out == {"b0": 3.0}

    def test_absent_rows_contribute_nothing(self):
        result = JoinResult.from_ids([
            ("b0", "a0", 1, 0.0),
            ("b1", None, 0, float("nan")),
        ])
        out = aggregate_labels(result, {"a0": 1.0}, k=3)
        assert out == {"b0": 1.0}

    def test_missing_label_rejected(self):
        result = self.result_with([("b0", "a0", 1, 0.1)])
        with pytest.raises(JoinError, match="label"):
            aggregate_labels(result, {}, k=1)


class TestResultCsv:
    def test_round_trip(self, tmp_path):
        result = JoinResult.from_ids([
            ("b0", "a0", 1, 0.25),
            ("b1", None, 0, float("nan")),
        ])
        path = tmp_path / "r.csv"
        result.write_csv(path)
        loaded = JoinResult.from_csv(path)
        assert loaded.matches[0].base_id == "b0"
        assert loaded.matches[0].score == 0.25
        assert loaded.matches[1].aux_id is None

    def test_header(self):
        result = JoinResult.from_ids([])
        assert result.to_csv_text().splitlines()[0] == "base_id,aux_id,rank,score"

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(
        st.one_of(st.none(), record_ids), st.one_of(st.none(), record_ids),
        st.integers(1, 2**40), st.floats(allow_nan=False))))
    def test_round_trip_keeps_ids_and_score_bits(self, tmp_path, rows):
        # An ABSENT row (a None side) has rank 0 and an empty score.
        rows = [(b, a, r, s) if b is not None and a is not None else (b, a, 0, float("nan"))
                for b, a, r, s in rows]
        result = JoinResult.from_ids(rows)
        path = tmp_path / "r.csv"
        result.write_csv(path)
        loaded = JoinResult.from_csv(path)
        assert loaded.to_csv_text() == result.to_csv_text()
        assert [(m.base_id, m.aux_id, m.rank, repr(m.score)) for m in loaded.matches] == [
            (b, a, r, repr(s)) for b, a, r, s in rows]

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), pool=st.lists(record_ids, min_size=1, max_size=4),
           carriage_return=st.booleans())
    def test_read_columns_equal_from_ids(self, tmp_path, data, pool, carriage_return):
        # A few ids drawn again and again, so ids repeat within each side and
        # across them; one id holding a bare "\r" quotes every field.
        if carriage_return:
            pool.append("b\r")
        side = st.one_of(st.none(), st.sampled_from(pool))
        rows = data.draw(st.lists(st.tuples(side, side, st.integers(1, 2**40),
                                            st.floats(allow_nan=False)), max_size=30))
        rows = [(b, a, r, s) if b is not None and a is not None else (b, a, 0, float("nan"))
                for b, a, r, s in rows]
        expected = JoinResult.from_ids(rows)
        expected.write_csv(tmp_path / "r.csv")
        loaded = JoinResult.from_csv(tmp_path / "r.csv")
        assert (loaded.base_ids, loaded.aux_ids) == (expected.base_ids, expected.aux_ids)
        for name in ("base", "aux", "rank", "reverse"):
            got, want = getattr(loaded, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), name
        assert loaded.score.dtype == np.float64
        assert loaded.score.view(np.int64).tolist() == expected.score.view(np.int64).tolist()
        assert loaded.path is None

    def test_reading_holds_the_columns_and_a_few_mb(self, tmp_path):
        # 100k rows: 10k base records with 10 matches each among 2k aux records.
        n = 100_000
        rng = np.random.default_rng(97)
        written = JoinResult(tuple(f"b{i:05d}" for i in range(n // 10)),
                             tuple(f"a{i:04d}" for i in range(2000)),
                             np.repeat(np.arange(n // 10), 10), rng.integers(0, 2000, n),
                             np.tile(np.arange(1, 11), n // 10), rng.random(n),
                             np.zeros(n, bool))
        written.write_csv(tmp_path / "r.csv")
        tracemalloc.start()
        try:
            loaded = JoinResult.from_csv(tmp_path / "r.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = sum(getattr(loaded, name).nbytes
                      for name in ("base", "aux", "rank", "score", "reverse"))
        assert loaded.to_csv_text() == written.to_csv_text()
        assert peak <= columns + (4 << 20)

    def test_a_malformed_line_far_into_the_file_is_named(self, tmp_path):
        # An id holding "\n" spans two physical lines; line numbers count both.
        lines = ["base_id,aux_id,rank,score", '"b\n0",a0,1,0.5']
        lines += [f"b{i},a{i % 7},1,0.25" for i in range(1, 20_500)]
        path = tmp_path / "r.csv"
        path.write_text("\n".join([*lines, "b0,a0,first,0.5", "b1,a1,1,0.5"]) + "\n")
        bad = len(lines) + 2
        with pytest.raises(JoinError, match=f"r.csv: line {bad}: expected an id pair, an "
                                            "integer rank and a score, found "
                                            r"\['b0', 'a0', 'first', '0.5'\]"):
            JoinResult.from_csv(path)

    @staticmethod
    def streamed_cases():
        base, aux = tied_grid("b", 9, 1), tied_grid("a", 13, 2)
        left = execute_join(spec(JoinType.LEFT, right=2), base, aux, threshold=0.5)
        full = execute_join(spec(JoinType.FULL, left=1, right=1), base, aux, threshold=1.0)
        # The only id holding "\r" is in the last row: every field of the
        # file is quoted all the same.
        carriage = JoinResult.from_ids([(f"b{i}", f"a{i}", 1, i / 4) for i in range(6)]
                                       + [("b\r6", "a6", 1, 0.5)])
        return {"left-absent": left, "full": full, "empty": JoinResult.from_ids([]),
                "carriage-return-last": carriage}

    @pytest.mark.parametrize("case", ["left-absent", "full", "empty", "carriage-return-last"])
    def test_streamed_file_equals_the_one_chunk_text(self, case, tmp_path, monkeypatch):
        result = self.streamed_cases()[case]
        whole = result.to_csv_text()
        if case == "left-absent":
            assert (result.aux < 0).any()
        if case == "carriage-return-last":
            assert whole.startswith('"base_id","aux_id","rank","score"\n"b0","a0","1","0.0"\n')
        monkeypatch.setattr(joiner, "_WRITE_ROWS", 2)
        result.write_csv(tmp_path / "result.csv")
        assert (tmp_path / "result.csv").read_bytes() == whole.encode("utf-8")
        assert result.to_csv_text() == whole
        assert [p.name for p in tmp_path.iterdir()] == ["result.csv"]

    def test_a_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "result.csv"
        JoinResult.from_ids([("b0", "a0", 1, 0.5)]).write_csv(path)
        old = path.read_bytes()
        monkeypatch.setattr(joiner, "_WRITE_ROWS", 2)
        # Room for the header and the first chunk.
        full_disk(monkeypatch, len("base_id,aux_id,rank,score\n") + 2 * len("b0,a0,1,0.25\n"))
        result = JoinResult.from_ids([(f"b{i}", f"a{i}", 1, 0.25) for i in range(5)])
        with pytest.raises(OSError, match="No space"):
            result.write_csv(path)
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["result.csv"]


def full_disk(monkeypatch, room):
    """Make every file opened through ``Path.open`` fail once more than
    ``room`` characters or bytes have been written to it."""
    real_open = Path.open

    class FullDisk:
        def __init__(self, fh):
            self.fh, self.room = fh, room

        def write(self, data):
            self.room -= len(data)
            if self.room < 0:
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(Path, "open", lambda p, *a, **kw: FullDisk(real_open(p, *a, **kw)))


class TestEmbeddingsFile:
    def test_round_trip(self, tmp_path):
        emb = grid_embeddings("e", 7, 5, 50)
        path = tmp_path / "emb.bin"
        save_embeddings(emb, path)
        loaded = load_embeddings(path)
        assert list(loaded[0]) == list(emb[0])
        for v1, v2 in zip(emb[1], loaded[1]):
            assert np.array_equal(v1, v2)

    def test_truncation_detected(self, tmp_path):
        emb = grid_embeddings("e", 3, 4, 51)
        path = tmp_path / "emb.bin"
        save_embeddings(emb, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(JoinError, match="truncated"):
            load_embeddings(path)

    def test_a_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "emb.bin"
        save_embeddings(grid_embeddings("e", 3, 4, 53), path)
        old = path.read_bytes()
        # Room for the header and the first record of three.
        full_disk(monkeypatch, 24 + 4 + len("e0") + 8 * 4)
        with pytest.raises(OSError, match="No space"):
            save_embeddings(grid_embeddings("e", 3, 4, 54), path)
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["emb.bin"]

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        save_embeddings(grid_embeddings("e", 3, 4, 52), path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(JoinError, match="trailing"):
            load_embeddings(path)

    def test_v1_byte_layout(self, tmp_path):
        ids = ("b0", "caf\u00e9-\u2192")
        vectors = np.array([[1.5, -2.0, 0.25], [3.0, 1e-300, -0.0]])
        expected = struct.pack("<4sIQQ", b"KJEB", 1, 2, 3)
        for rid, row in zip(ids, vectors):
            encoded = rid.encode("utf-8")
            expected += struct.pack("<I", len(encoded)) + encoded + struct.pack("<3d", *row)
        path = tmp_path / "emb.bin"
        save_embeddings((ids, vectors), path)
        assert path.read_bytes() == expected
        loaded_ids, loaded = load_embeddings(path)
        assert loaded_ids == ids
        assert np.array_equal(loaded, vectors)

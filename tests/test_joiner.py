"""Index retrieval exactness, join semantics algebra, chaining, aggregation."""

import hashlib
import os
import struct
import subprocess
import sys
import tracemalloc
from contextlib import closing
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from emberish import joiner
from emberish.joiner import (
    JoinError,
    JoinResult,
    aggregate_labels,
    build_index,
    chain_joins,
    execute_join,
    id_ranks,
    load_embeddings,
    save_embeddings,
    topk,
)
from emberish.data import SupervisionPair
from emberish.evalkit import TruthSet, mrr_at_k, recall_at_k
from emberish.joinspec import JoinSpec, JoinType
from oracles import (csv_writer_text, exact_topk, for_base, knn, matched_pairs, matches,
                     scan_queries, to_csv_text)


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


def search(index, query, k, threshold=None):
    """The engine's top-k of one query as ``(id, score)`` pairs, which must
    equal the ``knn`` oracle's, scores bit for bit."""
    _, cols, scores = scan_queries(index, np.asarray(query, np.float64)[None], k, threshold)
    found = [(index.ids[c], s) for c, s in zip(cols.tolist(), scores.tolist())]
    assert found == knn(index, query, k, threshold)
    return found


def file_side(path):
    """A join side read from its embeddings file, whole or in blocks."""
    def read(rows):
        with closing(joiner.read_embeddings(path, rows=rows)) as blocks:
            for _, vectors in blocks:
                yield vectors

    return joiner.Side(joiner.embeddings_ids(path), read)


class TestIndexAndKnn:
    def test_single_entry(self):
        index = build_index(pair([("only", vec(1.0, 2.0))]))
        assert search(index, vec(0.0, 0.0), 3) == [("only", pytest.approx(np.sqrt(5)))]

    def test_duplicate_vectors_tie_break_by_id(self):
        index = build_index(pair([("b", vec(1.0)), ("a", vec(1.0))]))
        assert [rid for rid, _ in search(index, vec(1.0), 2)] == ["a", "b"]

    def test_hand_arithmetic_three_points(self):
        index = build_index(pair([("a", vec(0, 0)), ("b", vec(1, 0)), ("c", vec(0, 2))]))
        out = search(index, vec(0.6, 0.0), 2)
        assert out[0] == ("b", pytest.approx(0.4))
        assert out[1] == ("a", pytest.approx(0.6))

    def test_query_equal_to_indexed_vector(self):
        index = build_index(pair([("x", vec(3.0, 4.0)), ("y", vec(0.0, 0.0))]))
        assert search(index, vec(3.0, 4.0), 1) == [("x", 0.0)]

    def test_threshold_excludes_everything(self):
        index = build_index(pair([("x", vec(10.0)), ("y", vec(20.0))]))
        assert search(index, vec(0.0), 2, threshold=1.0) == []

    def test_inner_product_direction(self):
        index = build_index(pair([("low", vec(1.0, 0.0)), ("high", vec(5.0, 0.0))]),
                            metric="inner_product")
        out = search(index, vec(1.0, 0.0), 2)
        assert [rid for rid, _ in out] == ["high", "low"]
        assert search(index, vec(1.0, 0.0), 2, threshold=2.0) == [("high", 5.0)]

    def test_dimension_mismatch(self):
        index = build_index(pair([("a", vec(1.0, 2.0))]))
        with pytest.raises(JoinError, match="dimension"):
            search(index, vec(1.0), 1)

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
                got = [rid for rid, _ in search(index, query, k)]
                assert got == [rid for _, rid in scored[:k]]

    def test_normalized_vectors_make_metrics_agree(self):
        rng = np.random.default_rng(0)
        entries = []
        for i in range(40):
            v = rng.normal(size=6)
            entries.append((f"r{i}", v / np.linalg.norm(v)))
        q = rng.normal(size=6)
        q /= np.linalg.norm(q)
        l2 = [rid for rid, _ in search(build_index(pair(entries), "l2"), q, 40)]
        ip = [rid for rid, _ in search(build_index(pair(entries), "inner_product"), q, 40)]
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
    # Re-scoring steps of 5, 12, 24 and 36 cells over the 12 index rows put
    # 1, 1, 2 and 3 query rows in each partitioned chunk of an l2 block.
    @pytest.mark.parametrize("rescore_cells", [joiner._RESCORE_CELLS, 5, 12, 24, 36])
    @pytest.mark.parametrize("metric", ["l2", "inner_product"])
    def test_multi_block_join_equals_per_query_knn(self, metric, rescore_cells, monkeypatch):
        rng = np.random.default_rng(70)
        aux = grid_embeddings("a", 12, 3, 71)
        aux[1][7] = aux[1][2]  # a duplicated index vector
        shared = rng.normal(size=3)
        base = [(f"b{i:02d}", rng.normal(size=3)) for i in range(11)]
        # Equal queries on both sides of the boundary between 4-row blocks,
        # and on both sides of every chunk boundary within rows 4 to 7.
        base[3] = ("b03", shared.copy())
        base[4] = ("b04", shared.copy())
        tied = rng.normal(size=3)
        for i in (5, 6, 7):
            base[i] = (f"b{i:02d}", tied.copy())
        n = len(aux[0])
        monkeypatch.setattr(joiner, "_BLOCK_CELLS", 4 * n)
        monkeypatch.setattr(joiner, "_RESCORE_CELLS", rescore_cells)
        index = build_index(aux, metric)
        for k in (3, n + 2):  # k above the index size keeps every record
            result = execute_join(spec(JoinType.LEFT, right=k), pair(base), aux, metric=metric,
                                  threshold=None)
            expected = [(bid, aid, rank, score) for bid, vec in base
                        for rank, (aid, score) in enumerate(knn(index, vec, k), start=1)]
            got = [(m.base_id, m.aux_id, m.rank, m.score) for m in matches(result)]
            assert got == expected
            assert len(got) == len(base) * min(k, n)
            if metric == "l2":
                oracle = [sorted(((float(np.linalg.norm(v - q)), aid)
                                  for aid, v in zip(*aux)))[:k] for _, q in base]
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
            rows, cols, scores = scan_queries(build_index((ids, vectors)), queries, k,
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
            assert [rid for rid, _ in search(index, query, k)] == [rid for _, rid in expected[:k]]

    def test_each_chunk_takes_its_own_rows_band(self, monkeypatch):
        # Forty records at one distance from a query 1e6 from the origin, up
        # to rounding: the shortlist product rounds by about 1e-10 there, and
        # only that query's band, not that of the query at the origin in the
        # chunk before it, keeps the true best.
        rng = np.random.default_rng(81)
        far = vec(1e6, 0.0)
        theta = np.pi + rng.uniform(-1e-6, 1e-6, size=40)
        vectors = far + (1e6 - 1.0) * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        ids = [f"r{i:02d}" for i in range(40)]
        queries = np.array([[0.0, 0.0], far])
        monkeypatch.setattr(joiner, "_RESCORE_CELLS", len(ids))  # one query row per chunk
        for k in (1, 3, 5):
            rows, cols, scores = scan_queries(build_index((ids, vectors)), queries, k, None)
            for q, query in enumerate(queries):
                diff = vectors - query
                exact = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                got = [(sc, ids[c]) for sc, c in zip(scores[rows == q].tolist(),
                                                     cols[rows == q].tolist())]
                assert got == sorted(zip(exact.tolist(), ids))[:k], (k, q)

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
        ip = build_index(pair(aux), "inner_product")
        for _, q in base[:5]:
            scores = exact(q)
            assert all(s == scores[row[aid]] for aid, s in search(index, q, 10))
            # An inner product is the fixed-order dot product of the two rows.
            dots = np.einsum("ij,ij->i", aux_matrix, np.broadcast_to(q, aux_matrix.shape))
            assert all(s == dots[row[aid]] for aid, s in search(ip, q, 10))
        result = execute_join(spec(JoinType.LEFT, right=10), pair(base), pair(aux))
        base_vec = dict(base)
        for m in matches(result):
            assert m.score == exact(base_vec[m.base_id])[row[m.aux_id]]

    @pytest.mark.parametrize("metric, threshold", [("l2", None), ("l2", 10.0),
                                                   ("inner_product", None)])
    def test_scan_holds_its_output_and_a_few_blocks(self, metric, threshold):
        # tracemalloc sees numpy's buffers. A scan, under either metric,
        # holds a 4 MB block of scores and partitions it a few rows at a time
        # in a 0.5 MB chunk. The output is counted twice, as its per-block
        # parts and their concatenation. 64 candidates of 64 floats per query
        # make the shortlist re-scoring as large as a block if it is done in
        # one step.
        rng = np.random.default_rng(95)
        index = build_index(grid_embeddings("r", 2048, 64, 96), metric)
        queries = rng.normal(size=(1024, 64))
        tracemalloc.start()
        try:
            rows, cols, scores = scan_queries(index, queries, 64, threshold)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if threshold is not None:
            assert 0 < rows.size < 1024 * 64
        output = rows.nbytes + cols.nbytes + scores.nbytes
        assert peak <= 2 * output + 1.75 * 8 * (1 << 19)


    def test_a_streamed_left_join_holds_less_than_its_queries(self, tmp_path):
        # 20,000 queries of 64 floats (10 MB) stream from their embeddings
        # file through the scan of a 500-record index into the result file:
        # the join holds the index, the query ids, one block of the file
        # and the scan's own blocks, never the query matrix.
        n, dim = 20_000, 64
        rng = np.random.default_rng(97)
        queries = tmp_path / "embeddings_base.bin"
        with queries.open("wb") as fh:
            write = joiner.embeddings_writer(fh, n, dim)
            for at in range(0, n, 1000):
                write([f"b{i:05d}" for i in range(at, at + 1000)], rng.normal(size=(1000, dim)))
        index = build_index(grid_embeddings("a", 500, dim, 98))
        left = spec(JoinType.LEFT, right=10)

        def held(rows):
            yield index.vectors

        def join():
            joiner.write_join(tmp_path / "result.csv", left, file_side(queries),
                              joiner.Side(index.ids, held), "l2")

        join()  # numpy's lazy imports happen before the join that is measured
        tracemalloc.start()
        try:
            join()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * dim * 8
        whole = execute_join(left, load_embeddings(queries), (index.ids, index.vectors))
        assert (tmp_path / "result.csv").read_bytes() == to_csv_text(whole).encode("utf-8")

    def test_a_streamed_full_join_holds_less_than_its_larger_side(self, tmp_path):
        # Sides of 4,000 and 2,000 records of 768 floats (24.6 and 12.3 MB)
        # in their embeddings files. Both scans hold the smaller aux side:
        # the forward scan as its index, the reverse scan as its queries.
        # The base side streams past it from its file each time, so the
        # join never holds the larger matrix.
        dim, sizes = 768, {"base": 4000, "aux": 2000}
        assert [joiner.held_side(reverse, *sizes.values()) for reverse in (False, True)] \
            == [True, True]
        rng = np.random.default_rng(99)
        files = [tmp_path / f"embeddings_{name}.bin" for name in sizes]
        for path, (name, n) in zip(files, sizes.items()):
            with path.open("wb") as fh:
                write = joiner.embeddings_writer(fh, n, dim)
                for at in range(0, n, 500):
                    write([f"{name}{i:04d}" for i in range(at, at + 500)],
                          rng.normal(size=(500, dim)))
        full = spec(JoinType.FULL, left=5, right=5)

        def join():
            joiner.write_join(tmp_path / "result.csv", full, *map(file_side, files), "l2")

        join()  # numpy's lazy imports happen before the join that is measured
        tracemalloc.start()
        try:
            join()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sizes["base"] * dim * 8
        whole = execute_join(full, *map(load_embeddings, files))
        assert (tmp_path / "result.csv").read_bytes() == to_csv_text(whole).encode("utf-8")

    def test_a_streamed_inner_join_holds_less_than_its_retrieved_side(self, tmp_path):
        # The quick start's INNER join in small: 1,000 aux records query
        # 8,000 base records of 256 floats (16.4 MB). The scan holds the
        # 2 MB of queries and streams the base side past them from its file.
        dim, sizes = 256, {"base": 8000, "aux": 1000}
        rng = np.random.default_rng(100)
        files = [tmp_path / f"embeddings_{name}.bin" for name in sizes]
        for path, (name, n) in zip(files, sizes.items()):
            with path.open("wb") as fh:
                write = joiner.embeddings_writer(fh, n, dim)
                for at in range(0, n, 500):
                    write([f"{name}{i:04d}" for i in range(at, at + 500)],
                          rng.normal(size=(500, dim)))
        inner = spec(JoinType.INNER, left=1, right=10)
        assert joiner.scan_order(inner, False, *sizes.values()) == (True,)  # aux queries
        assert joiner.held_side(True, *sizes.values())

        def join():
            joiner.write_join(tmp_path / "result.csv", inner, *map(file_side, files), "l2")

        join()  # numpy's lazy imports happen before the join that is measured
        tracemalloc.start()
        try:
            join()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sizes["base"] * dim * 8
        whole = execute_join(inner, *map(load_embeddings, files))
        assert (tmp_path / "result.csv").read_bytes() == to_csv_text(whole).encode("utf-8")

    @pytest.mark.parametrize("n, rows", [(1000, 327), (2000, 262)])
    def test_a_streamed_block_is_an_embedding_block_at_most(self, n, rows):
        # 2^16 floats (327 rows of 200) past a small index; past a larger one
        # the 2^19-float block of scores is the bound.
        assert joiner.scan_rows(build_index(grid_embeddings("a", n, 200, 101))) == rows

    @pytest.mark.parametrize("join_type", [JoinType.LEFT, JoinType.FULL, JoinType.RIGHT])
    def test_a_join_that_fails_mid_stream_closes_its_stream(self, tmp_path, join_type):
        # The streamed side's second block has the wrong width: the scan
        # fails, and the stream is closed before the error leaves
        # write_join, with no garbage collection. The error's traceback,
        # which holds the scan's frames, is kept alive. The base side
        # streams past the held aux record: as queries in LEFT and in FULL's
        # forward scan, which fails first, and as targets in RIGHT.
        closed = []

        def streamed(rows):
            try:
                yield np.zeros((1, 3))
                yield np.zeros((1, 4))
            finally:
                closed.append(rows)

        def held(rows):
            yield np.zeros((1, 3))

        base = joiner.Side(("b0", "b1"), streamed)
        aux = joiner.Side(("a0",), held)
        with pytest.raises(JoinError, match=r"^row dimension \(4,\) does not match index "
                                            r"dimension 3$") as failure:
            joiner.write_join(tmp_path / "result.csv", spec(join_type), base, aux, "l2")
        assert closed == [joiner._STREAM_CELLS // 3]
        assert failure.tb is not None
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("sizes, held", [
        ((5, 8), (False, False)), ((8, 5), (True, True)), ((6, 6), (True, False))])
    def test_a_scan_holds_the_smaller_side(self, sizes, held):
        # (forward, reverse): True when the scan holds the aux side. Equal
        # sides hold the side retrieved from.
        assert tuple(joiner.held_side(reverse, *sizes) for reverse in (False, True)) == held

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), metric=st.sampled_from(["l2", "inner_product"]),
           n_queries=st.integers(1, 8), n_targets=st.integers(1, 20), d=st.integers(1, 3),
           far=st.booleans(), threshold=st.sampled_from([None, 0.0, 1.0, 1.5]),
           cells=st.sampled_from([None, 2]), rescore_cells=st.sampled_from([None, 5]))
    def test_streamed_targets_equal_the_held_index_scan(self, data, metric, n_queries,
                                                        n_targets, d, far, threshold, cells,
                                                        rescore_cells):
        # Small integer vectors, so most scores tie exactly and vectors
        # repeat within and across target blocks of 1, 3, k or all rows
        # (tiles of 2 rows when ``cells`` is 2), with ids whose order is not
        # the targets' order; k above the target count; and, when ``far``,
        # vectors 1e6 from the origin 1e-3 apart, where the shortlist
        # product rounds by far more than the squared distances, and inner
        # products of about d 1e12 differ by multiples of 1e3. An l2
        # threshold of t keeps distances of at most t steps; an inner-product
        # one keeps products past d offset^2 by at least t + 0.5 steps of
        # offset, which on the grid keeps some pairs, ties others exactly
        # and drops the rest. The last query, far up the diagonal for l2 and
        # down it for inner product, is matched by nothing under a threshold.
        scale, offset = (1e-3, 1e6) if far else (1.0, 0.0)

        def grid(n):
            cells_drawn = data.draw(st.lists(st.integers(0, 2), min_size=n * d, max_size=n * d))
            return np.array(cells_drawn, np.float64).reshape(n, d) * scale + offset

        last = np.full((1, d), 10.0 * scale + offset) * (1.0 if metric == "l2" else -1.0)
        targets = grid(n_targets)
        queries = np.concatenate([grid(n_queries), last])
        target_ids = [f"t{j:02d}" for j in data.draw(st.permutations(range(n_targets)))]
        k = data.draw(st.integers(1, n_targets + 2))
        block = data.draw(st.sampled_from([1, 3, k, n_targets]))
        if threshold is not None:
            threshold = threshold * scale if metric == "l2" else \
                d * offset ** 2 + (offset * scale + scale ** 2) * (threshold + 0.5)
        block_cells = joiner._BLOCK_CELLS if cells is None else cells * max(len(queries), d)
        with patch.object(joiner, "_BLOCK_CELLS", block_cells), \
                patch.object(joiner, "_RESCORE_CELLS", rescore_cells or joiner._RESCORE_CELLS):
            index = build_index(([f"q{i}" for i in range(len(queries))], queries.copy()), metric)
            ((first, stop, *streamed),) = joiner._scan_past(
                index, (targets[at : at + block] for at in range(0, n_targets, block)), True, k,
                threshold, id_ranks(target_ids))
            held = scan_queries(build_index((target_ids, targets), metric), queries, k,
                                  threshold)
        assert (first, stop) == (0, len(queries))
        oracle = exact_topk(queries, targets, target_ids, k, metric, threshold)
        for mine, theirs, expected in zip(streamed, held, oracle):
            assert mine.dtype == expected.dtype
            assert mine.tobytes() == theirs.tobytes() == expected.tobytes()
        if threshold is not None:
            assert len(queries) - 1 not in streamed[0]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 30), d=st.integers(1, 8), k=st.integers(1, 6))
    def test_inner_products_are_within_the_rounding_bound_of_exact_sums(self, data, n, d, k):
        # Against exact rational arithmetic, not a float computation of the
        # engine's: every written score lies within g(x) of the true q.x,
        # where g(x) is d eps sum |q_i x_i| (twice the summation bound, so it
        # also covers rounding the true value to a float) plus one smallest
        # subnormal per term for gradual underflow; so a chosen record's true
        # product is below that of a record left out by at most the sum of
        # their bounds.
        finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        targets, queries = (np.array(data.draw(st.lists(finite, min_size=m * d,
                                                        max_size=m * d))).reshape(m, d)
                            for m in (n, 3))
        ids = [f"t{j:02d}" for j in range(n)]
        rows, cols, scores = scan_queries(build_index((ids, targets), "inner_product"),
                                            queries, k, None)
        eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
        for q, query in enumerate(queries):
            products = [[Fraction(a) * Fraction(b) for a, b in zip(x, query)] for x in targets]
            true = np.array([float(sum(terms)) for terms in products])
            bound = np.array([1.01 * d * eps * float(sum(map(abs, terms))) + (d + 1) * tiny
                              for terms in products])
            chosen = cols[rows == q]
            assert chosen.size == min(k, n)
            assert np.all(np.abs(scores[rows == q] - true[chosen]) <= bound[chosen])
            left_out = np.setdiff1d(np.arange(n), chosen)
            if left_out.size:
                slack = bound[chosen].max() + bound[left_out].max()
                assert true[chosen].min() >= true[left_out].max() - slack

    # Ranks every inner product of an index of ``n`` unit rows of 200
    # floats with a few queries, and prints the sha256 of the scan's
    # ``(rows, cols, scores)`` bytes. A threaded matrix-vector product of
    # the index with a query rounds the rows where it splits its work
    # otherwise than one thread does.
    _THREADS_SCRIPT = """
import hashlib, sys
import numpy as np
from emberish import joiner
from oracles import scan_queries
n = int(sys.argv[1])
rng = np.random.default_rng(n)
vectors = rng.normal(size=(n + 8, 200))
vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
index = joiner.build_index(([f"r{i}" for i in range(n)], vectors[:n]), "inner_product")
found = scan_queries(index, vectors[n:], n, None)
print(hashlib.sha256(b"".join(column.tobytes() for column in found)).hexdigest())
"""

    @pytest.mark.parametrize("n", [4097, 10001])
    def test_inner_product_scores_do_not_depend_on_the_blas_threads(self, n):
        # Each run is a process of its own, as the thread count is read when
        # the BLAS library loads.
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(sys.path)}
            run = subprocess.run([sys.executable, "-c", self._THREADS_SCRIPT, str(n)], env=env,
                                 check=True, capture_output=True, text=True)
            digests.add(run.stdout)
        assert len(digests) == 1

    def test_a_streamed_target_count_must_match_its_ids(self):
        # Four targets, streamed past the three held queries, or held and
        # passed by them.
        queries, targets = grid_embeddings("q", 3, 2, 1), grid_embeddings("t", 4, 2, 2)
        for holds_queries in (True, False):
            held, streamed = (queries, targets) if holds_queries else (targets, queries)
            index, streamed = build_index(held), streamed[1]
            for ranks in (id_ranks("abc"), id_ranks("abcde")):
                with pytest.raises(JoinError, match="target"):
                    list(joiner._scan_past(index, [streamed], holds_queries, 2, None, ranks))
            with pytest.raises(JoinError, match=r"^row dimension \(1,\) does not match index "
                                                r"dimension 2$"):
                list(joiner._scan_past(index, [streamed[:, :1]], holds_queries, 2, None,
                                       id_ranks("abcd")))


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
        rows = {m.base_id: m for m in matches(result)}
        assert rows["b0"].aux_id == "a0"
        assert rows["b1"].aux_id is None

    def test_inner_indexes_larger_side(self):
        base, aux = self.line_embeddings()
        result = execute_join(spec(JoinType.INNER, left=6, right=2), base, aux)
        per_base = {}
        for m in matches(result):
            per_base.setdefault(m.base_id, []).append(m)
        assert all(len(v) <= 2 for v in per_base.values())
        assert all(m.direction == "forward" for m in matches(result))

    def test_inner_reverse_direction_when_base_larger(self):
        base, aux = self.line_embeddings()
        result = execute_join(spec(JoinType.INNER, left=2, right=6), aux, base)
        # aux side (6) larger than base side (4): base queries... here the roles
        # are swapped, so the smaller side (base arg = aux list here) queries.
        assert all(not m.absent for m in matches(result))

    def test_inner_dual_execution_identical(self):
        # Swapping the datasets and the sizes keeps the smaller side querying,
        # so the result file is the same text with its id columns swapped.
        base = grid_embeddings("b", 20, 4, 1)
        aux = grid_embeddings("a", 30, 4, 2)
        natural = to_csv_text(execute_join(spec(JoinType.INNER, left=3, right=2), base, aux))
        swapped = to_csv_text(execute_join(spec(JoinType.INNER, left=2, right=3), aux, base))
        lines = [line.split(",") for line in swapped.splitlines()[1:]]
        assert natural.splitlines()[1:] == [",".join([a, b, *rest]) for b, a, *rest in lines]
        assert len(lines) > 20

    @pytest.mark.parametrize("metric", ["l2", "inner_product"])
    @pytest.mark.parametrize("join_type", list(JoinType))
    def test_dual_execution_every_join_type(self, join_type, metric):
        # The mirrored join (datasets and sizes swapped, LEFT <-> RIGHT) runs
        # each retrieval the other way round and gives the mirrored rows.
        # FULL keeps the first copy of a pair found in both directions, so
        # there only the pairs, their scores and the ABSENT rows mirror.
        mirror = {JoinType.LEFT: JoinType.RIGHT, JoinType.RIGHT: JoinType.LEFT}
        base = grid_embeddings("b", 20, 4, 11)
        aux = grid_embeddings("a", 30, 4, 12)
        # A threshold that leaves some records of each side unmatched.
        threshold = {"l2": 1.2, "inner_product": 1.5}[metric]
        natural = execute_join(spec(join_type, left=3, right=2), base, aux, metric, threshold)
        swapped = execute_join(spec(mirror.get(join_type, join_type), left=2, right=3),
                               aux, base, metric, threshold)
        flip = {"forward": "reverse", "reverse": "forward"}
        rows = [(m.base_id, m.aux_id, m.rank, m.score, m.direction) for m in matches(natural)]
        mirrored = [(m.aux_id, m.base_id, m.rank, m.score, flip[m.direction])
                    for m in matches(swapped)]
        if join_type != JoinType.FULL:
            # repr, so that the NaN scores of ABSENT rows compare equal.
            assert [(*r[:3], repr(r[3]), r[4]) for r in rows] == [
                (*r[:3], repr(r[3]), r[4]) for r in mirrored]
            assert any(r[2] for r in rows)
            assert any(not r[2] for r in rows) == (join_type != JoinType.INNER)
            return
        scores = {(b, a): s for b, a, r, s, _ in rows if r}
        mirrored_scores = {(b, a): s for b, a, r, s, _ in mirrored if r}
        assert scores.keys() == mirrored_scores.keys()
        np.testing.assert_allclose([mirrored_scores[p] for p in scores], list(scores.values()),
                                   rtol=0, atol=1e-12)
        absent = {r[:2] for r in rows if not r[2]}
        assert absent == {r[:2] for r in mirrored if not r[2]}
        assert {b for b, _ in absent} - {None} and {a for _, a in absent} - {None}

    @pytest.mark.parametrize("join_type, reads", [
        (JoinType.LEFT, {"right"}), (JoinType.RIGHT, {"left"}),
        (JoinType.INNER, {"left", "right"}), (JoinType.FULL, {"left", "right"}),
    ])
    def test_each_join_type_reads_its_sizes(self, join_type, reads):
        # LEFT reads RIGHT SIZE, RIGHT reads LEFT SIZE, INNER and FULL both:
        # raising a size that is read changes the rows, one that is not read
        # changes nothing.
        base = grid_embeddings("b", 20, 4, 80)
        aux = grid_embeddings("a", 30, 4, 81)
        text = {}
        for name, left, right in (("none", 2, 2), ("left", 3, 2), ("right", 2, 3)):
            text[name] = to_csv_text(execute_join(spec(join_type, left, right), base, aux))
        assert {name for name in ("left", "right") if text[name] != text["none"]} == reads

    @pytest.mark.parametrize("metric, held", [("l2", ([5], [5, 5])),
                                              ("inner_product", ([5], [5, 5]))])
    def test_one_index_per_retrieval_direction(self, monkeypatch, metric, held):
        # Under either metric each scan indexes the smaller side.
        built = []
        original = joiner.EmbeddingIndex.__post_init__

        def counting(index):
            built.append(len(index.ids))
            original(index)

        monkeypatch.setattr(joiner.EmbeddingIndex, "__post_init__", counting)
        base, aux = grid_embeddings("b", 5, 3, 1), grid_embeddings("a", 8, 3, 2)
        execute_join(spec(JoinType.LEFT, right=2), base, aux, metric)
        assert built == held[0]
        built.clear()
        execute_join(spec(JoinType.FULL, left=2, right=2), base, aux, metric)
        assert built == held[1]

    def test_left_equals_inner_plus_absent_rows(self):
        # Caps non-binding: left_size = |base| so INNER keeps per-base lists.
        base = grid_embeddings("b", 10, 3, 3)
        aux = grid_embeddings("a", 10, 3, 4)
        inner = execute_join(spec(JoinType.INNER, left=10, right=2), base, aux, threshold=2.5)
        left = execute_join(spec(JoinType.LEFT, left=10, right=2), base, aux, threshold=2.5)
        inner_pairs = matched_pairs(inner)
        left_pairs = matched_pairs(left)
        assert inner_pairs == left_pairs
        absent_base = {m.base_id for m in matches(left) if m.absent}
        matched_base = {b for b, _ in left_pairs}
        assert absent_base == set(base[0]) - matched_base

    def test_inner_subset_of_full(self):
        base = grid_embeddings("b", 10, 3, 5)
        aux = grid_embeddings("a", 10, 3, 6)
        inner = execute_join(spec(JoinType.INNER, left=10, right=2), base, aux)
        full = execute_join(spec(JoinType.FULL, left=10, right=2), base, aux)
        assert matched_pairs(inner) <= matched_pairs(full)

    def test_right_mirrors_left(self):
        base = grid_embeddings("b", 10, 3, 7)
        aux = grid_embeddings("a", 10, 3, 8)
        left = execute_join(spec(JoinType.LEFT, left=2, right=2), base, aux, threshold=2.0)
        right = execute_join(spec(JoinType.RIGHT, left=2, right=2), aux, base, threshold=2.0)
        # Swapping the datasets and mirroring the join type yields mirrored pairs.
        mirrored = {(a, b) for b, a in matched_pairs(right)}
        assert matched_pairs(left) == mirrored

    def test_full_join_absent_on_both_sides(self):
        base = [("b0", vec(0.0)), ("b_far", vec(500.0))]
        aux = [("a0", vec(0.1)), ("a_far", vec(-500.0))]
        result = execute_join(spec(JoinType.FULL), pair(base), pair(aux), threshold=1.0)
        absent_base = {m.base_id for m in matches(result) if m.aux_id is None}
        absent_aux = {m.aux_id for m in matches(result) if m.base_id is None}
        assert absent_base == {"b_far"}
        assert absent_aux == {"a_far"}

    def test_full_deduplicates_shared_pairs(self):
        base = [("b0", vec(0.0))]
        aux = [("a0", vec(0.0))]
        result = execute_join(spec(JoinType.FULL), pair(base), pair(aux))
        assert len(matches(result)) == 1

    def test_inner_per_aux_cap_enforced(self):
        # Both base records closest to a0; left_size=1 keeps only the better one.
        base = [("b0", vec(0.0)), ("b1", vec(0.2))]
        aux = [("a0", vec(0.1)), ("a1", vec(50.0)), ("a2", vec(60.0))]
        result = execute_join(spec(JoinType.INNER, left=1, right=1), pair(base), pair(aux))
        winners = [m for m in matches(result) if m.aux_id == "a0"]
        assert len(winners) == 1
        assert winners[0].base_id == "b0"  # distance 0.1 beats 0.1? no: |0-0.1| < |0.2-0.1|

    def test_ranks_contiguous_after_cap(self):
        rng = np.random.default_rng(13)
        base = grid_embeddings("b", 8, 2, 14)
        aux = grid_embeddings("a", 12, 2, 15)
        result = execute_join(spec(JoinType.INNER, left=2, right=4), base, aux)
        per_query = {}
        for m in matches(result):
            per_query.setdefault(m.base_id, []).append(m.rank)
        for ranks in per_query.values():
            assert ranks == list(range(1, len(ranks) + 1))

    def test_sizes_exceeding_corpus_allowed(self):
        base = [("b0", vec(0.0))]
        aux = [("a0", vec(1.0)), ("a1", vec(2.0))]
        result = execute_join(spec(JoinType.LEFT, right=99), pair(base), pair(aux))
        assert len(for_base(result, "b0")) == 2

    def test_empty_side_rejected(self):
        with pytest.raises(JoinError, match="at least one"):
            execute_join(spec(JoinType.INNER), pair([]), pair([("a", vec(1.0))]))

    def test_deterministic_output(self):
        base = grid_embeddings("b", 15, 3, 20)
        aux = grid_embeddings("a", 25, 3, 21)
        s = spec(JoinType.FULL, left=2, right=3)
        r1 = to_csv_text(execute_join(s, base, aux))
        r2 = to_csv_text(execute_join(s, base, aux))
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
        assert [(m.base_id, m.aux_id, m.rank) for m in matches(l2)] == [
            (m.base_id, m.aux_id, m.rank) for m in matches(ip)
        ]

    def test_scores_ordered_in_better_direction(self):
        rng = np.random.default_rng(61)
        base = grid_embeddings("b", 6, 3, 62)
        aux = grid_embeddings("a", 10, 3, 63)
        for metric, better_first in (("l2", True), ("inner_product", False)):
            result = execute_join(spec(JoinType.LEFT, right=5), base, aux, metric=metric)
            per_base = {}
            for m in matches(result):
                if not m.absent:
                    per_base.setdefault(m.base_id, []).append((m.rank, m.score))
            for entries in per_base.values():
                scores = [s for _, s in sorted(entries)]
                if better_first:
                    assert scores == sorted(scores)
                else:
                    assert scores == sorted(scores, reverse=True)


def _reference_rows(spec, base_emb, aux_emb, metric, threshold, indexed_queries,
                    both_directions):
    """The result builder as it was before results became columnar: ranked
    candidates per query id, a per-target cap over them, one row per
    candidate and a set of seen pairs for FULL. Returns
    ``(base_id, aux_id, rank, score, direction)`` rows.

    The queries of the side named by ``indexed_queries`` ("base" or "aux")
    are answered the other way round from the engine: an index of the
    queries scores every target, one target at a time, and each query's
    candidates are sorted in full."""

    def retrieve(query_emb, target_emb, k, index_on):
        query_ids, query_vectors = query_emb
        if index_on == "target":
            index = build_index(target_emb, metric)
            rows, cols, scores = scan_queries(index, query_vectors, k, threshold)
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
    strategy = {side: "query" if indexed_queries == side else "target" for side in ("base", "aux")}
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
    @pytest.mark.parametrize("indexed_queries", ["none", "base", "aux"])
    @pytest.mark.parametrize("join_type, both_directions",
                             [(jt, False) for jt in JoinType] + [(JoinType.INNER, True)])
    @pytest.mark.parametrize("block_rows", [1, 3, None])
    def test_rows_and_bytes_match_reference(self, sizes, metric, threshold, indexed_queries,
                                            join_type, both_directions, block_rows, monkeypatch):
        # Scans of one query row per block, of three (four against the index
        # of 9 records) and of every row at once: FULL's and the INNER
        # union's forward pair codes, matched records and reverse filter
        # build up across blocks.
        if block_rows is not None:
            monkeypatch.setattr(joiner, "_BLOCK_CELLS", block_rows * max(sizes))
        base, aux = tied_grid("b", sizes[0], sizes[0]), tied_grid("a", sizes[1], 7 * sizes[1])
        s = spec(join_type, left=2, right=3)
        expected = _reference_rows(s, base, aux, metric, threshold, indexed_queries,
                                   both_directions)
        result = execute_join(s, base, aux, metric, threshold, both_directions)
        assert [(m.base_id, m.aux_id, m.rank, repr(m.score), m.direction)
                for m in matches(result)] == [(*r[:3], repr(r[3]), r[4]) for r in expected]
        assert to_csv_text(result) == _reference_csv(expected)

    def test_metrics_of_the_written_result_equal_the_in_memory_ones(self, tmp_path):
        # From the join to the metrics a result stays in columns; written and
        # read back, it scores as it did before it was written.
        base, aux = tied_grid("b", 9, 1), tied_grid("a", 13, 2)
        truth = TruthSet.from_pairs([SupervisionPair(b, a) for b, a in zip(base[0], aux[0])])
        labels = dict(zip(aux[0], map(float, range(13))))
        for join_type in (JoinType.LEFT, JoinType.INNER):
            result = execute_join(spec(join_type, left=2, right=3), base, aux, threshold=1.0)
            result.write_csv(tmp_path / "result.csv")
            loaded = JoinResult.from_csv(tmp_path / "result.csv")
            for k in (1, 3):
                assert recall_at_k(loaded, truth, k) == recall_at_k(result, truth, k)
                assert mrr_at_k(loaded, truth, k) == mrr_at_k(result, truth, k)
            assert 0.0 < recall_at_k(loaded, truth, 3) < 1.0
            assert aggregate_labels(loaded, labels, 2) == aggregate_labels(result, labels, 2)


class TestChainJoins:
    def test_single_stage_equals_execute_join(self):
        base = grid_embeddings("b", 6, 3, 30)
        aux = grid_embeddings("a", 8, 3, 31)
        s = spec(JoinType.INNER, left=6, right=2)
        chained = chain_joins(base, [(s, aux)])
        direct = execute_join(s, base, aux)
        assert matched_pairs(chained) == matched_pairs(direct)

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
        stages = [(one, pair(d1)), (one, pair(d2))]
        result = chain_joins(pair(d0), stages)
        assert len(matches(result)) == n
        for m in matches(result):
            i = int(m.base_id[1:])
            assert m.path == (f"y{sigma[i]}",)
            assert m.aux_id == f"z{tau[sigma[i]]}"

    def test_path_lists_one_id_per_hop(self):
        base = grid_embeddings("b", 3, 2, 40)
        mid = grid_embeddings("m", 4, 2, 41)
        last = grid_embeddings("z", 5, 2, 42)
        stages = [
            (spec(JoinType.INNER, right=1), mid),
            (spec(JoinType.INNER, right=1), last),
        ]
        result = chain_joins(base, stages)
        for m in matches(result):
            assert len(m.path) == 1
            assert m.path[0].startswith("m")
            assert m.aux_id.startswith("z")

    # Sizes (base, mid, last, hop 1 k, hop 2 k); every hop 2 frontier
    # repeats mid records. At the first, hop 1 holds its 5 targets and hop 2
    # its at most 5 querying records; at the second, hop 1 holds its 3
    # querying records and hop 2 its 5 targets, as hop 1 matched at least 5.
    @pytest.mark.parametrize("sizes", [(6, 5, 7, 3, 2), (3, 8, 5, 5, 2)],
                             ids=["targets-then-queries-held", "queries-then-targets-held"])
    @pytest.mark.parametrize("metric", ["l2", "inner_product"])
    def test_two_hop_equals_nested_knn(self, metric, sizes):
        # Reference: every origin's hits expanded hop by hop with knn, then
        # re-ranked by score and endpoint id, stable in expansion order.
        n_base, n_mid, n_last, k1, k2 = sizes
        base = grid_embeddings("b", n_base, 2, 43)
        mid = grid_embeddings("m", n_mid, 2, 44)
        mid[1][3] = mid[1][1]
        last = grid_embeddings("z", n_last, 2, 45)
        last[1][4] = last[1][0]
        stages = [(spec(JoinType.INNER, right=k1), mid), (spec(JoinType.INNER, right=k2), last)]
        mid_index, last_index = build_index(mid, metric), build_index(last, metric)
        sign = 1.0 if metric == "l2" else -1.0  # lowest first
        expected = []
        for bid, vec in zip(*base):
            entries = []
            for mid_id, _ in knn(mid_index, vec, k1):
                mid_vec = dict(zip(*mid))[mid_id]
                for hit_id, score in knn(last_index, mid_vec, k2):
                    entries.append((score, hit_id, (mid_id,)))
            entries.sort(key=lambda e: (sign * e[0], e[1]))
            expected += [(bid, hit, rank, score, path)
                         for rank, (score, hit, path) in enumerate(entries, start=1)]
        result = chain_joins(base, stages, metric)
        assert [(m.base_id, m.aux_id, m.rank, m.score, m.path)
                for m in matches(result)] == expected

    def test_each_hop_queries_each_distinct_frontier_record_once(self, monkeypatch):
        # Hop 1 streams the 6 base records past the 5 mid records it holds.
        # Hop 2's frontier is 18 rows over at most 5 mid records: it holds
        # those records, each once, and streams the 7 last records past them.
        base = grid_embeddings("b", 6, 2, 43)
        mid = grid_embeddings("m", 5, 2, 44)
        last = grid_embeddings("z", 7, 2, 45)
        queried = []

        scan = joiner._scan

        def querying(queries, *rest):
            queries = list(queries)
            queried.append(np.concatenate(queries))
            return scan(queries, *rest)

        monkeypatch.setattr(joiner, "_scan", querying)
        chain_joins(base, [(spec(JoinType.INNER, right=3), mid),
                           (spec(JoinType.INNER, right=2), last)])
        matched = sorted({mid[0].index(mid_id) for query in base[1]
                          for mid_id, _ in knn(build_index(mid), query, 3)})
        assert len(queried) == 2
        assert queried[0].tobytes() == base[1].tobytes()
        assert queried[1].tobytes() == mid[1][matched].tobytes()

    def test_last_hop_gathers_no_query_vectors(self):
        # Only a hop that another hop follows queries with its matches'
        # vectors. Gathering them after the last hop too would hold 40,000
        # rows of 128 floats (41 MB) that nothing reads.
        base = grid_embeddings("b", 100, 128, 46)
        stages = [(spec(JoinType.INNER, right=20), grid_embeddings("m", 300, 128, 47)),
                  (spec(JoinType.INNER, right=20), grid_embeddings("z", 400, 128, 48))]
        tracemalloc.start()
        try:
            result = chain_joins(base, stages)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.rank.size == 100 * 20 * 20
        assert peak < result.rank.size * 128 * 8

    def test_a_hop_holds_its_distinct_records_not_its_frontier(self):
        # Hop 1 matches each of 4,000 base records to 5 of 10 mid records, so
        # hop 2's frontier is 20,000 rows over 10 records. A query row per
        # frontier row would be 20,000 rows of 64 floats (10 MB); the hop
        # gathers the row of each of the 10 records once.
        base = grid_embeddings("b", 4000, 64, 49)
        stages = [(spec(JoinType.INNER, right=5), grid_embeddings("m", 10, 64, 50)),
                  (spec(JoinType.INNER, right=1), grid_embeddings("z", 50, 64, 51))]
        tracemalloc.start()
        try:
            result = chain_joins(base, stages)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.rank.size == 20_000
        assert peak < 20_000 * 64 * 8

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

    def test_one_ranking_serves_every_k(self):
        # Three records with 5, 2 and 1 matches, in reverse row order, with
        # a tied rank, and an ABSENT row: each k's means, in the order of
        # ks, repeats included, average each record's first k labels by
        # rank, then label.
        rng = np.random.default_rng(5)
        entries = [(f"b{b}", f"a{a}", rank, 0.0) for b, n in enumerate((5, 2, 1))
                   for a, rank in zip(rng.permutation(n), (1, 2, 2, 3, 4))]
        result = self.result_with([*entries[::-1], ("b3", None, 0, float("nan"))])
        labels = {f"a{a}": float(rng.normal()) for a in range(5)}
        ranked = {bid: [label for _, label in sorted((rank, labels[aid])
                                                     for b, aid, rank, _ in entries if b == bid)]
                  for bid in ("b0", "b1", "b2")}
        ks = [3, 1, 10, 3, 2]
        assert joiner.label_means(result, labels, ks) == \
            [{bid: sum(top[:k]) / len(top[:k]) for bid, top in ranked.items()} for k in ks]
        with pytest.raises(JoinError, match="k must be >= 1"):
            joiner.label_means(result, labels, [2, 0])


class TestResultCsv:
    def test_round_trip(self, tmp_path):
        result = JoinResult.from_ids([
            ("b0", "a0", 1, 0.25),
            ("b1", None, 0, float("nan")),
        ])
        path = tmp_path / "r.csv"
        result.write_csv(path)
        loaded = JoinResult.from_csv(path)
        assert matches(loaded)[0].base_id == "b0"
        assert matches(loaded)[0].score == 0.25
        assert matches(loaded)[1].aux_id is None

    def test_header(self):
        result = JoinResult.from_ids([])
        assert to_csv_text(result).splitlines()[0] == "base_id,aux_id,rank,score"

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
        assert to_csv_text(loaded) == to_csv_text(result)
        assert [(m.base_id, m.aux_id, m.rank, repr(m.score)) for m in matches(loaded)] == [
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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), pool=st.lists(record_ids, min_size=1, max_size=5),
           write_rows=st.sampled_from([1, 2, joiner._WRITE_ROWS]))
    def test_text_equals_a_plain_csv_writer(self, data, pool, write_rows):
        # Ids drawn again and again from a few (``record_ids`` favours ",",
        # '"', "\n", "\r", spaces and non-ASCII text), with ABSENT sides,
        # written one, two or 2^14 rows at a time.
        side = st.one_of(st.none(), st.sampled_from(pool))
        rows = data.draw(st.lists(st.tuples(side, side, st.integers(1, 2**40),
                                            st.floats(allow_nan=False)), max_size=30))
        rows = [(b, a, r, s) if b is not None and a is not None else (b, a, 0, float("nan"))
                for b, a, r, s in rows]
        result = JoinResult.from_ids(rows)
        with patch.object(joiner, "_WRITE_ROWS", write_rows):
            assert to_csv_text(result) == csv_writer_text(result)

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
        assert to_csv_text(loaded) == to_csv_text(written)
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
        whole = to_csv_text(result)
        if case == "left-absent":
            assert (result.aux < 0).any()
        if case == "carriage-return-last":
            assert whole.startswith('"base_id","aux_id","rank","score"\n"b0","a0","1","0.0"\n')
        monkeypatch.setattr(joiner, "_WRITE_ROWS", 2)
        result.write_csv(tmp_path / "result.csv")
        assert (tmp_path / "result.csv").read_bytes() == whole.encode("utf-8")
        assert to_csv_text(result) == whole
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
    ``room`` characters or bytes have been written to it; reads still work."""
    real_open = Path.open

    class FullDisk:
        def __init__(self, fh):
            self.fh, self.room = fh, room

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __iter__(self):
            return iter(self.fh)

        def write(self, data):
            self.room -= len(data)
            if self.room < 0:
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

        def writelines(self, lines):
            for line in lines:
                self.write(line)

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

    # Every float64 bit pattern, NaN payloads and -0.0 included, for up to
    # six records of up to four dimensions.
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ids=st.lists(record_ids, min_size=1, max_size=6, unique=True),
           dim=st.integers(1, 4), bits=st.binary(min_size=8 * 24, max_size=8 * 24))
    @example(ids=["caf\u00e9 \u2192 \U0001f600,\"\n"], dim=1, bits=b"\xff" * 8 * 24)
    def test_load_reads_back_what_save_wrote(self, tmp_path, ids, dim, bits):
        vectors = np.frombuffer(bits, dtype="<f8", count=len(ids) * dim).reshape(len(ids), dim)
        path = tmp_path / "emb.bin"
        save_embeddings((ids, vectors), path)
        loaded_ids, loaded = load_embeddings(path)
        assert loaded_ids == tuple(ids)
        assert loaded.shape == vectors.shape
        assert loaded.astype("<f8").tobytes() == vectors.tobytes()

    def test_an_id_that_is_not_utf8_is_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        save_embeddings((("e\u00e9",), np.zeros((1, 2))), path)
        path.write_bytes(path.read_bytes().replace("\u00e9".encode("utf-8"), b"\xff\xff"))
        with pytest.raises(JoinError, match="not UTF-8"):
            load_embeddings(path)

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

    @pytest.mark.parametrize("header, match", [
        (struct.pack("<4sIQQ", b"KJEX", 1, 3, 4), "bad magic"),
        (struct.pack("<4sIQQ", b"KJEB", 2, 3, 4), "unsupported embeddings version 2"),
        # A count no file could hold is refused before the vectors exist.
        (struct.pack("<4sIQQ", b"KJEB", 1, 1 << 40, 4), "truncated"),
    ])
    def test_a_bad_header_is_rejected(self, tmp_path, header, match):
        path = tmp_path / "emb.bin"
        save_embeddings(grid_embeddings("e", 3, 4, 55), path)
        path.write_bytes(header + path.read_bytes()[len(header):])
        with pytest.raises(JoinError, match=match):
            load_embeddings(path, digest=hashlib.sha256().update)

    def test_the_digest_is_fed_every_byte_of_the_file(self, tmp_path):
        path = tmp_path / "emb.bin"
        emb = (("e0", "caf\u00e9"), np.arange(6.0).reshape(2, 3))
        save_embeddings(emb, path)
        sha = hashlib.sha256()
        ids, vectors = load_embeddings(path, digest=sha.update)
        assert sha.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
        assert ids == emb[0] and np.array_equal(vectors, emb[1])

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

"""Acceptance suite: the release gate for this engine.

Each criterion pins its tolerance inline and prints one pass/fail line;
run with ``pytest tests/test_acceptance.py -v -s`` to see them. The heavier
end-to-end criteria use seed-fixed synthetic workloads from ``corpus.py``.
"""

import functools
import math
import random
import time

import numpy as np
import pytest

from corpus import slot_grid_source, word_soup_source
from emberish.cli import cmd_generate, cmd_join, cmd_train
from emberish.data import dataset_from_rows, write_dataset
from emberish.encoder import (
    EncoderModel,
    TrainConfig,
    batch_gradients,
    batch_loss,
    embed_dataset,
    encode,
    train,
)
from emberish.evalkit import TruthSet, mrr_at_k, recall_at_k, run_comparison
from emberish.joiner import (
    JoinResult,
    aggregate_labels,
    build_index,
    chain_joins,
    execute_join,
    knn,
)
from emberish.joinspec import EngineConfig, JoinSpec, JoinType, parse_join_spec, render_join_spec
from emberish.lexrank import bm25_score, build_bm25_index, jaccard, levenshtein
from emberish.prepare import prepare_sentence
from emberish.supervise import PerturbationConfig, generate_fuzzy_join, split_train_test


def pair(entries):
    """Embeddings ``(ids, matrix)`` from a list of ``(id, vector)`` entries."""
    return tuple(rid for rid, _ in entries), np.array([v for _, v in entries], dtype=np.float64)


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num:02d}] {name}: FAIL")
                raise
            print(f"\n[criterion {num:02d}] {name}: PASS")

        return wrapper

    return decorate


# --------------------------------------------------------------------------
# 1. Oracle equivalence: retrieval
# --------------------------------------------------------------------------


@criterion(1, "knn equals exhaustive sort on 200 random instances")
def test_retrieval_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 201))
        d = int(rng.integers(1, 17))
        entries = [(f"r{i}", rng.normal(size=d)) for i in range(n)]
        index = build_index(pair(entries))
        query = rng.normal(size=d)
        expected = sorted(
            ((float(np.linalg.norm(v - query)), rid) for rid, v in entries)
        )
        for k in (1, 5, 10):
            got = [rid for rid, _ in knn(index, query, k)]
            assert got == [rid for _, rid in expected[:k]]
    assert time.perf_counter() - start < 5.0


# --------------------------------------------------------------------------
# 2. Oracle equivalence: lexical kernels
# --------------------------------------------------------------------------


def _oracle_levenshtein(a, b):
    rows, cols = len(a) + 1, len(b) + 1
    dist = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        dist[i][0] = i
    for j in range(cols):
        dist[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dist[i][j] = min(dist[i - 1][j] + 1, dist[i][j - 1] + 1,
                             dist[i - 1][j - 1] + cost)
    return dist[-1][-1]


class _OracleBm25:
    def __init__(self, docs, k1=1.5, b=0.75):
        self.docs = {doc_id: list(toks) for doc_id, toks in docs}
        self.k1, self.b = k1, b
        self.n = len(docs)
        self.avgdl = sum(len(t) for t in self.docs.values()) / self.n

    def score(self, query, doc_id):
        toks = self.docs[doc_id]
        total = 0.0
        for term in query:
            f = toks.count(term)
            if not f:
                continue
            df = sum(1 for t in self.docs.values() if term in t)
            idf = math.log((self.n - df + 0.5) / (df + 0.5) + 1.0)
            total += idf * f * (self.k1 + 1) / (
                f + self.k1 * (1 - self.b + self.b * len(toks) / self.avgdl)
            )
        return total


@criterion(2, "lexical kernels match independent oracles")
def test_lexical_kernel_oracles():
    rng = random.Random(99)
    alphabet = "abcdef"
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 14)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 14)))
        assert levenshtein(a, b) == _oracle_levenshtein(a, b)

    for _ in range(500):
        sa = {rng.randrange(30) for _ in range(rng.randrange(0, 10))}
        sb = {rng.randrange(30) for _ in range(rng.randrange(0, 10))}
        expected = (len(sa & sb) / len(sa | sb)) if (sa or sb) else 0.0
        assert jaccard(sa, sb) == expected

    docs = []
    for i in range(50):
        length = rng.randrange(2, 15)
        docs.append((f"d{i}", [f"t{rng.randrange(40)}" for _ in range(length)]))
    index = build_bm25_index(docs)
    oracle = _OracleBm25(docs)
    for _ in range(100):
        query = [f"t{rng.randrange(40)}" for _ in range(rng.randrange(1, 6))]
        for doc_id, _ in docs:
            assert abs(bm25_score(index, query, doc_id) - oracle.score(query, doc_id)) < 1e-9


# --------------------------------------------------------------------------
# 3. Gradient check
# --------------------------------------------------------------------------


@criterion(3, "triplet-loss gradients match central finite differences")
def test_gradient_check_50_models():
    start = time.perf_counter()
    h = 1e-5
    checked = 0
    seed = 0
    while checked < 50:
        seed += 1
        model = EncoderModel.create(dim=4, hash_dim=8, seed=seed)
        rng = np.random.default_rng(seed + 500)
        model.table[:] = rng.normal(0, 1, model.table.shape)
        model.projection[:] = np.eye(4) + 0.1 * rng.normal(0, 1, (4, 4))
        model.bias[:] = 0.05 * rng.normal(0, 1, 4)

        def toks():
            return model.rows(
                [f"t{rng.integers(0, 30)}" for _ in range(int(rng.integers(1, 6)))]
            )

        anchors = [toks() for _ in range(4)]
        positives = [toks() for _ in range(4)]
        negatives = [toks() for _ in range(4)]
        margin = 2.0
        loss, grads = batch_gradients(model, model, anchors, positives, negatives, margin)
        if loss <= 1e-6:
            continue
        (g,) = grads
        analytic = {
            "table": g.dense_table(model.hash_dim, model.dim),
            "projection": g.affine[:-1],
            "bias": g.affine[-1],
        }
        for name, arr in (("table", model.table), ("projection", model.projection),
                          ("bias", model.bias)):
            flat = arr.ravel()
            fd = np.zeros(flat.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = batch_loss(model, model, anchors, positives, negatives, margin)
                flat[i] = orig - h
                down = batch_loss(model, model, anchors, positives, negatives, margin)
                flat[i] = orig
                fd[i] = (up - down) / (2 * h)
            rel = np.linalg.norm(analytic[name].ravel() - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-4, f"model {seed} {name}: relative error {rel}"
        checked += 1
    assert time.perf_counter() - start < 10.0


# --------------------------------------------------------------------------
# 4. Objective ordering on a separable toy instance
# --------------------------------------------------------------------------


@criterion(4, "training satisfies the distance-ordering objective")
def test_objective_ordering():
    start = time.perf_counter()
    base = dataset_from_rows(
        "base", "base", [(f"b{i}", [("t", f"key{i} shared")]) for i in range(10)]
    )
    aux = dataset_from_rows(
        "aux", "auxiliary", [(f"a{i}", [("t", f"key{i} ctx")]) for i in range(10)]
    )
    from emberish.data import SupervisionTriple

    triples = [
        SupervisionTriple(f"b{i}", f"a{i}", f"a{j}")
        for i in range(10)
        for j in range(10)
        if j != i
    ]
    model = EncoderModel.create(dim=16, hash_dim=64, seed=0)
    cfg = TrainConfig(epochs=60, batch_size=8, learning_rate=0.05, margin=0.5, seed=0)
    train(model, triples, base, aux, cfg)
    ordered = 0
    for t in triples:
        xa = encode(model, prepare_sentence(base.record(t.anchor_id)))
        xp = encode(model, prepare_sentence(aux.record(t.positive_id)))
        xn = encode(model, prepare_sentence(aux.record(t.negative_id)))
        ordered += np.linalg.norm(xa - xp) < np.linalg.norm(xa - xn)
    assert ordered == len(triples)
    assert time.perf_counter() - start < 30.0


# --------------------------------------------------------------------------
# 5. Synthetic workload, easy preset: learned beats untrained by >= 0.30
# --------------------------------------------------------------------------


@criterion(5, "easy preset: trained recall@10 - untrained recall@10 >= 0.30")
def test_easy_preset_trained_vs_untrained():
    start = time.perf_counter()
    source = slot_grid_source(n_rows=1000)
    pcfg = PerturbationConfig(
        perturbations_per_row=5, max_fraction=0.25, copies_per_row=5, seed=101
    )
    base, aux, truth = generate_fuzzy_join(source, pcfg)
    train_pairs, test_pairs = split_train_test(truth, test_fraction=0.2, seed=5)
    truth_set = TruthSet.from_pairs(test_pairs)
    config = EngineConfig(
        data_dir=".",
        embedding_dim=20,
        epochs=40,
        learning_rate=5e-3,
        sampler="random",
        seed=3,
        loss_margin=0.2,
    )
    table = run_comparison(
        base, aux, truth_set,
        methods=["untrained-encoder", "trained-encoder"],
        ks=[10],
        train_pairs=train_pairs,
        config=config,
        hash_dim=1 << 15,
    )
    untrained = table.recall("untrained-encoder", 10)
    trained = table.recall("trained-encoder", 10)
    elapsed = time.perf_counter() - start
    print(f"\n  untrained={untrained:.4f} trained={trained:.4f} "
          f"gap={trained - untrained:+.4f} ({elapsed:.0f}s)")
    assert trained - untrained >= 0.30
    assert elapsed < 300.0


# --------------------------------------------------------------------------
# 6. Hard preset: stratified sampler non-inferior to random sampler
# --------------------------------------------------------------------------


@criterion(6, "hard preset: stratified sampler within 0.02 of random sampler")
def test_hard_preset_sampler_non_inferiority():
    start = time.perf_counter()
    source = word_soup_source(n_rows=800, seed=29)
    pcfg = PerturbationConfig(
        perturbations_per_row=15, max_fraction=0.25, copies_per_row=5, seed=11
    )
    base, aux, truth = generate_fuzzy_join(source, pcfg)
    train_pairs, test_pairs = split_train_test(truth, test_fraction=0.2, seed=13)
    truth_set = TruthSet.from_pairs(test_pairs)
    recalls = {}
    for sampler in ("stratified_bm25", "random"):
        config = EngineConfig(
            data_dir=".",
            embedding_dim=24,
            epochs=8,
            learning_rate=5e-3,
            sampler=sampler,
            seed=7,
            loss_margin=0.2,
        )
        table = run_comparison(
            base, aux, truth_set, ["trained-encoder"], [10],
            train_pairs=train_pairs, config=config, hash_dim=1 << 15,
        )
        recalls[sampler] = table.recall("trained-encoder", 10)
    elapsed = time.perf_counter() - start
    print(f"\n  stratified={recalls['stratified_bm25']:.4f} "
          f"random={recalls['random']:.4f} ({elapsed:.0f}s)")
    assert recalls["stratified_bm25"] >= recalls["random"] - 0.02
    assert elapsed < 600.0


# --------------------------------------------------------------------------
# 7. Index-side optimization: identical results, no slower
# --------------------------------------------------------------------------


@criterion(7, "index-side choice preserves INNER results and saves time")
def test_index_side_optimization():
    rng = np.random.default_rng(77)
    base = pair([(f"b{i}", rng.normal(size=8)) for i in range(200)])
    aux = pair([(f"a{i}", rng.normal(size=8)) for i in range(400)])
    spec = JoinSpec("base", "aux", JoinType.INNER, 3, 2, "s")

    results = {}
    timings = {}
    for side in ("auto", "base"):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            result = execute_join(spec, base, aux, index_side=side)
            best = min(best, time.perf_counter() - t0)
        results[side] = result.to_csv_text()
        timings[side] = best

    assert results["auto"] == results["base"]  # byte-identical
    print(f"\n  optimized={timings['auto']:.4f}s unoptimized={timings['base']:.4f}s")
    assert timings["auto"] <= timings["base"]


# --------------------------------------------------------------------------
# 8. Join semantics algebra on 10x10 fixtures
# --------------------------------------------------------------------------


@criterion(8, "join-type algebra: LEFT = INNER + ABSENT, INNER c FULL, RIGHT mirrors")
def test_join_semantics_algebra():
    rng = np.random.default_rng(8)
    base = [(f"b{i}", rng.normal(size=3)) for i in range(10)]
    aux = [(f"a{i}", rng.normal(size=3)) for i in range(10)]
    threshold = 1.8  # leaves some records unmatched

    # Caps non-binding (left_size = |base|) so INNER keeps full per-base lists.
    inner = execute_join(JoinSpec("b", "a", JoinType.INNER, 10, 2, "s"),
                         pair(base), pair(aux), threshold=threshold)
    left = execute_join(JoinSpec("b", "a", JoinType.LEFT, 10, 2, "s"),
                        pair(base), pair(aux), threshold=threshold)
    full = execute_join(JoinSpec("b", "a", JoinType.FULL, 2, 2, "s"),
                        pair(base), pair(aux), threshold=threshold)
    right_mirrored = execute_join(JoinSpec("a", "b", JoinType.RIGHT, 2, 10, "s"),
                                  pair(aux), pair(base), threshold=threshold)

    assert left.matched_pairs() == inner.matched_pairs()
    absent = {m.base_id for m in left.matches if m.absent}
    assert absent == {rid for rid, _ in base} - {b for b, _ in inner.matched_pairs()}

    assert inner.matched_pairs() <= full.matched_pairs()

    # RIGHT with swapped datasets mirrors LEFT exactly.
    mirrored = {(b, a) for a, b in right_mirrored.matched_pairs()}
    assert mirrored == left.matched_pairs()
    absent_right = {m.aux_id for m in right_mirrored.matches if m.absent}
    assert absent_right == absent


# --------------------------------------------------------------------------
# 9. Metric fixtures
# --------------------------------------------------------------------------


@criterion(9, "recall@k / MRR@k match hand-counted fixtures")
def test_metric_fixtures():
    def result_from(rows):
        return JoinResult.from_ids((base_id, aux_id, rank, float(rank))
                                   for base_id, aux_ids in rows.items()
                                   for rank, aux_id in enumerate(aux_ids, start=1))

    result = result_from({
        "q1": ["a", "m", "n"],
        "q2": ["x", "b", "y"],
        "q3": ["x", "y", "z"],
        "q4": ["d", "e", "x"],
        "q5": ["f", "x", "y"],
    })
    truth = TruthSet(related={
        "q1": frozenset({"a"}),
        "q2": frozenset({"b"}),
        "q3": frozenset({"c"}),
        "q4": frozenset({"d", "e"}),
        "q5": frozenset({"f", "g"}),
    })
    # Hand count, k=1: q1 only -> 1/5. k=2: q1, q2, q4 -> 3/5. k=3 same.
    assert recall_at_k(result, truth, 1) == 1 / 5
    assert recall_at_k(result, truth, 2) == 3 / 5
    assert recall_at_k(result, truth, 3) == 3 / 5
    # MRR@10 by hand: 1 + 1/2 + 0 + 1 + 1 over 5 queries = 0.7.
    assert mrr_at_k(result, truth, 10) == pytest.approx(0.7)
    # Record-level strictness: 2 truths, 1 retrieved -> 0.
    strict = result_from({"q": ["t1", "zz"]})
    strict_truth = TruthSet(related={"q": frozenset({"t1", "t2"})})
    assert recall_at_k(strict, strict_truth, 2) == 0.0


# --------------------------------------------------------------------------
# 10. Determinism of command artifacts
# --------------------------------------------------------------------------


@criterion(10, "generate/train/join reruns produce byte-identical artifacts")
def test_command_determinism(tmp_path):
    rng = random.Random(1)
    vocab = [f"v{i}" for i in range(40)]
    rows = [
        (f"r{i}", [("name", " ".join(rng.choice(vocab) for _ in range(6)))])
        for i in range(40)
    ]
    write_dataset(dataset_from_rows("source", "auxiliary", rows), tmp_path / "source.csv")
    config = EngineConfig(
        data_dir=str(tmp_path), embedding_dim=8, epochs=2, learning_rate=0.01,
        sampler="random", seed=5, loss_margin=0.5, left_size=2, right_size=3,
    )

    digests = []
    for _ in range(2):
        out = {}
        out.update(cmd_generate(config, copies=2, perturbations=1).outputs)
        out.update(cmd_train(config, pretrain=True).outputs)
        out.update(cmd_join(config).outputs)
        digests.append(out)
    assert digests[0] == digests[1]


# --------------------------------------------------------------------------
# 11. Parser round-trip property
# --------------------------------------------------------------------------


@criterion(11, "1000 generated specs round-trip; worked examples parse")
def test_parser_round_trip():
    rng = random.Random(123)
    keywords = {"INNER", "LEFT", "RIGHT", "FULL", "KEYLESS", "JOIN", "SIZE", "USING"}

    def ident():
        while True:
            name = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz_")
                           for _ in range(rng.randrange(1, 12)))
            if name.upper() not in keywords:
                return name

    for _ in range(1000):
        spec = JoinSpec(
            base_ref=ident(),
            aux_ref=ident(),
            join_type=rng.choice(list(JoinType)),
            left_size=rng.randrange(1, 10**6),
            right_size=rng.randrange(1, 10**6),
            supervision_ref=ident(),
        )
        assert parse_join_spec(render_join_spec(spec)) == spec

    worked = [
        ("entity_mentions_A INNER KEYLESS JOIN entity_mentions_B "
         "LEFT SIZE 1 RIGHT SIZE 1 USING matching_mentions;", (JoinType.INNER, 1, 1)),
        ("query_corpus LEFT KEYLESS JOIN document_corpus "
         "LEFT SIZE 1 RIGHT SIZE 10 USING relevant_docs_for_query;", (JoinType.LEFT, 1, 10)),
        ("user_database INNER KEYLESS JOIN product_database "
         "LEFT SIZE 20 RIGHT SIZE 10 USING relevant_docs_for_query;", (JoinType.INNER, 20, 10)),
    ]
    for text, expected in worked:
        spec = parse_join_spec(text)
        assert (spec.join_type, spec.left_size, spec.right_size) == expected


# --------------------------------------------------------------------------
# 12. Two-hop pipeline and label averaging
# --------------------------------------------------------------------------


@criterion(12, "two-hop chain composes bijections; label averaging matches hand math")
def test_two_hop_and_label_averaging():
    rng = np.random.default_rng(12)
    n = 6
    sigma = list(rng.permutation(n))
    tau = list(rng.permutation(n))
    inv_sigma = {sigma[i]: i for i in range(n)}
    inv_tau = {tau[j]: j for j in range(n)}

    d0 = [(f"x{i}", np.array([10.0 * i, 0.0])) for i in range(n)]
    d1 = [(f"y{j}", np.array([10.0 * inv_sigma[j] + 0.1, 0.0])) for j in range(n)]
    d2 = [(f"z{m}", np.array([10.0 * inv_sigma[inv_tau[m]] + 0.2, 0.0])) for m in range(n)]

    hop = JoinSpec("a", "b", JoinType.INNER, n, 1, "s")
    chained = chain_joins(pair(d0), [(hop, build_index(pair(d1))), (hop, build_index(pair(d2)))])
    assert len(chained.matches) == n
    for m in chained.matches:
        i = int(m.base_id[1:])
        assert m.path == (f"y{sigma[i]}",)
        assert m.aux_id == f"z{tau[sigma[i]]}"

    # One-hop label averaging with k=2: means computed by hand.
    result = JoinResult.from_ids([
        ("u1", "p1", 1, 0.1),
        ("u1", "p2", 2, 0.2),
        ("u1", "p3", 3, 0.3),
        ("u2", "p3", 1, 0.1),
    ])
    labels = {"p1": 4.0, "p2": 1.0, "p3": 3.5}
    est = aggregate_labels(result, labels, k=2)
    assert est == {"u1": 2.5, "u2": 3.5}  # (4+1)/2 and single label

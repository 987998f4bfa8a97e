"""Encoder forward pass, gradients, training dynamics, and persistence."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from emberish.data import SupervisionTriple
from emberish.encoder import (
    EncoderError,
    EncoderModel,
    TrainConfig,
    batch_gradients,
    load_model,
    save_model,
)
from emberish.prepare import Sentence, prepare_sentence, token_ids
from oracles import batch_loss, dense_table, encode, triplet_loss
from records import dataset_from_rows, embed_dataset, fit_datasets, record, train_on


def sentence(text):
    tokens = tuple(text.lower().split())
    return Sentence(record_id="x", text=text, tokens=tokens)


def small_model(seed=0, dim=4, hash_dim=8, normalize=True):
    model = EncoderModel.create(dim=dim, hash_dim=hash_dim, seed=seed, normalize=normalize)
    rng = np.random.default_rng(seed + 1000)
    model.table[:] = rng.normal(0, 1, model.table.shape)
    model.projection[:] = np.eye(dim) + 0.1 * rng.normal(0, 1, (dim, dim))
    model.bias[:] = 0.05 * rng.normal(0, 1, dim)
    return model


class TestEncode:
    def test_deterministic(self):
        model = EncoderModel.create(dim=8, hash_dim=32, seed=1)
        sent = sentence("alpha beta gamma")
        assert np.array_equal(encode(model, sent), encode(model, sent))

    def test_one_token_equals_table_row(self):
        model = EncoderModel.create(dim=8, hash_dim=32, seed=1, normalize=False)
        sent = sentence("alpha")
        row = model.table[model.rows(["alpha"])[0]]
        assert np.array_equal(encode(model, sent), row)

    def test_token_order_irrelevant(self):
        model = EncoderModel.create(dim=8, hash_dim=32, seed=1)
        a = encode(model, sentence("x y z"))
        b = encode(model, sentence("z x y"))
        assert np.allclose(a, b, atol=1e-15)

    def test_empty_tokens_map_to_zero_vector(self):
        model = EncoderModel.create(dim=8, hash_dim=32, seed=1)
        out = encode(model, Sentence(record_id="e", text="", tokens=()))
        assert np.array_equal(out, np.zeros(8))

    def test_normalized_outputs_unit_norm(self):
        model = EncoderModel.create(dim=16, hash_dim=64, seed=2)
        for text in ("a", "a b", "many words in this one"):
            out = encode(model, sentence(text))
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-6)


class TestRows:
    TOKENS = ["alpha", "beta", "alpha", "gamma", "é"]

    def test_dense_model_rows_are_the_hash_buckets(self):
        from emberish.encoder import _fnv1a

        model = EncoderModel.create(dim=4, hash_dim=37, seed=5)
        rows = model.rows(self.TOKENS)
        assert rows.dtype == np.int64
        assert rows.tolist() == [_fnv1a(t.encode("utf-8"), 5) % 37 for t in self.TOKENS]
        assert model.rows([]).tolist() == []

    def test_partial_model_rows_read_the_dense_tables_rows(self, tmp_path):
        dense = small_model(4, hash_dim=64)
        save_model(dense, tmp_path / "m.bin")
        partial = load_model(tmp_path / "m.bin", tokens=self.TOKENS)
        assert np.array_equal(partial.table[partial.rows(self.TOKENS)],
                              dense.table[dense.rows(self.TOKENS)])
        created = EncoderModel.create(dim=4, hash_dim=64, seed=4, tokens=self.TOKENS)
        full = EncoderModel.create(dim=4, hash_dim=64, seed=4)
        assert np.array_equal(created.table[created.rows(self.TOKENS)],
                              full.table[full.rows(self.TOKENS)])

    @staticmethod
    def missing(model, held):
        return [t for t in (f"m{i}" for i in range(1000))
                if model.rows([t])[0] not in model.rows(held)][:2]

    def test_partial_model_names_the_first_missing_token(self):
        dense = EncoderModel.create(dim=4, hash_dim=64, seed=1)
        partial = EncoderModel.create(dim=4, hash_dim=64, seed=1, tokens=["alpha"])
        first, second = self.missing(dense, ["alpha"])
        with pytest.raises(EncoderError, match=f"token '{first}' hashes to bucket "
                                               f"{dense.rows([first])[0]}, which this "
                                               "partial model did not load"):
            partial.rows(["alpha", first, "alpha", second])

    def test_the_second_of_two_tokens_missing(self):
        dense = EncoderModel.create(dim=4, hash_dim=64, seed=1)
        partial = EncoderModel.create(dim=4, hash_dim=64, seed=1, tokens=["alpha"])
        (missing, _) = self.missing(dense, ["alpha"])
        assert partial.rows(["alpha", "alpha"]).tolist() == [0, 0]
        with pytest.raises(EncoderError, match=f"token '{missing}'"):
            partial.rows(["alpha", missing])

    def test_a_bucket_past_the_last_held_one_is_missing(self):
        # searchsorted puts a bucket above every held one past the end.
        dense = EncoderModel.create(dim=4, hash_dim=64, seed=1)
        held = min((f"h{i}" for i in range(1000)), key=lambda t: dense.rows([t])[0])
        high = max((f"h{i}" for i in range(1000)), key=lambda t: dense.rows([t])[0])
        partial = EncoderModel.create(dim=4, hash_dim=64, seed=1, tokens=[held])
        assert dense.rows([high])[0] > dense.rows([held])[0]
        with pytest.raises(EncoderError, match=f"token '{high}'"):
            partial.rows([held, high])


class TestTripletLoss:
    def test_anchor_equals_positive(self):
        xa = np.zeros(3)
        xn = np.array([2.0, 0.0, 0.0])
        assert triplet_loss(xa, xa, xn, margin=1.0) == 0.0
        assert triplet_loss(xa, xa, np.array([0.5, 0, 0]), margin=1.0) == 0.5

    def test_arithmetic_cases(self):
        xa = np.zeros(2)
        xp = np.array([1.0, 0.0])
        xn = np.array([3.0, 0.0])
        assert triplet_loss(xa, xp, xn, margin=1.0) == 0.0  # 1 - 3 + 1 = -1
        xp2 = np.array([2.0, 0.0])
        xn2 = np.array([1.0, 0.0])
        assert triplet_loss(xa, xp2, xn2, margin=0.5) == 1.5  # 2 - 1 + 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(EncoderError, match="dimension mismatch"):
            triplet_loss(np.zeros(2), np.zeros(3), np.zeros(2), 1.0)

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            xa, xp, xn = rng.normal(size=(3, 5))
            assert triplet_loss(xa, xp, xn, margin=0.3) >= 0.0


def random_batch(model, rng, batch=4, active_margin=2.0):
    toks = lambda: model.rows(
        [f"t{rng.integers(0, 30)}" for _ in range(int(rng.integers(1, 6)))]
    )
    anchors = [toks() for _ in range(batch)]
    positives = [toks() for _ in range(batch)]
    negatives = [toks() for _ in range(batch)]
    return anchors, positives, negatives


class TestGradients:
    def check_model(self, seed, shared=True, normalize=True, batch=4):
        model = small_model(seed, normalize=normalize)
        other = model if shared else small_model(seed + 77, normalize=normalize)
        rng = np.random.default_rng(seed)
        anchors, positives, negatives = random_batch(model, rng, batch)
        margin = 2.0
        loss, grads = batch_gradients(model, other, anchors, positives, negatives, margin)
        if loss <= 1e-6:
            return None
        h = 1e-5
        for m, g in zip((model,) if shared else (model, other), grads, strict=True):
            dense = {
                "table": dense_table(g, m.hash_dim, m.dim),
                "projection": g.affine[:-1],
                "bias": g.affine[-1],
            }
            for name, arr in (("table", m.table), ("projection", m.projection), ("bias", m.bias)):
                flat, gflat = arr.ravel(), dense[name].ravel()
                fd = np.zeros_like(gflat)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = batch_loss(model, other, anchors, positives, negatives, margin)
                    flat[i] = orig - h
                    down = batch_loss(model, other, anchors, positives, negatives, margin)
                    flat[i] = orig
                    fd[i] = (up - down) / (2 * h)
                if name == "bias" and shared and not normalize:
                    # The bias cancels in xa - xp and xa - xn, so its gradient
                    # is 0: the analytic value is rounding noise, and the
                    # difference quotient is 0 or a loss ulp or two over h.
                    assert np.abs(gflat).max() <= 8 * np.finfo(float).eps
                    assert np.abs(fd).max() <= 2 * np.spacing(loss) / h
                    continue
                denom = max(np.linalg.norm(fd), 1e-12)
                rel = np.linalg.norm(gflat - fd) / denom
                assert rel < 1e-4, f"{name} gradient off by {rel}"
        return loss

    def test_gradients_match_finite_differences_shared(self):
        checked = 0
        for seed in range(12):
            if self.check_model(seed) is not None:
                checked += 1
        assert checked >= 8

    def test_gradients_match_finite_differences_two_models(self):
        checked = 0
        for seed in range(6):
            if self.check_model(seed, shared=False) is not None:
                checked += 1
        assert checked >= 4

    def test_gradients_without_normalization(self):
        checked = sum(self.check_model(seed, normalize=False) is not None for seed in range(40))
        assert checked >= 30

    @pytest.mark.parametrize("shared", [True, False])
    def test_one_triple_batches_match_finite_differences(self, shared):
        # One-row matrix products round differently from multi-row ones.
        checked = sum(self.check_model(seed, shared=shared, batch=1) is not None
                      for seed in range(12))
        assert checked >= 10


def per_token_merge(bucket_arrays, rows):
    """The table-gradient merge as it was: one gradient row per token,
    summed into unique buckets with ``np.add.at``."""
    per_token = np.repeat(rows, [b.size for b in bucket_arrays], axis=0)
    unique, inverse = np.unique(np.concatenate(bucket_arrays), return_inverse=True)
    merged = np.zeros((unique.size, rows.shape[1]))
    np.add.at(merged, inverse, per_token)
    return unique, merged


class TestTableGradients:
    def batch(self, model, seed):
        # Three-token vocabulary plus repeats and empty sentences: buckets
        # recur within a sentence, across sentences and across groups.
        rng = np.random.default_rng(seed)
        vocab = ["a", "b", "c", "d"]

        def sent():
            n = int(rng.integers(0, 6))
            return model.rows([vocab[int(rng.integers(0, len(vocab)))] for _ in range(n)])

        groups = [[sent() for _ in range(6)] for _ in range(3)]
        groups[0][1] = np.empty(0, dtype=np.int64)
        groups[2][3] = np.empty(0, dtype=np.int64)
        groups[1][0] = model.rows(["a", "a", "a", "b"])
        return groups

    @pytest.mark.parametrize("shared", [True, False])
    def test_count_matrix_equals_per_token_merge(self, monkeypatch, shared):
        import emberish.encoder as enc_mod

        forward, backward = enc_mod._forward_group, enc_mod._backward_group
        calls = []

        def forward_spy(model, bucket_arrays):
            calls.append(("forward", model))
            return forward(model, bucket_arrays)

        def backward_spy(model, g_x, parts, *intermediates):
            calls.append(("backward", model, g_x, parts))
            return backward(model, g_x, parts, *intermediates)

        monkeypatch.setattr(enc_mod, "_forward_group", forward_spy)
        monkeypatch.setattr(enc_mod, "_backward_group", backward_spy)
        for seed in range(8):
            model = small_model(seed, hash_dim=16)
            other = model if shared else small_model(seed + 50, hash_dim=16)
            anchors, positives, negatives = self.batch(model, seed)
            calls.clear()
            loss, grads = batch_gradients(model, other, anchors, positives, negatives, 3.0)
            assert loss > 0
            owned = ([(model, [anchors, positives, negatives])] if shared
                     else [(model, [anchors]), (other, [positives, negatives])])
            # One forward and one backward pass per model.
            assert [c[:2] for c in calls] == ([("forward", m) for m, _ in owned]
                                              + [("backward", m) for m, _ in owned])
            assert len(grads) == len(owned)
            for (m, groups), (_, _, g_x, parts), got in zip(owned, calls[len(owned):], grads):
                assert parts == len(groups)
                # One forward and one backward pass per group, as reference.
                outs = [backward(m, g, 1, *forward(m, group))
                        for g, group in zip(np.split(g_x, parts), groups)]
                unique, merged = per_token_merge([b for group in groups for b in group],
                                                 np.vstack([o[1] for o in outs]))
                assert np.array_equal(got.table_idx, unique)
                assert np.abs(got.table_rows - merged).max() <= 1e-12
                # The affine sums keep their order, so their bits.
                affine = outs[0][0]
                for o in outs[1:]:
                    affine = affine + o[0]
                assert np.array_equal(got.affine, affine)

    def test_all_empty_sentences_give_no_table_rows(self):
        model = small_model(1, hash_dim=16)
        empty = [np.empty(0, dtype=np.int64)] * 2
        _, grads = batch_gradients(model, model, empty, empty, empty, 1.0)
        (g,) = grads
        assert g.table_idx.size == 0
        assert g.table_rows.shape == (0, model.dim)


class TestStepOracle:
    """The training step equals ``oracles.batch_gradients``, its plain form
    (masked copies, ``np.unique``, stacked affine parts), bit for bit."""

    @staticmethod
    def assert_same_bits(got, want):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 1 << 16), batch=st.integers(1, 8),
           shared=st.booleans(), normalize=st.booleans(), empty=st.booleans(),
           zero_row=st.booleans(), twin=st.booleans())
    def test_step_equals_the_reference(self, data, seed, batch, shared, normalize, empty,
                                       zero_row, twin):
        from emberish.encoder import _Adam

        model = small_model(seed, hash_dim=6, normalize=normalize)
        other = model if shared else small_model(seed + 1, hash_dim=6, normalize=normalize)
        models = (model,) if shared else (model, other)
        # Six rows, so buckets repeat within and across sentences.
        sentence = st.lists(st.integers(0, 5), min_size=0 if empty else 1, max_size=5).map(
            lambda b: np.array(b, dtype=np.int64))
        anchors, positives, negatives = (
            data.draw(st.lists(sentence, min_size=batch, max_size=batch)) for _ in range(3))
        if zero_row:
            # Row 0 and the bias at zero project a sentence of row 0 alone to
            # a zero row (R = 0), which takes the masked path.
            for m in models:
                m.table[0] = 0.0
                m.bias[:] = 0.0
            negatives[-1] = np.array([0, 0], dtype=np.int64)
        if twin:
            # A positive equal to its anchor: a zero distance under one model.
            positives[0] = anchors[0].copy()

        loss, grads = batch_gradients(model, other, anchors, positives, negatives, 2.0)
        ref_loss, ref_grads = oracles.batch_gradients(model, other, anchors, positives,
                                                      negatives, 2.0)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert len(grads) == len(ref_grads) == len(models)
        cfg = TrainConfig(learning_rate=0.05)
        for m, g, ref in zip(models, grads, ref_grads):
            self.assert_same_bits(g.affine, ref.affine)
            self.assert_same_bits(g.table_idx, ref.table_idx)
            self.assert_same_bits(g.table_rows, ref.table_rows)
            stepped, ref_stepped = m.copy(), m.copy()
            _Adam(stepped, cfg).step(stepped, g)
            _Adam(ref_stepped, cfg).step(ref_stepped, ref)
            self.assert_same_bits(stepped.table, ref_stepped.table)
            self.assert_same_bits(stepped.affine, ref_stepped.affine)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("overrides, pretrain", [
        ({}, False),
        ({"num_encoders": 2}, True),
        ({"sampler": "stratified_bm25"}, True),
        ({"sampler": "stratified_bm25", "num_encoders": 2}, False),
        ({"sampler": "stratified_jaccard", "num_encoders": 2}, True),
        ({"sampler": "stratified_jaccard", "tokenizer": "char2gram"}, False),
        ({"tokenizer": "char2gram", "num_encoders": 2}, True),
        ({"normalize": False, "num_encoders": 2}, True),
    ])
    def test_fit_equals_a_fit_with_the_reference_step(self, monkeypatch, seed, overrides,
                                                      pretrain):
        import emberish.encoder as enc_mod
        from emberish.joinspec import EngineConfig

        base, aux, pairs = TestSparseFit.world()
        cfg = EngineConfig(**{**dict(data_dir=".", embedding_dim=8, epochs=2,
                                     learning_rate=0.05, sampler="random", seed=seed,
                                     loss_margin=0.5), **overrides})
        fits = [fit_datasets(base, aux, pairs, cfg, hash_dim=1 << 12, pretrain=pretrain)]
        monkeypatch.setattr(enc_mod, "batch_gradients", oracles.batch_gradients)
        fits.append(fit_datasets(base, aux, pairs, cfg, hash_dim=1 << 12,
                                 pretrain=pretrain))
        fit, ref = fits
        assert len(fit.models) == len(ref.models) == cfg.num_encoders
        assert [(s, e, np.float64(l).tobytes()) for s, e, l in fit.trace] == \
            [(s, e, np.float64(l).tobytes()) for s, e, l in ref.trace]
        for mine, theirs in zip(fit.models, ref.models):
            self.assert_same_bits(mine.table, theirs.table)
            self.assert_same_bits(mine.affine, theirs.affine)


class DenseAdam:
    """Adam with a dense table state, as the lazy one replaced."""

    def __init__(self, model, cfg):
        self.cfg = cfg
        self.m_proj = np.zeros_like(model.projection)
        self.v_proj = np.zeros_like(model.projection)
        self.m_bias = np.zeros_like(model.bias)
        self.v_bias = np.zeros_like(model.bias)
        self.t_dense = 0
        self.m_table = np.zeros_like(model.table)
        self.v_table = np.zeros_like(model.table)
        self.t_rows = np.zeros(model.hash_dim, dtype=np.int64)

    def step(self, model, grads):
        cfg = self.cfg
        self.t_dense += 1
        t = self.t_dense
        for g, m, v, param in (
            (grads.affine[:-1], self.m_proj, self.v_proj, model.projection),
            (grads.affine[-1], self.m_bias, self.v_bias, model.bias),
        ):
            m *= cfg.beta1
            m += (1 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1 - cfg.beta2) * g * g
            m_hat = m / (1 - cfg.beta1 ** t)
            v_hat = v / (1 - cfg.beta2 ** t)
            param -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
        if grads.table_idx.size == 0:
            return
        rows = grads.table_idx
        g = grads.table_rows
        t_rows = self.t_rows[rows] + 1
        m = cfg.beta1 * self.m_table[rows] + (1 - cfg.beta1) * g
        v = cfg.beta2 * self.v_table[rows] + (1 - cfg.beta2) * g * g
        self.m_table[rows] = m
        self.v_table[rows] = v
        self.t_rows[rows] = t_rows
        m_hat = m / (1 - cfg.beta1 ** t_rows)[:, None]
        v_hat = v / (1 - cfg.beta2 ** t_rows)[:, None]
        model.table[rows] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)


class TestLazyAdam:
    def test_bitwise_equal_to_dense_state(self):
        from emberish.encoder import _Adam, _Grads

        cfg = TrainConfig(learning_rate=0.05)
        lazy_model, dense_model = small_model(3, hash_dim=64), small_model(3, hash_dim=64)
        lazy, dense = _Adam(lazy_model, cfg), DenseAdam(dense_model, cfg)
        rng = np.random.default_rng(0)
        # Later steps touch rows never seen before, revisit old ones, and one
        # step touches no row at all.
        touched = [[5], [1, 5, 9], [], [0, 2, 3, 9, 40], list(range(10, 30)), [5, 63], [1, 62]]
        for rows in touched:
            idx = np.array(rows, dtype=np.int64)
            grads = _Grads(affine=rng.normal(size=(5, 4)),
                           table_idx=idx, table_rows=rng.normal(size=(idx.size, 4)))
            lazy.step(lazy_model, grads)
            dense.step(dense_model, grads)
            assert np.array_equal(lazy_model.table, dense_model.table)
            assert np.array_equal(lazy_model.projection, dense_model.projection)
            assert np.array_equal(lazy_model.bias, dense_model.bias)
        # The state is indexed by table row, and every row agrees, the
        # untouched ones still at zero.
        assert np.array_equal(lazy.m_table, dense.m_table)
        assert np.array_equal(lazy.v_table, dense.v_table)
        assert np.array_equal(lazy.t_rows, dense.t_rows)
        seen = np.unique(np.concatenate([np.array(r, dtype=np.int64) for r in touched]))
        assert np.flatnonzero(lazy.t_rows).tolist() == seen.tolist()

    @pytest.mark.parametrize("shared", [True, False])
    def test_state_holds_exactly_the_touched_rows(self, monkeypatch, shared):
        import emberish.encoder as enc_mod

        adams = []

        class Recorded(enc_mod._Adam):
            def __init__(self, model, cfg):
                super().__init__(model, cfg)
                adams.append((model, self))

        monkeypatch.setattr(enc_mod, "_Adam", Recorded)
        base, aux, triples = toy_training_world(6)
        model = EncoderModel.create(dim=8, hash_dim=1 << 16, seed=0)
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.05, margin=1.0, seed=0)
        train_on(model, triples, base, aux, cfg, shared=shared)

        def rows(dataset, ids):
            return {int(b) for i in ids
                    for b in model.rows(prepare_sentence(record(dataset, i)).tokens)}

        anchor_rows = rows(base, {t.anchor_id for t in triples})
        other_rows = rows(aux, {t.positive_id for t in triples} | {t.negative_id for t in triples})
        expected = [anchor_rows | other_rows] if shared else [anchor_rows, other_rows]
        assert len(adams) == len(expected)
        for (m, adam), want in zip(adams, expected):
            assert set(np.flatnonzero(adam.t_rows > 0).tolist()) == want
            assert adam.m_table.shape == adam.v_table.shape == m.table.shape
            assert adam.t_rows.shape == (m.table.shape[0],)
            untouched = adam.t_rows == 0
            assert not adam.m_table[untouched].any() and not adam.v_table[untouched].any()


def toy_training_world(n=10):
    base_rows = [(f"b{i}", [("t", f"key{i} shared")]) for i in range(n)]
    aux_rows = [(f"a{i}", [("t", f"key{i} ctx")]) for i in range(n)]
    base = dataset_from_rows("base", "base", base_rows)
    aux = dataset_from_rows("aux", "auxiliary", aux_rows)
    triples = [
        SupervisionTriple(f"b{i}", f"a{i}", f"a{j}")
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    return base, aux, triples


class TestTrain:
    def test_loss_decreases_on_synthetic_set(self):
        base, aux, triples = toy_training_world()
        model = EncoderModel.create(dim=16, hash_dim=64, seed=0)
        cfg = TrainConfig(epochs=6, batch_size=8, learning_rate=0.02, margin=0.5, seed=0)
        result = train_on(model, triples, base, aux, cfg)
        assert result.epoch_losses[-1] <= result.epoch_losses[0]

    def test_inactive_hinge_leaves_parameters_unchanged(self):
        base, aux, triples = toy_training_world(4)
        model = EncoderModel.create(dim=8, hash_dim=32, seed=1)
        before = (model.table.copy(), model.projection.copy(), model.bias.copy())

        # margin 0 and all triples already satisfied => zero loss, zero Adam steps
        sat = [
            t for t in triples
            if triplet_loss(
                encode(model, prepare_sentence(record(base, t.anchor_id))),
                encode(model, prepare_sentence(record(aux, t.positive_id))),
                encode(model, prepare_sentence(record(aux, t.negative_id))),
                margin=0.0,
            ) == 0.0
        ]
        assert sat, "fixture should have satisfied triples"
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.1, margin=0.0, seed=0)
        result = train_on(model, sat, base, aux, cfg)
        assert result.epoch_losses == [0.0, 0.0]
        assert np.array_equal(model.table, before[0])
        assert np.array_equal(model.projection, before[1])
        assert np.array_equal(model.bias, before[2])

    def test_objective_ordering_after_training(self):
        base, aux, triples = toy_training_world()
        model = EncoderModel.create(dim=16, hash_dim=64, seed=0)
        cfg = TrainConfig(epochs=60, batch_size=8, learning_rate=0.05, margin=0.5, seed=0)
        train_on(model, triples, base, aux, cfg)
        for t in triples:
            xa = encode(model, prepare_sentence(record(base, t.anchor_id)))
            xp = encode(model, prepare_sentence(record(aux, t.positive_id)))
            xn = encode(model, prepare_sentence(record(aux, t.negative_id)))
            assert np.linalg.norm(xa - xp) < np.linalg.norm(xa - xn)

    def test_shared_encoder_identity(self):
        # Identical records on both sides embed identically under one encoder.
        base = dataset_from_rows("b", "base", [("b0", [("t", "same text here")])])
        aux = dataset_from_rows("a", "auxiliary", [("a0", [("t", "same text here")]),
                                                   ("a1", [("t", "other words")])])
        model = EncoderModel.create(dim=8, hash_dim=32, seed=0)
        cfg = TrainConfig(epochs=3, batch_size=2, learning_rate=0.01, margin=0.2, seed=0)
        from emberish.data import SupervisionTriple as Triple

        result = train_on(model, [Triple("b0", "a0", "a1")], base, aux, cfg, shared=True)
        trained = result.model
        xb = encode(trained, prepare_sentence(record(base, "b0")))
        xa = encode(trained, prepare_sentence(record(aux, "a0")))
        assert np.array_equal(xb, xa)

    def test_two_encoders_start_identical_then_diverge(self):
        base, aux, triples = toy_training_world(6)
        model = EncoderModel.create(dim=8, hash_dim=32, seed=0)
        cfg = TrainConfig(epochs=4, batch_size=4, learning_rate=0.05, margin=1.0, seed=0)
        result = train_on(model, triples, base, aux, cfg, shared=False)
        assert len(result.models) == 2
        assert not np.array_equal(result.models[0].table, result.models[1].table)

    def test_epoch_losses_length(self):
        base, aux, triples = toy_training_world(4)
        model = EncoderModel.create(dim=8, hash_dim=32, seed=0)
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=0.01, margin=1.0, seed=0)
        result = train_on(model, triples, base, aux, cfg)
        assert len(result.epoch_losses) == 3

    def test_training_deterministic_under_seed(self):
        base, aux, triples = toy_training_world(5)
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=0.02, margin=0.5, seed=11)
        m1 = EncoderModel.create(dim=8, hash_dim=32, seed=2)
        m2 = EncoderModel.create(dim=8, hash_dim=32, seed=2)
        train_on(m1, triples, base, aux, cfg)
        train_on(m2, triples, base, aux, cfg)
        assert np.array_equal(m1.table, m2.table)
        assert np.array_equal(m1.projection, m2.projection)

    @pytest.mark.parametrize("field, value, message", [
        ("epochs", -1, r"epochs must be >= 0"),
        ("beta1", -0.1, r"beta1 must be in \[0, 1\)"),
        ("beta1", 1.0, r"beta1 must be in \[0, 1\)"),
        ("beta2", -0.1, r"beta2 must be in \[0, 1\)"),
        ("beta2", 1.0, r"beta2 must be in \[0, 1\)"),
        ("eps", 0.0, r"eps must be > 0"),
        ("eps", -1e-8, r"eps must be > 0"),
    ])
    def test_config_rejects_what_the_engine_config_rejects(self, field, value, message):
        with pytest.raises(EncoderError, match=message):
            TrainConfig(**{field: value})

    def test_config_accepts_the_edges(self):
        TrainConfig(epochs=0, beta1=0.0, beta2=0.0, eps=1e-300)


class TestFitEncoder:
    def world(self):
        from emberish.data import SupervisionPair

        base = dataset_from_rows(
            "b", "base", [(f"b{i}", [("t", f"key{i} shared words")]) for i in range(6)]
        )
        aux = dataset_from_rows(
            "a", "auxiliary", [(f"a{i}", [("t", f"key{i} context")]) for i in range(6)]
        )
        pairs = [SupervisionPair(f"b{i}", f"a{i}") for i in range(6)]
        return base, aux, pairs

    def config(self, **overrides):
        from emberish.joinspec import EngineConfig

        raw = dict(data_dir=".", embedding_dim=8, epochs=2, learning_rate=0.01,
                   sampler="random", seed=0, loss_margin=0.5)
        raw.update(overrides)
        return EngineConfig(**raw)

    def test_provided_triples_pass_through_unchanged(self, monkeypatch):
        from emberish import encoder as enc_mod

        base, aux, _ = self.world()
        triples = [SupervisionTriple("b0", "a0", "a1"), SupervisionTriple("b1", "a1", "a2")]

        def forbidden(*args, **kwargs):
            raise AssertionError("sampler must not run for triple supervision")

        monkeypatch.setattr(enc_mod, "sample_triples", forbidden)
        monkeypatch.setattr(enc_mod, "build_tiers", forbidden)
        seen = {}
        original_train = enc_mod.train

        def spy(model, ts, *args, **kwargs):
            seen["triples"] = ts
            return original_train(model, ts, *args, **kwargs)

        monkeypatch.setattr(enc_mod, "train", spy)
        fit_datasets(base, aux, triples, self.config(), hash_dim=64)
        assert seen["triples"] == triples

    def test_training_updates_the_buckets_the_join_reads(self, tmp_path):
        # Under char2gram, every bucket of every record in a triple is a table
        # row that training changed; the margin keeps every triple active.
        # The fit holds only its records' rows, so they are compared through
        # row_buckets, and the saved file changes exactly those rows.

        base, aux, _ = self.world()
        triples = [SupervisionTriple(f"b{i}", f"a{i}", f"a{(i + 1) % 6}") for i in range(6)]
        cfg = self.config(tokenizer="char2gram", loss_margin=100.0)
        fit = fit_datasets(base, aux, triples, cfg, hash_dim=1 << 12)
        start = EncoderModel.create(dim=8, hash_dim=1 << 12, seed=0)
        held = fit.model.row_buckets
        changed = set(held[(fit.model.table != start.table[held]).any(axis=1)].tolist())
        save_model(fit.model, tmp_path / "m.bin")
        saved = load_model(tmp_path / "m.bin").table
        assert set(np.flatnonzero((saved != start.table).any(axis=1)).tolist()) == changed
        for t in triples:
            for dataset, rid in ((base, t.anchor_id), (aux, t.positive_id), (aux, t.negative_id)):
                buckets = start.rows(
                    prepare_sentence(record(dataset, rid), tokenizer="char2gram").tokens)
                assert set(buckets.tolist()) <= changed

    @pytest.mark.parametrize("sampler", ["stratified_bm25", "stratified_jaccard"])
    def test_lexical_ranking_reads_whitespace_tokens_under_char2gram(self, sampler,
                                                                     monkeypatch):
        # a0 and a1 hold the same character bigrams, so only whitespace
        # tokens rank a1 ("ab cd", as b0) above a0 ("abcd").
        from emberish import encoder as enc_mod
        from emberish.data import SupervisionPair

        base = dataset_from_rows("b", "base", [("b0", [("t", "ab cd")]), ("b1", [("t", "zz")])])
        aux = dataset_from_rows("a", "auxiliary", [("a0", [("t", "abcd")]),
                                                   ("a1", [("t", "ab cd")]),
                                                   ("a2", [("t", "zz")])])
        made = {}
        for name in ("build_tiers", "build_pretraining_pairs"):
            def spy(*args, _name=name, _original=getattr(enc_mod, name), **kwargs):
                made[_name] = _original(*args, **kwargs)
                return made[_name]

            monkeypatch.setattr(enc_mod, name, spy)
        pairs = [SupervisionPair("b0", "a2"), SupervisionPair("b1", "a2")]
        fit_datasets(base, aux, pairs, self.config(sampler=sampler, tokenizer="char2gram"),
                     hash_dim=64, pretrain=True)
        assert made["build_pretraining_pairs"][0].positive_id == "a1"
        assert made["build_tiers"]["b0"][:2] == ["a1", "a0"]

    @pytest.mark.parametrize("tokenizer", ["whitespace", "char2gram"])
    def test_one_bm25_ranking_fits_the_model_of_two(self, tokenizer, monkeypatch):
        # Pretraining with stratified_bm25 tiers ranks every base record
        # once; a fit whose pretraining ranks again trains the same bits.
        from emberish import encoder as enc_mod
        from emberish.data import SupervisionPair

        base, aux, pairs = self.world()
        pairs = pairs[1::2] + [SupervisionPair("b2", "a3")]
        cfg = self.config(sampler="stratified_bm25", tokenizer=tokenizer)
        shared = fit_datasets(base, aux, pairs, cfg, hash_dim=64, pretrain=True)
        build = enc_mod.build_pretraining_pairs
        monkeypatch.setattr(enc_mod, "build_pretraining_pairs",
                            lambda *args, tiers, **kwargs: build(*args, **kwargs))
        alone = fit_datasets(base, aux, pairs, cfg, hash_dim=64, pretrain=True)
        assert np.array_equal(shared.model.table, alone.model.table)
        assert np.array_equal(shared.model.affine, alone.model.affine)
        assert shared.trace == alone.trace

    @pytest.mark.parametrize("sampler, tokenizer, pretrain", [
        ("stratified_bm25", "whitespace", False),
        ("stratified_bm25", "whitespace", True),
        ("stratified_jaccard", "whitespace", False),
        ("stratified_jaccard", "whitespace", True),
        ("stratified_bm25", "char2gram", True),
        ("random", "char2gram", False),
        ("random", "char2gram", True),
    ])
    def test_each_record_prepared_once_per_featurizer(self, sampler, tokenizer, pretrain,
                                                       tmp_path, monkeypatch):
        # train tokenizes each row once per featurizer as its file streams
        # past: under the config's tokenizer, and under whitespace as well
        # when char2gram records are ranked lexically. The tiers and the
        # pretraining pairs rank those token ids through one BM25 index
        # built once per fit, not per epoch, and shared when both use BM25.
        from collections import Counter

        from emberish import lexrank, prepare, supervise
        from emberish.cli import cmd_train
        from emberish.data import write_dataset, write_pairs

        base, aux, pairs = self.world()
        write_dataset(base, tmp_path / "base.csv")
        write_dataset(aux, tmp_path / "aux.csv")
        write_pairs(pairs, tmp_path / "supervision.csv")
        tokenized, builds = Counter(), []
        tokenize, build = prepare.tokenize, lexrank.build_bm25_index

        def counting_tokenize(text, mode="whitespace"):
            tokenized[mode] += 1
            return tokenize(text, mode)

        def counting_build(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(prepare, "tokenize", counting_tokenize)
        for module in (lexrank, supervise):
            monkeypatch.setattr(module, "build_bm25_index", counting_build)
        cmd_train(self.config(data_dir=str(tmp_path), epochs=3, sampler=sampler,
                              tokenizer=tokenizer), pretrain=pretrain)
        lexical = pretrain or sampler != "random"
        records = base.n + aux.n
        assert tokenized == {tokenizer: records,
                             **({"whitespace": records} if lexical else {})}
        assert len(builds) == (pretrain or sampler == "stratified_bm25")

    def test_finetune_false_returns_initial_model(self, tmp_path):

        base, aux, pairs = self.world()
        cfg = self.config(finetune=False)
        fit = fit_datasets(base, aux, pairs, cfg, hash_dim=64)
        reference = EncoderModel.create(dim=8, hash_dim=64, seed=0)
        assert np.array_equal(fit.model.table, reference.table[fit.model.row_buckets])
        save_model(fit.model, tmp_path / "fit.bin")
        save_model(reference, tmp_path / "reference.bin")
        assert (tmp_path / "fit.bin").read_bytes() == (tmp_path / "reference.bin").read_bytes()
        assert fit.trace == []

    @pytest.mark.parametrize("sampler, pretrain", [("random", True),
                                                   ("stratified_jaccard", False)])
    def test_char2gram_lexical_ranking_requires_whitespace_ids(self, sampler, pretrain):
        from emberish.encoder import fit_encoder

        base, aux, pairs = self.world()
        with pytest.raises(EncoderError, match="rank whitespace tokens"):
            fit_encoder(base.ids(), aux.ids(), pairs,
                        self.config(sampler=sampler, tokenizer="char2gram"),
                        features=token_ids([base, aux], "char2gram"), hash_dim=64,
                        pretrain=pretrain)

    def test_custom_sampler_requires_triples(self):

        base, aux, pairs = self.world()
        with pytest.raises(EncoderError, match="custom"):
            fit_datasets(base, aux, pairs, self.config(sampler="custom"), hash_dim=64)

    def test_freeze_negatives_reuses_one_draw(self):

        base, aux, pairs = self.world()
        cfg = self.config(epochs=3)
        frozen = fit_datasets(base, aux, pairs, cfg, hash_dim=64, freeze_negatives=True)
        frozen2 = fit_datasets(base, aux, pairs, cfg, hash_dim=64, freeze_negatives=True)
        assert np.array_equal(frozen.model.table, frozen2.model.table)


class TestSparseFit:
    """``fit_encoder`` holds only its records' table rows, and ``save_model``
    streams the rest of the seeded initial table."""

    @staticmethod
    def world(n=40, vocab=60):
        from emberish.data import SupervisionPair

        rng = np.random.default_rng(11)
        words = [f"w{j}" for j in range(vocab)]
        rows = [" ".join(rng.choice(words, size=6)) for _ in range(n)]
        base = dataset_from_rows("b", "base", [
            (f"b{i}", [("t", f"{text} {words[i % vocab]}")]) for i, text in enumerate(rows)])
        aux = dataset_from_rows("a", "auxiliary", [
            (f"a{i}", [("t", text)]) for i, text in enumerate(rows)])
        return base, aux, [SupervisionPair(f"b{i}", f"a{i}") for i in range(n)]

    @pytest.mark.parametrize("overrides, pretrain, hash_dim", [
        ({}, False, None),
        ({"num_encoders": 2}, False, None),
        ({}, True, None),
        ({"num_encoders": 2}, True, None),
        ({"tokenizer": "char2gram"}, False, None),
        ({"finetune": False}, True, None),
        ({"sampler": "stratified_jaccard"}, False, None),
        ({"sampler": "stratified_bm25", "num_encoders": 2}, True, 37),
    ])
    def test_saved_files_equal_a_dense_fit(self, tmp_path, overrides, pretrain, hash_dim):
        from emberish.encoder import _INIT_ROWS, _token_rows
        from emberish.joinspec import EngineConfig

        # By default the table spans two whole init blocks and part of a third.
        hash_dim = hash_dim or 2 * _INIT_ROWS + 123
        assert hash_dim % _INIT_ROWS
        base, aux, pairs = self.world()
        cfg = EngineConfig(**{**dict(data_dir=".", embedding_dim=8, epochs=2,
                                     learning_rate=0.05, sampler="random", seed=3,
                                     loss_margin=0.5), **overrides})
        sparse = fit_datasets(base, aux, pairs, cfg, hash_dim=hash_dim, pretrain=pretrain)
        dense_init = EncoderModel.create(dim=8, hash_dim=hash_dim, seed=3)
        initial = np.random.default_rng(3).normal(0.0, 1 / np.sqrt(8), size=(hash_dim, 8))
        assert np.array_equal(dense_init.table, initial)
        dense = fit_datasets(base, aux, pairs, cfg, hash_dim=hash_dim, pretrain=pretrain,
                             init_model=dense_init)
        vocab = {t for ds in (base, aux) for rec in ds.records
                 for t in prepare_sentence(rec, tokenizer=cfg.tokenizer).tokens}
        held = _token_rows(vocab, 3, hash_dim)
        if hash_dim < len(vocab):
            assert held.size < len(vocab)  # buckets collide
        assert len(sparse.models) == len(dense.models) == cfg.num_encoders
        assert sparse.trace == dense.trace
        for i, (mine, theirs) in enumerate(zip(sparse.models, dense.models)):
            assert np.array_equal(mine.row_buckets, held)
            save_model(mine, tmp_path / f"sparse{i}.bin")
            save_model(theirs, tmp_path / f"dense{i}.bin")
            assert (tmp_path / f"sparse{i}.bin").read_bytes() == \
                (tmp_path / f"dense{i}.bin").read_bytes()
        # The fit moved rows away from the seeded init, so the files compare
        # trained rows as well as streamed ones.
        assert not np.array_equal(load_model(tmp_path / "sparse0.bin").table, initial)

    @pytest.mark.parametrize("num_encoders", [1, 2])
    @pytest.mark.parametrize("pretrain", [False, True])
    def test_fit_from_a_partial_load_saves_the_full_loads_files(self, tmp_path, num_encoders,
                                                                pretrain):
        from emberish.encoder import _INIT_ROWS
        from emberish.joinspec import EngineConfig

        # An earlier fit over twice the words trains rows that this fit's
        # vocabulary does not hash to, so they come from the file.
        hash_dim = 2 * _INIT_ROWS + 123
        cfg = EngineConfig(data_dir=".", embedding_dim=8, epochs=2, learning_rate=0.05,
                           sampler="random", seed=3, loss_margin=0.5, num_encoders=num_encoders)
        earlier = tmp_path / "earlier.bin"
        save_model(fit_datasets(*self.world(vocab=60), cfg, hash_dim=hash_dim).model, earlier)
        base, aux, pairs = self.world(vocab=30)
        features = token_ids([base, aux], cfg.tokenizer)
        full, partial = (fit_datasets(base, aux, pairs, cfg, pretrain=pretrain,
                                      init_model=load_model(earlier, tokens), features=features)
                         for tokens in (None, features[0]))
        assert full.trace == partial.trace
        assert len(partial.models) == num_encoders
        outside = np.ones(hash_dim, bool)
        outside[partial.model.row_buckets] = False
        initial = EncoderModel.create(dim=8, hash_dim=hash_dim, seed=3).table
        earlier_table = load_model(earlier).table
        assert not np.array_equal(earlier_table[outside], initial[outside])
        for i, (mine, theirs) in enumerate(zip(partial.models, full.models)):
            assert mine.source == earlier and mine.row_buckets.size < hash_dim
            save_model(mine, tmp_path / f"partial{i}.bin")
            save_model(theirs, tmp_path / f"full{i}.bin")
            assert (tmp_path / f"partial{i}.bin").read_bytes() == \
                (tmp_path / f"full{i}.bin").read_bytes()
            saved = load_model(tmp_path / f"partial{i}.bin").table
            assert np.array_equal(saved[outside], earlier_table[outside])
            assert not np.array_equal(saved[~outside], earlier_table[~outside])

    def test_fit_and_save_never_hold_the_dense_table(self, tmp_path):
        import tracemalloc

        from emberish.joinspec import EngineConfig

        base, aux, pairs = self.world()
        cfg = EngineConfig(data_dir=".", embedding_dim=32, epochs=1, learning_rate=0.05,
                           sampler="random", seed=3, loss_margin=0.5)
        hash_dim = 1 << 16
        tracemalloc.start()
        try:
            fit = fit_datasets(base, aux, pairs, cfg, hash_dim=hash_dim)
            save_model(fit.model, tmp_path / "m.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense_bytes = hash_dim * 32 * 8
        assert peak < dense_bytes / 4
        assert (tmp_path / "m.bin").stat().st_size > dense_bytes


class TestEmbedDataset:
    def test_cardinality_and_order(self):
        base, _, _ = toy_training_world(7)
        model = EncoderModel.create(dim=8, hash_dim=32, seed=0)
        ids, vectors = embed_dataset(model, base)
        assert list(ids) == [r.id for r in base.records]
        assert vectors.shape == (len(base.records), 8)

    def test_duplicate_records_duplicate_embeddings(self):
        ds = dataset_from_rows("d", "base", [("x", [("t", "abc")]), ("y", [("t", "abc")])])
        model = EncoderModel.create(dim=8, hash_dim=32, seed=0)
        out = dict(zip(*embed_dataset(model, ds)))
        assert np.array_equal(out["x"], out["y"])

    def test_rerun_bitwise_identical(self):
        base, _, _ = toy_training_world(5)
        model = EncoderModel.create(dim=8, hash_dim=32, seed=0)
        first = embed_dataset(model, base)
        second = embed_dataset(model, base)
        for (i1, v1), (i2, v2) in zip(zip(*first), zip(*second)):
            assert i1 == i2 and np.array_equal(v1, v2)

    def test_holds_its_output_and_a_few_small_blocks(self):
        # tracemalloc sees numpy's buffers. The forward pass holds about five
        # arrays the size of its block of rows, which is 2^16 floats (0.5 MB).
        n, dim = 6000, 200
        ds = dataset_from_rows("d", "base", [(f"r{i}", [("t", f"w{i % 50} w{i % 7} x")])
                                             for i in range(n)])
        model = EncoderModel.create(dim=dim, hash_dim=64, seed=0)
        vocab, (ids,) = token_ids([ds])
        tracemalloc.start()
        try:
            _, vectors = embed_dataset(model, ds, features=(vocab, ids))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vectors.shape == (n, dim)
        assert peak <= vectors.nbytes + 8 * 8 * (1 << 16)

    def test_features_from_a_shared_vocabulary_embed_as_the_dataset_alone(self):
        base, aux, _ = toy_training_world(5)
        model = EncoderModel.create(dim=8, hash_dim=32, seed=0)
        vocab, (base_ids, aux_ids) = token_ids([base, aux])
        for ds, ids in ((base, base_ids), (aux, aux_ids)):
            got_ids, got = embed_dataset(model, ds, features=(vocab, ids))
            want_ids, want = embed_dataset(model, ds)
            assert got_ids == want_ids and np.array_equal(got, want)
        with pytest.raises(EncoderError, match="4 token id arrays for 5 records"):
            embed_dataset(model, base, features=(vocab, base_ids[:-1]))

    def test_no_block_holds_a_single_row(self):
        # One record more than a full block. A split that left the last
        # record alone would multiply it with gemv, whose last bits differ
        # from gemm's, so it would no longer equal its duplicate, the first.
        from emberish.encoder import _EMBED_CELLS

        dim = 200
        n = _EMBED_CELLS // dim + 1
        rows = [(f"r{i}", [("t", f"w{i % 97} w{i % 89} w{i % 83}")]) for i in range(n - 1)]
        rows.append(("last", rows[0][1]))
        ds = dataset_from_rows("d", "base", rows)
        model = EncoderModel.create(dim=dim, hash_dim=256, seed=4)
        model.projection[:] = np.random.default_rng(4).normal(size=(dim, dim))
        ids, vectors = embed_dataset(model, ds)
        assert ids[-1] == "last"
        assert np.array_equal(vectors[0], vectors[-1])
        assert np.array_equal(vectors, embed_dataset(model, ds)[1])
        assert np.allclose(vectors[0], encode(model, prepare_sentence(ds.records[0])),
                           atol=1e-12)


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        model = small_model(5)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(model.table, loaded.table)
        assert np.array_equal(model.projection, loaded.projection)
        assert np.array_equal(model.bias, loaded.bias)
        assert loaded.hash_seed == model.hash_seed
        assert loaded.normalize == model.normalize

    def test_loaded_model_embeds_identically(self, tmp_path):
        model = small_model(6)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        sent = sentence("alpha beta")
        assert np.array_equal(encode(model, sent), encode(loaded, sent))

    def test_save_does_not_copy_the_table(self, tmp_path):
        import tracemalloc

        model = EncoderModel.create(dim=64, hash_dim=1 << 12, seed=2)
        tracemalloc.start()
        try:
            save_model(model, tmp_path / "m.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.table.nbytes / 4
        assert np.array_equal(load_model(tmp_path / "m.bin").table, model.table)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_seeded_table_is_the_one_shot_draw_bit_for_bit(self, tmp_path, seed):
        from emberish.encoder import _INIT_ROWS

        # Blocks of _INIT_ROWS drawn into one buffer, the last one partial.
        hash_dim, dim = 2 * _INIT_ROWS + 123, 8
        draw = np.random.default_rng(seed).normal(0.0, 1 / np.sqrt(dim), (hash_dim, dim))
        assert EncoderModel.create(dim=dim, hash_dim=hash_dim, seed=seed).table.tobytes() == \
            draw.tobytes()
        partial = EncoderModel.create(dim=dim, hash_dim=hash_dim, seed=seed, tokens=["a", "b"])
        assert partial.table.tobytes() == draw[partial.row_buckets].tobytes()
        save_model(partial, tmp_path / "m.bin")
        assert load_model(tmp_path / "m.bin").table.tobytes() == draw.tobytes()

    def test_truncated_file_rejected(self, tmp_path):
        model = small_model(7)
        path = tmp_path / "m.bin"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(EncoderError, match="truncated"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(EncoderError, match="magic|truncated"):
            load_model(path)


class TestPartialModel:
    @staticmethod
    def saved(tmp_path):
        model = small_model(9, hash_dim=64)
        path = tmp_path / "m.bin"
        save_model(model, path)
        return model, path

    @staticmethod
    def world():
        return dataset_from_rows("d", "base", [
            ("a", [("t", "alpha beta gamma")]), ("b", [("t", "beta delta")]),
            ("c", [("t", "")]), ("d", [("t", "gamma gamma epsilon zeta")]),
        ])

    @staticmethod
    def tokens(ds):
        return [prepare_sentence(rec).tokens for rec in ds.records]

    def test_embeds_bit_identically_to_the_dense_model(self, tmp_path):
        model, path = self.saved(tmp_path)
        ds = self.world()
        tokens = self.tokens(ds)
        flat = [t for ts in tokens for t in ts]
        partial = load_model(path, tokens=flat)
        assert partial.hash_dim == model.hash_dim
        assert partial.row_buckets.tolist() == sorted(set(model.rows(flat).tolist()))
        assert np.array_equal(partial.table, model.table[partial.row_buckets])
        dense_ids, dense = embed_dataset(load_model(path), ds)
        vocab, (ids,) = token_ids([ds])
        for got_ids, got in (embed_dataset(partial, ds),
                             embed_dataset(partial, ds, features=(vocab, ids))):
            assert got_ids == dense_ids
            assert np.array_equal(got, dense)

    def test_a_token_whose_row_was_not_loaded_raises(self, tmp_path):
        model, path = self.saved(tmp_path)
        partial = load_model(path, tokens=["alpha"])
        def row(m, token):
            return int(m.rows([token])[0])

        assert np.array_equal(partial.table[row(partial, "alpha")],
                              model.table[row(model, "alpha")])
        # Any token in alpha's bucket has a row; one in another bucket has none.
        other = next(t for t in (f"t{i}" for i in range(1000))
                     if row(model, t) != row(model, "alpha"))
        twin = next(t for t in (f"t{i}" for i in range(10000))
                    if row(model, t) == row(model, "alpha"))
        assert row(partial, twin) == row(partial, "alpha")
        for probe in (partial, partial.copy()):
            with pytest.raises(EncoderError, match="did not load"):
                row(probe, other)
        copy = partial.copy()
        assert np.array_equal(copy.row_buckets, partial.row_buckets)
        assert row(copy, "alpha") == row(partial, "alpha")

    @pytest.mark.parametrize("shared", [True, False])
    def test_trains_and_saves_the_bytes_of_the_full_model(self, tmp_path, shared):
        _, path = self.saved(tmp_path)
        ds = dataset_from_rows("a", "auxiliary", [("x", [("t", "alpha")]), ("y", [("t", "beta")])])
        triple = SupervisionTriple(anchor_id="x", positive_id="x", negative_id="y")
        full, partial = load_model(path), load_model(path, tokens=token_ids([ds])[0])
        assert partial.row_buckets.size < partial.hash_dim and partial.source == path
        saved = {}
        for name, model in (("full", full), ("partial", partial)):
            fit = train_on(model, [triple], ds, ds, TrainConfig(epochs=2, learning_rate=0.05),
                           shared=shared)
            saved[name] = []
            for j, trained in enumerate(fit.models):
                save_model(trained, tmp_path / f"{name}{j}.bin")
                saved[name].append((tmp_path / f"{name}{j}.bin").read_bytes())
        assert len(saved["partial"]) == (1 if shared else 2)
        assert saved["partial"] == saved["full"]
        assert saved["full"][0] != path.read_bytes()  # training moved rows

    @pytest.mark.parametrize("tokens", [None, ["alpha", "beta"]])
    def test_saves_over_the_file_it_was_read_from(self, tmp_path, tokens):
        model, path = self.saved(tmp_path)
        loaded = load_model(path, tokens=tokens)
        loaded.table[loaded.rows(["alpha"])] += 1.0
        model.table[model.rows(["alpha"])] += 1.0
        save_model(loaded, path)
        save_model(model, tmp_path / "expected.bin")
        assert path.read_bytes() == (tmp_path / "expected.bin").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["expected.bin", "m.bin"]

    @pytest.mark.parametrize("change", ["dim", "hash_dim", "hash_seed", "size"])
    @pytest.mark.parametrize("onto_source", [False, True])
    def test_a_source_changed_since_the_load_is_rejected(self, tmp_path, change, onto_source):
        _, path = self.saved(tmp_path)
        partial = load_model(path, tokens=["alpha"])
        if change == "size":
            path.write_bytes(path.read_bytes()[:-8])
        else:
            other = {"dim": dict(seed=9, dim=5, hash_dim=64),
                     "hash_dim": dict(seed=9, hash_dim=65),
                     "hash_seed": dict(seed=10, hash_dim=64)}[change]
            save_model(small_model(**other), path)
        target = path if onto_source else tmp_path / "out.bin"
        if not onto_source:
            target.write_bytes(b"an earlier file")
        before = target.read_bytes()
        with pytest.raises(EncoderError, match="truncated" if change == "size" else "source"):
            save_model(partial, target)
        assert target.read_bytes() == before
        assert not list(tmp_path.glob(".*.partial"))

    def test_truncated_and_bad_magic_rejected_when_partial(self, tmp_path):
        _, path = self.saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(EncoderError, match="truncated"):
            load_model(path, tokens=["alpha"])
        path.write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(EncoderError, match="magic"):
            load_model(path, tokens=["alpha"])

    def test_partial_load_does_not_read_the_table(self, tmp_path):
        import tracemalloc

        model = EncoderModel.create(dim=16, hash_dim=1 << 16, seed=3)
        save_model(model, tmp_path / "m.bin")
        tokens = [f"w{i}" for i in range(500)]
        tracemalloc.start()
        try:
            partial = load_model(tmp_path / "m.bin", tokens=tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.table.nbytes / 4
        assert np.array_equal(partial.table, model.table[partial.row_buckets])
        assert np.array_equal(partial.projection, model.projection)
        assert np.array_equal(partial.bias, model.bias)

"""Encoder forward pass, gradients, training dynamics, and persistence."""

import numpy as np
import pytest

from emberish.data import SupervisionTriple, dataset_from_rows
from emberish.encoder import (
    EncoderError,
    EncoderModel,
    TrainConfig,
    batch_gradients,
    batch_loss,
    embed_dataset,
    encode,
    load_model,
    save_model,
    train,
    triplet_loss,
)
from emberish.prepare import Sentence, prepare_sentence


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
        row = model.table[model.bucket("alpha")]
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
    toks = lambda: model.buckets(
        [f"t{rng.integers(0, 30)}" for _ in range(int(rng.integers(1, 6)))]
    )
    anchors = [toks() for _ in range(batch)]
    positives = [toks() for _ in range(batch)]
    negatives = [toks() for _ in range(batch)]
    return anchors, positives, negatives


class TestGradients:
    def check_model(self, seed, shared=True, normalize=True):
        model = small_model(seed, normalize=normalize)
        other = model if shared else small_model(seed + 77, normalize=normalize)
        rng = np.random.default_rng(seed)
        anchors, positives, negatives = random_batch(model, rng)
        margin = 2.0
        loss, grads = batch_gradients(model, other, anchors, positives, negatives, margin)
        if loss <= 1e-6:
            return None
        h = 1e-5
        for m in {id(model): model, id(other): other}.values():
            g = grads[id(m)]
            dense = {
                "table": g.dense_table(m.hash_dim, m.dim),
                "projection": g.projection,
                "bias": g.bias,
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
        assert self.check_model(3, normalize=False) is not None


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
        result = train(model, triples, base, aux, cfg)
        assert result.epoch_losses[-1] <= result.epoch_losses[0]

    def test_inactive_hinge_leaves_parameters_unchanged(self):
        base, aux, triples = toy_training_world(4)
        model = EncoderModel.create(dim=8, hash_dim=32, seed=1)
        before = (model.table.copy(), model.projection.copy(), model.bias.copy())

        # margin 0 and all triples already satisfied => zero loss, zero Adam steps
        sat = [
            t for t in triples
            if triplet_loss(
                encode(model, prepare_sentence(base.record(t.anchor_id))),
                encode(model, prepare_sentence(aux.record(t.positive_id))),
                encode(model, prepare_sentence(aux.record(t.negative_id))),
                margin=0.0,
            ) == 0.0
        ]
        assert sat, "fixture should have satisfied triples"
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.1, margin=0.0, seed=0)
        result = train(model, sat, base, aux, cfg)
        assert result.epoch_losses == [0.0, 0.0]
        assert np.array_equal(model.table, before[0])
        assert np.array_equal(model.projection, before[1])
        assert np.array_equal(model.bias, before[2])

    def test_objective_ordering_after_training(self):
        base, aux, triples = toy_training_world()
        model = EncoderModel.create(dim=16, hash_dim=64, seed=0)
        cfg = TrainConfig(epochs=60, batch_size=8, learning_rate=0.05, margin=0.5, seed=0)
        train(model, triples, base, aux, cfg)
        for t in triples:
            xa = encode(model, prepare_sentence(base.record(t.anchor_id)))
            xp = encode(model, prepare_sentence(aux.record(t.positive_id)))
            xn = encode(model, prepare_sentence(aux.record(t.negative_id)))
            assert np.linalg.norm(xa - xp) < np.linalg.norm(xa - xn)

    def test_shared_encoder_identity(self):
        # Identical records on both sides embed identically under one encoder.
        base = dataset_from_rows("b", "base", [("b0", [("t", "same text here")])])
        aux = dataset_from_rows("a", "auxiliary", [("a0", [("t", "same text here")]),
                                                   ("a1", [("t", "other words")])])
        model = EncoderModel.create(dim=8, hash_dim=32, seed=0)
        cfg = TrainConfig(epochs=3, batch_size=2, learning_rate=0.01, margin=0.2, seed=0)
        from emberish.data import SupervisionTriple as Triple

        result = train(model, [Triple("b0", "a0", "a1")], base, aux, cfg, shared=True)
        trained = result.model
        xb = encode(trained, prepare_sentence(base.record("b0")))
        xa = encode(trained, prepare_sentence(aux.record("a0")))
        assert np.array_equal(xb, xa)

    def test_two_encoders_start_identical_then_diverge(self):
        base, aux, triples = toy_training_world(6)
        model = EncoderModel.create(dim=8, hash_dim=32, seed=0)
        cfg = TrainConfig(epochs=4, batch_size=4, learning_rate=0.05, margin=1.0, seed=0)
        result = train(model, triples, base, aux, cfg, shared=False)
        assert len(result.models) == 2
        assert not np.array_equal(result.models[0].table, result.models[1].table)

    def test_epoch_losses_length(self):
        base, aux, triples = toy_training_world(4)
        model = EncoderModel.create(dim=8, hash_dim=32, seed=0)
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=0.01, margin=1.0, seed=0)
        result = train(model, triples, base, aux, cfg)
        assert len(result.epoch_losses) == 3

    def test_training_deterministic_under_seed(self):
        base, aux, triples = toy_training_world(5)
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=0.02, margin=0.5, seed=11)
        m1 = EncoderModel.create(dim=8, hash_dim=32, seed=2)
        m2 = EncoderModel.create(dim=8, hash_dim=32, seed=2)
        train(m1, triples, base, aux, cfg)
        train(m2, triples, base, aux, cfg)
        assert np.array_equal(m1.table, m2.table)
        assert np.array_equal(m1.projection, m2.projection)


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
        from emberish.encoder import fit_encoder

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
        fit_encoder(base, aux, triples, self.config(), hash_dim=64)
        assert seen["triples"] == triples

    def test_tiers_built_once_per_fit(self, monkeypatch):
        from emberish import supervise
        from emberish.encoder import fit_encoder

        base, aux, pairs = self.world()
        calls = []
        original = supervise.build_bm25_index

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(supervise, "build_bm25_index", counting)
        fit_encoder(base, aux, pairs, self.config(epochs=3, sampler="stratified_bm25"),
                    hash_dim=64)
        assert len(calls) == 1

    def test_finetune_false_returns_initial_model(self):
        from emberish.encoder import fit_encoder

        base, aux, pairs = self.world()
        cfg = self.config(finetune=False)
        fit = fit_encoder(base, aux, pairs, cfg, hash_dim=64)
        reference = EncoderModel.create(dim=8, hash_dim=64, seed=0)
        assert np.array_equal(fit.model.table, reference.table)
        assert fit.trace == []

    def test_custom_sampler_requires_triples(self):
        from emberish.encoder import fit_encoder

        base, aux, pairs = self.world()
        with pytest.raises(EncoderError, match="custom"):
            fit_encoder(base, aux, pairs, self.config(sampler="custom"), hash_dim=64)

    def test_freeze_negatives_reuses_one_draw(self):
        from emberish.encoder import fit_encoder

        base, aux, pairs = self.world()
        cfg = self.config(epochs=3)
        frozen = fit_encoder(base, aux, pairs, cfg, hash_dim=64, freeze_negatives=True)
        frozen2 = fit_encoder(base, aux, pairs, cfg, hash_dim=64, freeze_negatives=True)
        assert np.array_equal(frozen.model.table, frozen2.model.table)


class TestEmbedDataset:
    def test_cardinality_and_order(self):
        base, _, _ = toy_training_world(7)
        model = EncoderModel.create(dim=8, hash_dim=32, seed=0)
        out = embed_dataset(model, base)
        assert [rid for rid, _ in out] == [r.id for r in base.records]

    def test_duplicate_records_duplicate_embeddings(self):
        ds = dataset_from_rows("d", "base", [("x", [("t", "abc")]), ("y", [("t", "abc")])])
        model = EncoderModel.create(dim=8, hash_dim=32, seed=0)
        out = dict(embed_dataset(model, ds))
        assert np.array_equal(out["x"], out["y"])

    def test_rerun_bitwise_identical(self):
        base, _, _ = toy_training_world(5)
        model = EncoderModel.create(dim=8, hash_dim=32, seed=0)
        first = embed_dataset(model, base)
        second = embed_dataset(model, base)
        for (i1, v1), (i2, v2) in zip(first, second):
            assert i1 == i2 and np.array_equal(v1, v2)


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

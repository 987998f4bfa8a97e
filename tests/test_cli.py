"""Command wiring: naming convention, artifacts, manifests, exit codes."""

import csv
import json
import os
import random

import numpy as np
import pytest

from emberish.cli import (
    ENV_DATA_DIR,
    cmd_evaluate,
    cmd_generate,
    cmd_join,
    cmd_pipeline,
    cmd_train,
    main,
    resolve_config,
)
from emberish.data import dataset_from_rows, load_dataset, write_dataset
from emberish.joinspec import ConfigError, EngineConfig


def write_source(tmp_path, n=30, seed=0, tokens=6):
    rng = random.Random(seed)
    vocab = [f"v{i}" for i in range(40)]
    rows = [
        (f"r{i}", [("name", " ".join(rng.choice(vocab) for _ in range(tokens))),
                   ("tag", rng.choice(vocab))])
        for i in range(n)
    ]
    ds = dataset_from_rows("source", "auxiliary", rows)
    write_dataset(ds, tmp_path / "source.csv")
    return ds


def fast_config(tmp_path, **overrides):
    raw = dict(
        data_dir=str(tmp_path),
        embedding_dim=8,
        epochs=2,
        learning_rate=0.01,
        sampler="random",
        loss_margin=0.5,
        seed=7,
        left_size=1,
        right_size=3,
    )
    raw.update(overrides)
    return EngineConfig(**{k: v for k, v in raw.items()})


def read_rows(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_triples(tmp_path):
    """Triples over the first four supervision pairs, each with another
    pair's aux record as the negative."""
    rows = read_rows(tmp_path / "supervision.csv")
    triples = tmp_path / "triples.csv"
    with triples.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["anchor_id", "positive_id", "negative_id"])
        for base_id, aux_id in rows[1:5]:
            other = next(r[1] for r in rows[1:] if r[1] != aux_id)
            writer.writerow([base_id, aux_id, other])
    return triples


@pytest.fixture
def workspace(tmp_path):
    write_source(tmp_path)
    cfg = fast_config(tmp_path)
    cmd_generate(cfg, copies=2, perturbations=1)
    return tmp_path, cfg


class TestGenerate:
    def test_emits_expected_files(self, workspace):
        tmp_path, _ = workspace
        for name in ("base.csv", "aux.csv", "truth_train.csv", "truth_test.csv",
                     "supervision.csv", "manifest_generate.json"):
            assert (tmp_path / name).exists(), name

    def test_presets(self, tmp_path):
        write_source(tmp_path)
        cfg = fast_config(tmp_path)
        m_easy = cmd_generate(cfg, preset="easy", copies=1)
        assert m_easy.config["seed"] == 7
        m_hard = cmd_generate(cfg, preset="hard", copies=1)
        assert m_hard.outputs  # both presets run to completion

    def test_rerun_identical_digests(self, tmp_path):
        write_source(tmp_path)
        cfg = fast_config(tmp_path)
        m1 = cmd_generate(cfg, copies=2)
        m2 = cmd_generate(cfg, copies=2)
        assert m1.outputs == m2.outputs

    def test_missing_source_is_validation_error(self, tmp_path):
        cfg = fast_config(tmp_path)
        from emberish.data import DataError

        with pytest.raises(DataError, match="missing input files"):
            cmd_generate(cfg)


class TestTrain:
    def test_writes_model_and_trace(self, workspace):
        tmp_path, cfg = workspace
        manifest = cmd_train(cfg, pretrain=False)
        assert (tmp_path / "model.bin").exists()
        trace_rows = read_rows(tmp_path / "loss_trace.csv")
        assert trace_rows[0] == ["stage", "epoch", "loss"]
        assert len(trace_rows) == 1 + cfg.epochs
        assert "train" in manifest.timings

    def test_pretrain_adds_trace_rows(self, workspace):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=True)
        trace_rows = read_rows(tmp_path / "loss_trace.csv")
        stages = {row[0] for row in trace_rows[1:]}
        assert stages == {"pretrain", "train"}

    def test_supervision_fraction_trains_on_subset(self, workspace):
        tmp_path, _ = workspace
        cfg = fast_config(tmp_path, supervision_fraction=0.5)
        cmd_train(cfg, pretrain=False)  # smoke: fraction path exercised
        assert (tmp_path / "model.bin").exists()

    def test_missing_inputs_name_paths(self, tmp_path):
        cfg = fast_config(tmp_path)
        from emberish.data import DataError

        with pytest.raises(DataError, match="base.csv"):
            cmd_train(cfg)

    def test_pretrained_artifact_init_requires_model(self, workspace):
        tmp_path, _ = workspace
        cfg = fast_config(tmp_path, encoder_init="pretrained_artifact")
        from emberish.data import DataError

        with pytest.raises(DataError, match="model.bin"):
            cmd_train(cfg, pretrain=False)

    def test_rerun_identical_model_digest(self, workspace):
        tmp_path, cfg = workspace
        m1 = cmd_train(cfg, pretrain=False)
        m2 = cmd_train(cfg, pretrain=False)
        key = str(tmp_path / "model.bin")
        assert m1.outputs[key] == m2.outputs[key]

    def test_triple_supervision_accepted(self, workspace):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False, supervision_path=write_triples(tmp_path))
        assert (tmp_path / "model.bin").exists()

    @pytest.mark.parametrize("unsampled", ["triple supervision", "finetune false"])
    def test_freeze_negatives_without_sampled_negatives_is_rejected(self, workspace, capsys,
                                                                    unsampled):
        # Negatives are sampled only when fine-tuning on pairs; otherwise the
        # flag would change nothing, so it is refused before any file is written.
        tmp_path, _ = workspace
        config = tmp_path / "config.json"
        raw = {"data_dir": str(tmp_path), "embedding_dim": 8, "epochs": 1,
               "sampler": "random"}
        args = ["train", "--config", str(config)]
        if unsampled == "triple supervision":
            args += ["--no-pretrain", "--supervision", str(write_triples(tmp_path))]
        else:
            raw["finetune"] = False
        config.write_text(json.dumps(raw))
        assert main([*args, "--freeze-negatives"]) == 1
        assert f"training with {unsampled} does not use --freeze-negatives" \
            in capsys.readouterr().err
        for name in ("model.bin", "loss_trace.csv", "manifest_train.json"):
            assert not (tmp_path / name).exists()
        assert main(args) == 0
        assert (tmp_path / "model.bin").exists()

    def test_freeze_negatives_with_pair_supervision_is_accepted(self, workspace):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False, freeze_negatives=True)
        assert (tmp_path / "model.bin").exists()


class TestJoin:
    def test_learned_join_writes_artifacts(self, workspace):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        cmd_join(cfg)
        for name in ("result.csv", "embeddings_base.bin", "embeddings_aux.bin",
                     "manifest_join.json"):
            assert (tmp_path / name).exists()
        rows = read_rows(tmp_path / "result.csv")
        assert rows[0] == ["base_id", "aux_id", "rank", "score"]
        # INNER bound: per queried record at most right_size matches.
        assert len(rows) - 1 <= 60 * cfg.right_size

    def test_baseline_routing_skips_model(self, workspace):
        tmp_path, cfg = workspace
        cmd_join(cfg, baseline="BM25")
        assert (tmp_path / "result.csv").exists()
        assert not (tmp_path / "model.bin").exists()

    def test_spec_file_overrides_config(self, workspace):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        spec_path = tmp_path / "join.kjoin"
        spec_path.write_text(
            "base LEFT KEYLESS JOIN aux LEFT SIZE 1 RIGHT SIZE 2 USING supervision;"
        )
        cmd_join(cfg, spec_file=spec_path)
        rows = read_rows(tmp_path / "result.csv")
        per_base = {}
        for row in rows[1:]:
            per_base.setdefault(row[0], []).append(row)
        assert all(len(v) <= 2 for v in per_base.values())

    def test_rerun_identical_result_digest(self, workspace):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        m1 = cmd_join(cfg)
        m2 = cmd_join(cfg)
        key = str(tmp_path / "result.csv")
        assert m1.outputs[key] == m2.outputs[key]

    def test_dump_sentences(self, workspace):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        dump = tmp_path / "sentences.jsonl"
        cmd_join(cfg, dump_sentences=dump)
        lines = [json.loads(line) for line in dump.read_text().splitlines()]
        assert all(set(obj) == {"record_id", "text"} for obj in lines)
        assert len(lines) == 60 + 30  # perturbed copies plus originals

    def test_two_encoder_config_round_trips_through_join(self, workspace):
        tmp_path, _ = workspace
        cfg = fast_config(tmp_path, num_encoders=2)
        cmd_train(cfg, pretrain=False)
        assert (tmp_path / "model_aux.bin").exists()
        manifest = cmd_join(cfg)
        assert str(tmp_path / "model_aux.bin") in manifest.inputs


class TestModelFiles:
    def test_one_encoder_train_removes_a_stale_aux_model(self, workspace):
        tmp_path, cfg = workspace
        cmd_train(fast_config(tmp_path, num_encoders=2), pretrain=False)
        assert (tmp_path / "model_aux.bin").exists()
        cmd_train(cfg, pretrain=False)
        assert not (tmp_path / "model_aux.bin").exists()

    def test_one_encoder_join_ignores_an_aux_model(self, workspace):
        # Both sides embed with model.bin, whatever model_aux.bin holds.
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        first = cmd_join(cfg).outputs[str(tmp_path / "result.csv")]
        (tmp_path / "model_aux.bin").write_bytes(b"not a model")
        manifest = cmd_join(cfg)
        assert str(tmp_path / "model_aux.bin") not in manifest.inputs
        assert manifest.outputs[str(tmp_path / "result.csv")] == first

    def test_two_encoder_join_requires_the_aux_model(self, workspace, capsys):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data_dir": str(tmp_path), "embedding_dim": 8,
                                      "num_encoders": 2}))
        assert main(["join", "--config", str(config)]) == 1
        assert "model_aux.bin" in capsys.readouterr().err
        assert not (tmp_path / "result.csv").exists()

    def test_pipeline_rejects_two_encoders(self, workspace, capsys):
        tmp_path, _ = workspace
        cmd_train(fast_config(tmp_path, num_encoders=2), pretrain=False)
        chain = tmp_path / "chain.kjoin"
        chain.write_text("base INNER KEYLESS JOIN aux LEFT SIZE 1 RIGHT SIZE 2 USING s;")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data_dir": str(tmp_path), "embedding_dim": 8,
                                      "num_encoders": 2}))
        assert main(["pipeline", "--config", str(config), "--chain-file", str(chain)]) == 1
        assert "num_encoders" in capsys.readouterr().err
        assert not (tmp_path / "chain_result.csv").exists()

    @pytest.mark.parametrize("command", ["join", "pipeline", "train"])
    @pytest.mark.parametrize("key,value,stored", [("embedding_dim", 16, 8),
                                                  ("normalize", False, True)])
    def test_config_disagreeing_with_the_model_is_rejected(self, workspace, capsys, command,
                                                           key, value, stored):
        # train reads the model only with encoder_init pretrained_artifact.
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        model = (tmp_path / "model.bin").read_bytes()
        (tmp_path / "chain.kjoin").write_text(
            "base INNER KEYLESS JOIN aux LEFT SIZE 1 RIGHT SIZE 2 USING s;")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data_dir": str(tmp_path), "embedding_dim": 8,
                                      "sampler": "random",
                                      "encoder_init": "pretrained_artifact", key: value}))
        args = {"join": ["join"], "train": ["train", "--no-pretrain"],
                "pipeline": ["pipeline", "--chain-file", str(tmp_path / "chain.kjoin")]}[command]
        assert main([*args, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"{key} {stored!r}" in err and f"{key} {value!r}" in err
        assert (tmp_path / "model.bin").read_bytes() == model
        assert not (tmp_path / "result.csv").exists()
        assert not (tmp_path / "chain_result.csv").exists()

    def test_join_warns_when_the_model_is_not_the_trained_one(self, workspace, capsys):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data_dir": str(tmp_path), "embedding_dim": 8}))
        assert main(["join", "--config", str(config)]) == 0
        assert "warning" not in capsys.readouterr().err
        # Retrain under another seed but keep the first run's manifest.
        recorded = (tmp_path / "manifest_train.json").read_text()
        cmd_train(fast_config(tmp_path, seed=8), pretrain=False)
        (tmp_path / "manifest_train.json").write_text(recorded)
        assert main(["join", "--config", str(config)]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "model.bin" in err and "manifest_train.json" in err


class TestPartialModelLoads:
    @pytest.mark.parametrize("num_encoders", [1, 2])
    def test_join_and_pipeline_load_only_their_tokens_rows(self, workspace, monkeypatch,
                                                           num_encoders):
        # Every model load of join and pipeline names the tokens it embeds,
        # and the partial models write the bytes the dense ones write.
        import emberish.cli as cli_mod
        from emberish.encoder import load_model

        tmp_path, _ = workspace
        cfg = fast_config(tmp_path, num_encoders=num_encoders)
        cmd_train(cfg, pretrain=False)
        chain = tmp_path / "chain.kjoin"
        chain.write_text("base INNER KEYLESS JOIN aux LEFT SIZE 1 RIGHT SIZE 2 USING s;")
        outputs = ["result.csv", "embeddings_base.bin", "embeddings_aux.bin"]
        if num_encoders == 1:
            outputs.append("chain_result.csv")

        def run(loader):
            monkeypatch.setattr(cli_mod, "load_model", loader)
            cmd_join(cfg)
            if num_encoders == 1:
                cmd_pipeline(cfg, chain)
            return {name: (tmp_path / name).read_bytes() for name in outputs}

        calls = []

        def recording(path, tokens=None):
            calls.append((path.name, tokens))
            return load_model(path, tokens)

        partial = run(recording)
        dense = run(lambda path, tokens=None: load_model(path))
        assert partial == dense
        names = ["model.bin", "model_aux.bin"] if num_encoders == 2 else ["model.bin"] * 2
        assert [name for name, _ in calls] == names
        assert all(tokens is not None and len(tokens) > 0 for _, tokens in calls)


    @pytest.mark.parametrize("pretrain", [False, True])
    def test_pretrained_train_writes_the_full_models_fit(self, workspace, monkeypatch,
                                                         pretrain):
        # train loads only its vocabulary's rows. The earlier model.bin's rows
        # all differ from the seeded draw, so the rows outside the vocabulary
        # show where each file took them from.
        import emberish.cli as cli_mod
        from emberish.data import load_supervision
        from emberish.encoder import EncoderModel, fit_encoder, load_model, save_model
        from emberish.prepare import token_ids

        tmp_path, _ = workspace
        cfg = fast_config(tmp_path, num_encoders=2, encoder_init="pretrained_artifact")
        earlier = EncoderModel.create(dim=8, seed=cfg.seed)
        earlier.table += 1.0
        save_model(earlier, tmp_path / "earlier.bin")
        (tmp_path / "model.bin").write_bytes((tmp_path / "earlier.bin").read_bytes())
        loads = []

        def recording(path, tokens=None):
            loads.append(tokens)
            return load_model(path, tokens)

        monkeypatch.setattr(cli_mod, "load_model", recording)
        cmd_train(cfg, pretrain=pretrain)
        assert len(loads) == 1 and len(loads[0]) > 0

        base = load_dataset(tmp_path / "base.csv", role="base", name="base")
        aux = load_dataset(tmp_path / "aux.csv", role="auxiliary", name="aux")
        supervision = load_supervision(tmp_path / "supervision.csv", base, aux)
        expected = fit_encoder(base, aux, supervision, cfg, pretrain=pretrain,
                               init_model=load_model(tmp_path / "earlier.bin"))
        held = earlier.rows(token_ids([base, aux], cfg.tokenizer)[0])
        outside = np.ones(earlier.hash_dim, bool)
        outside[held] = False
        for name, model in zip(["model.bin", "model_aux.bin"], expected.models):
            save_model(model, tmp_path / "expected.bin")
            assert (tmp_path / name).read_bytes() == (tmp_path / "expected.bin").read_bytes()
            table = load_model(tmp_path / name).table
            assert np.array_equal(table[outside], earlier.table[outside])
            assert not np.array_equal(table[held], earlier.table[held])

    @pytest.mark.parametrize("name", ["model.bin", "model_aux.bin"])
    def test_a_failed_model_write_leaves_the_earlier_file(self, workspace, monkeypatch, name):
        import emberish.encoder as enc_mod

        tmp_path, _ = workspace
        cmd_train(fast_config(tmp_path, num_encoders=2), pretrain=False)
        before = (tmp_path / name).read_bytes()
        write_f8 = enc_mod._write_f8
        written = []

        def failing(fh, array):
            # The first block of the table goes out; the second fails.
            if os.path.basename(fh.name) == f".{name}.partial":
                written.append(array.size)
                if len(written) == 2:
                    raise OSError(28, "No space left on device")
            write_f8(fh, array)

        monkeypatch.setattr(enc_mod, "_write_f8", failing)
        with pytest.raises(OSError, match="No space"):
            cmd_train(fast_config(tmp_path, num_encoders=2, seed=8), pretrain=False)
        assert (tmp_path / name).read_bytes() == before
        assert not list(tmp_path.glob(".*.partial"))


class TestJoinFlags:
    @pytest.mark.parametrize("flags", [
        ["--baseline", "BM25", "--threshold", "0.5"],
        ["--baseline", "BM25", "--both-directions"],
        ["--baseline", "J-WS", "--index-side", "base"],
        ["--baseline", "BM25", "--join-type", "LEFT"],
        ["--baseline", "J-WS", "--left-size", "2"],
        ["--key-column", "name"],
        ["--baseline", "BM25", "--key-column", "name"],
        ["--baseline", "J-WS", "--key-column", "name"],
        ["--baseline", "J-2G", "--key-column", "name"],
        ["--spec-file", "spec.kjoin", "--join-type", "INNER", "--right-size", "7"],
        ["--spec-file", "spec.kjoin", "--left-size", "2"],
    ])
    def test_flag_unused_by_the_chosen_path_is_rejected(self, workspace, flags, capsys,
                                                       monkeypatch):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        (tmp_path / "spec.kjoin").write_text(
            "base LEFT KEYLESS JOIN aux LEFT SIZE 1 RIGHT SIZE 3 USING supervision;")
        monkeypatch.chdir(tmp_path)
        assert main(["join", "--data-dir", str(tmp_path), *flags]) == 1
        assert "does not use" in capsys.readouterr().err
        assert not (tmp_path / "result.csv").exists()

    def test_flags_the_path_uses_are_accepted(self, workspace):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data_dir": str(tmp_path), "embedding_dim": 8}))
        d = ["--config", str(config)]
        assert main(["join", *d, "--baseline", "LD", "--key-column", "name"]) == 0
        assert main(["join", *d, "--threshold", "2.0", "--index-side", "aux",
                     "--both-directions"]) == 0

    def test_config_join_type_and_sizes_allowed_with_baseline(self, workspace):
        # A config file's join type and sizes also feed learned joins, so the
        # baseline path takes them; so does the --right-size flag (its k).
        tmp_path, _ = workspace
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data_dir": str(tmp_path), "join_type": "LEFT",
                                      "left_size": 2, "right_size": 3}))
        args = ["join", "--config", str(config), "--baseline", "BM25"]
        assert main(args) == 0
        assert main([*args, "--right-size", "2"]) == 0
        ranks = [row[2] for row in read_rows(tmp_path / "result.csv")[1:]]
        assert ranks and max(map(int, ranks)) <= 2


class TestSizeFlags:
    # Only join reads the join type and sizes; pipeline takes them from its
    # chain file. Every other command rejects the three flags.
    @pytest.mark.parametrize("command", [
        ["generate", "--copies", "2"],
        ["train", "--no-pretrain"],
        ["evaluate"],
        ["pipeline", "--chain-file", "chain.kjoin"],
    ])
    def test_rejected_by_every_command_but_join(self, workspace, command, capsys, monkeypatch):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        cmd_join(cfg)
        (tmp_path / "chain.kjoin").write_text(
            "base INNER KEYLESS JOIN aux LEFT SIZE 99 RIGHT SIZE 2 USING supervision;")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data_dir": str(tmp_path), "embedding_dim": 8,
                                      "epochs": 1, "sampler": "random"}))
        monkeypatch.chdir(tmp_path)
        args = [*command, "--config", str(config)]
        for flag in (["--join-type", "LEFT"], ["--left-size", "2"], ["--right-size", "3"]):
            assert main([*args, *flag]) == 1
            err = capsys.readouterr().err
            assert "No such option" in err and flag[0] in err
        assert main(args) == 0


class TestEvaluate:
    def test_metrics_from_results_csv_alone(self, workspace):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        cmd_join(cfg)
        (tmp_path / "model.bin").unlink()  # metrics must not need the model
        manifest, printable = cmd_evaluate(cfg, ks=[1, 3])
        assert "recall@1" in printable
        text = (tmp_path / "metrics.csv").read_text()
        assert text.splitlines()[0] == "method,k,recall"

    def test_perfect_result_gives_recall_one(self, tmp_path):
        cfg = fast_config(tmp_path)
        (tmp_path / "truth_test.csv").write_text("base_id,aux_id\nb0,a0\n")
        (tmp_path / "result.csv").write_text(
            "base_id,aux_id,rank,score\nb0,a0,1,0.0\n"
        )
        _, printable = cmd_evaluate(cfg, ks=[1])
        assert "1.0000" in printable

    def test_comparison_mode(self, workspace):
        tmp_path, cfg = workspace
        _, printable = cmd_evaluate(
            cfg, truth_path=tmp_path / "truth_test.csv",
            comparison=True, methods=["BM25", "untrained-encoder"], ks=[1],
        )
        assert "BM25" in printable and "untrained-encoder" in printable


    @pytest.mark.parametrize("text, line", [
        ("", 1),
        ("base_id,aux_id,rank,score\nb0,a0,1\n", 2),
        ("base_id,aux_id,rank,score\nb0,a0,1,0.5\nb0,a1,two,0.7\n", 3),
        ("base_id,aux_id,rank,score\n\nb0,a0,1,close\n", 3),
        ("base_id,aux_id,rank,score\nb0,a0,1,0.5\nb0,a1,9223372036854775808,0.7\n", 3),
    ], ids=["missing-header", "short-row", "non-integer-rank", "non-float-score",
            "rank-beyond-int64"])
    def test_malformed_results_exit_1_naming_the_line(self, tmp_path, capsys, text, line):
        (tmp_path / "truth_test.csv").write_text("base_id,aux_id\nb0,a0\n")
        results = tmp_path / "result.csv"
        results.write_text(text)
        assert main(["evaluate", "--data-dir", str(tmp_path)]) == 1
        assert f"{results}: line {line}:" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()


class TestEvaluateFlags:
    @pytest.mark.parametrize("flags, unused", [
        (["--methods", "BM25"], "--methods"),
        (["--key-column", "text"], "--key-column"),
        (["--comparison", "--results", "result.csv"], "--results"),
        (["--comparison", "--mrr"], "--mrr"),
        (["--comparison", "--methods", "BM25", "--key-column", "name"], "--key-column"),
        (["--comparison", "--key-column", "name"], "--key-column"),
    ])
    def test_flag_unused_by_the_chosen_mode_is_rejected(self, workspace, capsys, flags, unused):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        cmd_join(cfg)
        assert main(["evaluate", "--data-dir", str(tmp_path), *flags]) == 1
        err = capsys.readouterr().err
        assert "does not use" in err and unused in err
        assert not (tmp_path / "metrics.csv").exists()

    def test_flags_the_mode_uses_are_accepted(self, workspace, capsys):
        tmp_path, cfg = workspace
        other = tmp_path / "other.csv"
        other.write_text("base_id,aux_id,rank,score\nb0,a0,1,0.0\n")
        d = ["evaluate", "--data-dir", str(tmp_path), "--ks", "1"]
        assert main([*d, "--results", str(other), "--mrr"]) == 0
        assert "mrr@" in capsys.readouterr().out
        assert main([*d, "--comparison", "--methods", "JK-WS", "--key-column", "name"]) == 0
        assert "JK-WS" in capsys.readouterr().out
        assert (tmp_path / "metrics.csv").read_text().startswith("method,k,recall\nJK-WS,1,")


class TestPipeline:
    def test_chain_and_label_averaging(self, workspace):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        chain = tmp_path / "chain.kjoin"
        chain.write_text(
            "base INNER KEYLESS JOIN aux LEFT SIZE 99 RIGHT SIZE 2 USING supervision;"
        )
        labels = tmp_path / "labels.csv"
        with labels.open("w") as fh:
            fh.write("id,label\n")
            for i in range(30):
                fh.write(f"r{i},{float(i)}\n")
        cmd_pipeline(cfg, chain, labels_path=labels, agg_ks=[1, 2])
        assert (tmp_path / "chain_result.csv").exists()
        agg_rows = read_rows(tmp_path / "aggregates.csv")
        assert agg_rows[0] == ["k", "base_id", "estimate"]
        assert {row[0] for row in agg_rows[1:]} == {"1", "2"}

    @pytest.mark.parametrize("text, line", [("", 1), ("id,label\nr0,1.0\nr1\n", 3)],
                             ids=["empty", "one-cell-row"])
    def test_malformed_labels_file_exits_one(self, workspace, capsys, text, line):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        chain = tmp_path / "chain.kjoin"
        chain.write_text("base INNER KEYLESS JOIN aux LEFT SIZE 99 RIGHT SIZE 2 USING s;")
        labels = tmp_path / "labels.csv"
        labels.write_text(text)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data_dir": str(tmp_path), "embedding_dim": 8}))
        code = main(["pipeline", "--config", str(config), "--chain-file", str(chain),
                     "--labels", str(labels)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{labels}: " in err and f"at line {line}:" in err
        # The labels are read before the chain join writes anything.
        assert not (tmp_path / "chain_result.csv").exists()

    def test_agg_ks_without_labels_is_rejected(self, workspace, capsys):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        chain = tmp_path / "chain.kjoin"
        chain.write_text("base INNER KEYLESS JOIN aux LEFT SIZE 99 RIGHT SIZE 2 USING s;")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data_dir": str(tmp_path), "embedding_dim": 8}))
        args = ["pipeline", "--config", str(config), "--chain-file", str(chain)]
        assert main([*args, "--agg-ks", "1,2"]) == 1
        err = capsys.readouterr().err
        assert "does not use" in err and "--agg-ks" in err
        assert not (tmp_path / "chain_result.csv").exists()
        assert not (tmp_path / "manifest_pipeline.json").exists()
        assert main(args) == 0

    def test_broken_chain_linkage_names_stage(self, workspace):
        tmp_path, cfg = workspace
        chain = tmp_path / "chain.kjoin"
        chain.write_text(
            "base INNER KEYLESS JOIN aux LEFT SIZE 1 RIGHT SIZE 1 USING s;\n"
            "unrelated INNER KEYLESS JOIN aux LEFT SIZE 1 RIGHT SIZE 1 USING s;\n"
        )
        from emberish.joiner import JoinError

        with pytest.raises(JoinError, match="stage 1"):
            cmd_pipeline(cfg, chain)


class TestKsValues:
    @pytest.mark.parametrize("flags", [["evaluate", "--ks", "0"],
                                       ["pipeline", "--agg-ks", "0"]],
                             ids=["evaluate", "pipeline"])
    def test_non_positive_k_exits_one_before_any_work(self, workspace, capsys, flags):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        cmd_join(cfg)
        chain = tmp_path / "chain.kjoin"
        chain.write_text("base INNER KEYLESS JOIN aux LEFT SIZE 99 RIGHT SIZE 2 USING s;")
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\n" + "".join(f"r{i},{i}\n" for i in range(30)))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data_dir": str(tmp_path), "embedding_dim": 8}))
        files = lambda: {p: (p.read_bytes(), p.stat().st_mtime_ns)
                         for p in tmp_path.rglob("*") if p.is_file()}
        before = files()
        command, *rest = flags
        if command == "pipeline":
            rest += ["--chain-file", str(chain), "--labels", str(labels)]
        assert main([command, "--config", str(config), *rest]) == 1
        assert files() == before
        assert "every k must be >= 1" in capsys.readouterr().err
        rest[1] = "1"  # the same command with k = 1 runs and writes
        assert main([command, "--config", str(config), *rest]) == 0
        assert files() != before


class TestConfigResolution:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DATA_DIR, str(tmp_path))
        cfg = resolve_config(None, {"data_dir": None, "seed": None, "join_type": None,
                                    "left_size": None, "right_size": None})
        assert cfg.data_dir == str(tmp_path)

    def test_flag_overrides_config_file(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"data_dir": "from_file", "seed": 1}))
        cfg = resolve_config(str(cfg_file), {"data_dir": str(tmp_path), "seed": None,
                                             "join_type": None, "left_size": None,
                                             "right_size": None})
        assert cfg.data_dir == str(tmp_path)
        assert cfg.seed == 1

    def test_no_data_dir_anywhere(self, monkeypatch):
        monkeypatch.delenv(ENV_DATA_DIR, raising=False)
        with pytest.raises(ConfigError, match="data_dir required"):
            resolve_config(None, {})


class TestExitCodes:
    def test_success_is_zero(self, tmp_path, monkeypatch):
        write_source(tmp_path)
        code = main(["generate", "--data-dir", str(tmp_path), "--seed", "1"])
        assert code == 0

    def test_validation_error_is_one(self, tmp_path):
        code = main(["train", "--data-dir", str(tmp_path / "does-not-exist")])
        assert code == 1

    @pytest.mark.parametrize("text, message", [
        ("{not json", "configuration is not valid JSON"),
        ('["data_dir", "."]', "configuration must be a JSON object"),
    ])
    def test_config_that_is_not_a_json_object_is_one(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["generate", "--config", str(bad), "--data-dir", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    def test_bad_config_json_is_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["generate", "--config", str(bad), "--data-dir", str(tmp_path)])
        assert code == 1

    def test_usage_error_is_one(self):
        assert main(["no-such-command"]) == 1

    def test_runtime_failure_is_two(self, tmp_path, monkeypatch):
        write_source(tmp_path)
        import emberish.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(cli_mod, "generate_fuzzy_join", boom)
        code = main(["generate", "--data-dir", str(tmp_path)])
        assert code == 2


class TestManifest:
    def test_manifest_lists_outputs_with_digests(self, workspace):
        tmp_path, cfg = workspace
        manifest = json.loads((tmp_path / "manifest_generate.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["seed"] == cfg.seed
        for path, digest in manifest["outputs"].items():
            assert len(digest) == 64
            assert os.path.exists(path)

"""Command wiring: naming convention, artifacts, manifests, exit codes."""

import csv
import json
import os
import random

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
from emberish.data import dataset_from_rows, write_dataset
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
        trace_rows = list(csv.reader((tmp_path / "loss_trace.csv").open()))
        assert trace_rows[0] == ["stage", "epoch", "loss"]
        assert len(trace_rows) == 1 + cfg.epochs
        assert "train" in manifest.timings

    def test_pretrain_adds_trace_rows(self, workspace):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=True)
        trace_rows = list(csv.reader((tmp_path / "loss_trace.csv").open()))
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
        rows = list(csv.reader((tmp_path / "supervision.csv").open()))
        triples = tmp_path / "triples.csv"
        with triples.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["anchor_id", "positive_id", "negative_id"])
            for base_id, aux_id in rows[1:5]:
                other = next(r[1] for r in rows[1:] if r[1] != aux_id)
                writer.writerow([base_id, aux_id, other])
        cmd_train(cfg, pretrain=False, supervision_path=triples)
        assert (tmp_path / "model.bin").exists()


class TestJoin:
    def test_learned_join_writes_artifacts(self, workspace):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        cmd_join(cfg)
        for name in ("result.csv", "embeddings_base.bin", "embeddings_aux.bin",
                     "manifest_join.json"):
            assert (tmp_path / name).exists()
        rows = list(csv.reader((tmp_path / "result.csv").open()))
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
        rows = list(csv.reader((tmp_path / "result.csv").open()))
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


class TestJoinFlags:
    @pytest.mark.parametrize("flags", [
        ["--baseline", "BM25", "--threshold", "0.5"],
        ["--baseline", "BM25", "--both-directions"],
        ["--baseline", "J-WS", "--index-side", "base"],
        ["--key-column", "name"],
    ])
    def test_flag_unused_by_the_chosen_path_is_rejected(self, workspace, flags, capsys):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        assert main(["join", "--data-dir", str(tmp_path), *flags]) == 1
        assert "does not use" in capsys.readouterr().err
        assert not (tmp_path / "result.csv").exists()

    def test_flags_the_path_uses_are_accepted(self, workspace):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        d = ["--data-dir", str(tmp_path)]
        assert main(["join", *d, "--baseline", "LD", "--key-column", "name"]) == 0
        assert main(["join", *d, "--threshold", "2.0", "--index-side", "aux",
                     "--both-directions"]) == 0


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
        agg_rows = list(csv.reader((tmp_path / "aggregates.csv").open()))
        assert agg_rows[0] == ["k", "base_id", "estimate"]
        assert {row[0] for row in agg_rows[1:]} == {"1", "2"}

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

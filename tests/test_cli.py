"""Command wiring: naming convention, artifacts, manifests, exit codes."""

import csv
import gc
import hashlib
import json
import os
import random
import shutil
import struct
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import emberish
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
from emberish.data import load_dataset, write_dataset
from emberish.joinspec import ConfigError, EngineConfig, JoinType
from records import dataset_from_rows, embed_dataset, fit_datasets
from test_joiner import full_disk, record_ids


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


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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

    def test_preset_with_perturbations_is_rejected(self, tmp_path, capsys):
        write_source(tmp_path)
        args = ["generate", "--data-dir", str(tmp_path), "--copies", "1"]
        assert main([*args, "--preset", "hard", "--perturbations", "3"]) == 1
        assert "generate with --perturbations does not use --preset" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["source.csv"]
        assert main([*args, "--preset", "hard"]) == 0
        assert main([*args, "--perturbations", "3"]) == 0

    @pytest.mark.parametrize("source, first_ids", [
        ("name,city\n" + "".join(f"n{i} v{i % 7},c{i % 5}\n" for i in range(30)),
         ["0-p0", "0-p1"]),
        ("id,name,city\n" + "".join(f'r{i},"n{i}\rv{i % 7}",c{i % 5}\n' for i in range(30)),
         ["r0-p0", "r0-p1"]),
    ], ids=["no-id-column", "carriage-return-cells"])
    def test_generated_files_go_through_every_command(self, tmp_path, source, first_ids):
        (tmp_path / "source.csv").write_text(source, newline="")
        d = ["--data-dir", str(tmp_path)]
        assert main(["generate", *d, "--copies", "2", "--perturbations", "1"]) == 0
        assert [r.id for r in load_dataset(tmp_path / "base.csv").records[:2]] == first_ids
        assert main(["train", *d, "--no-pretrain"]) == 0
        assert main(["join", *d]) == 0
        assert main(["evaluate", *d]) == 0

    def test_missing_source_is_validation_error(self, tmp_path):
        cfg = fast_config(tmp_path)
        from emberish.data import DataError

        with pytest.raises(DataError, match="missing input files"):
            cmd_generate(cfg)

    def test_missing_source_leaves_no_directory_behind(self, tmp_path, capsys):
        assert main(["generate", "--data-dir", str(tmp_path / "nodir" / "sub")]) == 1
        assert "missing input files" in capsys.readouterr().err
        assert not (tmp_path / "nodir").exists()


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
        # train draws the pairs as positions: the model is the one fitted on
        # the list sample of every pair, with no fraction left to draw.
        import random

        from emberish.data import load_supervision
        from emberish.encoder import save_model

        tmp_path, _ = workspace
        cfg = fast_config(tmp_path, supervision_fraction=0.5)
        cmd_train(cfg, pretrain=False)
        base = load_dataset(tmp_path / "base.csv", role="base", name="base")
        aux = load_dataset(tmp_path / "aux.csv", role="auxiliary", name="aux")
        pairs = load_supervision(tmp_path / "supervision.csv")
        sample = random.Random(cfg.seed).sample(pairs, round(0.5 * len(pairs)))
        fit = fit_datasets(base, aux, sample, fast_config(tmp_path, supervision_fraction=1.0))
        save_model(fit.model, tmp_path / "expected.bin")
        assert (tmp_path / "model.bin").read_bytes() == (tmp_path / "expected.bin").read_bytes()

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

    def test_supervision_without_finetuning_is_rejected(self, workspace, capsys):
        tmp_path, _ = workspace
        config = tmp_path / "config.json"
        raw = {"data_dir": str(tmp_path), "embedding_dim": 8, "epochs": 1, "sampler": "random"}
        config.write_text(json.dumps({**raw, "finetune": False}))
        args = ["train", "--config", str(config), "--no-pretrain"]
        supervision = ["--supervision", str(tmp_path / "truth_train.csv")]
        assert main([*args, *supervision]) == 1
        assert "training with finetune false does not use --supervision" \
            in capsys.readouterr().err
        for name in ("model.bin", "loss_trace.csv", "manifest_train.json"):
            assert not (tmp_path / name).exists()
        assert main(args) == 0
        config.write_text(json.dumps(raw))
        assert main([*args, *supervision]) == 0

    def test_no_supervision_file_needed_without_finetuning(self, workspace):
        tmp_path, _ = workspace
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data_dir": str(tmp_path), "embedding_dim": 8,
                                      "epochs": 1, "finetune": False}))
        args = ["train", "--config", str(config)]
        assert main(args) == 0
        with_file = (tmp_path / "model.bin").read_bytes()
        (tmp_path / "supervision.csv").unlink()
        assert main(args) == 0
        assert (tmp_path / "model.bin").read_bytes() == with_file
        inputs = json.loads((tmp_path / "manifest_train.json").read_text())["inputs"]
        assert sorted(os.path.basename(p) for p in inputs) == ["aux.csv", "base.csv"]

    def test_finetuning_still_requires_the_supervision_file(self, workspace, capsys):
        tmp_path, _ = workspace
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data_dir": str(tmp_path), "embedding_dim": 8,
                                      "epochs": 1}))
        (tmp_path / "supervision.csv").unlink()
        assert main(["train", "--config", str(config), "--no-pretrain"]) == 1
        err = capsys.readouterr().err
        assert "missing input files" in err and "supervision.csv" in err
        for name in ("model.bin", "loss_trace.csv", "manifest_train.json"):
            assert not (tmp_path / name).exists()

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

    def test_a_failed_sentence_dump_leaves_the_earlier_file(self, workspace, monkeypatch):
        tmp_path, cfg = workspace
        dump = tmp_path / "sentences.jsonl"
        dump.write_text('{"record_id": "earlier", "text": "run"}\n')
        old = dump.read_bytes()
        full_disk(monkeypatch, 200)  # every sentence file here is longer
        with pytest.raises(OSError, match="No space"):
            cmd_join(cfg, baseline="BM25", dump_sentences=dump)
        monkeypatch.undo()
        assert dump.read_bytes() == old
        assert not list(tmp_path.glob(".*.partial"))
        assert not (tmp_path / "result.csv").exists()

    def test_two_encoder_config_round_trips_through_join(self, workspace):
        tmp_path, _ = workspace
        cfg = fast_config(tmp_path, num_encoders=2)
        cmd_train(cfg, pretrain=False)
        assert (tmp_path / "model_aux.bin").exists()
        manifest = cmd_join(cfg)
        assert str(tmp_path / "model_aux.bin") in manifest.inputs


def trained(data_dir, **overrides):
    """A generated and trained data directory; returns its config."""
    data_dir.mkdir()
    write_source(data_dir)
    cfg = fast_config(data_dir, **overrides)
    cmd_generate(cfg, copies=2, perturbations=1)
    cmd_train(cfg, pretrain=False)
    return cfg


def fresh_copy(src, dst):
    """``src`` without the files a join writes: a join in ``dst`` starts afresh."""
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns(
        "manifest_join.json", "embeddings_*.bin", "result.csv"))


def bump_last_float(path):
    """Add 0.5 to the last float64 of a model file (the last bias entry) or
    of an embeddings file (the last record's last value)."""
    raw = bytearray(path.read_bytes())
    (value,) = struct.unpack_from("<d", raw, len(raw) - 8)
    struct.pack_into("<d", raw, len(raw) - 8, value + 0.5)
    path.write_bytes(bytes(raw))


def flip_middle_byte(path):
    """Flip the lowest bit of the byte in the middle of a file."""
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 1
    path.write_bytes(bytes(raw))


def truncate(path, n):
    """Drop the last ``n`` bytes of a file."""
    path.write_bytes(path.read_bytes()[:-n])


def append_row(path):
    """Add one record to a generated dataset (id column first)."""
    width = len(read_rows(path)[0])
    with path.open("a", encoding="utf-8") as fh:
        fh.write(",".join(["zz-added", *["v1 v2"] * (width - 1)]) + "\n")


@pytest.fixture
def counted(monkeypatch):
    """Counts of the sides a command embeds (an ``embed_tokens`` call for a
    side embedded in memory, an ``embed_blocks`` call for a side a join
    embeds into its file) and of the dataset files it reads (one per
    ``load_dataset`` call, one per path of a ``read_token_ids`` call)."""
    import emberish.cli as cli_mod

    calls = {"embed": 0, "load": 0}
    for name, attr, work in (("embed", "embed_tokens", None), ("embed", "embed_blocks", None),
                             ("load", "load_dataset", None), ("load", "read_token_ids", len)):
        def counting(*args, _name=name, _fn=getattr(cli_mod, attr), _work=work, **kwargs):
            calls[_name] += 1 if _work is None else _work(args[0])
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli_mod, attr, counting)
    return calls


EMBEDDINGS = ("embeddings_base.bin", "embeddings_aux.bin")


def same_join_files(a, b):
    for name in ("result.csv", *EMBEDDINGS):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestEmbeddingsReuse:
    """A learned join reuses each embeddings file that the previous join
    left when it was built from the same bytes, and embeds again otherwise."""

    SHAPES = {"LEFT": (JoinType.LEFT, False), "RIGHT": (JoinType.RIGHT, False),
              "INNER": (JoinType.INNER, False), "FULL": (JoinType.FULL, False),
              "INNER-both-directions": (JoinType.INNER, True)}

    @pytest.mark.parametrize("num_encoders", [1, 2])
    @pytest.mark.parametrize("distance", ["l2", "inner_product"])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_a_reusing_join_writes_a_fresh_directorys_bytes(self, tmp_path, counted, shape,
                                                             distance, num_encoders):
        join_type, both = self.SHAPES[shape]
        settings = dict(distance=distance, num_encoders=num_encoders)
        reuse, fresh = tmp_path / "reuse", tmp_path / "fresh"
        cmd_join(trained(reuse, **settings))  # the quick start's INNER join first
        fresh_copy(reuse, fresh)
        inodes = [(reuse / name).stat().st_ino for name in EMBEDDINGS]
        counted.update(embed=0, load=0)

        hit = cmd_join(fast_config(reuse, join_type=join_type, **settings),
                       both_directions=both)
        assert counted == {"embed": 0, "load": 0}
        miss = cmd_join(fast_config(fresh, join_type=join_type, **settings),
                        both_directions=both)
        assert counted == {"embed": 2, "load": 2}

        same_join_files(reuse, fresh)
        assert [(reuse / name).stat().st_ino for name in EMBEDDINGS] == inodes  # not rewritten
        assert [r["reused"] for r in hit.embeddings.values()] == [True, True]
        assert [r["reused"] for r in miss.embeddings.values()] == [False, False]
        assert ({name: r["key"] for name, r in hit.embeddings.items()}
                == {name: r["key"] for name, r in miss.embeddings.items()})
        assert set(hit.timings) == {"join"} and set(miss.timings) == {"embed", "join"}
        assert {str(reuse / name) for name in EMBEDDINGS} <= set(hit.inputs)
        assert set(hit.outputs) == {str(reuse / "result.csv")}

    # What changes between the first join and the second, the encoders, the
    # sides the second join embeds again, and the config overrides and the
    # --spec-file statement of the joins after the change.
    SWAP = "aux INNER KEYLESS JOIN base LEFT SIZE 1 RIGHT SIZE 3 USING supervision;"
    CHANGES = {
        "base.csv": (lambda d: append_row(d / "base.csv"), 1, ["base"], {}, None),
        "aux.csv": (lambda d: append_row(d / "aux.csv"), 1, ["aux"], {}, None),
        "model.bin": (lambda d: bump_last_float(d / "model.bin"), 1, ["base", "aux"], {}, None),
        "model.bin-two-encoders": (lambda d: bump_last_float(d / "model.bin"), 2, ["base"],
                                   {}, None),
        "model_aux.bin": (lambda d: bump_last_float(d / "model_aux.bin"), 2, ["aux"], {}, None),
        "tokenizer": (lambda d: None, 1, ["base", "aux"], {"tokenizer": "char2gram"}, None),
        "embeddings-file": (lambda d: bump_last_float(d / "embeddings_base.bin"), 1, ["base"],
                            {}, None),
        "embeddings-file-one-byte": (lambda d: flip_middle_byte(d / "embeddings_aux.bin"), 1,
                                     ["aux"], {}, None),
        "embeddings-file-truncated": (lambda d: truncate(d / "embeddings_aux.bin", 1), 1,
                                      ["aux"], {}, None),
        "manifest-deleted": (lambda d: (d / "manifest_join.json").unlink(), 1, ["base", "aux"],
                             {}, None),
        "manifest-corrupt": (lambda d: (d / "manifest_join.json").write_text('{"inputs": '),
                             1, ["base", "aux"], {}, None),
        "manifest-without-keys": (
            lambda d: (d / "manifest_join.json").write_text(json.dumps(
                {k: v for k, v in json.loads((d / "manifest_join.json").read_text()).items()
                 if k != "embeddings"})), 1, ["base", "aux"], {}, None),
        "manifest-of-a-baseline-join": (lambda d: cmd_join(fast_config(d), baseline="BM25"),
                                        1, ["base", "aux"], {}, None),
        "spec-file-swapping-the-datasets": (lambda d: None, 1, ["base", "aux"], {}, SWAP),
    }

    @pytest.mark.parametrize("case", list(CHANGES))
    def test_a_changed_input_is_embedded_again(self, tmp_path, counted, case):
        change, num_encoders, embedded, overrides, statement = self.CHANGES[case]
        reuse, fresh = tmp_path / "reuse", tmp_path / "fresh"
        cmd_join(trained(reuse, num_encoders=num_encoders))
        change(reuse)
        fresh_copy(reuse, fresh)
        counted.update(embed=0, load=0)

        def join(d):
            spec_file = None
            if statement is not None:
                spec_file = d / "swap.kjoin"
                spec_file.write_text(statement)
            return cmd_join(fast_config(d, num_encoders=num_encoders, **overrides),
                            spec_file=spec_file)

        manifest = join(reuse)
        assert counted["embed"] == len(embedded)
        assert [name for name, r in manifest.embeddings.items() if not r["reused"]] == [
            f"embeddings_{side}.bin" for side in embedded]
        assert set(manifest.timings) == {"embed", "join"}
        join(fresh)
        same_join_files(reuse, fresh)

    @pytest.mark.parametrize("key,value,stored", [("embedding_dim", 16, 8),
                                                  ("normalize", False, True)])
    def test_a_hit_still_checks_the_model(self, tmp_path, counted, capsys, key, value,
                                          stored):
        d = tmp_path / "d"
        cmd_join(trained(d))
        before = {name: (d / name).read_bytes() for name in ("result.csv", "manifest_join.json")}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data_dir": str(d), "embedding_dim": 8, key: value}))
        counted.update(embed=0, load=0)
        assert main(["join", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"{key} {stored!r}" in err and f"{key} {value!r}" in err
        assert counted == {"embed": 0, "load": 0}  # the lookup found both sides
        assert {name: (d / name).read_bytes() for name in before} == before

    def test_a_hit_still_warns_about_an_unrecorded_model(self, tmp_path, counted, capsys):
        d = tmp_path / "d"
        cfg = trained(d)
        cmd_join(cfg)
        train_manifest = d / "manifest_train.json"
        recorded = json.loads(train_manifest.read_text())
        recorded["outputs"][str(d / "model.bin")] = "0" * 64
        train_manifest.write_text(json.dumps(recorded))
        capsys.readouterr()
        counted.update(embed=0, load=0)
        manifest = cmd_join(cfg)
        assert counted == {"embed": 0, "load": 0}
        assert all(r["reused"] for r in manifest.embeddings.values())
        err = capsys.readouterr().err
        assert "warning" in err and "model.bin" in err and "manifest_train.json" in err

    def test_a_hit_with_dump_sentences_reads_the_datasets_only(self, tmp_path, counted):
        reuse, fresh = tmp_path / "reuse", tmp_path / "fresh"
        cmd_join(trained(reuse))
        fresh_copy(reuse, fresh)
        counted.update(embed=0, load=0)
        cmd_join(fast_config(reuse), dump_sentences=reuse / "sentences.jsonl")
        assert counted == {"embed": 0, "load": 2}
        cmd_join(fast_config(fresh), dump_sentences=fresh / "sentences.jsonl")
        same_join_files(reuse, fresh)
        assert ((reuse / "sentences.jsonl").read_bytes()
                == (fresh / "sentences.jsonl").read_bytes())


class TestStreamedJoin:
    """Every learned join embeds each side it does not reuse into its
    embeddings file first; each scan then reads the side it holds whole
    from its file and streams the other block by block from its file, and
    the join writes the bytes of the in-memory path."""

    WORDS = [f"w{i}" for i in range(6)]

    @pytest.mark.parametrize("join_type, both_directions", [
        ("LEFT", False), ("RIGHT", False), ("INNER", False), ("INNER", True), ("FULL", False)])
    @pytest.mark.parametrize("distance", ["l2", "inner_product"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), sizes=st.tuples(*[st.sampled_from([1, 2, 4, 7])] * 2),
           bounds=st.tuples(*[st.integers(1, 3)] * 2),
           threshold=st.sampled_from([None, 0.5, 1.0]), carriage_return=st.booleans(),
           embed_again=st.sampled_from([None, "base", "aux"]))
    def test_a_streamed_join_writes_the_in_memory_bytes(self, data, join_type, both_directions,
                                                        distance, sizes, bounds, threshold,
                                                        carriage_return, embed_again):
        # Scan blocks of three streamed rows (more past the smaller held side
        # of a two-direction join), so sides of 4 and 7 records end in a
        # block of one row; ids holding the characters CSV
        # quotes, and in some cases a "\r", which quotes every field.
        from emberish import joiner
        from emberish.encoder import EncoderModel, save_model
        from emberish.joiner import execute_join, held_side, save_embeddings, scan_order
        from emberish.joinspec import JoinSpec

        dim = 4
        sides = []
        for name, role, n in (("base", "base", sizes[0]), ("aux", "auxiliary", sizes[1])):
            ids = data.draw(st.lists(record_ids, min_size=n, max_size=n, unique=True))
            if carriage_return and name == "aux":
                ids[-1] += "\r"
                assume(ids[-1] not in ids[:-1])  # the "\r" may make it another's id
            texts = data.draw(st.lists(st.lists(st.sampled_from(self.WORDS), max_size=4),
                                       min_size=n, max_size=n))
            sides.append(dataset_from_rows(name, role, [(rid, [("t", " ".join(words))])
                                                        for rid, words in zip(ids, texts)]))
        model = EncoderModel.create(dim=dim, hash_dim=64, seed=3)
        model.affine[:] = np.random.default_rng(3).normal(size=model.affine.shape)
        spec = JoinSpec("base", "aux", JoinType(join_type), *bounds, "supervision")
        index_n = max(sizes[held_side(reverse, *sizes)]
                      for reverse in scan_order(spec, both_directions, *sizes))

        with tempfile.TemporaryDirectory() as tmp, \
                patch.object(joiner, "_BLOCK_CELLS", 3 * max(index_n, dim)):
            streamed, memory = Path(tmp) / "streamed", Path(tmp) / "memory"
            streamed.mkdir()
            memory.mkdir()
            for dataset in sides:
                write_dataset(dataset, streamed / f"{dataset.name}.csv")
            save_model(model, streamed / "model.bin")
            embeddings = [embed_dataset(model, dataset) for dataset in sides]
            for dataset, emb in zip(sides, embeddings):
                save_embeddings(emb, memory / f"embeddings_{dataset.name}.bin")
            execute_join(spec, *embeddings, metric=distance, threshold=threshold,
                         both_directions=both_directions).write_csv(memory / "result.csv")

            cfg = fast_config(streamed, embedding_dim=dim, distance=distance,
                              join_type=spec.join_type, left_size=bounds[0],
                              right_size=bounds[1])
            # Both sides embedded, both reused, then one embedded again.
            hit = [cmd_join(cfg, threshold=threshold, both_directions=both_directions)]
            hit.append(cmd_join(cfg, threshold=threshold, both_directions=both_directions))
            if embed_again is not None:
                (streamed / f"embeddings_{embed_again}.bin").unlink()
                hit.append(cmd_join(cfg, threshold=threshold, both_directions=both_directions))
            assert [[r["reused"] for r in m.embeddings.values()] for m in hit] == [
                [False, False], [True, True],
                *([[embed_again == "aux", embed_again == "base"]] if embed_again else [])]
            same_join_files(streamed, memory)
            assert not list(streamed.glob(".*.partial"))

    @pytest.mark.parametrize("join_type", [JoinType.LEFT, JoinType.FULL])
    @pytest.mark.parametrize("num_encoders", [1, 2])
    def test_a_fresh_join_scans_only_files(self, tmp_path, monkeypatch, join_type,
                                           num_encoders):
        # When the first scan starts, both embeddings files already hold
        # their final bytes, with no temporary copy of either left (only
        # result.csv's), and every model the join loaded is gone.
        import weakref

        import emberish.cli as cli_mod
        from emberish import joiner

        d = tmp_path / "d"
        trained(d, num_encoders=num_encoders)
        models, first_scan = [], []
        load_model, scan = cli_mod._load_model, joiner._scan

        def loading(*args, **kwargs):
            model = load_model(*args, **kwargs)
            models.append(weakref.ref(model))
            return model

        def scanning(*args, **kwargs):
            if not first_scan:
                first_scan.append((
                    [model() is None for model in models],
                    {name: (d / name).read_bytes() if (d / name).exists() else None
                     for name in EMBEDDINGS},
                    list(d.glob(".embeddings_*.partial"))))
            return scan(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "_load_model", loading)
        monkeypatch.setattr(joiner, "_scan", scanning)
        manifest = cmd_join(fast_config(d, join_type=join_type, num_encoders=num_encoders))
        assert [r["reused"] for r in manifest.embeddings.values()] == [False, False]
        ((dead, files, partial),) = first_scan
        assert len(dead) == num_encoders and all(dead)
        assert files == {name: (d / name).read_bytes() for name in EMBEDDINGS}
        assert partial == []

    @pytest.mark.parametrize("join_type", [JoinType.LEFT, JoinType.FULL])
    @pytest.mark.parametrize("reused", [True, False])
    def test_a_join_that_fails_mid_stream_leaves_the_old_files(self, tmp_path, monkeypatch,
                                                               join_type, reused):
        # The disk fills while the base side streams through the (first)
        # scan in blocks of five records, read from its reused file or
        # embedded into a temporary copy of it: the stream is closed, and
        # every file the join writes keeps its old bytes, with no temporary
        # file left.
        from emberish import joiner

        d = tmp_path / "d"
        cmd_join(trained(d))
        cfg = fast_config(d, join_type=join_type)
        cmd_join(cfg)
        if not reused:
            (d / "manifest_join.json").unlink()
        before = {path.name: path.read_bytes() for path in d.iterdir()}
        monkeypatch.setattr(joiner, "_BLOCK_CELLS", 5 * len(read_rows(d / "aux.csv")[1:]))
        monkeypatch.setattr(joiner, "_WRITE_ROWS", 2)
        # Room for the aux side's embeddings file, not for the base side's
        # or for result.csv.
        full_disk(monkeypatch, (d / "embeddings_aux.bin").stat().st_size)
        with pytest.raises(OSError, match="No space"):
            cmd_join(cfg)
        monkeypatch.undo()
        gc.collect()  # a stream left open would warn here, and warnings are errors
        assert {path.name: path.read_bytes() for path in d.iterdir()} == before

    def test_a_full_join_that_fails_in_its_second_scan_leaves_the_old_files(self, tmp_path,
                                                                             monkeypatch):
        # The disk fills with the first reverse row of a reused FULL join,
        # after every forward row, while the aux side streams from its file
        # in blocks of five records: that stream is closed too. At LEFT SIZE
        # 3 some aux records find base records that did not find them.
        from emberish import joiner

        d = tmp_path / "d"
        cmd_join(trained(d))
        cfg = fast_config(d, join_type=JoinType.FULL, left_size=3)
        cmd_join(cfg)
        before = {path.name: path.read_bytes() for path in d.iterdir()}
        lines = (d / "result.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        forward = 1 + len(read_rows(d / "base.csv")[1:]) * cfg.right_size  # with the header
        assert lines[forward].split(",")[3].strip()  # a reverse row, not an ABSENT one
        monkeypatch.setattr(joiner, "_BLOCK_CELLS", 5 * len(read_rows(d / "base.csv")[1:]))
        monkeypatch.setattr(joiner, "_WRITE_ROWS", 1)
        full_disk(monkeypatch, len("".join(lines[:forward])))
        with pytest.raises(OSError, match="No space"):
            cmd_join(cfg)
        monkeypatch.undo()
        gc.collect()  # a stream left open would warn here, and warnings are errors
        assert {path.name: path.read_bytes() for path in d.iterdir()} == before

    @pytest.mark.parametrize("join_type, held, streamed", [("LEFT", "aux", "base"),
                                                            ("INNER", "aux", "base")])
    def test_a_reused_join_parses_the_held_file_once_and_the_streamed_file_twice(
            self, tmp_path, monkeypatch, join_type, held, streamed):
        # The benchmark's reused LEFT and INNER joins: the scan holds the
        # smaller aux side, retrieved by LEFT and querying in INNER, which
        # is read once; the base side is read for its ids and digest, then
        # block by block.
        import emberish.cli as cli_mod
        from emberish import joiner

        d = tmp_path / "d"
        cmd_join(trained(d))
        passes = {}
        real = joiner.read_embeddings

        def counting(path, *args, **kwargs):
            passes[Path(path).name] = passes.get(Path(path).name, 0) + 1
            return real(path, *args, **kwargs)

        monkeypatch.setattr(joiner, "read_embeddings", counting)
        monkeypatch.setattr(cli_mod, "read_embeddings", counting)
        manifest = cmd_join(fast_config(d, join_type=JoinType(join_type)))
        assert all(r["reused"] for r in manifest.embeddings.values())
        assert passes == {f"embeddings_{held}.bin": 1, f"embeddings_{streamed}.bin": 2}

    @pytest.mark.parametrize("join_type, side, reader", [
        ("LEFT", "base", "embeddings_ids"), ("INNER", "base", "embeddings_ids"),
        ("FULL", "aux", "load_embeddings")])
    @pytest.mark.parametrize("change", ["bump-last-float", "truncate"])
    def test_a_file_changed_during_the_join_exits_2_and_keeps_the_old_result(
            self, tmp_path, monkeypatch, capsys, join_type, side, reader, change):
        # A side changes after the first pass verified it and before a scan
        # reads it again: the larger base side, which LEFT and INNER stream
        # past the aux side they hold, or the smaller aux side, which both of
        # FULL's scans hold and the second reads again.
        import emberish.cli as cli_mod

        d = tmp_path / "d"
        cfg = trained(d)
        cmd_join(cfg)
        before = {name: (d / name).read_bytes()
                  for name in ("result.csv", "manifest_join.json")}
        query = d / f"embeddings_{side}.bin"
        first_pass = getattr(cli_mod, reader)

        def changing(path, digest=None):
            read = first_pass(path, digest)
            if path == query:
                bump_last_float(path) if change == "bump-last-float" else truncate(path, 1)
            return read

        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data_dir": str(d), "embedding_dim": 8, "left_size": 1,
                                      "right_size": 3, "join_type": join_type}))
        monkeypatch.setattr(cli_mod, reader, changing)
        assert main(["join", "--config", str(config)]) == 2
        assert f"{query} changed during the join" in capsys.readouterr().err
        assert {name: (d / name).read_bytes() for name in before} == before
        assert not list(d.glob(".*.partial"))


class TestStreamedBaselineJoin:
    """A baseline join renders each rank block to result.csv as it is
    ranked, and writes the bytes of the whole ranking's ``write_csv``."""

    AUX = {"a,0": "red shoe", 'a"1': "blue boot", "a 2": "", "a3": "red shoe",
           "a4": "blue boot", "a5": "r", "a6": "red boot gtx"}
    # The 45-character key shares no token or bigram with any aux key, and
    # is too long for LD: it matches nothing under any baseline.
    NONE = "z" * 45
    BASE = ["red shoe", NONE, "blue boot", "blue boot red", NONE, "r", "red", "boot red",
            "shoe red gtx"]

    @pytest.mark.parametrize("unmatched", [False, True], ids=["some-match", "none-match"])
    @pytest.mark.parametrize("carriage_return", [False, True])
    @pytest.mark.parametrize("kind", ["BM25", "J-WS", "J-2G", "LD", "JK-WS", "JK-2G"])
    def test_each_block_is_written_as_it_is_ranked(self, tmp_path, monkeypatch, kind,
                                                   carriage_return, unmatched):
        # Two queries per rank block, so nine base records make five blocks;
        # ids that CSV quotes, with one "\r" quoting every field; queries with
        # no match, and in one case no match at all: a header-only result.
        from emberish import joiner, lexrank
        from emberish.lexrank import uses_key_column
        from records import baseline_join

        # Whole-record baselines read column names too: the sides' differ.
        key = uses_key_column(kind)
        columns = ("name", "name") if key else ("q", "t")
        aux = dataset_from_rows("aux", "auxiliary", [
            (rid + ("\r" if carriage_return and rid == "a6" else ""), [(columns[1], name)])
            for rid, name in self.AUX.items()])
        keys = [self.NONE] * len(self.BASE) if unmatched else self.BASE
        base = dataset_from_rows("base", "base", [(f'b,"{i}"', [(columns[0], name)])
                                                  for i, name in enumerate(keys)])
        write_dataset(base, tmp_path / "base.csv")
        write_dataset(aux, tmp_path / "aux.csv")
        key_column = "name" if key else None
        monkeypatch.setattr(lexrank, "_LEX_CELLS", 2 * aux.n)
        loaded = [load_dataset(tmp_path / f"{name}.csv", name=name) for name in ("base", "aux")]
        expected = baseline_join(kind, *loaded, key_column=key_column, k=3)
        expected.write_csv(tmp_path / "expected.csv")
        assert (len(expected.rank) == 0) == unmatched

        # The blocks ranked when each write to result.csv begins.
        ranked, writes = [], []
        topk, result_writer = lexrank.topk, joiner.result_writer

        def counting_topk(*args, **kwargs):
            ranked.append(1)
            return topk(*args, **kwargs)

        def spying_writer(*args):
            write = result_writer(*args)

            def spied(*columns):
                writes.append(len(ranked))
                write(*columns)
            return spied

        monkeypatch.setattr(lexrank, "topk", counting_topk)
        monkeypatch.setattr(joiner, "result_writer", spying_writer)
        cmd_join(fast_config(tmp_path), baseline=kind, key_column=key_column)
        assert writes == [1, 2, 3, 4, 5]
        assert (tmp_path / "result.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_a_failed_baseline_join_leaves_the_old_result(self, workspace, monkeypatch):
        from emberish import lexrank

        tmp_path, cfg = workspace
        cmd_join(cfg, baseline="BM25")
        before = (tmp_path / "result.csv").read_bytes()
        monkeypatch.setattr(lexrank, "_LEX_CELLS", 1)
        topk, calls = lexrank.topk, []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("ranking failed")
            return topk(*args, **kwargs)

        monkeypatch.setattr(lexrank, "topk", failing)
        with pytest.raises(RuntimeError, match="ranking failed"):
            cmd_join(cfg, baseline="J-WS")
        assert (tmp_path / "result.csv").read_bytes() == before
        assert not list(tmp_path.glob(".*.partial"))

    def test_bm25_join_peak_traced_memory_does_not_grow_with_k(self, tmp_path, monkeypatch):
        # 1,000 base records over 200 aux records, 20 queries per rank
        # block: at k = 100 the join ranks about 100,000 rows, about 5 MB as
        # one result, where a block holds 2,000 at most.
        import tracemalloc

        from corpus import word_soup_source
        from emberish import lexrank

        write_dataset(word_soup_source(n_rows=200), tmp_path / "source.csv")
        cmd_generate(EngineConfig(data_dir=str(tmp_path), seed=1))
        monkeypatch.setattr(lexrank, "_LEX_CELLS", 1 << 12)
        peaks = {}
        for k in (1, 1, 100):  # the first run warms up what is cached once
            tracemalloc.start()
            try:
                cmd_join(EngineConfig(data_dir=str(tmp_path), right_size=k), baseline="BM25")
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(read_rows(tmp_path / "result.csv")) > 90_000
        assert peaks[100] < peaks[1] + 1.5e6


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
        (tmp_path / "manifest_join.json").unlink()  # so the join embeds again
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
            # Without the earlier join's manifest the join embeds again.
            (tmp_path / "manifest_join.json").unlink(missing_ok=True)
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
        from emberish.encoder import EncoderModel, load_model, save_model
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
        supervision = load_supervision(tmp_path / "supervision.csv", base.ids(), aux.ids())
        expected = fit_datasets(base, aux, supervision, cfg, pretrain=pretrain,
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
        ["--baseline", "BM25", "--join-type", "LEFT"],
        ["--baseline", "J-WS", "--left-size", "2"],
        ["--key-column", "name"],
        ["--baseline", "BM25", "--key-column", "name"],
        ["--baseline", "J-WS", "--key-column", "name"],
        ["--baseline", "J-2G", "--key-column", "name"],
        ["--spec-file", "spec.kjoin", "--join-type", "INNER", "--right-size", "7"],
        ["--spec-file", "spec.kjoin", "--left-size", "2"],
        ["--join-type", "LEFT", "--left-size", "7"],
        ["--join-type", "RIGHT", "--right-size", "3"],
        ["--config", "left.json", "--left-size", "1"],
        ["--config", "right.json", "--right-size", "4"],
        # Only an INNER join searches both directions.
        ["--join-type", "LEFT", "--right-size", "3", "--both-directions"],
        ["--join-type", "RIGHT", "--both-directions"],
        ["--join-type", "FULL", "--both-directions"],
        ["--config", "left.json", "--both-directions"],
        ["--config", "full.json", "--both-directions"],
        ["--spec-file", "spec.kjoin", "--both-directions"],
    ])
    def test_flag_unused_by_the_chosen_path_is_rejected(self, workspace, flags, capsys,
                                                       monkeypatch):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        (tmp_path / "spec.kjoin").write_text(
            "base LEFT KEYLESS JOIN aux LEFT SIZE 1 RIGHT SIZE 3 USING supervision;")
        for join_type in ("LEFT", "RIGHT", "FULL"):
            (tmp_path / f"{join_type.lower()}.json").write_text(
                json.dumps({"join_type": join_type, "embedding_dim": 8}))
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
        assert main(["join", *d, "--threshold", "2.0", "--both-directions"]) == 0
        spec = tmp_path / "inner.kjoin"
        spec.write_text("base INNER KEYLESS JOIN aux LEFT SIZE 1 RIGHT SIZE 3 USING supervision;")
        assert main(["join", *d, "--spec-file", str(spec), "--both-directions"]) == 0
        assert main(["join", *d, "--join-type", "LEFT", "--right-size", "2"]) == 0
        assert main(["join", *d, "--join-type", "RIGHT", "--left-size", "2"]) == 0
        # A config file's sizes are accepted whatever its join type.
        config.write_text(json.dumps({"data_dir": str(tmp_path), "embedding_dim": 8,
                                      "join_type": "LEFT", "left_size": 4}))
        assert main(["join", *d]) == 0

    def test_index_side_is_not_an_option(self, workspace, capsys):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        assert main(["join", "--data-dir", str(tmp_path), "--index-side", "base"]) == 1
        err = capsys.readouterr().err
        assert "No such option" in err and "--index-side" in err
        assert not (tmp_path / "result.csv").exists()

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

    @pytest.mark.parametrize("num_encoders", [1, 2])
    def test_trained_row_scores_the_model_train_wrote(self, tmp_path, num_encoders):
        # The row retrieves as a LEFT join does at RIGHT SIZE max(ks), with
        # the model files train wrote, pretrained as train does by default.
        # At seed 1, an encoder fitted without pretraining scores another
        # recall@1 under either number of encoders.
        write_source(tmp_path)
        cfg = fast_config(tmp_path, seed=1, num_encoders=num_encoders,
                          join_type=JoinType.LEFT, right_size=10)
        cmd_generate(cfg, copies=2, perturbations=1)
        cmd_train(cfg)
        cmd_join(cfg)
        cmd_evaluate(cfg, ks=[1, 10])
        joined = read_rows(tmp_path / "metrics.csv")
        manifest, _ = cmd_evaluate(cfg, comparison=True, methods=["trained-encoder"],
                                   ks=[1, 10])
        compared = read_rows(tmp_path / "metrics.csv")
        assert [row[0] for row in compared[1:]] == ["trained-encoder"] * 2
        assert [row[1:] for row in compared] == [row[1:] for row in joined]
        assert str(tmp_path / "supervision.csv") not in manifest.inputs

    @pytest.mark.parametrize("num_encoders, missing", [(1, "model.bin"), (2, "model.bin"),
                                                       (2, "model_aux.bin")])
    def test_trained_row_requires_the_model_files(self, workspace, capsys, num_encoders,
                                                  missing):
        tmp_path, _ = workspace
        cmd_train(fast_config(tmp_path, num_encoders=num_encoders), pretrain=False)
        (tmp_path / missing).unlink()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data_dir": str(tmp_path), "embedding_dim": 8,
                                      "num_encoders": num_encoders}))
        assert main(["evaluate", "--config", str(config), "--comparison",
                     "--methods", "BM25,trained-encoder"]) == 1
        assert str(tmp_path / missing) in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    def test_untrained_row_holds_its_datasets_rows_and_ranks_as_the_dense_model(
            self, workspace, monkeypatch):
        from emberish.data import load_supervision
        from emberish.encoder import EncoderModel
        from emberish.evalkit import TruthSet, recall_at_k
        from emberish.joiner import retrieval_result
        from emberish.prepare import prepare_sentence

        created = []
        create = EncoderModel.create.__func__

        def spy(cls, *args, **kwargs):
            created.append(create(cls, *args, **kwargs))
            return created[-1]

        tmp_path, _ = workspace
        cfg = fast_config(tmp_path, embedding_dim=16, tokenizer="char2gram",
                          distance="inner_product", seed=5)
        monkeypatch.setattr(EncoderModel, "create", classmethod(spy))
        cmd_evaluate(cfg, comparison=True, methods=["untrained-encoder"], ks=[1, 3, 5])
        monkeypatch.undo()
        (model,) = created
        dense = EncoderModel.create(dim=16, seed=5)
        base = load_dataset(tmp_path / "base.csv", role="base", name="base")
        aux = load_dataset(tmp_path / "aux.csv", role="auxiliary", name="aux")
        tokens = {t for ds in (base, aux) for rec in ds.records
                  for t in prepare_sentence(rec, tokenizer="char2gram").tokens}
        assert model.row_buckets.tolist() == sorted(set(dense.rows(list(tokens)).tolist()))
        res = retrieval_result(embed_dataset(dense, base, tokenizer="char2gram"),
                               embed_dataset(dense, aux, tokenizer="char2gram"), 5,
                               metric="inner_product")
        truth = TruthSet.from_pairs(load_supervision(tmp_path / "truth_test.csv"))
        assert read_rows(tmp_path / "metrics.csv")[1:] == [
            ["untrained-encoder", str(k), repr(recall_at_k(res, truth, k))] for k in (1, 3, 5)]

    @pytest.mark.parametrize("tokenizer, methods, tokenizers", [
        ("whitespace", ["BM25", "J-WS", "untrained-encoder", "trained-encoder"], 1),
        ("char2gram", ["BM25", "J-2G", "J-WS", "JK-WS", "trained-encoder"], 2),
    ])
    def test_comparison_prepares_each_record_once_per_tokenizer(self, workspace, monkeypatch,
                                                              tokenizer, methods, tokenizers):
        # The sentence baselines and the encoder rows share one featurization
        # per tokenizer in use, which tokenizes each record's sentence once,
        # and each row is the row its method gives alone.
        from collections import Counter

        from emberish import prepare

        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        cfg = fast_config(tmp_path, tokenizer=tokenizer)
        tokenized = Counter()
        tokenize = prepare.tokenize

        def counting(text, mode="whitespace"):
            tokenized[mode] += 1
            return tokenize(text, mode)

        monkeypatch.setattr(prepare, "tokenize", counting)
        key_column = "name" if "JK-WS" in methods else None
        cmd_evaluate(cfg, comparison=True, methods=methods, key_column=key_column)
        monkeypatch.undo()
        ids = [row[0] for name in ("base.csv", "aux.csv")
               for row in read_rows(tmp_path / name)[1:]]
        assert len(set(ids)) == len(ids)
        assert len(tokenized) == tokenizers
        assert tokenized == Counter(dict.fromkeys(tokenized, len(ids)))

        together = (tmp_path / "metrics.csv").read_text(encoding="utf-8").splitlines()
        alone = []
        for method in methods:
            cmd_evaluate(cfg, comparison=True, methods=[method],
                         key_column="name" if method == "JK-WS" else None)
            alone += (tmp_path / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert together[1:] == alone and len(alone) == 2 * len(methods)

    @pytest.mark.parametrize("text, line", [
        ("", 1),
        ("base_id,aux_id,rank,score\nb0,a0,1\n", 2),
        ("base_id,aux_id,rank,score\nb0,a0,1,0.5\nb0,a1,two,0.7\n", 3),
        ("base_id,aux_id,rank,score\n\nb0,a0,1,close\n", 3),
        ("base_id,aux_id,rank,score\nb0,a0,1,0.5\nb0,a1,9223372036854775808,0.7\n", 3),
        ('base_id,aux_id,rank,score\n"b\n0",a0,1,0.5\nb0,a1,two,0.7\n', 4),
        ('base_id,aux_id,rank,score\nb0,a0,1,0.5\n"b\n1",a1,two,0.7\n', 3),
        ("base_id,aux_id,rank,score\nb0,a0,1,0.5\nzz,a1,1,close\n", 3),
        ("base_id,aux_id,rank,score\nb0,a0,1,0.5\nb0,a1,11,close\n", 3),
    ], ids=["missing-header", "short-row", "non-integer-rank", "non-float-score",
            "rank-beyond-int64", "two-line-id-before", "two-line-id-in-the-row",
            "non-truth-record", "rank-beyond-max-k"])
    def test_malformed_results_exit_1_naming_the_line(self, tmp_path, capsys, text, line):
        (tmp_path / "truth_test.csv").write_text("base_id,aux_id\nb0,a0\n")
        results = tmp_path / "result.csv"
        results.write_text(text)
        assert main(["evaluate", "--data-dir", str(tmp_path)]) == 1
        assert f"{results}: line {line}:" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()


    def test_peak_traced_memory_does_not_grow_with_rows_it_does_not_score(self, tmp_path):
        # 2,000 truth rows ranked up to 10, then 100,000 rows of records
        # outside the truth, or ranked past max(ks): about 5 MB as columns.
        import tracemalloc

        cfg = fast_config(tmp_path)
        (tmp_path / "truth_test.csv").write_text(
            "base_id,aux_id\n" + "".join(f"b{i},a{i}\n" for i in range(200)))
        results = tmp_path / "result.csv"
        results.write_text("base_id,aux_id,rank,score\n" + "".join(
            f"b{i},a{i + r - 1},{r},0.{r}\n" for i in range(200) for r in range(1, 11)))
        peaks = []
        for extra in (0, 0, 100_000):  # the first run warms up what is cached once
            if extra:
                with results.open("a") as fh:
                    fh.writelines(f"x{i},a{i % 300},{i % 10 + 1},0.5\nb{i % 200},a{i},"
                                  f"{11 + i % 5},0.5\n" for i in range(extra // 2))
            tracemalloc.start()
            try:
                cmd_evaluate(cfg, ks=[1, 10], with_mrr=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (tmp_path / "metrics.csv").read_text().splitlines()[1:] == [
            "result,1,1.0", "result,10,1.0"]
        assert peaks[2] < peaks[1] + 0.5e6


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

    @pytest.mark.parametrize("text, line", [
        ("", 1),
        ("id,label\nr0,1.0\nr1\n", 3),
        ('id,label\n"r\n0",1.0\nr1\n', 4),
    ], ids=["empty", "one-cell-row", "two-line-id-before"])
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

    @pytest.mark.parametrize("join_type", ["LEFT", "RIGHT", "FULL"])
    def test_a_hop_that_is_not_inner_is_rejected(self, workspace, capsys, join_type):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        hop = f"aux {join_type} KEYLESS JOIN base LEFT SIZE 1 RIGHT SIZE 2 USING s;"
        chain = tmp_path / "chain.kjoin"
        chain.write_text("base INNER KEYLESS JOIN aux LEFT SIZE 1 RIGHT SIZE 2 USING s;\n"
                         + hop + "\n")
        assert main(["pipeline", "--data-dir", str(tmp_path), "--chain-file", str(chain)]) == 1
        err = capsys.readouterr().err
        assert "stage 1" in err and hop in err
        assert not (tmp_path / "chain_result.csv").exists()

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
    @pytest.mark.parametrize("flags, message", [
        (["evaluate", "--ks", "0"], "every k must be >= 1"),
        (["pipeline", "--agg-ks", "0"], "every k must be >= 1"),
        (["evaluate", "--ks", ","], "expected at least one k"),
        (["pipeline", "--agg-ks", ","], "expected at least one k")],
        ids=["evaluate", "pipeline", "evaluate-empty", "pipeline-empty"])
    def test_non_positive_k_exits_one_before_any_work(self, workspace, capsys, flags,
                                                      message):
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
        assert message in capsys.readouterr().err
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

    def test_a_failed_manifest_write_leaves_the_earlier_file(self, workspace, monkeypatch):
        tmp_path, cfg = workspace
        cmd_train(cfg, pretrain=False)
        cmd_join(cfg)
        cmd_evaluate(cfg)
        path = tmp_path / "manifest_evaluate.json"
        old = path.read_bytes()
        # Room for metrics.csv, not for the manifest with its config snapshot.
        full_disk(monkeypatch, 300)
        with pytest.raises(OSError, match="No space"):
            cmd_evaluate(cfg, ks=[1, 2])
        monkeypatch.undo()
        assert path.read_bytes() == old
        # The command failed at the manifest, after writing metrics.csv.
        assert [row[1] for row in read_rows(tmp_path / "metrics.csv")[1:]] == ["1", "2"]
        assert not list(tmp_path.glob(".*.partial"))

    def test_model_and_embeddings_files_are_hashed_as_they_are_written(self, workspace,
                                                                       monkeypatch):
        # train and a fresh join record the digest of the bytes they wrote,
        # and read none of those files back to hash it.
        import emberish.cli as cli_mod

        tmp_path, _ = workspace
        cfg = fast_config(tmp_path, num_encoders=2)
        hashed, sha256 = [], cli_mod._sha256
        monkeypatch.setattr(cli_mod, "_sha256", lambda path: hashed.append(path.name)
                            or sha256(path))
        for run, hashed_as_written, others in (
                (lambda: cmd_train(cfg, pretrain=False), ["model_aux.bin", "model.bin"],
                 ["loss_trace.csv"]),
                (lambda: cmd_join(cfg), ["embeddings_base.bin", "embeddings_aux.bin"],
                 ["result.csv"])):
            hashed.clear()
            outputs = run().outputs
            assert outputs == {str(tmp_path / name): sha256_of(tmp_path / name)
                               for name in hashed_as_written + others}
            assert not set(hashed_as_written) & set(hashed)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the peak resident set is read from /proc/self/status")
    def test_train_and_join_record_their_peak_rss(self, workspace):
        # Each command runs in a process of its own, so the field is its peak.
        tmp_path, cfg = workspace
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"embedding_dim": 8, "epochs": 1, "sampler": "random"}))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        for command in (["train", "--no-pretrain"], ["join"]):
            subprocess.run([sys.executable, "-m", "emberish.cli", *command,
                            "--data-dir", str(tmp_path), "--config", str(config)],
                           check=True, env=env, capture_output=True)
            written = json.loads((tmp_path / f"manifest_{command[0]}.json").read_text())
            assert isinstance(written["peak_rss_kb"], int) and written["peak_rss_kb"] > 0

    def test_peak_rss_is_null_without_proc_status(self, workspace, monkeypatch):
        tmp_path, cfg = workspace

        def no_proc(path, *args, **kwargs):
            raise FileNotFoundError(path)

        monkeypatch.setattr(emberish.cli, "open", no_proc, raising=False)
        cmd_train(cfg, pretrain=False)
        monkeypatch.undo()
        assert json.loads((tmp_path / "manifest_train.json").read_text())["peak_rss_kb"] is None

    # One case per command path: (setup, command, files read, files written,
    # stage timings). Names are relative to the data directory.
    CASES = {
        "generate": (None, lambda d, cfg: cmd_generate(cfg, copies=2, perturbations=1),
                     ["source.csv"],
                     ["base.csv", "aux.csv", "truth_train.csv", "truth_test.csv",
                      "supervision.csv"],
                     ["generate", "split"]),
        "train-finetuned": (None, lambda d, cfg: cmd_train(cfg, pretrain=False),
                            ["base.csv", "aux.csv", "supervision.csv"],
                            ["model.bin", "loss_trace.csv"], ["train"]),
        "train-without-finetuning": (
            None, lambda d, cfg: cmd_train(fast_config(d, finetune=False), pretrain=False),
            ["base.csv", "aux.csv"], ["model.bin", "loss_trace.csv"], ["train"]),
        "train-two-encoders": (
            None, lambda d, cfg: cmd_train(fast_config(d, num_encoders=2), pretrain=False),
            ["base.csv", "aux.csv", "supervision.csv"],
            ["model_aux.bin", "model.bin", "loss_trace.csv"], ["train"]),
        "train-pretrained-artifact": (
            "train",
            lambda d, cfg: cmd_train(fast_config(d, encoder_init="pretrained_artifact"),
                                     pretrain=False),
            ["base.csv", "aux.csv", "supervision.csv", "model.bin"],
            ["model.bin", "loss_trace.csv"], ["train"]),
        "join-learned": ("train", lambda d, cfg: cmd_join(cfg),
                         ["base.csv", "aux.csv", "model.bin"],
                         ["embeddings_base.bin", "embeddings_aux.bin", "result.csv"],
                         ["embed", "join"]),
        "join-reusing": ("join", lambda d, cfg: cmd_join(cfg),
                         ["base.csv", "aux.csv", "model.bin", "embeddings_base.bin",
                          "embeddings_aux.bin"],
                         ["result.csv"], ["join"]),
        "join-baseline": (None, lambda d, cfg: cmd_join(cfg, baseline="BM25"),
                          ["base.csv", "aux.csv"], ["result.csv"], ["baseline_join"]),
        "join-spec-file": ("train", lambda d, cfg: cmd_join(cfg, spec_file=d / "spec.kjoin"),
                           ["spec.kjoin", "base.csv", "aux.csv", "model.bin"],
                           ["embeddings_base.bin", "embeddings_aux.bin", "result.csv"],
                           ["embed", "join"]),
        "join-dump-sentences": (
            "train", lambda d, cfg: cmd_join(cfg, dump_sentences=d / "sentences.jsonl"),
            ["base.csv", "aux.csv", "model.bin"],
            ["sentences.jsonl", "embeddings_base.bin", "embeddings_aux.bin", "result.csv"],
            ["embed", "join"]),
        "evaluate": ("join", lambda d, cfg: cmd_evaluate(cfg),
                     ["truth_test.csv", "result.csv"], ["metrics.csv"], ["metrics"]),
        "evaluate-comparison": (
            None, lambda d, cfg: cmd_evaluate(cfg, comparison=True, methods=["BM25"]),
            ["truth_test.csv", "base.csv", "aux.csv"], ["metrics.csv"], ["comparison"]),
        "evaluate-comparison-trained": (
            "train",
            lambda d, cfg: cmd_evaluate(cfg, comparison=True, methods=["trained-encoder"]),
            ["truth_test.csv", "base.csv", "aux.csv", "model.bin"], ["metrics.csv"],
            ["comparison", "embed"]),
        "evaluate-comparison-without-supervision": (
            "no-supervision",
            lambda d, cfg: cmd_evaluate(cfg, comparison=True, methods=["BM25"]),
            ["truth_test.csv", "base.csv", "aux.csv"], ["metrics.csv"], ["comparison"]),
        "pipeline-with-labels": (
            "train",
            lambda d, cfg: cmd_pipeline(cfg, d / "chain.kjoin", labels_path=d / "labels.csv"),
            ["chain.kjoin", "labels.csv", "base.csv", "aux.csv", "model.bin"],
            ["chain_result.csv", "aggregates.csv"], ["embed", "chain", "aggregate"]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_manifest_names_what_the_command_read_and_wrote(self, tmp_path, case):
        setup, run, reads, writes, stages = self.CASES[case]
        write_source(tmp_path)
        cfg = fast_config(tmp_path)
        if case != "generate":
            cmd_generate(cfg, copies=2, perturbations=1)
        if setup in ("train", "join"):
            cmd_train(cfg, pretrain=False)
        if setup == "join":
            cmd_join(cfg)
        if setup == "no-supervision":
            (tmp_path / "supervision.csv").unlink()
        (tmp_path / "spec.kjoin").write_text(
            "base LEFT KEYLESS JOIN aux LEFT SIZE 1 RIGHT SIZE 2 USING supervision;")
        (tmp_path / "chain.kjoin").write_text(
            "base INNER KEYLESS JOIN aux LEFT SIZE 99 RIGHT SIZE 2 USING supervision;")
        (tmp_path / "labels.csv").write_text(
            "id,label\n" + "".join(f"r{i},{float(i)}\n" for i in range(30)))
        # A file the command rewrites, like a pretrained model.bin, is read
        # with the bytes it had before the command ran.
        before = {name: sha256_of(tmp_path / name) for name in reads}
        manifest = run(tmp_path, cfg)
        if isinstance(manifest, tuple):
            manifest = manifest[0]
        command = case.split("-")[0]
        written = json.loads((tmp_path / f"manifest_{command}.json").read_text())
        assert written == asdict(manifest)
        assert written["command"] == command
        assert written["inputs"] == {str(tmp_path / name): before[name] for name in reads}
        assert written["outputs"] == {str(tmp_path / name): sha256_of(tmp_path / name)
                                      for name in writes}
        assert set(written["timings"]) == set(stages)


def write_quoted_source(tmp_path, n=40):
    """A source.csv whose quoted cells hold commas, quotes, line breaks and
    non-ASCII text, and some empty cells."""
    rows = []
    for i in range(n):
        name = f'item{i}, "w{i % 7}" w{i % 11}' + ("\nnext é" if i % 3 else "")
        rows.append((f"r{i}", [("name", name), ("city", f"city{i % 5}" if i % 4 else "")]))
    write_dataset(dataset_from_rows("source", "auxiliary", rows), tmp_path / "source.csv")


class TestRecordsOnlyWhereTextIsRead:
    """train, a fresh learned join, the BM25 and J-WS joins and evaluate
    code each row's tokens as its file streams past, and build no
    ``Record``; they write the bytes that the same computation over the
    loaded records gives. generate, --dump-sentences and the key-column
    baselines read record text, so they build records."""

    @staticmethod
    def count_records(monkeypatch, refuse=False):
        from emberish.data import Record

        built = []

        def post_init(record):
            if refuse:
                raise AssertionError(f"record {record.id!r} was built")
            built.append(record.id)

        monkeypatch.setattr(Record, "__post_init__", post_init)
        return built

    @pytest.mark.parametrize("tokenizer", ["whitespace", "char2gram"])
    def test_featurizing_commands_build_no_record(self, tmp_path, monkeypatch, tokenizer):
        from emberish.data import load_supervision
        from emberish.encoder import save_model
        from emberish.joiner import execute_join, save_embeddings
        from emberish.joinspec import JoinSpec
        from records import baseline_join

        write_quoted_source(tmp_path)
        settings = {"data_dir": str(tmp_path), "embedding_dim": 8, "epochs": 2,
                    "learning_rate": 0.01, "seed": 7, "tokenizer": tokenizer,
                    "sampler": "stratified_bm25", "right_size": 3}
        (tmp_path / "config.json").write_text(json.dumps(settings))
        d = ["--config", str(tmp_path / "config.json")]
        assert main(["generate", *d, "--copies", "2", "--perturbations", "1"]) == 0

        # What the commands write, computed from the loaded records.
        expected = tmp_path / "expected"
        expected.mkdir()
        cfg = EngineConfig(**settings)
        base, aux = (load_dataset(tmp_path / f"{name}.csv", name=name) for name in ("base", "aux"))
        supervision = load_supervision(tmp_path / "supervision.csv", base.ids(), aux.ids())
        model = fit_datasets(base, aux, supervision, cfg, pretrain=True).model
        save_model(model, expected / "model.bin")
        embeddings = [embed_dataset(model, ds, tokenizer) for ds in (base, aux)]
        for ds, emb in zip((base, aux), embeddings):
            save_embeddings(emb, expected / f"embeddings_{ds.name}.bin")
        for join_type, left in (("LEFT", 1), ("INNER", 2)):
            spec = JoinSpec("base", "aux", JoinType(join_type), left, 3, "supervision")
            execute_join(spec, *embeddings).write_csv(expected / f"{join_type}.csv")
        for kind in ("BM25", "J-WS"):
            baseline_join(kind, base, aux, k=3).write_csv(expected / f"{kind}.csv")

        self.count_records(monkeypatch, refuse=True)
        assert main(["train", *d]) == 0
        assert (tmp_path / "model.bin").read_bytes() == (expected / "model.bin").read_bytes()
        for join_type, sizes in (("LEFT", []), ("INNER", ["--left-size", "2"])):
            (tmp_path / "manifest_join.json").unlink(missing_ok=True)  # a fresh join
            assert main(["join", *d, "--join-type", join_type, *sizes]) == 0
            assert main(["evaluate", *d]) == 0
            for name in ("embeddings_base.bin", "embeddings_aux.bin"):
                assert (tmp_path / name).read_bytes() == (expected / name).read_bytes()
            assert ((tmp_path / "result.csv").read_bytes()
                    == (expected / f"{join_type}.csv").read_bytes())
        for kind in ("BM25", "J-WS"):
            assert main(["join", *d, "--baseline", kind]) == 0
            assert (tmp_path / "result.csv").read_bytes() == (expected / f"{kind}.csv").read_bytes()
        assert main(["evaluate", *d, "--comparison", "--methods",
                     "BM25,J-2G,untrained-encoder,trained-encoder"]) == 0
        assert main(["pipeline", *d, "--chain-file", str(self.chain(tmp_path))]) == 0

    @staticmethod
    def chain(tmp_path):
        path = tmp_path / "chain.kjoin"
        path.write_text("base INNER KEYLESS JOIN aux LEFT SIZE 1 RIGHT SIZE 3 USING s;")
        return path

    def test_text_reading_commands_build_records(self, tmp_path, monkeypatch):
        write_quoted_source(tmp_path)
        d = ["--data-dir", str(tmp_path)]
        built = self.count_records(monkeypatch)
        assert main(["generate", *d, "--copies", "2", "--perturbations", "1"]) == 0
        assert built
        assert main(["train", *d, "--no-pretrain"]) == 0
        sides = len(read_rows(tmp_path / "base.csv")) + len(read_rows(tmp_path / "aux.csv")) - 2
        for args in (["--join-type", "LEFT", "--dump-sentences", str(tmp_path / "s.jsonl")],
                     ["--baseline", "JK-WS", "--key-column", "name"],
                     ["--baseline", "LD", "--key-column", "name"]):
            built.clear()
            assert main(["join", *d, *args]) == 0
            assert len(built) == sides, args
        built.clear()
        assert main(["evaluate", *d, "--comparison", "--methods", "BM25,JK-WS",
                     "--key-column", "name"]) == 0
        assert len(built) == sides

    def test_train_reads_each_dataset_file_once(self, workspace, monkeypatch):
        # Under char2gram, pretraining and a stratified sampler rank
        # whitespace tokens too: one read of each file codes both.
        from collections import Counter

        from emberish import data

        tmp_path, _ = workspace
        reads = Counter()
        read_table = data.read_table

        def counting(path):
            reads[Path(path).name] += 1
            return read_table(path)

        monkeypatch.setattr(data, "read_table", counting)
        cmd_train(fast_config(tmp_path, tokenizer="char2gram", sampler="stratified_jaccard"),
                  pretrain=True)
        assert reads == {"base.csv": 1, "aux.csv": 1, "supervision.csv": 1}

    def test_train_peak_traced_memory_on_grid_data(self, tmp_path):
        # The grid benchmark's train settings, on half its rows. The bound
        # sits between the 9.87 MB this traces and the 14.85 MB of a train
        # that holds a Record per row and int64 table rows.
        import tracemalloc

        from corpus import slot_grid_source

        write_dataset(slot_grid_source(n_rows=1000), tmp_path / "source.csv")
        cfg = EngineConfig(data_dir=str(tmp_path), epochs=1, sampler="random",
                           supervision_fraction=0.1, seed=1)
        cmd_generate(cfg)
        tracemalloc.start()
        try:
            cmd_train(cfg, pretrain=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


def test_version_matches_pyproject():
    # Python 3.10 has no tomllib, so the version line is read as text.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    lines = [line for line in pyproject.read_text(encoding="utf-8").splitlines()
             if line.startswith("version = ")]
    assert lines == [f'version = "{emberish.__version__}"']

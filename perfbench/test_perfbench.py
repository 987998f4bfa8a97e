"""The benchmark's checkers reject corrupted outputs, and a tiny-size run of
every workload passes its own checks.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

import checks
import run
from emberish.cli import main as cli_main

SEED = 3


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, Path]:
    """Correct outputs of every checked command on a tiny soup workload,
    one directory per result so each test can corrupt its own copy."""
    root = tmp_path_factory.mktemp("tiny")
    data = root / "data"
    data.mkdir()
    run.inputs.write_source("soup", 40, SEED, data / "source.csv")
    d = ["--data-dir", str(data)]
    assert cli_main(["generate", *d, "--seed", str(SEED)]) == 0
    assert cli_main(["train", *d, "--seed", str(SEED), "--no-pretrain"]) == 0
    saved: dict[str, Path] = {}

    def keep(name: str, *join_args: str) -> None:
        assert cli_main(["join", *d, *join_args]) == 0
        assert cli_main(["evaluate", *d, "--ks", "1,10"]) == 0
        saved[name] = root / name
        shutil.copytree(data, saved[name], ignore=shutil.ignore_patterns("model.bin"))
        (saved[name] / "model.bin").symlink_to(data / "model.bin")

    keep("left", "--join-type", "LEFT", "--right-size", "10")
    # Base has 5x the rows of aux, so aux queries base and the cap binds.
    keep("inner", "--join-type", "INNER", "--left-size", "1", "--right-size", "2")
    keep("bm25", "--baseline", "BM25")
    keep("jws", "--baseline", "J-WS")
    return saved


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst, symlinks=True)
    return dst


def _check(kind: str, d: Path) -> None:
    base = checks.read_records(d / "base.csv")
    aux = checks.read_records(d / "aux.csv")
    result = d / "result.csv"
    if kind == "generated":
        checks.check_generated(d, seed=SEED)
    elif kind == "recall":
        checks.check_recall(d, checks.recompute_recall(d))
    elif kind == "bm25":
        checks.check_bm25(result, base, aux, k=10)
    elif kind == "jws":
        checks.check_jaccard(result, base, aux, k=10, sample=len(base))
    else:
        model = checks.check_model(d / "model.bin", hash_seed=SEED)
        b_ids, b = checks.check_embeddings(d / "embeddings_base.bin", base, model)
        a_ids, a = checks.check_embeddings(d / "embeddings_aux.bin", aux, model)
        if kind == "left":
            checks.check_left_join(result, b_ids, b, a_ids, a, right_size=10)
        else:
            checks.check_inner_join(result, b_ids, b, a_ids, a, left_size=1, right_size=2)


def _edit_result(path: Path, how: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if how == "drop":
        del rows[len(rows) // 2]
    elif how == "score":
        i = next(i for i, r in enumerate(rows) if r[3])
        rows[i][3] = repr(float(rows[i][3]) + 1e-6)
    else:
        # Swap the ranks of the first query holding two matches; where every
        # query holds one (the capped INNER join), swap two rows' matches.
        i = next((i for i in range(len(rows) - 1)
                  if rows[i][2] == "1" and rows[i + 1][2] == "2"), None)
        if i is not None:
            rows[i][2], rows[i + 1][2] = "2", "1"
        else:
            i = next(i for i in range(len(rows) - 1) if rows[i][0] != rows[i + 1][0])
            rows[i][0], rows[i + 1][0] = rows[i + 1][0], rows[i][0]
    path.write_text("\n".join([lines[0], *(",".join(r) for r in rows)]) + "\n", encoding="utf-8")


@pytest.mark.parametrize("kind", ["generated", "left", "inner", "bm25", "jws", "recall"])
def test_checkers_accept_correct_output(outputs, kind):
    _check(kind, outputs["left" if kind in ("generated", "recall") else kind])


@pytest.mark.parametrize("how", ["swap", "drop", "score"])
@pytest.mark.parametrize("kind", ["left", "inner", "bm25", "jws"])
def test_join_checkers_reject_corrupt_results(outputs, tmp_path, kind, how):
    d = _copy(outputs[kind], tmp_path / kind)
    _edit_result(d / "result.csv", how)
    with pytest.raises(checks.CheckError):
        _check(kind, d)


@pytest.mark.parametrize("how", ["swap", "drop", "score"])
def test_recall_checker_rejects_corrupt_metrics(outputs, tmp_path, how):
    d = _copy(outputs["left"], tmp_path / "left")
    lines = (d / "metrics.csv").read_text(encoding="utf-8").splitlines()
    if how == "drop":
        del lines[1]
    elif how == "score":
        method, k, value = lines[1].split(",")
        lines[1] = f"{method},{k},{float(value) - 1e-6!r}"
    else:
        lines[1], lines[2] = lines[2], lines[1]
    (d / "metrics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckError):
        _check("recall", d)


@pytest.mark.parametrize("how", ["swap", "drop", "score"])
def test_generated_checker_rejects_corrupt_workload(outputs, tmp_path, how):
    d = _copy(outputs["left"], tmp_path / "gen")
    path = d / ("truth_test.csv" if how == "score" else "base.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    if how == "swap":
        lines[1], lines[2] = lines[2], lines[1]
    elif how == "drop":
        del lines[-1]
    else:
        # Move one origin group's first pair to the training split.
        (d / "truth_train.csv").write_text(
            (d / "truth_train.csv").read_text(encoding="utf-8") + lines[1] + "\n",
            encoding="utf-8")
        del lines[1]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckError):
        _check("generated", d)


@pytest.mark.parametrize("how", ["swap", "drop", "score"])
def test_model_and_embedding_checkers_reject_corruption(outputs, tmp_path, how):
    d = _copy(outputs["left"], tmp_path / "emb")
    if how == "drop":
        model = d / "model.bin"
        raw = model.resolve().read_bytes()
        model.unlink()
        model.write_bytes(raw[:-8])
    else:
        path = d / "embeddings_aux.bin"
        ids, matrix = checks.read_embeddings(path)
        if how == "swap":
            matrix[[0, 1]] = matrix[[1, 0]]
        else:
            matrix[0, 0] += 1e-6
        raw = bytearray(path.read_bytes()[: checks.EMB_HEADER.size])
        for rid, row in zip(ids, matrix):
            encoded = rid.encode()
            raw += len(encoded).to_bytes(4, "little") + encoded + row.astype("<f8").tobytes()
        path.write_bytes(bytes(raw))
    with pytest.raises(checks.CheckError):
        _check("left", d)


@pytest.mark.parametrize("name,trace", [("soup-train", 0), ("grid-join", 0),
                                        ("soup-lexical", 0), ("soup-train", 1)])
def test_tiny_run_passes_its_checks(tmp_path, name, trace):
    workload = run.workloads(soup_rows=40, grid_rows=60)[name]
    result = run.bench(workload, SEED, seconds=1, trace=trace, run_dir=tmp_path, setups=2)
    assert result is not None
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = set(run.PER_LAYER_NAMES if trace else run.END_TO_END_UNITS)
    assert set(result["metrics"]) == want
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

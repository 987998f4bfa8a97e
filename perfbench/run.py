"""End-to-end benchmark of the ``emberish`` CLI: generate, train, join, evaluate.

    python3 perfbench/run.py --workload soup-train --seed 1 --seconds 20 --trace 0

Run from a source checkout; the package is taken from ``src/``. Every
command runs in its own child process, one at a time, and every output is
checked against the benchmark's own computation (``checks.py``). The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` a round runs untraced and then traced,
and the metrics are per-layer self times and counts from the traced round.
See ``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUPS = 5            # set-ups per untraced run; setup_s is their median
RUN_DEADLINE_S = 170  # children still running then are killed

SOUP_ROWS = 1000
GRID_ROWS = 2000

LEARNED_JOIN_FILES = ("embeddings_base.bin", "embeddings_aux.bin", "result.csv")
TRAIN_FILES = ("model.bin", "model_aux.bin", "loss_trace.csv")


@dataclass
class Stage:
    label: str
    kind: str  # train | join | evaluate
    args: list[str]
    check: Callable[["Outputs"], None]
    files: tuple[str, ...] = ()


@dataclass
class Workload:
    name: str
    shape: str  # soup | grid
    rows: int
    config: dict
    stages: Callable[[list[str], int], list[Stage]]


class Outputs:
    """The checks of one data directory; inputs are read once."""

    def __init__(self, data_dir: Path, seed: int) -> None:
        self.dir = data_dir
        self.seed = seed
        self._records: dict[str, list] = {}
        self.recalls: list[dict[int, float]] = []  # per evaluate, recomputed here

    def records(self, name: str):
        if name not in self._records:
            self._records[name] = checks.read_records(self.dir / f"{name}.csv")
        return self._records[name]

    def model(self):
        return checks.check_model(self.dir / "model.bin", hash_seed=self.seed)

    def trained(self):
        self.model()

    def learned_join(self, join_type: str, left_size: int = 1, right_size: int = 10):
        model = self.model()
        base_ids, base = checks.check_embeddings(self.dir / "embeddings_base.bin",
                                                 self.records("base"), model, seed=self.seed)
        aux_ids, aux = checks.check_embeddings(self.dir / "embeddings_aux.bin",
                                               self.records("aux"), model, seed=self.seed)
        if join_type == "LEFT":
            checks.check_left_join(self.dir / "result.csv", base_ids, base, aux_ids, aux,
                                   right_size)
        else:
            checks.check_inner_join(self.dir / "result.csv", base_ids, base, aux_ids, aux,
                                    left_size, right_size)

    def bm25(self):
        checks.check_bm25(self.dir / "result.csv", self.records("base"), self.records("aux"), k=10)

    def jaccard(self):
        checks.check_jaccard(self.dir / "result.csv", self.records("base"), self.records("aux"),
                             k=10, seed=self.seed)

    def recall(self):
        found = checks.recompute_recall(self.dir)
        self.recalls.append(found)
        checks.check_recall(self.dir, found)


def _soup_train(cfg: list[str], seed: int) -> list[Stage]:
    return [
        Stage("train", "train", ["train", *cfg, "--seed", str(seed)],
              Outputs.trained, TRAIN_FILES),
        Stage("join-left", "join", ["join", *cfg, "--join-type", "LEFT", "--right-size", "10"],
              lambda o: o.learned_join("LEFT"), LEARNED_JOIN_FILES),
        Stage("evaluate-left", "evaluate", ["evaluate", *cfg, "--ks", "1,10"], Outputs.recall),
    ]


def _grid_join(cfg: list[str], seed: int) -> list[Stage]:
    return [
        Stage("train", "train", ["train", *cfg, "--seed", str(seed), "--no-pretrain"],
              Outputs.trained, TRAIN_FILES),
        Stage("join-left", "join", ["join", *cfg, "--join-type", "LEFT", "--right-size", "10"],
              lambda o: o.learned_join("LEFT"), LEARNED_JOIN_FILES),
        Stage("evaluate-left", "evaluate", ["evaluate", *cfg, "--ks", "1,10"], Outputs.recall),
        # The README quick start: INNER, LEFT SIZE 1, RIGHT SIZE 10.
        Stage("join-inner", "join", ["join", *cfg, "--join-type", "INNER", "--left-size", "1",
                                     "--right-size", "10"],
              lambda o: o.learned_join("INNER", 1, 10), LEARNED_JOIN_FILES),
        Stage("evaluate-inner", "evaluate", ["evaluate", *cfg, "--ks", "1,10"], Outputs.recall),
    ]


def _soup_lexical(cfg: list[str], seed: int) -> list[Stage]:
    return [
        Stage("join-bm25", "join", ["join", *cfg, "--baseline", "BM25"], Outputs.bm25,
              ("result.csv",)),
        Stage("evaluate-bm25", "evaluate", ["evaluate", *cfg, "--ks", "1,10"], Outputs.recall),
        Stage("join-jws", "join", ["join", *cfg, "--baseline", "J-WS"], Outputs.jaccard,
              ("result.csv",)),
        Stage("evaluate-jws", "evaluate", ["evaluate", *cfg, "--ks", "1,10"], Outputs.recall),
    ]


def workloads(soup_rows: int = SOUP_ROWS, grid_rows: int = GRID_ROWS) -> dict[str, Workload]:
    return {w.name: w for w in (
        Workload("soup-train", "soup", soup_rows, {"epochs": 3, "learning_rate": 5e-3},
                 _soup_train),
        Workload("grid-join", "grid", grid_rows,
                 {"epochs": 1, "sampler": "random", "supervision_fraction": 0.1}, _grid_join),
        Workload("soup-lexical", "soup", soup_rows, {}, _soup_lexical),
    )}


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------


@dataclass
class Child:
    label: str
    kind: str
    code: int
    wall_s: float
    peak_rss_mb: float
    launched: float  # perf_counter at launch; the same clock as the child's spans


class Runner:
    """Launches one child at a time with a shared environment and deadline."""

    def __init__(self, run_dir: Path, blas_threads: int, deadline: float) -> None:
        self.log = run_dir / "children.log"
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get(
            "PYTHONPATH") else src
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(blas_threads)

    def run(self, label: str, kind: str, args: list[str], spans: Path | None = None) -> Child:
        peak = self.log.parent / "peak_rss_kb"
        peak.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "stage.py"), "--peak", str(peak)]
        if spans is not None:
            cmd += ["--spans", str(spans), "--stage-id", label]
        cmd += ["--", *args]
        with self.log.open("ab") as log:
            log.write(f"== {label}: {' '.join(args)}\n".encode())
            log.flush()
            launched = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=log, stderr=log)
            timer = threading.Timer(max(0.0, self.deadline - launched), proc.kill)
            timer.start()
            try:
                proc.wait()
            finally:
                timer.cancel()
            wall = time.perf_counter() - launched
        peak_mb = float("nan")
        if peak.exists():
            peak_mb = int(peak.read_text()) / 1024.0
            peak.unlink()
        return Child(label, kind, proc.returncode, wall, peak_mb, launched)


# ---------------------------------------------------------------------------
# Set-up and rounds.
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)

    def fail(self, label: str, why: str, wrong: bool = False) -> None:
        self.failed += 1
        if wrong:
            self.wrong.append(f"{label}: {why}")
        print(f"perfbench: {label} failed: {why}", file=sys.stderr)


def setup(workload: Workload, seed: int, data_dir: Path, runner: Runner, tally: Tally,
          spans: Path | None = None) -> Child | None:
    """Write ``source.csv`` and the config, then ``emberish generate``."""
    data_dir.mkdir(parents=True)
    tally.attempted += 1
    start = time.perf_counter()
    inputs.write_source(workload.shape, workload.rows, seed, data_dir / "source.csv")
    (data_dir / "config.json").write_text(
        json.dumps({"data_dir": str(data_dir), **workload.config}), encoding="utf-8")
    child = runner.run("setup", "setup", ["generate", "--config", str(data_dir / "config.json"),
                                 "--preset", "easy", "--seed", str(seed)], spans)
    child.wall_s = time.perf_counter() - start
    if child.code != 0:
        tally.fail("setup", f"exit code {child.code}")
        return None
    try:
        checks.check_generated(data_dir, seed=seed)
    except checks.CheckError as exc:
        tally.fail("setup", str(exc), wrong=True)
    return child


@dataclass
class Round:
    children: list[Child] = field(default_factory=list)
    artifact_bytes: int = 0
    recall: dict[int, float] | None = None
    duration_s: float = 0.0
    complete: bool = False


def run_round(workload: Workload, seed: int, data_dir: Path, runner: Runner, tally: Tally,
              prefix: str = "", spans_dir: Path | None = None) -> Round:
    """One pass over the workload's stages. After a stage exits non-zero the
    rest are counted as failed without running, so every round attempts the
    same operations."""
    result = Round()
    outputs = Outputs(data_dir, seed)
    cfg = ["--config", str(data_dir / "config.json")]
    start = time.perf_counter()
    broken = None
    for stage in workload.stages(cfg, seed):
        label = prefix + stage.label
        tally.attempted += 1
        if broken is not None:
            tally.fail(label, f"not run after {broken} failed")
            continue
        spans = spans_dir / f"{label}.jsonl" if spans_dir is not None else None
        child = runner.run(label, stage.kind, stage.args, spans)
        result.children.append(child)
        if child.code != 0:
            broken = label
            tally.fail(label, f"exit code {child.code}")
            continue
        result.artifact_bytes += sum((data_dir / f).stat().st_size for f in stage.files
                                     if (data_dir / f).exists())
        try:
            stage.check(outputs)
        except checks.CheckError as exc:
            tally.fail(label, str(exc), wrong=True)
    result.duration_s = time.perf_counter() - start
    result.complete = broken is None
    result.recall = outputs.recalls[0] if outputs.recalls else None
    return result


def round_metrics(rnd: Round) -> dict[str, float]:
    kids = rnd.children
    joins = [c for c in kids if c.kind == "join"]
    return {
        "total_s": sum(c.wall_s for c in kids),
        "join_s": sum(c.wall_s for c in joins),
        "peak_rss_mb": max(c.peak_rss_mb for c in kids),
        "join_peak_rss_mb": max(c.peak_rss_mb for c in joins),
        "artifact_bytes": rnd.artifact_bytes,
        "recall_at_1": rnd.recall[1],
        "recall_at_10": rnd.recall[10],
    }


END_TO_END_UNITS = {
    "setup_s": "s", "total_s": "s", "join_s": "s", "peak_rss_mb": "MB",
    "join_peak_rss_mb": "MB", "artifact_bytes": "bytes", "recall_at_1": "ratio",
    "recall_at_10": "ratio",
}

# (metric, span name, field of the layer table). Self times exclude the
# time of nested traced calls.
PER_LAYER = (
    ("encoder.batch_gradients_s", "encoder.batch_gradients", "self_s"),
    ("encoder.batches", "encoder.batch_gradients", "calls"),
    ("encoder.train_self_s", "encoder.train", "self_s"),
    ("encoder.fit_encoder_self_s", "encoder.fit_encoder", "self_s"),
    ("encoder.model_create_s", "encoder.model_create", "self_s"),
    ("encoder.save_model_s", "encoder.save_model", "self_s"),
    ("encoder.load_model_s", "encoder.load_model", "self_s"),
    ("encoder.embed_s", "encoder.embed", "self_s"),
    ("encoder.embedded_records", "encoder.embed", "count"),
    ("supervise.sample_triples_s", "supervise.sample_triples", "self_s"),
    ("supervise.sample_triples_calls", "supervise.sample_triples", "calls"),
    ("supervise.pretraining_pairs_s", "supervise.pretraining_pairs", "self_s"),
    ("supervise.generate_s", "supervise.generate", "self_s"),
    ("lexrank.bm25_build_s", "lexrank.bm25_build", "self_s"),
    ("lexrank.bm25_builds", "lexrank.bm25_build", "calls"),
    ("lexrank.bm25_topk_s", "lexrank.bm25_topk", "self_s"),
    ("lexrank.bm25_queries", "lexrank.bm25_topk", "calls"),
    ("lexrank.lexical_join_self_s", "lexrank.lexical_join", "self_s"),
    ("prepare.prepare_sentence_s", "prepare.prepare_sentence", "self_s"),
    ("prepare.sentences", "prepare.prepare_sentence", "calls"),
    ("joiner.knn_s", "joiner.knn", "self_s"),
    ("joiner.knn_calls", "joiner.knn", "calls"),
    ("joiner.candidates_scored", "joiner.knn", "count"),
    ("joiner.execute_join_self_s", "joiner.execute_join", "self_s"),
    ("joiner.build_index_s", "joiner.build_index", "self_s"),
    ("joiner.save_embeddings_s", "joiner.save_embeddings", "self_s"),
    ("joiner.write_result_s", "joiner.write_result", "self_s"),
    ("joiner.read_result_s", "joiner.read_result", "self_s"),
    ("data.load_dataset_s", "data.load_dataset", "self_s"),
    ("data.rows_loaded", "data.load_dataset", "count"),
    ("data.load_supervision_s", "data.load_supervision", "self_s"),
    ("data.write_s", "data.write", "self_s"),
    ("cli.digest_s", "cli.digest", "self_s"),
    ("cli.main_self_s", spans.ROOT_SPAN, "self_s"),
    ("evalkit.recall_s", "evalkit.recall", "self_s"),
)


STAGE_METRICS = {
    "stage.train_s": ("train",),
    "stage.learned_join_s": ("join-left", "join-inner"),
    "stage.bm25_join_s": ("join-bm25",),
    "stage.jws_join_s": ("join-jws",),
    "stage.evaluate_s": ("evaluate-left", "evaluate-inner", "evaluate-bm25", "evaluate-jws"),
}
PER_LAYER_NAMES = (*(m for m, _, _ in PER_LAYER), "cli.startup_s", *STAGE_METRICS,
                   "stage.train_peak_rss_mb", "trace.overhead_s")


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") else "MB" if metric.endswith("_mb") else "count"


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------


def untraced_run(workload: Workload, seed: int, seconds: int, run_dir: Path, runner: Runner,
                 tally: Tally, setups: int = SETUPS) -> dict[str, float] | None:
    setup_times = []
    for i in range(setups):
        child = setup(workload, seed, run_dir / f"setup{i}", runner, tally)
        if child is None:
            return None
        setup_times.append(child.wall_s)
    data_dir = run_dir / f"setup{setups - 1}"
    # Whole rounds until the next one would end past ``seconds``; at least one.
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        rnd = run_round(workload, seed, data_dir, runner, tally, prefix=f"r{len(rounds)}:")
        rounds.append(rnd)
        _print_round(rnd)
        if (time.perf_counter() - start) + rnd.duration_s > seconds:
            break
    per_round = [round_metrics(r) for r in rounds if r.complete]
    if not per_round:
        return None
    metrics = {"setup_s": statistics.median(setup_times)}
    for name in per_round[0]:
        metrics[name] = statistics.median([m[name] for m in per_round])
    print(f"rounds: {len(rounds)}; set-up times: {', '.join(f'{t:.3f}' for t in setup_times)} s")
    return metrics


def traced_run(workload: Workload, seed: int, run_dir: Path, runner: Runner,
               tally: Tally) -> dict[str, float] | None:
    """An untraced set-up and round, then a traced set-up and round in a
    fresh directory; reports the per-layer table and the tracing overhead."""
    plain_setup = setup(workload, seed, run_dir / "plain", runner, tally)
    if plain_setup is None:
        return None
    plain = run_round(workload, seed, run_dir / "plain", runner, tally)
    spans_dir = run_dir / "spans"
    spans_dir.mkdir()
    traced_setup = setup(workload, seed, run_dir / "traced", runner, tally,
                         spans=spans_dir / "setup.jsonl")
    if traced_setup is None:
        return None
    traced = run_round(workload, seed, run_dir / "traced", runner, tally, spans_dir=spans_dir)

    all_spans = []
    for child in [traced_setup, *traced.children]:
        path = spans_dir / f"{child.label}.jsonl"
        if path.exists():
            all_spans.extend(spans.read_spans(path))
    with (run_dir / "spans.jsonl").open("w", encoding="utf-8") as fh:
        for s in all_spans:
            fh.write(json.dumps(s) + "\n")
    shutil.rmtree(spans_dir)
    table = spans.layer_table(all_spans)

    lines = ["stage              untraced_s   traced_s  overhead_s  overhead_%"]
    for a, b in zip([plain_setup, *plain.children], [traced_setup, *traced.children]):
        lines.append(f"{b.label:<18}{a.wall_s:>11.3f}{b.wall_s:>11.3f}{b.wall_s - a.wall_s:>12.3f}"
                     f"{100 * (b.wall_s - a.wall_s) / a.wall_s:>11.1f}")
    lines += ["", "span                              calls        count     total_s      self_s"]
    for name in sorted(table):
        row = table[name]
        lines.append(f"{name:<30}{row['calls']:>9}{row['count']:>13}{row['total_s']:>12.3f}"
                     f"{row['self_s']:>12.3f}")
    startup = [s["start"] - c.launched for c in [traced_setup, *traced.children]
               for s in all_spans if s["stage"] == c.label and s["name"] == spans.ROOT_SPAN]
    lines.append(f"{'(process launch to cli.main)':<30}{len(startup):>9}{'':>13}"
                 f"{sum(startup):>12.3f}{sum(startup):>12.3f}")
    for child in traced.children:
        if child.kind == "train":
            stage_table = spans.layer_table([s for s in all_spans if s["stage"] == child.label])
            core = sum(r["self_s"] for n, r in stage_table.items()
                       if n.split(".")[0] in ("encoder", "supervise", "lexrank", "prepare"))
            lines.append(f"\ntrain: encoder+supervise+lexrank+prepare self time {core:.3f} s of "
                         f"{child.wall_s:.3f} s wall ({100 * core / child.wall_s:.1f}%)")
    report = "\n".join(lines)
    (run_dir / "layers.txt").write_text(report + "\n", encoding="utf-8")
    print(report)

    metrics = {metric: table.get(span, {}).get(column, 0) for metric, span, column in PER_LAYER}
    metrics["cli.startup_s"] = sum(startup)
    # Untraced wall time and memory per kind of command, from the plain round.
    kids = plain.children
    for metric, labels in STAGE_METRICS.items():
        metrics[metric] = sum(c.wall_s for c in kids if c.label in labels)
    metrics["stage.train_peak_rss_mb"] = max((c.peak_rss_mb for c in kids if c.kind == "train"),
                                             default=0)
    metrics["trace.overhead_s"] = (sum(c.wall_s for c in [traced_setup, *traced.children])
                                   - sum(c.wall_s for c in [plain_setup, *kids]))
    return metrics


def _print_round(rnd: Round) -> None:
    for c in rnd.children:
        print(f"{c.label:<20}{c.wall_s:>9.3f} s{c.peak_rss_mb:>9.1f} MB  exit {c.code}")


def machine_record(blas_threads: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": blas_threads,
            "machine": platform.machine()}


def blas_threads() -> int:
    """Threads for BLAS in the children: the caller's setting, capped at nproc."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return min(nproc, int(requested)) if requested and requested.isdigit() else nproc


def bench(workload: Workload, seed: int, seconds: int, trace: int, run_dir: Path,
          setups: int = SETUPS) -> dict | None:
    """One benchmark run in ``run_dir``; returns the result object, or None
    when no round completed. Data directories are removed afterwards; the
    machine record, child logs, spans and layer table stay."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    threads = blas_threads()
    machine = machine_record(threads)
    (run_dir / "machine.json").write_text(json.dumps(machine, indent=2) + "\n", encoding="utf-8")
    print("machine: " + json.dumps(machine))

    runner = Runner(run_dir, threads, time.perf_counter() + RUN_DEADLINE_S)
    tally = Tally()
    try:
        if trace:
            metrics = traced_run(workload, seed, run_dir, runner, tally)
            units = {m: unit_of(m) for m in PER_LAYER_NAMES}
        else:
            metrics = untraced_run(workload, seed, seconds, run_dir, runner, tally, setups)
            units = END_TO_END_UNITS
    finally:
        for data_dir in [*run_dir.glob("setup*"), run_dir / "plain", run_dir / "traced"]:
            shutil.rmtree(data_dir, ignore_errors=True)
    if metrics is None:
        return None
    for problem in tally.wrong:
        print(f"perfbench: WRONG OUTPUT {problem}", file=sys.stderr)
    return {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "emberish" / "cli.py").exists():
        print(f"perfbench: no emberish sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = args.seed & 0x7FFFFFFF  # the engine stores its seed as a signed 64-bit field
    name = f"{args.workload}-seed{seed}{'-trace' if args.trace else ''}"
    run_dir = ROOT / ".perfbench-work" / name
    result = bench(workloads()[args.workload], seed, args.seconds, args.trace, run_dir)
    if result is None:
        print("perfbench: no complete round; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

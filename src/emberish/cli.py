"""Command-line entry point wiring the pipeline into reproducible batch runs.

Subcommands: generate | train | join | evaluate | pipeline. With only a
data directory set, every command resolves its inputs through the fixed
naming convention (base.csv, aux.csv, supervision.csv, model.bin,
embeddings_{base,aux}.bin, result.csv). Exit codes: 0 success, 1
validation error, 2 runtime failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Collection

import click

from .data import (
    DataError,
    Dataset,
    DatasetRole,
    SupervisionPair,
    load_dataset,
    load_supervision,
    write_dataset,
    write_pairs,
)
from .encoder import EncoderModel, embed_dataset, fit_encoder, load_model, save_model
from .evalkit import (
    EvalError,
    TruthSet,
    mrr_at_k,
    recall_at_k,
    run_comparison,
)
from .joiner import (
    EmbeddingIndex,
    JoinError,
    JoinResult,
    aggregate_labels,
    build_index,
    chain_joins,
    execute_join,
    save_embeddings,
)
from .joinspec import (
    ConfigError,
    EngineConfig,
    JoinSpec,
    JoinType,
    SpecParseError,
    config_from_dict,
    config_object,
    parse_join_spec,
    parse_join_specs,
    resolve_ref,
)
from .lexrank import lexical_join, uses_key_column
from .prepare import prepare_sentence, token_ids
from .supervise import PerturbationConfig, generate_fuzzy_join, split_train_test

ENV_DATA_DIR = "EMBERISH_DATA_DIR"

# Every engine validation error subclasses ValueError; FileNotFoundError covers
# missing inputs surfaced by the filesystem itself.
_VALIDATION_ERRORS = (ValueError, FileNotFoundError)

PRESETS = {"easy": 5, "hard": 15}


def stage_seed(seed: int, stage: str) -> int:
    """Stage-local seed derived by stable hashing of (seed, stage name)."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Audit record for one command: config snapshot, digests, timings."""

    command: str
    config: dict
    seed: int
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    def add_input(self, path: Path) -> None:
        self.inputs[str(path)] = _sha256(path)

    def add_output(self, path: Path) -> None:
        self.outputs[str(path)] = _sha256(path)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")


class _StageTimer:
    def __init__(self, manifest: RunManifest, stage: str) -> None:
        self.manifest = manifest
        self.stage = stage

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.manifest.timings[self.stage] = time.perf_counter() - self.start
        return False


def _config_to_dict(cfg: EngineConfig) -> dict:
    raw = asdict(cfg)
    raw["join_type"] = cfg.join_type.value
    return raw


def resolve_config(config_path: str | None, overrides: dict) -> EngineConfig:
    """Precedence: CLI flags > config file > EMBERISH_DATA_DIR env var."""
    raw: dict = {}
    env_dir = os.environ.get(ENV_DATA_DIR)
    if env_dir:
        raw["data_dir"] = env_dir
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        raw.update(config_object(path.read_text(encoding="utf-8")))
    raw.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(raw)


def _require_files(*paths: Path) -> None:
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise DataError("missing input files: " + ", ".join(missing))


def _load_model(config: EngineConfig, manifest: RunManifest, path: Path,
                tokens: Collection[str] | None = None) -> EncoderModel:
    """Load a model file into ``manifest``'s inputs, partially when given the
    ``tokens`` to embed (see ``load_model``). Exits 1 when the model's dim
    or normalization disagrees with the config, and warns when the file is
    not the one ``manifest_train.json`` records."""
    _require_files(path)
    manifest.add_input(path)
    train_manifest = path.parent / "manifest_train.json"
    if train_manifest.exists():
        try:
            outputs = json.loads(train_manifest.read_text(encoding="utf-8"))["outputs"]
            recorded = {Path(p).name: digest for p, digest in outputs.items()}.get(path.name)
        except (ValueError, KeyError, TypeError, AttributeError):
            recorded = "unreadable"
        if recorded is not None and recorded != manifest.inputs[str(path)]:
            click.echo(f"warning: {path} is not the model {train_manifest} records "
                       f"(sha256 {manifest.inputs[str(path)]}, recorded {recorded})", err=True)
    model = load_model(path, tokens)
    for key, configured, stored in (("embedding_dim", config.embedding_dim, model.dim),
                                    ("normalize", config.normalize, model.normalize)):
        if configured != stored:
            raise ConfigError(f"{path} has {key} {stored!r} but the config has "
                              f"{key} {configured!r}")
    return model


def _load_sides(data_dir: Path) -> tuple[Dataset, Dataset]:
    base_path = data_dir / "base.csv"
    aux_path = data_dir / "aux.csv"
    _require_files(base_path, aux_path)
    base = load_dataset(base_path, role=DatasetRole.BASE, name="base")
    aux = load_dataset(aux_path, role=DatasetRole.AUXILIARY, name="aux")
    return base, aux


# ---------------------------------------------------------------------------
# Command implementations (plain functions; the click layer stays thin).
# ---------------------------------------------------------------------------


def cmd_generate(
    config: EngineConfig,
    source_path: str | Path | None = None,
    preset: str = "easy",
    perturbations: int | None = None,
    copies: int = 5,
    max_fraction: float = 0.25,
    test_fraction: float = 0.2,
) -> RunManifest:
    """Generate the synthetic fuzzy-join workload files."""
    data_dir = Path(config.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    source_path = Path(source_path) if source_path else data_dir / "source.csv"
    _require_files(source_path)
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r} (expected easy or hard)")
    per_row = perturbations if perturbations is not None else PRESETS[preset]

    manifest = RunManifest(command="generate", config=_config_to_dict(config),
                           seed=config.seed)
    manifest.add_input(source_path)

    with _StageTimer(manifest, "generate"):
        source = load_dataset(source_path, role=DatasetRole.AUXILIARY)
        pcfg = PerturbationConfig(
            perturbations_per_row=per_row,
            max_fraction=max_fraction,
            copies_per_row=copies,
            seed=stage_seed(config.seed, "generate"),
        )
        base, aux, truth = generate_fuzzy_join(source, pcfg)
    with _StageTimer(manifest, "split"):
        train, test = split_train_test(
            truth, test_fraction=test_fraction, seed=stage_seed(config.seed, "split")
        )

    outputs = {
        "base.csv": lambda p: write_dataset(base, p),
        "aux.csv": lambda p: write_dataset(aux, p),
        "truth_train.csv": lambda p: write_pairs(train, p),
        "truth_test.csv": lambda p: write_pairs(test, p),
        # Training convention: supervision.csv is the train split.
        "supervision.csv": lambda p: write_pairs(train, p),
    }
    for name, writer in outputs.items():
        path = data_dir / name
        writer(path)
        manifest.add_output(path)
    manifest.write(data_dir / "manifest_generate.json")
    return manifest


def cmd_train(
    config: EngineConfig,
    pretrain: bool = True,
    freeze_negatives: bool = False,
    supervision_path: str | Path | None = None,
) -> RunManifest:
    """Fit the encoder under the naming convention and write model.bin."""
    data_dir = Path(config.data_dir)
    supervision_path = Path(supervision_path) if supervision_path else data_dir / "supervision.csv"
    _require_files(data_dir / "base.csv", data_dir / "aux.csv", supervision_path)

    manifest = RunManifest(command="train", config=_config_to_dict(config), seed=config.seed)
    for p in (data_dir / "base.csv", data_dir / "aux.csv", supervision_path):
        manifest.add_input(p)

    base, aux = _load_sides(data_dir)
    supervision = load_supervision(supervision_path, base, aux)
    if freeze_negatives:
        # Negatives are sampled only when fine-tuning on pairs.
        if not config.finetune:
            raise ConfigError("training with finetune false does not use --freeze-negatives")
        if supervision and not isinstance(supervision[0], SupervisionPair):
            raise ConfigError("training with triple supervision does not use --freeze-negatives")

    model_path = data_dir / "model.bin"
    features = token_ids([base, aux], config.tokenizer)
    init_model = None
    if config.encoder_init == "pretrained_artifact":
        init_model = _load_model(config, manifest, model_path, features[0])

    with _StageTimer(manifest, "train"):
        fit = fit_encoder(
            base,
            aux,
            supervision,
            config,
            pretrain=pretrain,
            freeze_negatives=freeze_negatives,
            init_model=init_model,
            features=features,
        )

    # A pretrained model's other rows come from the earlier model.bin, so
    # model_aux.bin is written before model.bin replaces it. join reads
    # model_aux.bin exactly when num_encoders is 2, so a one-encoder run
    # removes any left from an earlier two-encoder run.
    aux_model_path = data_dir / "model_aux.bin"
    if config.num_encoders == 2:
        save_model(fit.models[-1], aux_model_path)
        manifest.add_output(aux_model_path)
    else:
        aux_model_path.unlink(missing_ok=True)
    save_model(fit.model, model_path)
    manifest.add_output(model_path)

    trace_path = data_dir / "loss_trace.csv"
    with trace_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["stage", "epoch", "loss"])
        for stage, epoch, loss in fit.trace:
            writer.writerow([stage, epoch, repr(loss)])
    manifest.add_output(trace_path)
    manifest.write(data_dir / "manifest_train.json")
    return manifest


def _spec_from_config(config: EngineConfig) -> JoinSpec:
    return JoinSpec(
        base_ref="base",
        aux_ref="aux",
        join_type=config.join_type,
        left_size=config.left_size,
        right_size=config.right_size,
        supervision_ref="supervision",
    )


def cmd_join(
    config: EngineConfig,
    spec_file: str | Path | None = None,
    baseline: str | None = None,
    key_column: str | None = None,
    threshold: float | None = None,
    index_side: str = "auto",
    both_directions: bool = False,
    dump_sentences: str | Path | None = None,
    size_flags: Collection[str] = (),
) -> RunManifest:
    """Execute the join and write result.csv. ``size_flags`` names the
    --join-type, --left-size and --right-size flags given on the command
    line: the baseline join uses only --right-size (its k), and a join from
    ``spec_file`` none of them, since the statement sets all three."""
    if baseline is not None:
        path = f"the {baseline} baseline join"
        given = {"--threshold": threshold is not None, "--both-directions": both_directions,
                 "--index-side": index_side != "auto",
                 "--join-type": "--join-type" in size_flags,
                 "--left-size": "--left-size" in size_flags,
                 "--key-column": key_column is not None and not uses_key_column(baseline)}
    else:
        path = "the learned join"
        given = {"--key-column": key_column is not None}
    if spec_file is not None:
        path += " with --spec-file"
        given.update(dict.fromkeys(size_flags, True))
    if any(given.values()):
        raise ConfigError(f"{path} does not use "
                          f"{', '.join(flag for flag, on in given.items() if on)}")
    data_dir = Path(config.data_dir)
    manifest = RunManifest(command="join", config=_config_to_dict(config), seed=config.seed)

    if spec_file is not None:
        spec_path = Path(spec_file)
        _require_files(spec_path)
        spec = parse_join_spec(spec_path.read_text(encoding="utf-8"))
        manifest.add_input(spec_path)
        base_path = resolve_ref(spec.base_ref, data_dir)
        aux_path = resolve_ref(spec.aux_ref, data_dir)
    else:
        spec = _spec_from_config(config)
        base_path = data_dir / "base.csv"
        aux_path = data_dir / "aux.csv"

    _require_files(base_path, aux_path)
    manifest.add_input(base_path)
    manifest.add_input(aux_path)
    base = load_dataset(base_path, role=DatasetRole.BASE, name=spec.base_ref)
    aux = load_dataset(aux_path, role=DatasetRole.AUXILIARY, name=spec.aux_ref)

    if dump_sentences is not None:
        dump_path = Path(dump_sentences)
        with dump_path.open("w", encoding="utf-8") as fh:
            for dataset in (base, aux):
                for rec in dataset.records:
                    sent = prepare_sentence(rec, tokenizer=config.tokenizer)
                    fh.write(json.dumps(
                        {"record_id": sent.record_id, "text": sent.text},
                        ensure_ascii=False,
                    ) + "\n")
        manifest.add_output(dump_path)

    if baseline is not None:
        with _StageTimer(manifest, "baseline_join"):
            result = lexical_join(baseline, base, aux, key_column=key_column,
                                  k=spec.right_size)
    else:
        # Each model reads only the table rows of the tokens it embeds: with
        # two encoders, each side has a vocabulary of its own.
        two = config.num_encoders == 2
        if two:
            (base_vocab, (base_ids,)), (aux_vocab, (aux_ids,)) = (
                token_ids([ds], config.tokenizer) for ds in (base, aux))
        else:
            base_vocab, (base_ids, aux_ids) = token_ids([base, aux], config.tokenizer)
            aux_vocab = base_vocab
        model = _load_model(config, manifest, data_dir / "model.bin", base_vocab)
        aux_model = (_load_model(config, manifest, data_dir / "model_aux.bin", aux_vocab)
                     if two else model)
        with _StageTimer(manifest, "embed"):
            base_emb = embed_dataset(model, base, features=(base_vocab, base_ids))
            aux_emb = embed_dataset(aux_model, aux, features=(aux_vocab, aux_ids))
        del base_ids, aux_ids
        for name, emb in (("embeddings_base.bin", base_emb), ("embeddings_aux.bin", aux_emb)):
            path = data_dir / name
            save_embeddings(emb, path)
            manifest.add_output(path)
        with _StageTimer(manifest, "join"):
            result = execute_join(
                spec,
                base_emb,
                aux_emb,
                metric=config.distance,  # type: ignore[arg-type]
                threshold=threshold,
                index_side=index_side,  # type: ignore[arg-type]
                both_directions=both_directions,
            )

    result_path = data_dir / "result.csv"
    result.write_csv(result_path)
    manifest.add_output(result_path)
    manifest.write(data_dir / "manifest_join.json")
    return manifest


def cmd_evaluate(
    config: EngineConfig,
    results_path: str | Path | None = None,
    truth_path: str | Path | None = None,
    ks: list[int] | None = None,
    comparison: bool = False,
    methods: list[str] | None = None,
    key_column: str | None = None,
    with_mrr: bool = False,
) -> tuple[RunManifest, str]:
    """Compute metrics; returns the manifest and a printable table.
    ``methods`` and ``key_column`` go with ``comparison``; ``results_path``
    and ``with_mrr`` go without it, and ``key_column`` only with a method
    that compares a key column."""
    if comparison:
        methods = methods or ["BM25", "untrained-encoder", "trained-encoder"]
        mode = f"evaluate --comparison of {', '.join(methods)}"
        given = {"--results": results_path is not None, "--mrr": with_mrr,
                 "--key-column": key_column is not None
                 and not any(uses_key_column(m) for m in methods)}
    else:
        mode = "evaluate without --comparison"
        given = {"--methods": methods is not None, "--key-column": key_column is not None}
    if any(given.values()):
        raise ConfigError(f"{mode} does not use "
                          f"{', '.join(flag for flag, on in given.items() if on)}")
    data_dir = Path(config.data_dir)
    ks = ks or [1, 10]
    truth_path = Path(truth_path) if truth_path else data_dir / "truth_test.csv"
    _require_files(truth_path)
    truth_pairs = load_supervision(truth_path)
    if truth_pairs and not isinstance(truth_pairs[0], SupervisionPair):
        raise EvalError("truth file must contain pairs, not triples")
    truth = TruthSet.from_pairs(truth_pairs)  # type: ignore[arg-type]

    manifest = RunManifest(command="evaluate", config=_config_to_dict(config),
                           seed=config.seed)
    manifest.add_input(truth_path)

    if comparison:
        base, aux = _load_sides(data_dir)
        train_pairs = None
        sup_path = data_dir / "supervision.csv"
        if sup_path.exists():
            loaded = load_supervision(sup_path, base, aux)
            if loaded and isinstance(loaded[0], SupervisionPair):
                train_pairs = loaded
        with _StageTimer(manifest, "comparison"):
            table = run_comparison(
                base, aux, truth, methods, ks,
                key_column=key_column,
                train_pairs=train_pairs,  # type: ignore[arg-type]
                config=config,
            )
        rows_text = table.to_csv_text()
        printable = table.format_table()
    else:
        results_path = Path(results_path) if results_path else data_dir / "result.csv"
        _require_files(results_path)
        manifest.add_input(results_path)
        result = JoinResult.from_csv(results_path)
        with _StageTimer(manifest, "metrics"):
            lines = ["method,k,recall"]
            printable_lines = []
            for k in ks:
                r = recall_at_k(result, truth, k)
                lines.append(f"result,{k},{r!r}")
                printable_lines.append(f"recall@{k:<4d} {r:.4f}")
            if with_mrr:
                m = mrr_at_k(result, truth, max(ks))
                printable_lines.append(f"mrr@{max(ks):<6d} {m:.4f}")
        rows_text = "\n".join(lines) + "\n"
        printable = "\n".join(printable_lines)

    metrics_path = data_dir / "metrics.csv"
    metrics_path.write_text(rows_text, encoding="utf-8")
    manifest.add_output(metrics_path)
    manifest.write(data_dir / "manifest_evaluate.json")
    return manifest, printable


def _load_labels(path: Path) -> dict[str, float]:
    labels: dict[str, float] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty labels file at line 1: expected an id,label header")
        if len(header) != 2:
            raise DataError(f"{path}: labels file must have two columns (id,label)")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataError(f"{path}: malformed row at line {line_no}: expected 2 cells "
                                f"(id,label), got {len(row)}")
            try:
                labels[row[0]] = float(row[1])
            except ValueError:
                raise DataError(f"{path}: bad label at line {line_no}: {row[1]!r}") from None
    return labels


def cmd_pipeline(
    config: EngineConfig,
    chain_file: str | Path,
    labels_path: str | Path | None = None,
    agg_ks: list[int] | None = None,
) -> RunManifest:
    """Run a chained (multi-hop) join, optionally averaging labels."""
    if agg_ks is not None and labels_path is None:
        raise ConfigError("pipeline without --labels does not use --agg-ks")
    if config.num_encoders == 2:
        raise ConfigError("pipeline embeds every hop with model.bin alone, so it does not "
                          "support num_encoders 2")
    data_dir = Path(config.data_dir)
    chain_path = Path(chain_file)
    _require_files(chain_path)
    specs = parse_join_specs(chain_path.read_text(encoding="utf-8"))
    if not specs:
        raise SpecParseError("chain file holds no statements", 0)
    for i in range(1, len(specs)):
        if specs[i].base_ref != specs[i - 1].aux_ref:
            raise JoinError(
                f"stage {i}: base ref {specs[i].base_ref!r} does not chain from "
                f"previous aux ref {specs[i - 1].aux_ref!r}"
            )

    manifest = RunManifest(command="pipeline", config=_config_to_dict(config),
                           seed=config.seed)
    manifest.add_input(chain_path)

    labels = None
    if labels_path is not None:
        labels_path = Path(labels_path)
        _require_files(labels_path)
        manifest.add_input(labels_path)
        labels = _load_labels(labels_path)

    datasets: dict[str, Dataset] = {}
    for ref in (specs[0].base_ref, *(spec.aux_ref for spec in specs)):
        if ref in datasets:
            continue
        path = resolve_ref(ref, data_dir)
        _require_files(path)
        manifest.add_input(path)
        datasets[ref] = load_dataset(path, name=ref)

    vocab, ids = token_ids(list(datasets.values()), config.tokenizer)
    model = _load_model(config, manifest, data_dir / "model.bin", vocab)
    with _StageTimer(manifest, "embed"):
        embeddings = {
            ref: embed_dataset(model, ds, features=(vocab, side))
            for (ref, ds), side in zip(datasets.items(), ids)
        }
    del ids
    with _StageTimer(manifest, "chain"):
        stages: list[tuple[JoinSpec, EmbeddingIndex]] = [
            (spec, build_index(embeddings[spec.aux_ref], metric=config.distance))  # type: ignore[arg-type]
            for spec in specs
        ]
        result = chain_joins(embeddings[specs[0].base_ref], stages)

    result_path = data_dir / "chain_result.csv"
    result.write_csv(result_path)
    manifest.add_output(result_path)

    if labels is not None:
        agg_ks = agg_ks or [1, 10, 20, 30]
        agg_path = data_dir / "aggregates.csv"
        with agg_path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k", "base_id", "estimate"])
            for k in agg_ks:
                estimates = aggregate_labels(result, labels, k)
                for base_id in sorted(estimates):
                    writer.writerow([k, base_id, repr(estimates[base_id])])
        manifest.add_output(agg_path)

    manifest.write(data_dir / "manifest_pipeline.json")
    return manifest


# ---------------------------------------------------------------------------
# Click layer.
# ---------------------------------------------------------------------------


def _common_overrides(data_dir, seed, join_type=None, left_size=None, right_size=None) -> dict:
    return {
        "data_dir": data_dir,
        "seed": seed,
        "join_type": join_type.upper() if join_type else None,
        "left_size": left_size,
        "right_size": right_size,
    }


def _ks_option(_ctx, _param, value):
    if value is None:
        return None
    try:
        ks = [int(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise click.BadParameter("expected a comma-separated list of integers")
    if any(k < 1 for k in ks):
        raise click.BadParameter("every k must be >= 1")
    return ks


common_options = [
    click.option("--config", "config_path", type=str, default=None,
                 help="JSON configuration file."),
    click.option("--data-dir", type=str, default=None,
                 help=f"Data directory (falls back to ${ENV_DATA_DIR})."),
    click.option("--seed", type=int, default=None, help="Master seed."),
]


def _with_common(fn):
    for option in reversed(common_options):
        fn = option(fn)
    return fn


@click.group()
def cli() -> None:
    """Keyless-join context enrichment engine."""


@cli.command("generate")
@_with_common
@click.option("--source", "source_path", type=str, default=None,
              help="Source CSV to perturb (default <data_dir>/source.csv).")
@click.option("--preset", type=click.Choice(["easy", "hard"]), default="easy")
@click.option("--perturbations", type=int, default=None,
              help="Override the preset's edits per row.")
@click.option("--copies", type=int, default=5)
@click.option("--max-fraction", type=float, default=0.25)
@click.option("--test-fraction", type=float, default=0.2)
def generate_cmd(config_path, data_dir, seed, source_path, preset, perturbations, copies,
                 max_fraction, test_fraction):
    """Generate the synthetic fuzzy-join workload."""
    cfg = resolve_config(config_path, _common_overrides(data_dir, seed))
    manifest = cmd_generate(cfg, source_path, preset, perturbations, copies,
                            max_fraction, test_fraction)
    click.echo(f"wrote {len(manifest.outputs)} files under {cfg.data_dir}")


@cli.command("train")
@_with_common
@click.option("--no-pretrain", is_flag=True, default=False,
              help="Skip the self-supervised pretraining stage.")
@click.option("--freeze-negatives", is_flag=True, default=False,
              help="Sample negatives once instead of per epoch.")
@click.option("--supervision", "supervision_path", type=str, default=None)
def train_cmd(config_path, data_dir, seed, no_pretrain, freeze_negatives, supervision_path):
    """Train the encoder and write model.bin."""
    cfg = resolve_config(config_path, _common_overrides(data_dir, seed))
    manifest = cmd_train(cfg, pretrain=not no_pretrain,
                         freeze_negatives=freeze_negatives,
                         supervision_path=supervision_path)
    click.echo(f"model written; stages timed: {sorted(manifest.timings)}")


@cli.command("join")
@_with_common
@click.option("--join-type", type=str, default=None, help="INNER, LEFT, RIGHT, or FULL.")
@click.option("--left-size", type=int, default=None)
@click.option("--right-size", type=int, default=None)
@click.option("--spec-file", type=str, default=None,
              help="Keyless-join statement file (.kjoin).")
@click.option("--baseline", type=str, default=None,
              help="Route through a lexical baseline: LD, J-WS, J-2G, JK-WS, JK-2G, BM25.")
@click.option("--key-column", type=str, default=None)
@click.option("--threshold", type=float, default=None)
@click.option("--index-side", type=click.Choice(["auto", "base", "aux"]), default="auto")
@click.option("--both-directions", is_flag=True, default=False)
@click.option("--dump-sentences", type=str, default=None,
              help="Write prepared sentences (record_id + text) to this JSONL file.")
def join_cmd(config_path, data_dir, seed, join_type, left_size, right_size,
             spec_file, baseline, key_column, threshold, index_side, both_directions,
             dump_sentences):
    """Execute the join and write result.csv."""
    cfg = resolve_config(config_path,
                         _common_overrides(data_dir, seed, join_type, left_size, right_size))
    size_flags = [flag for flag, value in (("--join-type", join_type), ("--left-size", left_size),
                                           ("--right-size", right_size)) if value is not None]
    cmd_join(cfg, spec_file=spec_file, baseline=baseline, key_column=key_column,
             threshold=threshold, index_side=index_side, both_directions=both_directions,
             dump_sentences=dump_sentences, size_flags=size_flags)
    click.echo(f"result written to {Path(cfg.data_dir) / 'result.csv'}")


@cli.command("evaluate")
@_with_common
@click.option("--results", "results_path", type=str, default=None)
@click.option("--truth", "truth_path", type=str, default=None)
@click.option("--ks", callback=_ks_option, default=None,
              help="Comma-separated k values (default 1,10).")
@click.option("--comparison", is_flag=True, default=False,
              help="Run the multi-method comparison harness.")
@click.option("--methods", type=str, default=None,
              help="Comma-separated methods for --comparison.")
@click.option("--key-column", type=str, default=None)
@click.option("--mrr", "with_mrr", is_flag=True, default=False)
def evaluate_cmd(config_path, data_dir, seed, results_path, truth_path, ks, comparison,
                 methods, key_column, with_mrr):
    """Compute recall (and optionally MRR) against a truth file."""
    cfg = resolve_config(config_path, _common_overrides(data_dir, seed))
    method_list = [m.strip() for m in methods.split(",")] if methods else None
    _, printable = cmd_evaluate(cfg, results_path=results_path, truth_path=truth_path,
                                ks=ks, comparison=comparison, methods=method_list,
                                key_column=key_column, with_mrr=with_mrr)
    click.echo(printable)


@cli.command("pipeline")
@_with_common
@click.option("--chain-file", type=str, required=True,
              help="File of ';'-terminated join statements, one stage each.")
@click.option("--labels", "labels_path", type=str, default=None,
              help="CSV (id,label) for label averaging over the final hop.")
@click.option("--agg-ks", callback=_ks_option, default=None,
              help="Aggregation sizes (default 1,10,20,30).")
def pipeline_cmd(config_path, data_dir, seed, chain_file, labels_path, agg_ks):
    """Run a chained multi-hop join with optional label averaging."""
    cfg = resolve_config(config_path, _common_overrides(data_dir, seed))
    cmd_pipeline(cfg, chain_file, labels_path=labels_path, agg_ks=agg_ks)
    click.echo(f"chain result written to {Path(cfg.data_dir) / 'chain_result.csv'}")


def main(argv: list[str] | None = None) -> int:
    """Entry point with the stable exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    except _VALIDATION_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        click.echo(f"runtime failure: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

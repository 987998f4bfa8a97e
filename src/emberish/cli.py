"""Command-line entry point wiring the pipeline into reproducible batch runs.

Subcommands: generate | train | join | evaluate | pipeline. With only a
data directory set, every command resolves its inputs through the fixed
naming convention (base.csv, aux.csv, supervision.csv, model.bin,
embeddings_{base,aux}.bin, result.csv). A learned join reads an
embeddings file back, instead of embedding that side again, when the
previous join's manifest shows it was built from the same dataset, model,
tokenizer and versions. A learned join first embeds each side it does not
reuse into its file, and drops the models and token ids; then every side
is a verified file, and ``joiner.write_join`` scans once per retrieval
direction (FULL and the INNER union twice, in turn), holding one side per
scan read whole from its file and streaming the other past it a block at
a time, and writes the rows to result.csv as they come. A baseline join
writes result.csv one rank block at a time, and evaluate keeps only the
result rows its metrics read. Exit codes: 0 success, 1 validation error,
2 runtime failure, such as an embeddings file that changed during the
join.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from contextlib import closing, contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Collection, Iterator, Sequence

import click
import numpy as np

from . import __version__
from .data import (
    DataError,
    DatasetRole,
    SupervisionPair,
    atomic_write,
    dataset_table,
    load_dataset,
    load_supervision,
    read_table,
    write_dataset,
    write_pairs,
    write_table,
)
from .encoder import (
    EncoderModel,
    embed_blocks,
    embed_tokens,
    fit_encoder,
    load_model,
    save_model,
)
from .evalkit import (
    ENCODER_METHODS,
    EvalError,
    TruthSet,
    mrr_at_k,
    recall_at_k,
    run_comparison,
    scored_rows,
)
from .joiner import (
    EMBEDDINGS_VERSION,
    Embeddings,
    JoinError,
    Side,
    chain_joins,
    embeddings_count,
    embeddings_ids,
    embeddings_writer,
    held_side,
    label_means,
    load_embeddings,
    read_embeddings,
    scan_order,
    write_join,
    write_result,
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
    render_join_spec,
    resolve_ref,
)
from .lexrank import (
    BASELINE_KINDS,
    baseline_tokenizer,
    key_join,
    lexical_join,
    require_key_column,
    uses_key_column,
)
from .prepare import Features, TokenIds, read_key_texts, read_token_ids, sentence_text
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
        # 64 kB reads hash as fast as 1 MB ones, and add less to a join's peak.
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _peak_rss_kb() -> int | None:
    """This process's peak resident set so far, in kB: ``VmHWM`` in
    /proc/self/status, or None where that file does not exist."""
    try:
        with open("/proc/self/status", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


@dataclass
class RunManifest:
    """Audit record for one command: config snapshot, digests, timings, the
    process's peak resident set when the command finished, and for a
    learned join each embeddings file's key and whether it was reused (see
    ``_reusable``)."""

    command: str
    config: dict
    seed: int
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    embeddings: dict[str, dict] = field(default_factory=dict)
    peak_rss_kb: int | None = None

    def add_input(self, path: Path, digest: str | None = None) -> None:
        """Record ``path`` as read, with ``digest`` when the caller has
        hashed the bytes it read."""
        self.inputs[str(path)] = digest or _sha256(path)

    def add_output(self, path: Path, digest: str | None = None) -> None:
        """Record ``path`` as written, with ``digest`` when the caller
        hashed the bytes as it wrote them."""
        self.outputs[str(path)] = digest or _sha256(path)

    def write(self, path: Path) -> None:
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


class _Run:
    """The frame of one command: it checks and digests the files the
    command reads, times its stages, digests the files it writes and
    writes <data_dir>/manifest_<command>.json."""

    def __init__(self, command: str, config: EngineConfig) -> None:
        snapshot = asdict(config)
        snapshot["join_type"] = config.join_type.value
        self.data_dir = Path(config.data_dir)
        self.manifest = RunManifest(command=command, config=snapshot, seed=config.seed)
        self._inner: list[float] = []  # per open stage, the time of the stages inside it

    def read(self, *paths: Path) -> None:
        """Exit 1 naming every missing one of ``paths``; otherwise record
        each as an input, digesting only the paths not yet recorded."""
        missing = [str(p) for p in paths if not p.exists()]
        if missing:
            raise DataError("missing input files: " + ", ".join(missing))
        for path in paths:
            if str(path) not in self.manifest.inputs:
                self.manifest.add_input(path)

    def wrote(self, path: Path, digest: str | None = None) -> None:
        """Record ``path`` as an output, with ``digest`` when the caller
        hashed the bytes as it wrote them; else the file is read back."""
        self.manifest.add_output(path, digest)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a stage. A stage run again adds to its time, and a stage run
        inside another counts to itself alone, so no time counts twice."""
        self._inner.append(0.0)
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        inner = self._inner.pop()
        if self._inner:
            self._inner[-1] += elapsed
        timings = self.manifest.timings
        timings[name] = timings.get(name, 0.0) + elapsed - inner

    def finish(self) -> RunManifest:
        self.manifest.peak_rss_kb = _peak_rss_kb()
        self.manifest.write(self.data_dir / f"manifest_{self.manifest.command}.json")
        return self.manifest


def _refuse(path: str, given: dict[str, bool]) -> None:
    """Exit 1 naming every flag of ``given`` that was given, since ``path``
    (the command path chosen) does not use it."""
    flags = [flag for flag, on in given.items() if on]
    if flags:
        raise ConfigError(f"{path} does not use {', '.join(flags)}")


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


def _earlier_manifest(path: Path, *sections: str) -> list[dict] | None:
    """The ``sections`` of the manifest an earlier command wrote at
    ``path``, each keyed by file name; None when there is no such file.
    Raises ``ValueError`` when it is not JSON holding each section as an
    object."""
    if not path.exists():
        return None
    manifest = json.loads(path.read_text(encoding="utf-8"))
    try:
        return [{Path(p).name: value for p, value in manifest[section].items()}
                for section in sections]
    except (KeyError, TypeError, AttributeError):
        raise ValueError(f"{path} is not a manifest") from None


def _load_model(run: _Run, config: EngineConfig, path: Path,
                tokens: Collection[str]) -> EncoderModel:
    """Load a model file into ``run``'s inputs, holding the table rows of
    the ``tokens`` to embed (see ``load_model``). Exits 1 when the model's dim
    or normalization disagrees with the config, and warns when the file is
    not the one ``manifest_train.json`` records."""
    run.read(path)
    actual = run.manifest.inputs[str(path)]
    train_manifest = path.parent / "manifest_train.json"
    try:
        (outputs,) = _earlier_manifest(train_manifest, "outputs") or ({},)
        recorded = outputs.get(path.name)
    except ValueError:
        recorded = "unreadable"
    if recorded is not None and recorded != actual:
        click.echo(f"warning: {path} is not the model {train_manifest} records "
                   f"(sha256 {actual}, recorded {recorded})", err=True)
    model = load_model(path, tokens)
    for key, configured, stored in (("embedding_dim", config.embedding_dim, model.dim),
                                    ("normalize", config.normalize, model.normalize)):
        if configured != stored:
            raise ConfigError(f"{path} has {key} {stored!r} but the config has "
                              f"{key} {configured!r}")
    return model


def _embed(run: _Run, config: EngineConfig, ids: Sequence[Sequence[str]],
           model_paths: list[Path], features: Features) -> list[Embeddings]:
    """Embed each dataset, whose records have the ids in ``ids``, with the
    model file beside it in ``model_paths``, from ``features``, the
    datasets' token ids. Each distinct model file is loaded once, for the
    features' vocabulary, through ``_load_model``; the models are dropped
    on return."""
    vocab, tokens = features
    models = {path: _load_model(run, config, path, vocab) for path in dict.fromkeys(model_paths)}
    with run.stage("embed"):
        return [embed_tokens(models[path], side_ids, (vocab, side_tokens))
                for side_ids, path, side_tokens in zip(ids, model_paths, tokens)]


def _side_models(run: _Run, config: EngineConfig) -> list[Path]:
    """The model file that embeds the base side, then the aux side's."""
    aux_model = "model_aux.bin" if config.num_encoders == 2 else "model.bin"
    return [run.data_dir / "model.bin", run.data_dir / aux_model]


def _reusable(run: _Run, tokenizer: str,
              sides: list[tuple[Path, Path, Path]]) -> list[tuple[str, int] | None]:
    """For each side's ``(embeddings file, dataset, model)``, the sha256
    that the file the data directory's previous join left must still have
    for the side to be reused (``_reuse`` checks it), and the record count
    its header gives; None when the side must be embedded again.

    A side's key digests what its embeddings are built from: the sha256 of
    its dataset and of the model that embeds it, the tokenizer, the
    embeddings format version and the package version. The side is reused
    when the previous ``manifest_join.json`` records the same key for the
    file and the file still has the sha256 that manifest records. Every
    side's key goes into ``run``'s manifest, so the next join can look it
    up."""
    found: list[tuple[str, int] | None] = [None] * len(sides)
    models = [model for _, _, model in sides]
    if not all(model.exists() for model in models):
        return found  # _load_model reports the missing file
    run.read(*models)
    try:
        earlier = _earlier_manifest(run.data_dir / "manifest_join.json",
                                    "inputs", "outputs", "embeddings")
    except ValueError:
        earlier = None
    for side, (path, dataset, model) in enumerate(sides):
        built_from = [run.manifest.inputs[str(dataset)], run.manifest.inputs[str(model)],
                      tokenizer, EMBEDDINGS_VERSION, __version__]
        key = hashlib.sha256(json.dumps(built_from).encode("utf-8")).hexdigest()
        run.manifest.embeddings[path.name] = {"key": key, "reused": False}
        if earlier is None:
            continue
        inputs, outputs, records = earlier
        recorded = records.get(path.name)
        digest = outputs.get(path.name, inputs.get(path.name))
        if not isinstance(recorded, dict) or recorded.get("key") != key or digest is None:
            continue
        try:
            found[side] = digest, embeddings_count(path)
        except (OSError, JoinError):
            continue
    return found


def _reuse(run: _Run, path: Path, digest: str,
           whole: bool) -> tuple[tuple[str, ...], np.ndarray | None] | None:
    """The ids of the embeddings file at ``path`` and, when ``whole``, its
    vectors (else None: ``_reread`` reads them again), if the file has the
    sha256 ``digest``; else None. The file is parsed as it is read, and
    the bytes parsed are hashed, so only the parse is held; it is
    discarded when the digest differs. A reused file goes into ``run``'s
    inputs."""
    sha = hashlib.sha256()
    try:
        loaded = (load_embeddings(path, sha.update) if whole
                  else (embeddings_ids(path, sha.update), None))
    except (OSError, JoinError):
        return None
    if sha.hexdigest() != digest:
        return None
    run.manifest.add_input(path, digest)
    run.manifest.embeddings[path.name]["reused"] = True
    return loaded


def _reread(run: _Run, path: Path, rows: int | None) -> Iterator[np.ndarray]:
    """The vectors of an embeddings file that ``run`` verified or wrote,
    read again in blocks of ``rows`` (whole when None) and hashed as they
    are parsed. Raises ``RuntimeError`` (exit 2) when they are not the
    bytes ``run`` recorded: the file changed during the join."""
    digest = run.manifest.outputs.get(str(path)) or run.manifest.inputs[str(path)]
    sha = hashlib.sha256()
    try:
        with closing(read_embeddings(path, sha.update, rows)) as blocks:
            for _, vectors in blocks:
                yield vectors
    except (OSError, JoinError) as exc:
        raise RuntimeError(f"{path} changed during the join: {exc}") from None
    if sha.hexdigest() != digest:
        raise RuntimeError(f"{path} changed during the join (sha256 {sha.hexdigest()}, "
                           f"verified {digest})")


def _embed_file(model: EncoderModel, features: tuple[Sequence[str], TokenIds],
                ids: Sequence[str], path: Path) -> str:
    """Embed one side, from ``features`` (the vocabulary and the side's
    token ids), into the embeddings file at ``path`` with its ``ids``, one
    ``embed_blocks`` block at a time, through ``atomic_write``. Returns the
    sha256 of the bytes written."""
    sha = hashlib.sha256()
    with atomic_write(path) as fh:
        write = embeddings_writer(fh, len(ids), model.dim, sha.update)
        start = 0
        for block in embed_blocks(model, *features):
            write(ids[start : start + len(block)], block)
            start += len(block)
    return sha.hexdigest()


# ---------------------------------------------------------------------------
# Command implementations (plain functions; the click layer stays thin).
# ---------------------------------------------------------------------------


def cmd_generate(
    config: EngineConfig,
    source_path: str | Path | None = None,
    preset: str | None = None,
    perturbations: int | None = None,
    copies: int = 5,
    max_fraction: float = 0.25,
    test_fraction: float = 0.2,
) -> RunManifest:
    """Generate the synthetic fuzzy-join workload files. ``preset`` (easy
    when None) sets the edits per row unless ``perturbations`` does."""
    if perturbations is not None:
        _refuse("generate with --perturbations", {"--preset": preset is not None})
    preset = preset or "easy"
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r} (expected easy or hard)")
    per_row = perturbations if perturbations is not None else PRESETS[preset]
    run = _Run("generate", config)
    source_path = Path(source_path) if source_path else run.data_dir / "source.csv"
    run.read(source_path)
    run.data_dir.mkdir(parents=True, exist_ok=True)

    with run.stage("generate"):
        source = load_dataset(source_path, role=DatasetRole.AUXILIARY)
        pcfg = PerturbationConfig(
            perturbations_per_row=per_row,
            max_fraction=max_fraction,
            copies_per_row=copies,
            seed=stage_seed(config.seed, "generate"),
        )
        base, aux, truth = generate_fuzzy_join(source, pcfg)
    with run.stage("split"):
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
        path = run.data_dir / name
        writer(path)
        run.wrote(path)
    return run.finish()


def cmd_train(
    config: EngineConfig,
    pretrain: bool = True,
    freeze_negatives: bool = False,
    supervision_path: str | Path | None = None,
) -> RunManifest:
    """Fit the encoder under the naming convention and write model.bin.
    Supervision is read only when fine-tuning."""
    # Without fine-tuning nothing reads supervision or samples negatives.
    if not config.finetune:
        _refuse("training with finetune false", {"--supervision": supervision_path is not None,
                                                 "--freeze-negatives": freeze_negatives})
    run = _Run("train", config)
    data_dir = run.data_dir
    paths = [data_dir / "base.csv", data_dir / "aux.csv"]
    if config.finetune:
        supervision_path = (Path(supervision_path) if supervision_path
                            else data_dir / "supervision.csv")
        # One error names every missing one of the three files.
        run.read(*paths, supervision_path)
    run.read(*paths)
    # Pretraining and the stratified samplers rank whitespace tokens: the
    # one read of each file codes them beside the encoder's own.
    lexical = pretrain or (config.finetune and config.sampler.startswith("stratified"))
    ids, features = read_token_ids(paths, [config.tokenizer, "whitespace"] if lexical
                                   else [config.tokenizer])
    supervision = load_supervision(supervision_path, *ids) if config.finetune else []
    if supervision and not isinstance(supervision[0], SupervisionPair):
        _refuse("training with triple supervision", {"--freeze-negatives": freeze_negatives})

    model_path = data_dir / "model.bin"
    encoded = features.pop(config.tokenizer)
    init_model = None
    if config.encoder_init == "pretrained_artifact":
        init_model = _load_model(run, config, model_path, encoded[0])

    with run.stage("train"):
        # Only fit_encoder holds the whitespace ids, and it drops them once
        # it has ranked them.
        fit = fit_encoder(
            *ids,
            supervision,
            config,
            features=encoded,
            lexical=features.pop("whitespace", None),
            pretrain=pretrain,
            freeze_negatives=freeze_negatives,
            init_model=init_model,
        )

    # A pretrained model's other rows come from the earlier model.bin, so
    # model_aux.bin is written before model.bin replaces it. join reads
    # model_aux.bin exactly when num_encoders is 2, so a one-encoder run
    # removes any left from an earlier two-encoder run.
    aux_model_path = data_dir / "model_aux.bin"
    if config.num_encoders == 2:
        save_model(fit.models[-1], aux_model_path, (sha := hashlib.sha256()).update)
        run.wrote(aux_model_path, sha.hexdigest())
    else:
        aux_model_path.unlink(missing_ok=True)
    save_model(fit.model, model_path, (sha := hashlib.sha256()).update)
    run.wrote(model_path, sha.hexdigest())
    trace_path = data_dir / "loss_trace.csv"
    write_table(trace_path, ["stage", "epoch", "loss"],
                ((stage, epoch, repr(loss)) for stage, epoch, loss in fit.trace))
    run.wrote(trace_path)
    return run.finish()


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
    both_directions: bool = False,
    dump_sentences: str | Path | None = None,
    size_flags: Collection[str] = (),
) -> RunManifest:
    """Execute the join and write result.csv. ``size_flags`` names the
    --join-type, --left-size and --right-size flags given on the command
    line: the baseline join uses only --right-size (its k), a join from
    ``spec_file`` none of them, since the statement sets all three, a LEFT
    join not --left-size and a RIGHT join not --right-size. Only a learned
    INNER join uses ``both_directions``. A learned join reuses each side's
    embeddings file that the previous join left, when it was built from
    the same bytes (see ``_reusable``), keeping the vectors of the file
    that its first scan holds (``joiner.held_side``, the smaller side under
    either metric) as it checks it, and embeds every other side into its
    file before it scans the files."""
    if baseline is not None:
        path = f"the {baseline} baseline join"
        given = {"--threshold": threshold is not None, "--both-directions": both_directions,
                 "--join-type": "--join-type" in size_flags,
                 "--left-size": "--left-size" in size_flags,
                 "--key-column": key_column is not None and not uses_key_column(baseline)}
    else:
        path = "the learned join"
        given = {"--key-column": key_column is not None}
    if spec_file is not None:
        path += " with --spec-file"
        given.update(dict.fromkeys(size_flags, True))
    elif baseline is None and config.join_type != JoinType.INNER:
        # A LEFT join retrieves RIGHT SIZE matches per base record and a RIGHT
        # join LEFT SIZE per aux record; neither reads the other size.
        path = f"the learned {config.join_type.value} join"
        given["--both-directions"] = both_directions
        unused = {JoinType.LEFT: "--left-size",
                  JoinType.RIGHT: "--right-size"}.get(config.join_type)
        if unused is not None:
            given[unused] = unused in size_flags
    _refuse(path, given)
    if baseline is not None:
        require_key_column([baseline], key_column)
    run = _Run("join", config)

    if spec_file is not None:
        spec_path = Path(spec_file)
        run.read(spec_path)
        spec = parse_join_spec(spec_path.read_text(encoding="utf-8"))
        if baseline is None and spec.join_type != JoinType.INNER:
            _refuse(f"the learned {spec.join_type.value} join with --spec-file",
                    {"--both-directions": both_directions})
    else:
        spec = _spec_from_config(config)
    paths = [resolve_ref(ref, run.data_dir) for ref in (spec.base_ref, spec.aux_ref)]
    run.read(*paths)
    # The model that embeds each side, and the file its embeddings go to.
    models = _side_models(run, config)
    files = [run.data_dir / "embeddings_base.bin", run.data_dir / "embeddings_aux.bin"]
    if baseline is None:
        reusable = _reusable(run, config.tokenizer, list(zip(files, paths, models)))

    if dump_sentences is not None:
        # Each row's sentence is written as its file streams past.
        dump_path = Path(dump_sentences)
        with atomic_write(dump_path, "w", encoding="utf-8") as fh:
            for path in paths:
                for rec_id, fields in dataset_table(path)[1]:
                    fh.write(json.dumps({"record_id": rec_id, "text": sentence_text(fields)},
                                        ensure_ascii=False) + "\n")
        run.wrote(dump_path)

    result_path = run.data_dir / "result.csv"
    if baseline is not None:
        # Each rank block is written to result.csv as it is ranked.
        with run.stage("baseline_join"):
            if uses_key_column(baseline):
                ids, keys = read_key_texts(paths, key_column)  # type: ignore[arg-type]
                columns = key_join(baseline, ids[1], keys, k=spec.right_size)
            else:
                tokenizer = baseline_tokenizer(baseline)
                ids, features = read_token_ids(paths, [tokenizer])
                columns = lexical_join(baseline, ids[1], features.pop(tokenizer),
                                       k=spec.right_size)
            write_result(result_path, *ids, columns)
        run.wrote(result_path)
        return run.finish()

    def featurize(sides: list[int]) -> tuple[dict[int, tuple[str, ...]], Sequence[str],
                                             dict[int, TokenIds]]:
        """The ids, the vocabulary and the token ids of ``sides``."""
        read_ids, features = read_token_ids([paths[side] for side in sides], [config.tokenizer])
        vocab, tokens = features[config.tokenizer]
        return dict(zip(sides, read_ids)), vocab, dict(zip(sides, tokens))

    # Only the side that the first scan holds is read whole as its file is
    # checked; the other is read for its ids. The record counts that decide
    # which are exact: the sides with no file to reuse are featurized first,
    # and a file's header count is its side's once its digest verifies.
    read_ids, vocab, tokens = featurize([side for side in (0, 1) if reusable[side] is None])
    counts = [len(read_ids[side]) if side in read_ids else reusable[side][1] for side in (0, 1)]
    first = scan_order(spec, both_directions, *counts)[0]
    held = held_side(first, *counts)
    found = [None if reusable[side] is None
             else _reuse(run, files[side], reusable[side][0], side == held) for side in (0, 1)]
    embedded = [side for side in (0, 1) if found[side] is None]
    if any(side not in read_ids for side in embedded):
        # A file failed its check: its side is featurized with the others.
        read_ids, vocab, tokens = featurize(embedded)
    ids = [read_ids[side] if found[side] is None else found[side][0] for side in (0, 1)]
    # The vectors _reuse parsed whole (None for a file read for its ids),
    # kept only until the first scan's index takes them.
    parsed = {side: found[side][1] for side in (0, 1) if side not in embedded}
    del found
    if not all(ids):
        raise JoinError("both sides must have at least one embedding")
    # The models read only the table rows of the tokens the join embeds.
    # A model whose sides are all reused reads no rows, but is still checked.
    loaded = {path: _load_model(run, config, path,
                                vocab if any(models[side] == path for side in embedded) else ())
              for path in dict.fromkeys(models)}
    if embedded:
        with run.stage("embed"):
            for side in embedded:
                run.wrote(files[side], _embed_file(
                    loaded[models[side]], (vocab, tokens.pop(side)), ids[side], files[side]))
    # Every side is a verified file now: the scans need no model or records.
    del loaded, vocab, tokens

    def read(side: int, rows: int | None) -> Iterator[np.ndarray]:
        """The side's vectors: those ``_reuse`` parsed, once, or else its
        file read again."""
        vectors = parsed.pop(side, None)
        if vectors is None:
            yield from _reread(run, files[side], rows)
        else:
            yield vectors

    sides = [Side(ids[side], functools.partial(read, side)) for side in (0, 1)]
    with run.stage("join"):
        write_join(result_path, spec, *sides, config.distance,  # type: ignore[arg-type]
                   both_directions, threshold)
    run.wrote(result_path)
    return run.finish()


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
    that compares a key column. The comparison's ``trained-encoder`` row
    embeds with the model files train wrote, as a learned join does."""
    if comparison:
        methods = methods or ["BM25", "untrained-encoder", "trained-encoder"]
        _refuse(f"evaluate --comparison of {', '.join(methods)}",
                {"--results": results_path is not None, "--mrr": with_mrr,
                 "--key-column": key_column is not None
                 and not any(uses_key_column(m) for m in methods)})
        require_key_column(methods, key_column)
    else:
        _refuse("evaluate without --comparison",
                {"--methods": methods is not None, "--key-column": key_column is not None})
    run = _Run("evaluate", config)
    ks = ks or [1, 10]
    truth_path = Path(truth_path) if truth_path else run.data_dir / "truth_test.csv"
    run.read(truth_path)
    truth_pairs = load_supervision(truth_path)
    if truth_pairs and not isinstance(truth_pairs[0], SupervisionPair):
        raise EvalError("truth file must contain pairs, not triples")
    truth = TruthSet.from_pairs(truth_pairs)  # type: ignore[arg-type]

    if comparison:
        paths = [run.data_dir / "base.csv", run.data_dir / "aux.csv"]
        run.read(*paths)
        with run.stage("comparison"):
            # Both datasets are featurized once, together, per tokenizer in
            # use: the sentence baselines' and the encoder rows' (the
            # untrained row embeds with a seeded model holding only their
            # tokens' rows, the trained row with the model files train wrote).
            tokenizers = [baseline_tokenizer(m) for m in methods
                          if m in BASELINE_KINDS and not uses_key_column(m)]
            if set(methods) & set(ENCODER_METHODS):
                tokenizers.append(config.tokenizer)
            # A key-column baseline reads its column's texts, and with them
            # the ids; the token ids are read when a method needs them.
            ids, keys = (None, None) if key_column is None else read_key_texts(paths, key_column)
            features = {}
            if tokenizers or ids is None:
                ids, features = read_token_ids(paths, tokenizers)
            embeddings = {}
            if "untrained-encoder" in methods:
                vocab, tokens = features[config.tokenizer]
                model = EncoderModel.create(dim=config.embedding_dim, seed=config.seed,
                                            normalize=config.normalize, tokens=vocab)
                embeddings["untrained-encoder"] = tuple(
                    embed_tokens(model, side_ids, (vocab, side))
                    for side_ids, side in zip(ids, tokens))
            if "trained-encoder" in methods:
                embeddings["trained-encoder"] = tuple(
                    _embed(run, config, ids, _side_models(run, config),
                           features[config.tokenizer]))
            table = run_comparison(*ids, truth, methods, ks, embeddings=embeddings,
                                   metric=config.distance, features=features, keys=keys)
        rows = [(method, k, repr(r)) for method, k, r in table.rows]
        printable = table.format_table()
    else:
        results_path = Path(results_path) if results_path else run.data_dir / "result.csv"
        run.read(results_path)
        # Only the rows the metrics read are kept, though every line is checked.
        result = scored_rows(results_path, truth, max(ks))
        with run.stage("metrics"):
            rows = []
            printable_lines = []
            for k in ks:
                r = recall_at_k(result, truth, k)
                rows.append(("result", k, repr(r)))
                printable_lines.append(f"recall@{k:<4d} {r:.4f}")
            if with_mrr:
                m = mrr_at_k(result, truth, max(ks))
                printable_lines.append(f"mrr@{max(ks):<6d} {m:.4f}")
        printable = "\n".join(printable_lines)

    metrics_path = run.data_dir / "metrics.csv"
    write_table(metrics_path, ["method", "k", "recall"], rows)
    run.wrote(metrics_path)
    return run.finish(), printable


def _load_labels(path: Path) -> dict[str, float]:
    labels: dict[str, float] = {}
    rows = read_table(path)
    _, header = next(rows, (1, None))
    if header is None:
        raise DataError(f"{path}: empty labels file at line 1: expected an id,label header")
    if len(header) != 2:
        raise DataError(f"{path}: labels file must have two columns (id,label)")
    for line_no, row in rows:
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
    """Run a chained (multi-hop) join, optionally averaging labels. Every
    dataset of the chain is embedded in memory with model.bin; then each
    hop retrieves the RIGHT SIZE best records of its aux dataset once for
    each distinct record the hop before matched, through the join's scan
    (``joiner.chain_joins``). A hop statement must be INNER, so one of
    another join type exits 1; LEFT SIZE is not applied. Stage ``chain``
    includes writing chain_result.csv, and stage ``aggregate``, one ranking
    of its rows for every k of ``agg_ks``, writing aggregates.csv."""
    if labels_path is None:
        _refuse("pipeline without --labels", {"--agg-ks": agg_ks is not None})
    if config.num_encoders == 2:
        raise ConfigError("pipeline embeds every hop with model.bin alone, so it does not "
                          "support num_encoders 2")
    run = _Run("pipeline", config)
    chain_path = Path(chain_file)
    run.read(chain_path)
    specs = parse_join_specs(chain_path.read_text(encoding="utf-8"))
    if not specs:
        raise SpecParseError("chain file holds no statements", 0)
    for i, spec in enumerate(specs):
        if spec.join_type != JoinType.INNER:
            raise JoinError(f"stage {i}: pipeline runs INNER hops only, not "
                            f"{render_join_spec(spec)!r}")
        if i and spec.base_ref != specs[i - 1].aux_ref:
            raise JoinError(
                f"stage {i}: base ref {spec.base_ref!r} does not chain from "
                f"previous aux ref {specs[i - 1].aux_ref!r}"
            )

    labels = None
    if labels_path is not None:
        labels_path = Path(labels_path)
        run.read(labels_path)
        labels = _load_labels(labels_path)

    refs = list(dict.fromkeys((specs[0].base_ref, *(spec.aux_ref for spec in specs))))
    paths = [resolve_ref(ref, run.data_dir) for ref in refs]
    run.read(*paths)
    ids, features = read_token_ids(paths, [config.tokenizer])
    model_paths = [run.data_dir / "model.bin"] * len(refs)
    embeddings = dict(zip(refs, _embed(run, config, ids, model_paths,
                                       features.pop(config.tokenizer))))
    result_path = run.data_dir / "chain_result.csv"
    with run.stage("chain"):
        result = chain_joins(embeddings[specs[0].base_ref],
                             [(spec, embeddings[spec.aux_ref]) for spec in specs],
                             config.distance)  # type: ignore[arg-type]
        result.write_csv(result_path)
    run.wrote(result_path)

    if labels is not None:
        agg_ks = agg_ks or [1, 10, 20, 30]
        agg_path = run.data_dir / "aggregates.csv"
        with run.stage("aggregate"):
            means = label_means(result, labels, agg_ks)
            rows = [(k, base_id, repr(estimates[base_id]))
                    for k, estimates in zip(agg_ks, means) for base_id in sorted(estimates)]
            write_table(agg_path, ["k", "base_id", "estimate"], rows)
        run.wrote(agg_path)
    return run.finish()


# ---------------------------------------------------------------------------
# Click layer.
# ---------------------------------------------------------------------------


def _ks_option(_ctx, _param, value):
    if value is None:
        return None
    try:
        ks = [int(part) for part in value.split(",") if part.strip()]
    except ValueError:
        raise click.BadParameter("expected a comma-separated list of integers")
    if not ks:
        raise click.BadParameter("expected at least one k")
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
    """Add the common options to a command and call ``fn`` with the config
    they resolve to in their place; join's --join-type, --left-size and
    --right-size also override the config, and still reach ``fn``."""
    @functools.wraps(fn)
    def command(config_path, data_dir, seed, **options):
        join_type = options.get("join_type")
        overrides = {"data_dir": data_dir, "seed": seed,
                     "join_type": join_type.upper() if join_type else None,
                     "left_size": options.get("left_size"),
                     "right_size": options.get("right_size")}
        return fn(resolve_config(config_path, overrides), **options)

    for option in reversed(common_options):
        command = option(command)
    return command


@click.group()
def cli() -> None:
    """Keyless-join context enrichment engine."""


@cli.command("generate")
@_with_common
@click.option("--source", "source_path", type=str, default=None,
              help="Source CSV to perturb (default <data_dir>/source.csv).")
@click.option("--preset", type=click.Choice(["easy", "hard"]), default=None,
              help="Edits per row: easy (5, the default) or hard (15).")
@click.option("--perturbations", type=int, default=None,
              help="Override the preset's edits per row.")
@click.option("--copies", type=int, default=5)
@click.option("--max-fraction", type=float, default=0.25)
@click.option("--test-fraction", type=float, default=0.2)
def generate_cmd(cfg, source_path, preset, perturbations, copies, max_fraction,
                 test_fraction):
    """Generate the synthetic fuzzy-join workload."""
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
def train_cmd(cfg, no_pretrain, freeze_negatives, supervision_path):
    """Train the encoder and write model.bin."""
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
@click.option("--both-directions", is_flag=True, default=False)
@click.option("--dump-sentences", type=str, default=None,
              help="Write prepared sentences (record_id + text) to this JSONL file.")
def join_cmd(cfg, join_type, left_size, right_size, spec_file, baseline, key_column,
             threshold, both_directions, dump_sentences):
    """Execute the join and write result.csv."""
    size_flags = [flag for flag, value in (("--join-type", join_type), ("--left-size", left_size),
                                           ("--right-size", right_size)) if value is not None]
    cmd_join(cfg, spec_file=spec_file, baseline=baseline, key_column=key_column,
             threshold=threshold, both_directions=both_directions,
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
def evaluate_cmd(cfg, results_path, truth_path, ks, comparison, methods, key_column,
                 with_mrr):
    """Compute recall (and optionally MRR) against a truth file."""
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
def pipeline_cmd(cfg, chain_file, labels_path, agg_ks):
    """Run a chained multi-hop join with optional label averaging."""
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

"""Trainable embedding encoder and the triplet-loss training loop.

The encoder hashes tokens into a learned embedding table, mean-pools the
bucket vectors, applies an affine projection, and optionally l2-normalizes
the output. It is deliberately linear so gradients are exact and training
is deterministic; the interface leaves room for heavier backends.

Training is single-threaded and reproducible under a fixed seed. A trained
model is immutable in practice: encode() never mutates it, so concurrent
readers are safe.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, SupervisionPair, SupervisionTriple
from .joinspec import EngineConfig
from .prepare import Sentence, prepare_sentence
from .supervise import SamplerConfig, build_pretraining_pairs, build_tiers, sample_triples

DEFAULT_HASH_DIM = 1 << 16
DEFAULT_DIM = 200

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_TINY = 1e-12


class EncoderError(ValueError):
    """Bad encoder input or a corrupt model file."""


def _fnv1a(data: bytes, seed: int) -> int:
    h = (_FNV_OFFSET ^ ((seed * 0x9E3779B97F4A7C15) & _MASK64)) & _MASK64
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@dataclass
class EncoderModel:
    """Hashed bag-of-tokens encoder: table lookup, mean pool, affine map."""

    table: np.ndarray       # (hash_dim, dim)
    projection: np.ndarray  # (dim, dim)
    bias: np.ndarray        # (dim,)
    hash_seed: int
    normalize: bool = True
    _bucket_cache: dict[str, int] = field(default_factory=dict, repr=False)

    @property
    def hash_dim(self) -> int:
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    @classmethod
    def create(
        cls,
        dim: int = DEFAULT_DIM,
        hash_dim: int = DEFAULT_HASH_DIM,
        seed: int = 0,
        normalize: bool = True,
    ) -> "EncoderModel":
        """Random table, identity projection, zero bias."""
        rng = np.random.default_rng(seed)
        table = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(hash_dim, dim))
        return cls(
            table=table,
            projection=np.eye(dim),
            bias=np.zeros(dim),
            hash_seed=seed,
            normalize=normalize,
        )

    def copy(self) -> "EncoderModel":
        return EncoderModel(
            table=self.table.copy(),
            projection=self.projection.copy(),
            bias=self.bias.copy(),
            hash_seed=self.hash_seed,
            normalize=self.normalize,
            _bucket_cache=dict(self._bucket_cache),
        )

    def bucket(self, token: str) -> int:
        cached = self._bucket_cache.get(token)
        if cached is None:
            cached = _fnv1a(token.encode("utf-8"), self.hash_seed) % self.hash_dim
            self._bucket_cache[token] = cached
        return cached

    def buckets(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self.bucket(t) for t in tokens], dtype=np.int64)


def encode(model: EncoderModel, sentence: Sentence) -> np.ndarray:
    """Embed one prepared sentence; an empty token list maps to zeros."""
    buckets = model.buckets(sentence.tokens)
    return _encode_buckets(model, buckets)


def _encode_buckets(model: EncoderModel, buckets: np.ndarray) -> np.ndarray:
    if buckets.size == 0:
        return np.zeros(model.dim)
    pooled = model.table[buckets].sum(axis=0) / buckets.size
    u = pooled @ model.projection + model.bias
    if model.normalize:
        r = float(np.sqrt(u @ u))
        if r > _TINY:
            return u / r
    return u


def embed_dataset(
    model: EncoderModel,
    dataset: Dataset,
    tokenizer: str = "whitespace",
    separator: str = "[SEP]",
) -> list[tuple[str, np.ndarray]]:
    """One embedding per record, in dataset order."""
    out = []
    for rec in dataset.records:
        sent = prepare_sentence(rec, separator=separator, tokenizer=tokenizer)
        out.append((rec.id, encode(model, sent)))
    return out


def triplet_loss(
    xa: np.ndarray,
    xp: np.ndarray,
    xn: np.ndarray,
    margin: float = 1.0,
) -> float:
    """Hinge loss max(||xa-xp|| - ||xa-xn|| + margin, 0) under the 2-norm."""
    xa, xp, xn = np.asarray(xa), np.asarray(xp), np.asarray(xn)
    if not (xa.shape == xp.shape == xn.shape):
        raise EncoderError(
            f"dimension mismatch: {xa.shape} vs {xp.shape} vs {xn.shape}"
        )
    d_pos = float(np.linalg.norm(xa - xp))
    d_neg = float(np.linalg.norm(xa - xn))
    return max(d_pos - d_neg + margin, 0.0)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 8
    learning_rate: float = 1e-5
    margin: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.margin < 0:
            raise EncoderError("margin must be >= 0")
        if self.learning_rate <= 0:
            raise EncoderError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise EncoderError("batch_size must be >= 1")


@dataclass
class TrainResult:
    models: tuple[EncoderModel, ...]
    epoch_losses: list[float]

    @property
    def model(self) -> EncoderModel:
        return self.models[0]


@dataclass
class _Grads:
    """Gradients for one model: dense affine part, sparse table rows."""

    projection: np.ndarray
    bias: np.ndarray
    table_idx: np.ndarray   # unique bucket ids touched
    table_rows: np.ndarray  # (len(table_idx), dim)

    def dense_table(self, hash_dim: int, dim: int) -> np.ndarray:
        out = np.zeros((hash_dim, dim))
        out[self.table_idx] = self.table_rows
        return out


def _forward_group(model: EncoderModel, bucket_arrays: list[np.ndarray]):
    """Embed a group of sentences, keeping intermediates for backprop."""
    n = len(bucket_arrays)
    d = model.dim
    E = np.zeros((n, d))
    counts = np.zeros(n, dtype=np.int64)
    for i, buckets in enumerate(bucket_arrays):
        counts[i] = buckets.size
        if buckets.size:
            E[i] = model.table[buckets].sum(axis=0) / buckets.size
    U = E @ model.projection + model.bias
    X = U.copy()
    R = np.sqrt(np.einsum("ij,ij->i", U, U))
    nonempty = counts > 0
    if model.normalize:
        scale = nonempty & (R > _TINY)
        X[scale] = U[scale] / R[scale, None]
    X[~nonempty] = 0.0
    return E, U, X, R, counts, nonempty


def _backward_group(
    model: EncoderModel,
    g_x: np.ndarray,
    E: np.ndarray,
    U: np.ndarray,
    X: np.ndarray,
    R: np.ndarray,
    counts: np.ndarray,
    nonempty: np.ndarray,
    bucket_arrays: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backprop g_x through normalization, projection, and pooling.

    Returns (g_projection, g_bias, bucket_concat, per_token_row_grads).
    """
    g_u = g_x.copy()
    if model.normalize:
        scale = nonempty & (R > _TINY)
        dot = np.einsum("ij,ij->i", g_x[scale], X[scale])
        g_u[scale] = (g_x[scale] - dot[:, None] * X[scale]) / R[scale, None]
    g_u[~nonempty] = 0.0

    g_projection = E.T @ g_u
    g_bias = g_u.sum(axis=0)
    g_e = g_u @ model.projection.T

    idx_parts: list[np.ndarray] = []
    row_parts: list[np.ndarray] = []
    for i, buckets in enumerate(bucket_arrays):
        if buckets.size == 0:
            continue
        idx_parts.append(buckets)
        per_token = np.repeat((g_e[i] / counts[i])[None, :], buckets.size, axis=0)
        row_parts.append(per_token)
    if idx_parts:
        return g_projection, g_bias, np.concatenate(idx_parts), np.vstack(row_parts)
    return g_projection, g_bias, np.empty(0, dtype=np.int64), np.empty((0, model.dim))


def _merge_table_grads(
    idx: np.ndarray, rows: np.ndarray, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    if idx.size == 0:
        return idx, rows
    unique, inverse = np.unique(idx, return_inverse=True)
    merged = np.zeros((unique.size, dim))
    np.add.at(merged, inverse, rows)
    return unique, merged


def batch_loss(
    anchor_model: EncoderModel,
    other_model: EncoderModel,
    anchors: list[np.ndarray],
    positives: list[np.ndarray],
    negatives: list[np.ndarray],
    margin: float,
) -> float:
    """Mean triplet hinge loss over a batch (bucket-array inputs)."""
    xa = np.vstack([_encode_buckets(anchor_model, b) for b in anchors])
    xp = np.vstack([_encode_buckets(other_model, b) for b in positives])
    xn = np.vstack([_encode_buckets(other_model, b) for b in negatives])
    d_pos = np.sqrt(np.einsum("ij,ij->i", xa - xp, xa - xp))
    d_neg = np.sqrt(np.einsum("ij,ij->i", xa - xn, xa - xn))
    return float(np.maximum(d_pos - d_neg + margin, 0.0).mean())


def batch_gradients(
    anchor_model: EncoderModel,
    other_model: EncoderModel,
    anchors: list[np.ndarray],
    positives: list[np.ndarray],
    negatives: list[np.ndarray],
    margin: float,
) -> tuple[float, dict[int, _Grads]]:
    """Mean batch loss plus exact gradients, keyed by id(model).

    With a shared model the three sentence groups accumulate into one
    gradient set; otherwise anchors flow to the anchor model and the
    positive/negative groups to the other.
    """
    shared = anchor_model is other_model
    fa = _forward_group(anchor_model, anchors)
    fp = _forward_group(other_model, positives)
    fn = _forward_group(other_model, negatives)
    Xa, Xp, Xn = fa[2], fp[2], fn[2]
    B = Xa.shape[0]

    dap = Xa - Xp
    dan = Xa - Xn
    d_pos = np.sqrt(np.einsum("ij,ij->i", dap, dap))
    d_neg = np.sqrt(np.einsum("ij,ij->i", dan, dan))
    losses = np.maximum(d_pos - d_neg + margin, 0.0)
    loss = float(losses.mean())

    active = (losses > 0.0).astype(np.float64) / B
    u_pos = np.where(d_pos[:, None] > _TINY, dap / np.maximum(d_pos, _TINY)[:, None], 0.0)
    u_neg = np.where(d_neg[:, None] > _TINY, dan / np.maximum(d_neg, _TINY)[:, None], 0.0)
    g_xa = active[:, None] * (u_pos - u_neg)
    g_xp = -active[:, None] * u_pos
    g_xn = active[:, None] * u_neg

    ga = _backward_group(anchor_model, g_xa, *fa, anchors)
    gp = _backward_group(other_model, g_xp, *fp, positives)
    gn = _backward_group(other_model, g_xn, *fn, negatives)

    grads: dict[int, _Grads] = {}
    if shared:
        idx = np.concatenate([ga[2], gp[2], gn[2]])
        rows = np.vstack([ga[3], gp[3], gn[3]])
        uniq, merged = _merge_table_grads(idx, rows, anchor_model.dim)
        grads[id(anchor_model)] = _Grads(
            projection=ga[0] + gp[0] + gn[0],
            bias=ga[1] + gp[1] + gn[1],
            table_idx=uniq,
            table_rows=merged,
        )
    else:
        uniq_a, merged_a = _merge_table_grads(ga[2], ga[3], anchor_model.dim)
        grads[id(anchor_model)] = _Grads(ga[0], ga[1], uniq_a, merged_a)
        idx = np.concatenate([gp[2], gn[2]])
        rows = np.vstack([gp[3], gn[3]])
        uniq_o, merged_o = _merge_table_grads(idx, rows, other_model.dim)
        grads[id(other_model)] = _Grads(gp[0] + gn[0], gp[1] + gn[1], uniq_o, merged_o)
    return loss, grads


class _Adam:
    """Adam with lazy (touched-rows-only) updates for the embedding table."""

    def __init__(self, model: EncoderModel, cfg: TrainConfig) -> None:
        self.cfg = cfg
        self.m_proj = np.zeros_like(model.projection)
        self.v_proj = np.zeros_like(model.projection)
        self.m_bias = np.zeros_like(model.bias)
        self.v_bias = np.zeros_like(model.bias)
        self.t_dense = 0
        self.m_table = np.zeros_like(model.table)
        self.v_table = np.zeros_like(model.table)
        self.t_rows = np.zeros(model.hash_dim, dtype=np.int64)

    def step(self, model: EncoderModel, grads: _Grads) -> None:
        cfg = self.cfg
        self.t_dense += 1
        t = self.t_dense
        for g, m, v, param in (
            (grads.projection, self.m_proj, self.v_proj, model.projection),
            (grads.bias, self.m_bias, self.v_bias, model.bias),
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


TripleProvider = Callable[[int], list[SupervisionTriple]]


def train(
    model: EncoderModel,
    triples: list[SupervisionTriple],
    base: Dataset,
    aux: Dataset,
    cfg: TrainConfig,
    shared: bool = True,
    triple_provider: TripleProvider | None = None,
) -> TrainResult:
    """Mini-batch triplet training with Adam.

    ``shared`` trains one encoder for both sides (the default); otherwise
    the auxiliary side gets an identically initialized copy that is free to
    diverge. ``triple_provider`` lets the caller resample negatives per
    epoch; without it the given triples are reused every epoch.
    """
    if not triples and triple_provider is None:
        raise EncoderError("triples must be non-empty")
    models = (model,) if shared else (model, model.copy())
    anchor_model, other_model = models[0], models[-1]
    adams = {id(m): _Adam(m, cfg) for m in models}

    base_cache: dict[str, np.ndarray] = {}
    aux_cache: dict[str, np.ndarray] = {}

    def buckets_for(dataset: Dataset, cache: dict[str, np.ndarray], rec_id: str,
                    which: EncoderModel) -> np.ndarray:
        arr = cache.get(rec_id)
        if arr is None:
            sent = prepare_sentence(dataset.record(rec_id))
            arr = which.buckets(sent.tokens)
            cache[rec_id] = arr
        return arr

    rng = np.random.default_rng(cfg.seed)
    epoch_losses: list[float] = []
    for epoch in range(cfg.epochs):
        epoch_triples = triple_provider(epoch) if triple_provider is not None else triples
        if not epoch_triples:
            raise EncoderError(f"epoch {epoch}: no training triples")
        order = rng.permutation(len(epoch_triples))
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = [epoch_triples[i] for i in order[start : start + cfg.batch_size]]
            anchors = [buckets_for(base, base_cache, t.anchor_id, anchor_model) for t in batch]
            positives = [buckets_for(aux, aux_cache, t.positive_id, other_model) for t in batch]
            negatives = [buckets_for(aux, aux_cache, t.negative_id, other_model) for t in batch]
            loss, grads = batch_gradients(
                anchor_model, other_model, anchors, positives, negatives, cfg.margin
            )
            if not np.isfinite(loss):
                raise EncoderError(
                    f"non-finite loss {loss!r} at epoch {epoch}, batch offset {start}; "
                    f"learning_rate={cfg.learning_rate}, margin={cfg.margin}"
                )
            total += loss * len(batch)
            for m in models:
                g = grads.get(id(m))
                if g is not None:
                    adams[id(m)].step(m, g)
        epoch_losses.append(total / len(epoch_triples))
    return TrainResult(models=models, epoch_losses=epoch_losses)


# ---------------------------------------------------------------------------
# Model persistence: versioned binary, little-endian float64 row-major.
# ---------------------------------------------------------------------------

_MAGIC = b"KJEN"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQqB7x")


def save_model(model: EncoderModel, path: str | Path) -> None:
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(
            _HEADER.pack(
                _MAGIC,
                _VERSION,
                model.hash_dim,
                model.dim,
                model.hash_seed,
                1 if model.normalize else 0,
            )
        )
        fh.write(np.ascontiguousarray(model.table, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.projection, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.bias, dtype="<f8").tobytes())


def load_model(path: str | Path) -> EncoderModel:
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise EncoderError(f"{path}: truncated model file")
        magic, version, hash_dim, dim, hash_seed, norm_flag = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise EncoderError(f"{path}: not a model file (bad magic {magic!r})")
        if version != _VERSION:
            raise EncoderError(f"{path}: unsupported model version {version} "
                               f"(expected {_VERSION})")
        expected = _HEADER.size + 8 * (hash_dim * dim + dim * dim + dim)
        size = path.stat().st_size
        if size != expected:
            raise EncoderError(f"{path}: truncated model file ({size} of {expected} bytes)")
        table, projection, bias = (np.fromfile(fh, dtype="<f8", count=n)
                                   for n in (hash_dim * dim, dim * dim, dim))
    return EncoderModel(
        table=table.reshape(hash_dim, dim),
        projection=projection.reshape(dim, dim),
        bias=bias,
        hash_seed=int(hash_seed),
        normalize=bool(norm_flag),
    )


# ---------------------------------------------------------------------------
# Training pipeline shared by the CLI and the comparison harness.
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    models: tuple[EncoderModel, ...]
    trace: list[tuple[str, int, float]]  # (stage, epoch, mean loss)

    @property
    def model(self) -> EncoderModel:
        return self.models[0]


def fit_encoder(
    base: Dataset,
    aux: Dataset,
    supervision: Sequence[SupervisionPair] | Sequence[SupervisionTriple],
    config: EngineConfig,
    *,
    hash_dim: int = DEFAULT_HASH_DIM,
    pretrain: bool = False,
    pretrain_per_record: int = 1,
    freeze_negatives: bool = False,
    init_model: EncoderModel | None = None,
) -> FitResult:
    """End-to-end encoder fitting per the engine configuration.

    Pair supervision goes through the configured negative sampler, with
    fresh negatives each epoch unless frozen; provided triples pass
    through unchanged. The optional self-supervised stage trains on
    BM25-paired triples before the supervised stage.
    """
    model = init_model if init_model is not None else EncoderModel.create(
        dim=config.embedding_dim,
        hash_dim=hash_dim,
        seed=config.seed,
        normalize=config.normalize,
    )
    shared = config.num_encoders == 1
    tcfg = TrainConfig(
        epochs=config.epochs,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        margin=config.loss_margin,
        seed=config.seed,
    )
    trace: list[tuple[str, int, float]] = []
    models: tuple[EncoderModel, ...] = (model,)

    if pretrain:
        ptriples = build_pretraining_pairs(
            base, aux, per_record=pretrain_per_record, seed=config.seed
        )
        result = train(model, ptriples, base, aux, tcfg, shared=True)
        trace.extend(("pretrain", e, l) for e, l in enumerate(result.epoch_losses))

    if not config.finetune:
        return FitResult(models=models, trace=trace)

    supervision = list(supervision)
    if not supervision:
        raise EncoderError("supervision must be non-empty")

    if config.supervision_fraction < 1.0 and isinstance(supervision[0], SupervisionPair):
        keep = max(1, round(config.supervision_fraction * len(supervision)))
        rng = random.Random(config.seed)
        supervision = rng.sample(supervision, keep)

    if isinstance(supervision[0], SupervisionTriple):
        result = train(model, supervision, base, aux, tcfg, shared=shared)  # type: ignore[arg-type]
    else:
        pairs: list[SupervisionPair] = supervision  # type: ignore[assignment]
        if config.sampler == "custom":
            raise EncoderError(
                "sampler 'custom' requires caller-provided triples; pass triples "
                "as supervision instead"
            )

        tiers = build_tiers(pairs, base, aux, SamplerConfig(kind=config.sampler))

        def provider(epoch: int) -> list[SupervisionTriple]:
            seed = config.seed if freeze_negatives else config.seed ^ (epoch + 1)
            scfg = SamplerConfig(kind=config.sampler, seed=seed)
            return sample_triples(pairs, base, aux, scfg, tiers)

        result = train(model, [], base, aux, tcfg, shared=shared, triple_provider=provider)

    models = result.models
    trace.extend(("train", e, l) for e, l in enumerate(result.epoch_losses))
    return FitResult(models=models, trace=trace)

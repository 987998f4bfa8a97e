"""Trainable embedding encoder and the triplet-loss training loop.

The encoder hashes tokens into a learned embedding table, mean-pools the
bucket vectors, applies an affine projection, and optionally l2-normalizes
the output. It is deliberately linear so gradients are exact and training
is deterministic; the interface leaves room for heavier backends.

Every learned command featurizes the same way: ``prepare.token_ids`` turns
each record's prepared tokens into vocabulary ids once, ``EncoderModel.rows``
maps the vocabulary to table rows, and a record's rows are ``rows[ids]``.

The affine map is one ``(dim + 1) x dim`` array, the projection's rows
and then the bias, as the model file stores them; ``projection`` and
``bias`` are views of it.

Training is single-threaded and reproducible under a fixed seed. Each
model runs one forward and one backward pass per batch, over all the
sentences it embeds. A batch's table gradient is summed through a count
matrix: each sentence contributes one row (its pooled gradient over its
token count), and C (sentences x unique buckets) holding each bucket's
count per sentence gives the merged rows as ``C.T @ rows``. Adam updates
the affine array in one dense step and keeps its table state by table row;
a row changes only when it has a gradient. A trained model is immutable in
practice: encode() never mutates it, so concurrent readers are safe.

A model holds the table rows of some buckets plus a source for every other
row: the seed of the initial table (``create``) or the model file it was
read from (``load_model``). Feature hashing leaves every bucket that no
record's token hashes to untouched, so ``create`` and ``load_model`` given
the tokens to embed hold just those tokens' rows, and such a model embeds,
trains and saves with the bits of the full one. ``save_model`` writes the
source's table block by block with the held rows put in place: the file is
the full model's, bit for bit, and the full table is never in memory.
"""

from __future__ import annotations

import random
import struct
from contextlib import closing
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .data import Dataset, SupervisionPair, SupervisionTriple
from .joiner import Embeddings, atomic_write
from .joinspec import EngineConfig
from .lexrank import dataset_bm25_index
from .prepare import Sentence, token_ids
from .supervise import (
    SamplerConfig,
    build_pretraining_pairs,
    build_tiers,
    sample_triples,
)

DEFAULT_HASH_DIM = 1 << 16
DEFAULT_DIM = 200

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_TINY = 1e-12
# Floats per block of rows that embed_dataset runs through one forward pass
# (0.5 MB); the pass holds about five block-sized arrays.
_EMBED_CELLS = 1 << 16
# Rows per block of the seeded initial table, drawn one block at a time
# (1.6 MB at dim 200).
_INIT_ROWS = 1 << 10


class EncoderError(ValueError):
    """Bad encoder input or a corrupt model file."""


def _fnv1a(data: bytes, seed: int) -> int:
    h = (_FNV_OFFSET ^ ((seed * 0x9E3779B97F4A7C15) & _MASK64)) & _MASK64
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _buckets(tokens: Sequence[str], hash_seed: int, hash_dim: int) -> np.ndarray:
    """The bucket each token hashes to."""
    return np.fromiter((_fnv1a(t.encode("utf-8"), hash_seed) % hash_dim for t in tokens),
                       np.int64, len(tokens))


def _token_rows(tokens: Iterable[str], hash_seed: int, hash_dim: int) -> np.ndarray:
    """The sorted distinct buckets that ``tokens`` hash to: the rows of a
    table holding just those buckets."""
    return np.unique(_buckets(list(set(tokens)), hash_seed, hash_dim))


def _blocks(next_rows: Callable[[int], np.ndarray], hash_dim: int, rows: np.ndarray):
    """A table of ``hash_dim`` rows, ``_INIT_ROWS`` at a time, with
    ``next_rows(n)`` giving its next n rows. Yields each block with the
    slice of the sorted buckets ``rows`` that fall in it and their offsets
    within it."""
    for start in range(0, hash_dim, _INIT_ROWS):
        block = next_rows(min(_INIT_ROWS, hash_dim - start))
        lo, hi = np.searchsorted(rows, (start, start + block.shape[0])).tolist()
        yield block, slice(lo, hi), rows[lo:hi] - start


def _init_blocks(seed: int, hash_dim: int, dim: int, rows: np.ndarray):
    """The seeded initial table, ``default_rng(seed).normal(0, 1/sqrt(dim))``
    over ``hash_dim`` x ``dim``, in ``_blocks``; draws in consecutive blocks
    from one generator equal the one-shot draw bit for bit."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    return _blocks(lambda n: rng.normal(0.0, scale, size=(n, dim)), hash_dim, rows)


@dataclass
class EncoderModel:
    """Hashed bag-of-tokens encoder: table lookup, mean pool, affine map.

    The table holds one row for each of the sorted buckets in
    ``row_buckets``; ``rows`` maps tokens to their table rows and raises
    for a token whose bucket the model does not hold. Every other bucket's
    row is the ``source``'s: the seed of the initial table that ``create``
    drew, or the model file that ``load_model`` read. A full model holds
    every bucket, ``row_buckets = arange(hash_dim)``.
    """

    table: np.ndarray        # (len(row_buckets), dim)
    affine: np.ndarray       # (dim + 1, dim): the projection's rows, then the bias
    hash_seed: int
    hash_dim: int
    row_buckets: np.ndarray  # sorted bucket id of each table row
    source: int | Path       # every other row: an init seed's draw, or a model file's
    normalize: bool = True

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    @property
    def projection(self) -> np.ndarray:
        return self.affine[:-1]

    @property
    def bias(self) -> np.ndarray:
        return self.affine[-1]

    @classmethod
    def create(
        cls,
        dim: int = DEFAULT_DIM,
        hash_dim: int = DEFAULT_HASH_DIM,
        seed: int = 0,
        normalize: bool = True,
        tokens: Iterable[str] | None = None,
    ) -> "EncoderModel":
        """Seeded random table, identity projection, zero bias. With
        ``tokens``, the model holds only the table rows those tokens hash
        to, with the same values as the full table's."""
        rows = np.arange(hash_dim) if tokens is None else _token_rows(tokens, seed, hash_dim)
        table = np.empty((rows.size, dim))
        for block, held, at in _init_blocks(seed, hash_dim, dim, rows):
            table[held] = block[at]
        return cls(
            table=table,
            affine=np.eye(dim + 1, dim),
            hash_seed=seed,
            hash_dim=hash_dim,
            row_buckets=rows,
            source=seed,
            normalize=normalize,
        )

    def copy(self) -> "EncoderModel":
        return EncoderModel(
            table=self.table.copy(),
            affine=self.affine.copy(),
            hash_seed=self.hash_seed,
            hash_dim=self.hash_dim,
            row_buckets=self.row_buckets.copy(),
            source=self.source,
            normalize=self.normalize,
        )

    def rows(self, tokens: Sequence[str]) -> np.ndarray:
        """The table row of each token. Raises for the first token whose
        bucket the model does not hold."""
        buckets = _buckets(tokens, self.hash_seed, self.hash_dim)
        at = np.searchsorted(self.row_buckets, buckets)
        lost = np.flatnonzero(np.append(self.row_buckets, -1)[at] != buckets)
        if lost.size:
            first = lost[0]
            raise EncoderError(f"token {tokens[first]!r} hashes to bucket {buckets[first]}, "
                               "which this partial model did not load")
        return at


def encode(model: EncoderModel, sentence: Sentence) -> np.ndarray:
    """Embed one prepared sentence; an empty token list maps to zeros."""
    return _forward_group(model, [model.rows(sentence.tokens)])[2][0]


def embed_dataset(
    model: EncoderModel,
    dataset: Dataset,
    tokenizer: str = "whitespace",
    features: tuple[Sequence[str], Sequence[np.ndarray]] | None = None,
) -> Embeddings:
    """Record ids and one embedding row per record, in dataset order.

    ``features`` is a vocabulary and each record's token ids in it, in
    dataset order, as ``prepare.token_ids`` gives them; without it the
    records are featurized here under ``tokenizer``. Rows go through the
    forward pass in blocks of about ``_EMBED_CELLS`` floats, and never in
    one-row blocks (unless the dataset has one row): numpy multiplies a
    single row with gemv, whose last bits differ from gemm's, while with two
    or more rows a row's bits do not depend on its block.
    """
    if features is None:
        vocab, (ids,) = token_ids([dataset], tokenizer)
    else:
        vocab, ids = features
    if len(ids) != len(dataset.records):
        raise EncoderError(f"{len(ids)} token id arrays for {len(dataset.records)} records")
    rows = model.rows(vocab)
    n = len(ids)
    vectors = np.empty((n, model.dim))
    parts = max(1, min(-(-n * model.dim // _EMBED_CELLS), n // 2))
    for block in np.array_split(np.arange(n), parts):
        vectors[block] = _forward_group(model, [rows[ids[i]] for i in block])[2]
    return tuple(rec.id for rec in dataset.records), vectors


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

    affine: np.ndarray      # (dim + 1, dim), as EncoderModel.affine
    table_idx: np.ndarray   # unique table rows touched, not bucket ids
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
    parts: int,
    E: np.ndarray,
    U: np.ndarray,
    X: np.ndarray,
    R: np.ndarray,
    counts: np.ndarray,
    nonempty: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Backprop g_x through normalization, projection, and pooling.

    Returns (g_affine, per_sentence_rows): row i is the gradient of each
    single token of sentence i, ``g_e[i] / count[i]`` (zero for an empty
    sentence). The rows form ``parts`` equal groups; g_affine sums the
    groups' ``E.T @ g_u`` and ``g_u.sum(axis=0)`` in group order, so it has
    the bits of one backward pass per group.
    """
    g_u = g_x.copy()
    if model.normalize:
        scale = nonempty & (R > _TINY)
        dot = np.einsum("ij,ij->i", g_x[scale], X[scale])
        g_u[scale] = (g_x[scale] - dot[:, None] * X[scale]) / R[scale, None]
    g_u[~nonempty] = 0.0

    g_affine = reduce(np.add, (np.vstack((e.T @ g, g.sum(axis=0)))
                               for e, g in zip(np.split(E, parts), np.split(g_u, parts))))
    g_e = g_u @ model.projection.T
    return g_affine, g_e / np.maximum(counts, 1)[:, None]


def _table_grads(
    bucket_arrays: list[np.ndarray], rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unique buckets and their summed gradients, ``Cᵀ @ rows``, where C
    (sentences × unique buckets) counts each bucket's tokens per sentence."""
    lengths = np.array([b.size for b in bucket_arrays], dtype=np.int64)
    flat = np.concatenate(bucket_arrays)
    unique, inverse = np.unique(flat, return_inverse=True)
    sentence = np.repeat(np.arange(lengths.size), lengths)
    counts = np.bincount(sentence * unique.size + inverse, minlength=lengths.size * unique.size)
    return unique, counts.reshape(lengths.size, unique.size).T.astype(np.float64) @ rows


def batch_loss(
    anchor_model: EncoderModel,
    other_model: EncoderModel,
    anchors: list[np.ndarray],
    positives: list[np.ndarray],
    negatives: list[np.ndarray],
    margin: float,
) -> float:
    """Mean triplet hinge loss over a batch (bucket-array inputs), the
    finite-difference reference for ``batch_gradients``: each sentence runs
    through the forward pass alone, as in ``encode``."""
    xa, xp, xn = (np.vstack([_forward_group(model, [b])[2] for b in group])
                  for model, group in ((anchor_model, anchors), (other_model, positives),
                                       (other_model, negatives)))
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
) -> tuple[float, list[_Grads]]:
    """Mean batch loss plus exact gradients, one ``_Grads`` per model:
    ``[anchor]`` when the two models are one, else ``[anchor, other]``.

    Each model runs one forward and one backward pass over all of its
    sentences: a shared model embeds anchors, positives and negatives
    together; otherwise the anchor model embeds the anchors and the other
    model the positives, then the negatives.
    """
    groups = (anchors, positives, negatives)
    owned = ((0, 1, 2),) if anchor_model is other_model else ((0,), (1, 2))
    models = (anchor_model, other_model)[: len(owned)]
    sentences = [[b for i in own for b in groups[i]] for own in owned]
    forwards = [_forward_group(m, s) for m, s in zip(models, sentences)]
    Xa, Xp, Xn = np.split(np.concatenate([f[2] for f in forwards]), 3)
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

    g_groups = (g_xa, g_xp, g_xn)
    grads = []
    for model, own, sents, forward in zip(models, owned, sentences, forwards):
        g_x = np.concatenate([g_groups[i] for i in own])
        g_affine, rows = _backward_group(model, g_x, len(own), *forward)
        grads.append(_Grads(g_affine, *_table_grads(sents, rows)))
    return loss, grads


class _Adam:
    """Adam with lazy (touched-rows-only) updates for the embedding table.

    The affine array gets one dense update per step. Table state (m, v and the per-row step count t) has one row per table
    row, starting at zero; a step updates only the rows with a gradient, so
    a row's first update starts from zero state. The model holds just its
    vocabulary's rows, so the state is that small too. Every update runs in
    preallocated scratch buffers, in the operation order of the textbook
    expressions, so it keeps their bits.
    """

    def __init__(self, model: EncoderModel, cfg: TrainConfig) -> None:
        self.cfg = cfg
        self.m_affine = np.zeros_like(model.affine)
        self.v_affine = np.zeros_like(model.affine)
        self.t_dense = 0
        self.m_table = np.zeros_like(model.table)
        self.v_table = np.zeros_like(model.table)
        self.t_rows = np.zeros(model.table.shape[0], dtype=np.int64)
        self._dense_scratch = np.empty((2, *model.affine.shape))
        self._row_scratch = np.empty((3, 0, model.dim))

    def step(self, model: EncoderModel, grads: _Grads) -> None:
        cfg = self.cfg
        self.t_dense += 1
        t = self.t_dense
        g, m, v, (a, b) = grads.affine, self.m_affine, self.v_affine, self._dense_scratch
        # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
        m *= cfg.beta1
        m += np.multiply(g, 1 - cfg.beta1, out=a)
        v *= cfg.beta2
        v += np.multiply(np.multiply(g, 1 - cfg.beta2, out=a), g, out=a)
        # affine -= (lr m_hat) / (sqrt(v_hat) + eps)
        np.multiply(np.divide(m, 1 - cfg.beta1 ** t, out=a), cfg.learning_rate, out=a)
        np.add(np.sqrt(np.divide(v, 1 - cfg.beta2 ** t, out=b), out=b), cfg.eps, out=b)
        model.affine -= np.divide(a, b, out=a)

        if grads.table_idx.size == 0:
            return
        rows = grads.table_idx
        g = grads.table_rows
        if rows.size > self._row_scratch.shape[1]:
            self._row_scratch = np.empty((3, max(rows.size, 2 * self._row_scratch.shape[1]),
                                          model.dim))
        m, v, a = self._row_scratch[:, : rows.size]
        t_rows = self.t_rows[rows] + 1
        np.multiply(np.take(self.m_table, rows, axis=0, out=m), cfg.beta1, out=m)
        m += np.multiply(g, 1 - cfg.beta1, out=a)
        np.multiply(np.take(self.v_table, rows, axis=0, out=v), cfg.beta2, out=v)
        v += np.multiply(np.multiply(g, 1 - cfg.beta2, out=a), g, out=a)
        self.m_table[rows] = m
        self.v_table[rows] = v
        self.t_rows[rows] = t_rows
        m /= (1 - cfg.beta1 ** t_rows)[:, None]
        m *= cfg.learning_rate
        v /= (1 - cfg.beta2 ** t_rows)[:, None]
        np.sqrt(v, out=v)
        v += cfg.eps
        model.table[rows] -= np.divide(m, v, out=m)


TripleProvider = Callable[[int], list[SupervisionTriple]]


def train(
    model: EncoderModel,
    triples: list[SupervisionTriple],
    base: Dataset,
    aux: Dataset,
    cfg: TrainConfig,
    shared: bool = True,
    triple_provider: TripleProvider | None = None,
    tokenizer: str = "whitespace",
    features: tuple[Sequence[str], Sequence[Sequence[np.ndarray]]] | None = None,
) -> TrainResult:
    """Mini-batch triplet training with Adam.

    ``shared`` trains one encoder for both sides (the default); otherwise
    the auxiliary side gets an identically initialized copy that is free to
    diverge. ``triple_provider`` lets the caller resample negatives per
    epoch; without it the given triples are reused every epoch.
    ``features`` is ``prepare.token_ids([base, aux], tokenizer)``, computed
    here when absent; each record's table rows are looked up once.
    """
    if not triples and triple_provider is None:
        raise EncoderError("triples must be non-empty")
    models = (model,) if shared else (model, model.copy())
    adams = [_Adam(m, cfg) for m in models]

    vocab, sides = features if features is not None else token_ids([base, aux], tokenizer)
    # A copy holds the same row_buckets, so one map serves both encoders.
    rows = model.rows(vocab)
    base_rows, aux_rows = ({rec.id: rows[i] for rec, i in zip(ds.records, ids, strict=True)}
                           for ds, ids in zip((base, aux), sides, strict=True))

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
            anchors = [base_rows[t.anchor_id] for t in batch]
            positives = [aux_rows[t.positive_id] for t in batch]
            negatives = [aux_rows[t.negative_id] for t in batch]
            loss, grads = batch_gradients(
                models[0], models[-1], anchors, positives, negatives, cfg.margin
            )
            if not np.isfinite(loss):
                raise EncoderError(
                    f"non-finite loss {loss!r} at epoch {epoch}, batch offset {start}; "
                    f"learning_rate={cfg.learning_rate}, margin={cfg.margin}"
                )
            total += loss * len(batch)
            for m, adam, g in zip(models, adams, grads, strict=True):
                adam.step(m, g)
        epoch_losses.append(total / len(epoch_triples))
    return TrainResult(models=models, epoch_losses=epoch_losses)


# ---------------------------------------------------------------------------
# Model persistence: versioned binary, little-endian float64 row-major.
# ---------------------------------------------------------------------------

_MAGIC = b"KJEN"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQqB7x")


def _write_f8(fh, array: np.ndarray) -> None:
    fh.write(memoryview(np.ascontiguousarray(array, "<f8")).cast("B"))


def _read_header(path: Path, fh) -> tuple[int, int, int, bool]:
    """``hash_dim``, ``dim``, ``hash_seed`` and ``normalize`` from the
    header of the open model file ``fh``, after checking its magic, its
    version and that the file has exactly the size they give."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise EncoderError(f"{path}: truncated model file")
    magic, version, hash_dim, dim, hash_seed, norm_flag = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise EncoderError(f"{path}: not a model file (bad magic {magic!r})")
    if version != _VERSION:
        raise EncoderError(f"{path}: unsupported model version {version} "
                           f"(expected {_VERSION})")
    expected = _HEADER.size + 8 * (hash_dim + dim + 1) * dim
    size = path.stat().st_size
    if size != expected:
        raise EncoderError(f"{path}: truncated model file ({size} of {expected} bytes)")
    return int(hash_dim), int(dim), int(hash_seed), bool(norm_flag)


def _source_blocks(model: EncoderModel):
    """The table of ``model.source`` in ``_blocks``: the seeded initial
    draw, or a model file's table, which must still match the model's
    ``hash_dim``, ``dim`` and ``hash_seed``."""
    if not isinstance(model.source, Path):
        yield from _init_blocks(model.source, model.hash_dim, model.dim, model.row_buckets)
        return
    path, dim, header = model.source, model.dim, (model.hash_dim, model.dim, model.hash_seed)
    with path.open("rb") as fh:
        if (found := _read_header(path, fh)[:3]) != header:
            raise EncoderError(f"{path}: the model's source file now has hash_dim, dim and "
                               f"hash_seed {found}, but the model has {header}")
        yield from _blocks(lambda n: np.fromfile(fh, dtype="<f8", count=n * dim).reshape(n, dim),
                           model.hash_dim, model.row_buckets)


def save_model(model: EncoderModel, path: str | Path) -> None:
    """Write the header, then the table and the affine block (projection,
    then bias) as little-endian float64, row-major, to a temporary file beside ``path``
    that then replaces it, so a model can be saved over the file it was
    read from. A full model writes its table; any other writes its source's
    table block by block, with the rows it holds put in place."""
    with atomic_write(path) as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, model.hash_dim, model.dim, model.hash_seed,
                              1 if model.normalize else 0))
        if model.row_buckets.size == model.hash_dim:
            _write_f8(fh, model.table)
        else:
            with closing(_source_blocks(model)) as blocks:
                for block, held, at in blocks:
                    block[at] = model.table[held]
                    _write_f8(fh, block)
        _write_f8(fh, model.affine)


def load_model(path: str | Path, tokens: Iterable[str] | None = None) -> EncoderModel:
    """Read a model file, holding the table rows that ``tokens`` hash to
    (every row without ``tokens``), read run by run; the file is the source
    of every other row, so the full table is in memory only when held."""
    path = Path(path)
    with path.open("rb") as fh:
        hash_dim, dim, hash_seed, normalize = _read_header(path, fh)
        rows = np.arange(hash_dim) if tokens is None else _token_rows(tokens, hash_seed, hash_dim)
        table = np.empty((rows.size, dim), dtype="<f8")
        starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1).tolist()
        for lo, hi in zip(starts, [*starts[1:], rows.size]):
            fh.seek(_HEADER.size + 8 * dim * int(rows[lo]))
            fh.readinto(table[lo:hi])
        fh.seek(_HEADER.size + 8 * hash_dim * dim)
        affine = np.fromfile(fh, dtype="<f8", count=(dim + 1) * dim).reshape(dim + 1, dim)
    return EncoderModel(
        table=table,
        affine=affine,
        hash_seed=hash_seed,
        hash_dim=hash_dim,
        row_buckets=rows,
        source=path,
        normalize=normalize,
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
    freeze_negatives: bool = False,
    init_model: EncoderModel | None = None,
    features: tuple[Sequence[str], Sequence[Sequence[np.ndarray]]] | None = None,
) -> FitResult:
    """End-to-end encoder fitting per the engine configuration.

    Pair supervision goes through the configured negative sampler, with
    fresh negatives each epoch unless frozen; provided triples pass
    through unchanged. The optional self-supervised stage trains on
    BM25-paired triples before the supervised stage. Supervision is
    checked before any training starts. Every record is featurized once,
    by ``features`` (``prepare.token_ids([base, aux], config.tokenizer)``,
    computed here when absent), and the model (unless ``init_model`` is
    given) holds only the table rows of its vocabulary.
    """
    if features is None:
        features = token_ids([base, aux], config.tokenizer)
    model = init_model if init_model is not None else EncoderModel.create(
        dim=config.embedding_dim,
        hash_dim=hash_dim,
        seed=config.seed,
        normalize=config.normalize,
        tokens=features[0],
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

    pairs: list[SupervisionPair] | None = None  # supervision that needs negatives
    if config.finetune:
        supervision = list(supervision)
        if not supervision:
            raise EncoderError("supervision must be non-empty")
        if isinstance(supervision[0], SupervisionPair):
            if config.sampler == "custom":
                raise EncoderError(
                    "sampler 'custom' requires caller-provided triples; pass triples "
                    "as supervision instead"
                )
            if config.supervision_fraction < 1.0:
                keep = max(1, round(config.supervision_fraction * len(supervision)))
                supervision = random.Random(config.seed).sample(supervision, keep)
            pairs = supervision  # type: ignore[assignment]

    # The pretraining pairs and the BM25 tiers query one aux index. Both are
    # drawn before any training, so the index is freed before training runs.
    needs_index = pretrain or (pairs is not None and config.sampler == "stratified_bm25")
    index = dataset_bm25_index(aux) if needs_index else None
    if pretrain:
        ptriples = build_pretraining_pairs(base, aux, seed=config.seed, index=index)
    if pairs is not None:
        tiers = build_tiers(pairs, base, aux, SamplerConfig(kind=config.sampler), index)
    del index

    if pretrain:
        result = train(model, ptriples, base, aux, tcfg, shared=True, features=features)
        trace.extend(("pretrain", e, l) for e, l in enumerate(result.epoch_losses))

    if not config.finetune:
        return FitResult(models=models, trace=trace)

    if pairs is None:
        result = train(model, supervision, base, aux, tcfg,  # type: ignore[arg-type]
                       shared=shared, features=features)
    else:
        def provider(epoch: int) -> list[SupervisionTriple]:
            seed = config.seed if freeze_negatives else config.seed ^ (epoch + 1)
            scfg = SamplerConfig(kind=config.sampler, seed=seed)
            return sample_triples(pairs, base, aux, scfg, tiers)

        result = train(model, [], base, aux, tcfg, shared=shared, triple_provider=provider,
                       features=features)

    models = result.models
    trace.extend(("train", e, l) for e, l in enumerate(result.epoch_losses))
    return FitResult(models=models, trace=trace)

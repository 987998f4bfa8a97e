"""Trainable embedding encoder and the triplet-loss training loop.

The encoder hashes tokens into a learned embedding table, mean-pools the
bucket vectors, applies an affine projection, and optionally l2-normalizes
the output. It is deliberately linear so gradients are exact and training
is deterministic; the interface leaves room for heavier backends.

Every learned command featurizes the same way: ``prepare.read_token_ids``
codes each record's prepared tokens as vocabulary ids once, as the dataset
file streams past, into one flat ``prepare.TokenIds`` per dataset; nothing
here sees a record, only its id and its token ids. ``EncoderModel.rows``
maps the vocabulary to table rows, and the rows of many records are one
gather, ``TokenIds.map``, over their flat ids. ``embed_blocks`` gathers a
block of records at a time; ``train`` gathers each side once, into one
flat int32 row array that each sentence is a slice of.

The affine map is one ``(dim + 1) x dim`` array, the projection's rows
and then the bias, as the model file stores them; ``projection`` and
``bias`` are views of it.

Training is single-threaded and reproducible under a fixed seed. Each
model runs one forward and one backward pass per batch, over all the
sentences it embeds. The affine gradient is one ``(dim + 1) x dim`` buffer
into which each group's (anchors, positives, negatives) part is added in
group order, and a batch with no empty sentence and no zero-norm projected
row runs the normalization on whole arrays, with no masked copies. A
batch's table gradient is summed through a count matrix: each sentence
contributes one row (its pooled gradient over its token count), and C
(sentences x unique rows) holding each table row's count per sentence
gives the merged rows as ``C.T @ rows``; the unique rows come from a count
per table row, not a sort. Each of these keeps the bits of the plainer
step that ``tests/oracles.py`` keeps. Adam updates the affine array in one
dense step and keeps its table state by table row; a row changes only when
it has a gradient. A trained model is immutable in practice: embedding
never mutates it, so concurrent readers are safe.

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
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .data import SupervisionPair, SupervisionTriple, atomic_write
from .joiner import Embeddings
from .joinspec import EngineConfig
from .prepare import Features, TokenIds
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
# Floats per block of rows that embed_blocks runs through one forward pass
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
    over ``hash_dim`` x ``dim``, in ``_blocks``, each block drawn into one
    buffer that the next block overwrites. Draws in consecutive blocks from
    one generator equal the one-shot draw bit for bit. ``normal`` computes
    ``loc + scale * z``, so ``z * scale + 0.0`` has its bits: the ``+ 0.0``
    turns a ``-0.0`` into ``+0.0`` as ``normal`` does."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    buffer = np.empty((min(_INIT_ROWS, hash_dim), dim))

    def draw(n: int) -> np.ndarray:
        block = rng.standard_normal(out=buffer[:n])
        block *= scale
        block += 0.0
        return block

    return _blocks(draw, hash_dim, rows)


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


def embed_blocks(model: EncoderModel, vocab: Sequence[str], ids: TokenIds,
                 out: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """The embedding rows of the records whose tokens are ``ids`` in
    ``vocab`` (one side of ``prepare.read_token_ids``), in record order, as
    blocks of about ``_EMBED_CELLS`` floats. A block's records map to table
    rows in one gather over their flat ids.

    No block holds one row (unless there is one record): numpy multiplies
    a single row with gemv, whose last bits differ from gemm's, while with
    two or more rows a row's bits do not depend on its block. The blocks
    share one pooling buffer; each is written into its rows of ``out``
    (one row per record) when given, else into one buffer that the next
    block overwrites.
    """
    table_rows = model.rows(vocab)
    n = len(ids)
    parts = max(1, min(-(-n * model.dim // _EMBED_CELLS), n // 2))
    # The blocks of np.array_split: the first n % parts hold one row more.
    size, extra = divmod(n, parts)
    pooled = np.empty((size + (extra > 0), model.dim))
    block = np.empty(pooled.shape) if out is None else None
    start = 0
    for part in range(parts):
        stop = start + size + (part < extra)
        into = out[start:stop] if block is None else block[: stop - start]
        _forward_group(model, ids[start:stop].map(table_rows), pooled[: stop - start], into)
        yield into
        start = stop


def embed_tokens(
    model: EncoderModel,
    ids: Sequence[str],
    features: tuple[Sequence[str], TokenIds],
) -> Embeddings:
    """The records ``ids`` and one embedding row per record, in order.

    ``features`` is a vocabulary and each record's token ids in it, in
    the same order, as one side of ``prepare.read_token_ids`` gives them.
    ``embed_blocks`` writes the rows straight into the result.
    """
    vocab, tokens = features
    if len(tokens) != len(ids):
        raise EncoderError(f"{len(tokens)} token id arrays for {len(ids)} records")
    vectors = np.empty((len(ids), model.dim))
    for _ in embed_blocks(model, vocab, tokens, out=vectors):
        pass
    return tuple(ids), vectors


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
        if self.epochs < 0:
            raise EncoderError("epochs must be >= 0")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise EncoderError(f"{name} must be in [0, 1)")
        if not self.eps > 0:
            raise EncoderError("eps must be > 0")


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

def _forward_group(model: EncoderModel, bucket_arrays: Sequence[np.ndarray],
                   pooled: np.ndarray | None = None, out: np.ndarray | None = None):
    """Embed a group of sentences: ``(E, X, R, counts, scale)``, the pooled
    rows, the outputs, the projected rows' norms, the token counts and the
    mask of scaled rows, which ``_backward_group`` takes back.

    ``scale`` is None when every sentence is nonempty and, under
    ``normalize``, every projected row's norm is above ``_TINY``: the
    common case, which works on whole arrays. Otherwise only the masked
    rows are scaled, and the empty sentences' outputs are zero. The
    projected rows are scaled in place, so they become X. ``pooled`` and
    ``out``, when given, are ``(n, dim)`` arrays that E and X are written
    to: ``embed_blocks`` passes one pooling buffer for all of its blocks
    and each block's rows of its output, so no block allocates either.
    """
    n = len(bucket_arrays)
    E = np.empty((n, model.dim)) if pooled is None else pooled
    counts = np.fromiter((b.size for b in bucket_arrays), np.int64, n)
    for i, buckets in enumerate(bucket_arrays):
        if buckets.size:
            np.divide(model.table.take(buckets, axis=0).sum(axis=0), buckets.size, out=E[i])
        else:
            E[i] = 0.0
    X = np.matmul(E, model.projection, out=out)
    X += model.bias
    R = np.sqrt(np.einsum("ij,ij->i", X, X))
    nonempty = counts > 0
    scale = nonempty & (R > _TINY) if model.normalize else nonempty
    if scale.all():
        if model.normalize:
            X /= R[:, None]
        return E, X, R, counts, None
    if model.normalize:
        X[scale] /= R[scale, None]
    X[~nonempty] = 0.0
    return E, X, R, counts, scale


def _backward_group(
    model: EncoderModel,
    g_x: np.ndarray,
    parts: int,
    E: np.ndarray,
    X: np.ndarray,
    R: np.ndarray,
    counts: np.ndarray,
    scale: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Backprop g_x through normalization, projection, and pooling.

    Returns (g_affine, per_sentence_rows): row i is the gradient of each
    single token of sentence i, ``g_e[i] / count[i]`` (zero for an empty
    sentence). The rows form ``parts`` equal groups. g_affine is one
    ``(dim + 1) x dim`` buffer: group 0's ``E.T @ g_u`` and
    ``g_u.sum(axis=0)`` are written into it, and each later group's,
    written into one scratch buffer, is added in place in group order, so
    it has the bits of one backward pass per group summed left to right.
    With ``scale`` None (see ``_forward_group``) every row takes the same
    elementwise arithmetic as the masked path, on the whole arrays.
    """
    if scale is None:
        if model.normalize:
            dot = np.einsum("ij,ij->i", g_x, X)
            g_u = (g_x - dot[:, None] * X) / R[:, None]
        else:
            g_u = g_x
    else:
        g_u = g_x.copy()
        if model.normalize:
            dot = np.einsum("ij,ij->i", g_x[scale], X[scale])
            g_u[scale] = (g_x[scale] - dot[:, None] * X[scale]) / R[scale, None]
        g_u[counts == 0] = 0.0

    size = g_u.shape[0] // parts
    g_affine = np.empty((model.dim + 1, model.dim))
    scratch = np.empty_like(g_affine)
    for part in range(parts):
        out = scratch if part else g_affine
        e, g = E[part * size : (part + 1) * size], g_u[part * size : (part + 1) * size]
        np.matmul(e.T, g, out=out[:-1])
        g.sum(axis=0, out=out[-1])
        if part:
            g_affine += scratch
    g_e = g_u @ model.projection.T
    g_e /= np.maximum(counts, 1)[:, None]
    return g_affine, g_e


def _table_grads(
    bucket_arrays: list[np.ndarray], rows: np.ndarray, table_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Unique table rows and their summed gradients, ``Cᵀ @ rows``, where C
    (sentences × unique rows) counts each row's tokens per sentence. The
    unique rows, ascending, and each token's place among them come from a
    count per table row, of which the model holds ``table_rows``."""
    lengths = np.fromiter((b.size for b in bucket_arrays), np.int64, len(bucket_arrays))
    flat = np.concatenate(bucket_arrays)
    present = np.bincount(flat, minlength=table_rows) > 0
    unique = np.flatnonzero(present)
    inverse = (np.cumsum(present) - 1)[flat]
    sentence = np.repeat(np.arange(lengths.size), lengths)
    counts = np.bincount(sentence * unique.size + inverse, minlength=lengths.size * unique.size)
    return unique, counts.reshape(lengths.size, unique.size).T.astype(np.float64) @ rows


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
    B = len(anchors)
    X = forwards[-1][1]
    Xa, Xp, Xn = forwards[0][1][:B], X[-2 * B : -B], X[-B:]

    dap = Xa - Xp
    dan = Xa - Xn
    d_pos = np.sqrt(np.einsum("ij,ij->i", dap, dap))
    d_neg = np.sqrt(np.einsum("ij,ij->i", dan, dan))
    losses = np.maximum(d_pos - d_neg + margin, 0.0)
    loss = float(losses.mean())

    active = (losses > 0.0).astype(np.float64) / B
    u_pos, u_neg = (_unit(diff, dist) for diff, dist in ((dap, d_pos), (dan, d_neg)))
    # The three groups' output gradients, in sentence order.
    g_all = np.empty((3 * B, Xa.shape[1]))
    np.multiply(active[:, None], u_pos - u_neg, out=g_all[:B])
    np.multiply(-active[:, None], u_pos, out=g_all[B : 2 * B])
    np.multiply(active[:, None], u_neg, out=g_all[2 * B :])

    grads = []
    for model, own, sents, forward in zip(models, owned, sentences, forwards):
        g_affine, rows = _backward_group(model, g_all[own[0] * B : (own[-1] + 1) * B], len(own),
                                        *forward)
        grads.append(_Grads(g_affine, *_table_grads(sents, rows, model.table.shape[0])))
    return loss, grads


def _unit(diff: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Each row of ``diff`` over its norm ``dist``, or zero where the norm
    is at most ``_TINY``."""
    if (dist > _TINY).all():
        return diff / dist[:, None]
    return np.where(dist[:, None] > _TINY, diff / np.maximum(dist, _TINY)[:, None], 0.0)


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
    base_ids: Sequence[str],
    aux_ids: Sequence[str],
    features: Features,
    cfg: TrainConfig,
    shared: bool = True,
    triple_provider: TripleProvider | None = None,
) -> TrainResult:
    """Mini-batch triplet training with Adam.

    ``shared`` trains one encoder for both sides (the default); otherwise
    the auxiliary side gets an identically initialized copy that is free to
    diverge. ``triple_provider`` lets the caller resample negatives per
    epoch; without it the given triples are reused every epoch. A triple
    names its records by id, ``base_ids`` and ``aux_ids``, and ``features``
    holds both sides' token ids, as ``prepare.read_token_ids`` gives them.
    Each side's ids map to table rows once, in one gather into one flat
    int32 row array, and a sentence's rows are a slice of it.
    """
    if not triples and triple_provider is None:
        raise EncoderError("triples must be non-empty")
    models = (model,) if shared else (model, model.copy())
    adams = [_Adam(m, cfg) for m in models]

    vocab, sides = features
    for name, ids, tokens in zip(("base", "aux"), (base_ids, aux_ids), sides, strict=True):
        if len(tokens) != len(ids):
            raise EncoderError(f"{len(tokens)} token id runs for {len(ids)} {name} records")
    # A copy holds the same row_buckets, so one map serves both encoders.
    # Every row index is below the table's row count, far below 2^31.
    rows = model.rows(vocab).astype(np.int32)
    base_rows, aux_rows = (tokens.map(rows) for tokens in sides)
    base_at, aux_at = ({rid: i for i, rid in enumerate(ids)} for ids in (base_ids, aux_ids))

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
            anchors = [base_rows[base_at[t.anchor_id]] for t in batch]
            positives = [aux_rows[aux_at[t.positive_id]] for t in batch]
            negatives = [aux_rows[aux_at[t.negative_id]] for t in batch]
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
        buffer = np.empty((min(_INIT_ROWS, model.hash_dim), dim), "<f8")

        def read(n: int) -> np.ndarray:
            block = buffer[:n]
            if fh.readinto(block) != block.nbytes:
                raise EncoderError(f"{path}: the model's source file changed while it was read")
            return block

        yield from _blocks(read, model.hash_dim, model.row_buckets)


def save_model(model: EncoderModel, path: str | Path,
               digest: Callable[[bytes], object] | None = None) -> None:
    """Write the header, then the table and the affine block (projection,
    then bias) as little-endian float64, row-major, to a temporary file beside ``path``
    that then replaces it, so a model can be saved over the file it was
    read from. A full model writes its table; any other writes its source's
    table block by block, with the rows it holds put in place. With
    ``digest``, such as a ``hashlib`` object's ``update``, every block
    written is passed to it too, so the file need not be read back to be
    hashed."""
    header = _HEADER.pack(_MAGIC, _VERSION, model.hash_dim, model.dim, model.hash_seed,
                          1 if model.normalize else 0)
    with atomic_write(path) as fh:
        def write(array: np.ndarray) -> None:
            _write_f8(fh, array)
            if digest is not None:
                digest(memoryview(np.ascontiguousarray(array, "<f8")).cast("B"))

        fh.write(header)
        if digest is not None:
            digest(header)
        if model.row_buckets.size == model.hash_dim:
            write(model.table)
        else:
            with closing(_source_blocks(model)) as blocks:
                for block, held, at in blocks:
                    block[at] = model.table[held]
                    write(block)
        write(model.affine)


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
# Training pipeline of the train command.
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    models: tuple[EncoderModel, ...]
    trace: list[tuple[str, int, float]]  # (stage, epoch, mean loss)

    @property
    def model(self) -> EncoderModel:
        return self.models[0]


def fit_encoder(
    base_ids: Sequence[str],
    aux_ids: Sequence[str],
    supervision: Sequence[SupervisionPair] | Sequence[SupervisionTriple],
    config: EngineConfig,
    *,
    features: Features,
    lexical: Features | None = None,
    hash_dim: int = DEFAULT_HASH_DIM,
    pretrain: bool = False,
    freeze_negatives: bool = False,
    init_model: EncoderModel | None = None,
) -> FitResult:
    """End-to-end encoder fitting per the engine configuration.

    Pair supervision goes through the configured negative sampler, with
    fresh negatives each epoch unless frozen; provided triples pass
    through unchanged. The optional self-supervised stage trains on
    BM25-paired triples before the supervised stage. Supervision is
    checked before any training starts.

    The base and aux records are their ids, ``base_ids`` and ``aux_ids``,
    and their token ids under ``config.tokenizer``, ``features``, as
    ``prepare.read_token_ids`` gives them; the encoder trains on those.
    The pretraining pairs and the sampler tiers rank whitespace tokens:
    ``features`` itself under the whitespace tokenizer, else ``lexical``,
    the whitespace token ids, which they then need and which are dropped
    once they are ranked. The model (unless ``init_model`` is given) holds
    only the table rows of its vocabulary.
    """
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
        if not len(supervision):
            raise EncoderError("supervision must be non-empty")
        if isinstance(supervision[0], SupervisionPair):
            if config.sampler == "custom":
                raise EncoderError(
                    "sampler 'custom' requires caller-provided triples; pass triples "
                    "as supervision instead"
                )
            # Drawing positions draws the pairs that sampling the pairs
            # themselves would, and builds only the pairs drawn.
            drawn: Sequence[int] = range(len(supervision))
            if config.supervision_fraction < 1.0:
                keep = max(1, round(config.supervision_fraction * len(supervision)))
                drawn = random.Random(config.seed).sample(drawn, keep)
            pairs = [supervision[at] for at in drawn]  # type: ignore[misc]
        else:
            supervision = list(supervision)

    tiered = pairs is not None and config.sampler != "random"
    if config.tokenizer == "whitespace":
        lexical = features
    elif (pretrain or tiered) and lexical is None:
        raise EncoderError("pretraining and the stratified samplers rank whitespace tokens: "
                           f"under tokenizer {config.tokenizer!r} pass them as lexical")
    # With pretraining, the BM25 tiers rank every base record, once: the
    # pretraining positives are their first ids, and the anchors keep theirs.
    ranked = None
    if pretrain and tiered and config.sampler == "stratified_bm25":
        ranked = build_tiers(base_ids, base_ids, aux_ids, SamplerConfig(kind=config.sampler),
                             lexical)
    if pretrain:
        ptriples = build_pretraining_pairs(base_ids, aux_ids, lexical, seed=config.seed,
                                           tiers=ranked)
    if pairs is not None:
        anchors = dict.fromkeys(pair.base_id for pair in pairs)
        tiers = (build_tiers(anchors, base_ids, aux_ids, SamplerConfig(kind=config.sampler),
                             lexical) if ranked is None
                 else {anchor: ranked[anchor] for anchor in anchors})
    del lexical, ranked

    if pretrain:
        result = train(model, ptriples, base_ids, aux_ids, features, tcfg, shared=True)
        trace.extend(("pretrain", e, l) for e, l in enumerate(result.epoch_losses))

    if not config.finetune:
        return FitResult(models=models, trace=trace)

    if pairs is None:
        result = train(model, supervision, base_ids, aux_ids,  # type: ignore[arg-type]
                       features, tcfg, shared=shared)
    else:
        def provider(epoch: int) -> list[SupervisionTriple]:
            seed = config.seed if freeze_negatives else config.seed ^ (epoch + 1)
            scfg = SamplerConfig(kind=config.sampler, seed=seed)
            return sample_triples(pairs, aux_ids, scfg, tiers)

        result = train(model, [], base_ids, aux_ids, features, tcfg, shared=shared,
                       triple_provider=provider)

    models = result.models
    trace.extend(("train", e, l) for e, l in enumerate(result.epoch_losses))
    return FitResult(models=models, trace=trace)

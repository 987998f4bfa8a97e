"""Checks of the program's outputs against the benchmark's own computations.

Nothing here imports the package under test. Each checker re-derives what
the output must be from the inputs and the documented file formats, and
raises ``CheckError`` on the first disagreement:

* generated workload: 5 perturbed copies per source row within the edit
  budget, every base id tied to its origin, train/test split by origin;
* ``model.bin``: the documented header and exact size;
* ``embeddings_*.bin``: unit rows that match a re-embedding from
  ``model.bin`` (FNV-1a buckets, mean pool, affine map, l2 normalisation);
* learned LEFT/INNER joins: a brute-force l2 scan, ties by ascending id;
* BM25: Okapi scoring with k1=1.5, b=0.75 and the non-negative IDF;
* J-WS: plain set Jaccard with the 0.3 cut, on a seeded sample of rows;
* recall: recomputed from ``result.csv`` and the truth file.
"""

from __future__ import annotations

import csv
import math
import random
import struct
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCORE_TOL = 1e-9
# Scores closer than this are one tie, broken by id; lexical scores summed
# in another order differ by ~1e-14, distinct scores by far more.
TIE_BAND = 1e-11

MODEL_HEADER = struct.Struct("<4sIQQqB7x")  # magic, version, hash_dim, dim, hash_seed, normalize
EMB_HEADER = struct.Struct("<4sIQQ")        # magic, version, count, dim
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

BM25_K1 = 1.5
BM25_B = 0.75
JACCARD_MIN = 0.3


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's computation."""


def _fail(path: Path, message: str) -> None:
    raise CheckError(f"{path.name}: {message}")


# ---------------------------------------------------------------------------
# File readers (documented formats, written independently of the package).
# ---------------------------------------------------------------------------

Record = tuple[str, list[tuple[str, str]]]


def read_records(path: Path) -> list[Record]:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        id_pos = header.index("id")
        return [(row[id_pos], [(k, v) for j, (k, v) in enumerate(zip(header, row)) if j != id_pos])
                for row in reader if row]


def read_pairs(path: Path) -> list[tuple[str, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["base_id", "aux_id"]:
            _fail(path, "bad pair header")
        return [(row[0], row[1]) for row in reader if row]


ResultRow = tuple["str | None", "str | None", int, float]


def read_result(path: Path) -> list[ResultRow]:
    rows = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["base_id", "aux_id", "rank", "score"]:
            _fail(path, "bad result header")
        for row in reader:
            if row:
                rows.append((row[0] or None, row[1] or None, int(row[2]),
                             float(row[3]) if row[3] else math.nan))
    return rows


def sentence_tokens(fields: list[tuple[str, str]]) -> list[str]:
    """``key value [SEP] key value ...``, lowercased and split on whitespace."""
    segments = [f"{k} {v}".strip() if v.strip() else k for k, v in fields]
    return " [SEP] ".join(segments).lower().split()


# ---------------------------------------------------------------------------
# Generated workload.
# ---------------------------------------------------------------------------


def origin_of(base_id: str) -> str:
    return base_id.rsplit("-p", 1)[0]


def _value_tokens(fields: list[tuple[str, str]]) -> list[str]:
    return [tok for _, value in fields for tok in value.split()]


def token_edit_distance(a: list[str], b: list[str]) -> int:
    prev = list(range(len(b) + 1))
    for i, ta in enumerate(a, start=1):
        curr = [i] + [0] * len(b)
        for j, tb in enumerate(b, start=1):
            curr[j] = min(prev[j - 1] + (ta != tb), prev[j] + 1, curr[j - 1] + 1)
        prev = curr
    return prev[-1]


def check_generated(data_dir: Path, copies: int = 5, edits_per_row: int = 5,
                    test_fraction: float = 0.2, sample: int = 50, seed: int = 0) -> None:
    source = read_records(data_dir / "source.csv")
    aux = read_records(data_dir / "aux.csv")
    base = read_records(data_dir / "base.csv")
    if aux != source:
        _fail(data_dir / "aux.csv", "differs from source.csv")
    if len(base) != copies * len(aux):
        _fail(data_dir / "base.csv", f"{len(base)} rows, expected {copies} x {len(aux)}")
    want_ids = [f"{rid}-p{c}" for rid, _ in aux for c in range(copies)]
    if [rid for rid, _ in base] != want_ids:
        _fail(data_dir / "base.csv", "ids are not <origin>-p<copy> in source order")

    train = read_pairs(data_dir / "truth_train.csv")
    test = read_pairs(data_dir / "truth_test.csv")
    if sorted(train + test) != sorted((b, origin_of(b)) for b in want_ids):
        _fail(data_dir / "truth_test.csv", "truth does not map every base id to its origin once")
    train_groups = {a for _, a in train}
    test_groups = {a for _, a in test}
    if train_groups & test_groups:
        _fail(data_dir / "truth_test.csv", "an origin group straddles the train/test split")
    n_test = max(1, min(int(round(test_fraction * len(aux))), len(aux) - 1))
    if len(test_groups) != n_test:
        _fail(data_dir / "truth_test.csv", f"{len(test_groups)} test groups, expected {n_test}")
    if read_pairs(data_dir / "supervision.csv") != train:
        _fail(data_dir / "supervision.csv", "differs from truth_train.csv")

    by_id = dict(aux)
    for rid, fields in random.Random(seed).sample(base, min(sample, len(base))):
        origin = by_id[origin_of(rid)]
        if [k for k, _ in fields] != [k for k, _ in origin]:
            _fail(data_dir / "base.csv", f"{rid}: columns differ from its origin")
        want = _value_tokens(origin)
        budget = max(1, min(edits_per_row, int(0.25 * len(want))))
        if token_edit_distance(want, _value_tokens(fields)) > budget:
            _fail(data_dir / "base.csv", f"{rid}: more than {budget} token edits from its origin")


# ---------------------------------------------------------------------------
# Model and embeddings.
# ---------------------------------------------------------------------------


@dataclass
class Model:
    table: np.ndarray       # (hash_dim, dim), memory-mapped
    projection: np.ndarray  # (dim, dim)
    bias: np.ndarray        # (dim,)
    hash_seed: int
    normalize: bool


def check_model(path: Path, hash_seed: int, hash_dim: int = 1 << 16, dim: int = 200) -> Model:
    """``model.bin``: 40-byte header (``KJEN``, version 1, hash_dim, dim,
    hash_seed, normalize flag, 7 pad bytes), then the table, projection and
    bias as little-endian float64, row-major."""
    with path.open("rb") as fh:
        head = fh.read(MODEL_HEADER.size)
    if len(head) != MODEL_HEADER.size:
        _fail(path, "shorter than its header")
    magic, version, got_hash_dim, got_dim, got_seed, norm = MODEL_HEADER.unpack(head)
    if (magic, version) != (b"KJEN", 1):
        _fail(path, f"bad magic/version {magic!r}/{version}")
    if (got_hash_dim, got_dim, got_seed, norm) != (hash_dim, dim, hash_seed, 1):
        _fail(path, f"header ({got_hash_dim}, {got_dim}, {got_seed}, {norm}) "
                    f"!= ({hash_dim}, {dim}, {hash_seed}, 1)")
    size = MODEL_HEADER.size + 8 * (hash_dim * dim + dim * dim + dim)
    if path.stat().st_size != size:
        _fail(path, f"{path.stat().st_size} bytes, documented size is {size}")
    flat = np.memmap(path, dtype="<f8", mode="r", offset=MODEL_HEADER.size)
    table = flat[: hash_dim * dim].reshape(hash_dim, dim)
    rest = np.array(flat[hash_dim * dim:])
    if not np.isfinite(rest).all():
        _fail(path, "non-finite projection or bias")
    return Model(table=table, projection=rest[: dim * dim].reshape(dim, dim),
                 bias=rest[dim * dim:], hash_seed=got_seed, normalize=bool(norm))


def read_embeddings(path: Path) -> tuple[list[str], np.ndarray]:
    """``KJEB`` v1 header with count and dim, then per record a u32 id
    length, the UTF-8 id and ``dim`` little-endian float64 values."""
    raw = path.read_bytes()
    magic, version, count, dim = EMB_HEADER.unpack_from(raw)
    if (magic, version) != (b"KJEB", 1):
        _fail(path, f"bad magic/version {magic!r}/{version}")
    ids: list[str] = []
    matrix = np.empty((count, dim))
    offset = EMB_HEADER.size
    for i in range(count):
        (n,) = struct.unpack_from("<I", raw, offset)
        ids.append(raw[offset + 4: offset + 4 + n].decode("utf-8"))
        offset += 4 + n
        matrix[i] = np.frombuffer(raw, dtype="<f8", count=dim, offset=offset)
        offset += 8 * dim
    if offset != len(raw):
        _fail(path, f"{len(raw) - offset} trailing bytes")
    return ids, matrix


def fnv1a_bucket(token: str, seed: int, hash_dim: int) -> int:
    h = _FNV_OFFSET ^ ((seed * 0x9E3779B97F4A7C15) & _MASK64)
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h % hash_dim


def embed(model: Model, fields: list[tuple[str, str]]) -> np.ndarray:
    hash_dim = model.table.shape[0]
    buckets = [fnv1a_bucket(t, model.hash_seed, hash_dim) for t in sentence_tokens(fields)]
    u = np.asarray(model.table[buckets]).mean(axis=0) @ model.projection + model.bias
    return u / np.linalg.norm(u) if model.normalize else u


def check_embeddings(path: Path, records: list[Record], model: Model,
                     sample: int = 100, seed: int = 0) -> tuple[list[str], np.ndarray]:
    ids, matrix = read_embeddings(path)
    if ids != [rid for rid, _ in records]:
        _fail(path, "ids differ from the dataset's, in order")
    if not np.isfinite(matrix).all():
        _fail(path, "non-finite values")
    if model.normalize:
        worst = np.abs(np.linalg.norm(matrix, axis=1) - 1.0).max()
        if worst > SCORE_TOL:
            _fail(path, f"a row's norm is off 1 by {worst:.3g}")
    for i in random.Random(seed).sample(range(len(records)), min(sample, len(records))):
        gap = np.abs(embed(model, records[i][1]) - matrix[i]).max()
        if gap > SCORE_TOL:
            _fail(path, f"{ids[i]}: re-embedding from model.bin differs by {gap:.3g}")
    return ids, matrix


# ---------------------------------------------------------------------------
# Learned joins: brute-force exact l2 scan.
# ---------------------------------------------------------------------------


def id_ranks(ids: list[str]) -> np.ndarray:
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def exact_topk(queries: np.ndarray, index: np.ndarray, index_rank: np.ndarray, k: int,
               block: int = 256) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per query the ``k`` nearest index rows by l2, ties by ascending id.

    A GEMM shortlists every row within 1e-6 of the k-th squared distance;
    the shortlist is re-scored as ||x - q|| from the difference, the way
    the scan defines the score.
    """
    k = min(k, index.shape[0])
    norms = np.einsum("ij,ij->i", index, index)
    out = []
    for start in range(0, queries.shape[0], block):
        q = queries[start: start + block]
        d2 = np.einsum("ij,ij->i", q, q)[:, None] + norms[None, :] - 2.0 * (q @ index.T)
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        for i in range(q.shape[0]):
            cand = np.flatnonzero(d2[i] <= kth[i] + 1e-6)
            diff = index[cand] - q[i]
            score = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            order = np.lexsort((index_rank[cand], score))[:k]
            out.append((cand[order], score[order]))
    return out


def _compare_rows(path: Path, got: list[ResultRow], want: list[ResultRow]) -> None:
    for line, (g, w) in enumerate(zip(got, want), start=2):
        same_score = (math.isnan(g[3]) and math.isnan(w[3])) or abs(g[3] - w[3]) <= SCORE_TOL
        if g[:3] != w[:3] or not same_score:
            _fail(path, f"line {line}: got {g}, expected {w}")
    if len(got) != len(want):
        _fail(path, f"{len(got)} rows, expected {len(want)}")


def check_left_join(path: Path, base_ids: list[str], base: np.ndarray,
                    aux_ids: list[str], aux: np.ndarray, right_size: int) -> None:
    """Every base row with its ``right_size`` nearest aux rows; a base row
    with no match keeps one ABSENT row."""
    want: list[ResultRow] = []
    for bid, (idx, score) in zip(base_ids, exact_topk(base, aux, id_ranks(aux_ids), right_size)):
        want.extend((bid, aux_ids[j], r, float(s)) for r, (j, s) in enumerate(zip(idx, score), 1))
        if idx.size == 0:
            want.append((bid, None, 0, math.nan))
    _compare_rows(path, read_result(path), want)


def check_inner_join(path: Path, base_ids: list[str], base: np.ndarray,
                     aux_ids: list[str], aux: np.ndarray, left_size: int, right_size: int) -> None:
    """The smaller side queries the larger with its own size bound as k;
    then each retrieved record keeps its best ``cap`` queries (score, then
    query id), where ``cap`` is the other bound."""
    base_queries = len(base_ids) <= len(aux_ids)
    if base_queries:
        q_ids, q, t_ids, t, k, cap = base_ids, base, aux_ids, aux, right_size, left_size
    else:
        q_ids, q, t_ids, t, k, cap = aux_ids, aux, base_ids, base, left_size, right_size
    retrieved = exact_topk(q, t, id_ranks(t_ids), k)
    keep = {(qi, j) for qi, (idx, _) in enumerate(retrieved) for j in idx}
    if cap < len(q_ids):
        by_target: dict[int, list[tuple[float, str, int]]] = defaultdict(list)
        for qi, (idx, score) in enumerate(retrieved):
            for j, s in zip(idx, score):
                by_target[j].append((s, q_ids[qi], qi))
        keep = {(qi, j) for j, entries in by_target.items() for _, _, qi in sorted(entries)[:cap]}
    want: list[ResultRow] = []
    for qi, (idx, score) in enumerate(retrieved):
        kept = [(j, s) for j, s in zip(idx, score) if (qi, j) in keep]
        for r, (j, s) in enumerate(kept, start=1):
            pair = (q_ids[qi], t_ids[j]) if base_queries else (t_ids[j], q_ids[qi])
            want.append((*pair, r, float(s)))
    _compare_rows(path, read_result(path), want)


# ---------------------------------------------------------------------------
# Lexical baselines.
# ---------------------------------------------------------------------------


def _verify_ranking(path: Path, qid: str, got: list[tuple[str, int, float]], scores: np.ndarray,
                    eligible: np.ndarray, pos: dict[str, int], rank_of: np.ndarray, k: int) -> None:
    """``got`` must be the top ``k`` eligible entries by descending score,
    ties within ``TIE_BAND`` by ascending id, with scores within
    ``SCORE_TOL``."""
    want_n = min(k, int(eligible.sum()))
    if len(got) != want_n:
        _fail(path, f"{qid}: {len(got)} matches, expected {want_n}")
    idx = []
    for r, (aid, rank, score) in enumerate(got, start=1):
        j = pos.get(aid)
        if j is None or not eligible[j]:
            _fail(path, f"{qid}: {aid} is not an eligible match")
        if rank != r:
            _fail(path, f"{qid}: rank {rank} at position {r}")
        if abs(score - scores[j]) > SCORE_TOL:
            _fail(path, f"{qid}: score {score!r} for {aid}, expected {scores[j]!r}")
        idx.append(j)
    for a, b in zip(idx, idx[1:]):
        if not (scores[a] > scores[b] + TIE_BAND
                or (abs(scores[a] - scores[b]) <= TIE_BAND and rank_of[a] < rank_of[b])):
            _fail(path, f"{qid}: out of order at {got[idx.index(b)][0]}")
    if idx:
        last = idx[-1]
        rest = eligible.copy()
        rest[idx] = False
        beats = rest & ((scores > scores[last] + TIE_BAND)
                        | ((np.abs(scores - scores[last]) <= TIE_BAND) & (rank_of < rank_of[last])))
        if beats.any():
            _fail(path, f"{qid}: missing a better match {next(iter(np.flatnonzero(beats)))}")


def _group_by_base(path: Path, rows: list[ResultRow], base_ids: list[str]):
    order = {bid: i for i, bid in enumerate(base_ids)}
    groups: dict[str, list[tuple[str, int, float]]] = defaultdict(list)
    last = -1
    for bid, aid, rank, score in rows:
        if bid not in order or aid is None:
            _fail(path, f"unexpected row ({bid}, {aid})")
        if order[bid] < last:
            _fail(path, f"{bid}: rows not in base order")
        last = order[bid]
        groups[bid].append((aid, rank, score))
    return groups


def bm25_scores(base: list[Record], aux: list[Record]) -> np.ndarray:
    """(base, aux) Okapi scores; query tokens count per occurrence and the
    IDF is ln((N - df + 0.5) / (df + 0.5) + 1)."""
    docs = [sentence_tokens(f) for _, f in aux]
    vocab = {t: i for i, t in enumerate(sorted({t for d in docs for t in d}))}
    tf = np.zeros((len(vocab), len(docs)))
    for j, d in enumerate(docs):
        for t in d:
            tf[vocab[t], j] += 1
    n = len(docs)
    df = (tf > 0).sum(axis=1)
    idf = np.log((n - df + 0.5) / (df + 0.5) + 1.0)
    dl = tf.sum(axis=0)
    norm = BM25_K1 * (1.0 - BM25_B + BM25_B * dl / dl.mean())
    weight = idf[:, None] * tf * (BM25_K1 + 1.0) / (tf + norm[None, :])
    queries = np.zeros((len(base), len(vocab)))
    for i, (_, f) in enumerate(base):
        for t in sentence_tokens(f):
            if t in vocab:
                queries[i, vocab[t]] += 1
    return queries @ weight


def check_bm25(path: Path, base: list[Record], aux: list[Record], k: int) -> None:
    """Every base row: its top ``k`` aux rows with a positive score."""
    scores = bm25_scores(base, aux)
    aux_ids = [rid for rid, _ in aux]
    pos = {aid: j for j, aid in enumerate(aux_ids)}
    rank_of = id_ranks(aux_ids)
    groups = _group_by_base(path, read_result(path), [rid for rid, _ in base])
    for i, (bid, _) in enumerate(base):
        _verify_ranking(path, bid, groups.get(bid, []), scores[i], scores[i] > 0.0, pos, rank_of, k)


def check_jaccard(path: Path, base: list[Record], aux: list[Record], k: int,
                  sample: int = 200, seed: int = 0) -> None:
    """A seeded sample of base rows against a plain set-Jaccard scan with the
    0.3 cut; every other row must at least be a well-formed top-k list."""
    aux_ids = [rid for rid, _ in aux]
    aux_sets = [set(sentence_tokens(f)) for _, f in aux]
    pos = {aid: j for j, aid in enumerate(aux_ids)}
    rank_of = id_ranks(aux_ids)
    groups = _group_by_base(path, read_result(path), [rid for rid, _ in base])
    for bid, got in groups.items():
        ranks = [r for _, r, _ in got]
        sims = [s for _, _, s in got]
        if (ranks != list(range(1, len(got) + 1)) or len(got) > k
                or any(not JACCARD_MIN <= s <= 1.0 for s in sims)
                or any(a < b for a, b in zip(sims, sims[1:]))):
            _fail(path, f"{bid}: not a ranked top-{k} list above {JACCARD_MIN}")
    for bid, fields in random.Random(seed).sample(base, min(sample, len(base))):
        q = set(sentence_tokens(fields))
        sims = np.array([len(q & a) / len(q | a) for a in aux_sets])
        _verify_ranking(path, bid, groups.get(bid, []), sims, sims >= JACCARD_MIN, pos, rank_of, k)


# ---------------------------------------------------------------------------
# Recall.
# ---------------------------------------------------------------------------


def recall(rows: list[ResultRow], truth: list[tuple[str, str]], k: int) -> float:
    """Share of truth base ids whose every related aux id is in their top k."""
    related: dict[str, set[str]] = defaultdict(set)
    for bid, aid in truth:
        related[bid].add(aid)
    top: dict[str, set[str]] = defaultdict(set)
    for bid, aid, rank, _ in rows:
        if bid is not None and aid is not None and rank <= k:
            top[bid].add(aid)
    return sum(want <= top[bid] for bid, want in related.items()) / len(related)


def recompute_recall(data_dir: Path, ks: tuple[int, ...] = (1, 10)) -> dict[int, float]:
    rows = read_result(data_dir / "result.csv")
    truth = read_pairs(data_dir / "truth_test.csv")
    return {k: recall(rows, truth, k) for k in ks}


def check_recall(data_dir: Path, expected: dict[int, float]) -> None:
    """``metrics.csv`` must hold exactly the recomputed recall@k values."""
    path = data_dir / "metrics.csv"
    with path.open(newline="", encoding="utf-8") as fh:
        written = [row for row in csv.reader(fh) if row]
    want = [["method", "k", "recall"], *(["result", str(k), repr(r)] for k, r in expected.items())]
    if len(written) != len(want) or written[0] != want[0]:
        _fail(path, f"unexpected content {written}")
    for got, row in zip(written[1:], want[1:]):
        if got[:2] != row[:2] or float(got[2]) != float(row[2]):
            _fail(path, f"recall@{row[1]} is {got[2]}, recomputed {row[2]}")

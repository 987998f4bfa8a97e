"""Lexical kernels against independent oracles."""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emberish import joiner, lexrank
from emberish.data import SupervisionPair
from emberish.joiner import id_ranks
from emberish.lexrank import (
    LexError,
    gather,
    jaccard,
    jaccard_topk,
    key_join,
    levenshtein,
    lexical_join,
    rank,
)
from emberish.prepare import TokenIds, prepare_sentence
from emberish.supervise import SamplerConfig
from oracles import bm25_score, bm25_topk, coded, coded_index, for_base, matches
from records import baseline_join, dataset_from_rows, pretraining_pairs, tiers_of


# --- Independent oracles (kept deliberately naive) -------------------------


def oracle_levenshtein(a: str, b: str) -> int:
    """Full-matrix DP, no optimizations."""
    rows, cols = len(a) + 1, len(b) + 1
    dist = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        dist[i][0] = i
    for j in range(cols):
        dist[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dist[i][j] = min(
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
                dist[i - 1][j - 1] + cost,
            )
    return dist[-1][-1]


class OracleBm25:
    """Straightforward dictionary-based Okapi scorer."""

    def __init__(self, docs, k1=1.5, b=0.75):
        self.doc_tokens = {doc_id: list(tokens) for doc_id, tokens in docs}
        self.k1, self.b = k1, b
        self.n = len(docs)
        lengths = [len(t) for t in self.doc_tokens.values()]
        self.avgdl = sum(lengths) / self.n if self.n else 0.0

    def idf(self, term):
        df = sum(1 for toks in self.doc_tokens.values() if term in toks)
        return math.log((self.n - df + 0.5) / (df + 0.5) + 1.0)

    def score(self, query, doc_id):
        tokens = self.doc_tokens[doc_id]
        total = 0.0
        for term in query:
            f = tokens.count(term)
            if f == 0:
                continue
            denom = f + self.k1 * (1 - self.b + self.b * len(tokens) / self.avgdl)
            total += self.idf(term) * f * (self.k1 + 1) / denom
        return total


def random_corpus(rng, n_docs, vocab=30, max_len=12):
    docs = []
    for i in range(n_docs):
        length = rng.randrange(1, max_len)
        docs.append((f"d{i}", [f"t{rng.randrange(vocab)}" for _ in range(length)]))
    return docs


# --- BM25 -------------------------------------------------------------------


def test_bm25_hand_arithmetic():
    # Two docs, term in exactly one with f=1, doc length equals avgdl:
    # IDF = ln((2-1+0.5)/(1+0.5) + 1) = ln 2; tf part = 2.5/2.5.
    docs = [("d1", ["x"]), ("d2", ["y"])]
    index, (query,) = coded_index(docs, [["x"]])
    assert index.scores(query).tolist() == pytest.approx([math.log(2), 0.0], abs=1e-12)
    assert bm25_score(["x"], ["x"], [["x"], ["y"]]) == pytest.approx(math.log(2), abs=1e-12)


def test_bm25_absent_term_contributes_zero():
    index, (x, x_zzz, zzz, empty) = coded_index([("d1", ["x", "y"]), ("d2", ["y"])],
                                                [["x"], ["x", "zzz"], ["zzz"], []])
    assert index.scores(x_zzz).tolist() == index.scores(x).tolist()
    for query in (zzz, empty):
        scores = index.scores(query)
        assert scores.dtype == np.float64 and scores.tolist() == [0.0, 0.0]


def test_bm25_matches_oracle_on_toy_corpus():
    rng = random.Random(7)
    docs = random_corpus(rng, 5)
    queries = [[f"t{rng.randrange(30)}" for _ in range(rng.randrange(1, 6))] for _ in range(50)]
    index, coded_queries = coded_index(docs, queries)
    oracle = OracleBm25(docs)
    for query, coded_query in zip(queries, coded_queries):
        scores = index.scores(coded_query)
        for i, (doc_id, _) in enumerate(docs):
            assert scores[i] == pytest.approx(oracle.score(query, doc_id), abs=1e-9)


def test_bm25_monotone_in_term_frequency():
    # Increasing f(q, D) with all else fixed never decreases the term score.
    for f in range(1, 10):
        docs = [("d1", ["x"] * f + ["pad"] * (10 - f)), ("d2", ["pad"] * 10)]
        index, (query,) = coded_index(docs, [["x"]])
        score = index.scores(query)[0]
        if f > 1:
            assert score >= prev  # noqa: F821
        prev = score  # noqa: F841


def test_bm25_topk_k_larger_than_corpus():
    index, (query,) = coded_index([("b", ["x"]), ("a", ["x"])], [["x"]])
    out = bm25_topk(index, query, 10)
    assert len(out) == 2
    assert [doc_id for doc_id, _ in out] == ["a", "b"]  # tie broken by id


def test_bm25_topk_agrees_with_full_sort():
    rng = random.Random(3)
    for trial in range(20):
        docs = random_corpus(rng, rng.randrange(2, 20))
        query = [f"t{rng.randrange(30)}" for _ in range(rng.randrange(1, 5))]
        index, (coded_query,) = coded_index(docs, [query])
        corpus = [tokens for _, tokens in docs]
        expected = sorted(
            ((doc_id, bm25_score(query, tokens, corpus)) for doc_id, tokens in docs),
            key=lambda pair: (-pair[1], pair[0]),
        )
        for k in (1, 3, len(docs)):
            assert bm25_topk(index, coded_query, k) == expected[:k]


def test_bm25_index_is_csr_over_vocabulary_ids():
    # Ids 0..3 are "y", "x", "w" and "z" (in no doc), in first-seen order;
    # each id's postings ascend by doc.
    index, _ = coded_index([("d0", ["y", "x", "y"]), ("d1", ["x"]), ("d2", ["w"])],
                           [["z", "w"]])
    corpus = [["y", "x", "y"], ["x"], ["w"]]
    assert [(docs.tolist(), contribs.tolist()) for docs, contribs in index.postings] == [
        ([0], [bm25_score(["y"], corpus[0], corpus)]),
        ([0, 1], [bm25_score(["x"], corpus[0], corpus), bm25_score(["x"], corpus[1], corpus)]),
        ([2], [bm25_score(["w"], corpus[2], corpus)]),
        ([], []),
    ]


def test_postings_past_2_31_keys_rank_like_the_oracle():
    # 65,536 one-token documents over ids 39,999 and 40,000: the inverted
    # index's key token * n + doc reaches 40,000 * 65,536 > 2^31, which
    # the int32 ids would overflow.
    n, vocab_size = 1 << 16, 40_001
    holds = np.where(np.arange(n) % 3 == 0, 39_999, 40_000).astype(np.int32)
    docs = TokenIds(holds, np.arange(n + 1, dtype=np.int64))
    ids = [f"d{i:05d}" for i in range(n)]
    index = lexrank.build_bm25_index(ids, docs, vocab_size)
    assert index.postings[40_000][0].tolist() == np.flatnonzero(holds == 40_000).tolist()
    corpus = [[token] for token in holds.tolist()]
    for token in (39_999, 40_000):
        score = bm25_score([token], [token], corpus)
        expected = [(doc_id, score) for doc_id, held in zip(ids, holds.tolist())
                    if held == token][:10]
        assert bm25_topk(index, np.array([token], np.int32), 10) == expected


def test_bm25_join_scores_equal_the_oracle_exactly():
    # Repeated tokens on both sides, query tokens in no aux record, and an
    # empty record on each side: every score is the oracle's to the bit.
    aux = dataset_from_rows("a", "auxiliary", [
        ("a0", [("t", "red red shoe")]), ("a1", [("t", "shoe boot boot boot")]),
        ("a2", []), ("a3", [("t", "red")]), ("a4", [("t", "gtx nine red shoe boot")]),
    ])
    base = dataset_from_rows("b", "base", [
        ("b0", [("t", "red shoe red")]), ("b1", [("t", "boot zz boot qq")]), ("b2", []),
        ("b3", [("q", "zz")]), ("b4", [("t", "nine nine gtx red")]),
    ])
    result = baseline_join("BM25", base, aux, k=aux.n)
    corpus = [prepare_sentence(r).tokens for r in aux.records]
    for brec in base.records:
        query = prepare_sentence(brec).tokens
        scored = sorted((-bm25_score(query, tokens, corpus), arec.id)
                        for arec, tokens in zip(aux.records, corpus))
        assert [(m.aux_id, m.score) for m in for_base(result, brec.id)] == [
            (aid, -neg) for neg, aid in scored if -neg > 0.0]
    # b2 holds no token and b3 only tokens in no aux record.
    assert for_base(result, "b2") == for_base(result, "b3") == []
    assert len(matches(result)) > 2 * aux.n


# --- Jaccard ----------------------------------------------------------------


def test_jaccard_examples():
    assert jaccard({"a"}, {"a"}) == 1.0
    assert jaccard({"a"}, {"b"}) == 0.0
    assert jaccard({"a", "b", "c"}, {"b", "c", "d"}) == 0.5
    assert jaccard(set(), set()) == 0.0


@given(
    a=st.sets(st.integers(0, 20), max_size=10),
    b=st.sets(st.integers(0, 20), max_size=10),
)
def test_jaccard_symmetry_and_range(a, b):
    assert jaccard(a, b) == jaccard(b, a)
    assert 0.0 <= jaccard(a, b) <= 1.0
    if a:
        assert jaccard(a, a) == 1.0


# --- Levenshtein --------------------------------------------------------------


def test_levenshtein_examples():
    assert levenshtein("", "abc") == 3
    assert levenshtein("same", "same") == 0
    assert levenshtein("kitten", "sitting") == 3


def test_levenshtein_matches_oracle():
    rng = random.Random(11)
    alphabet = "abcde"
    for _ in range(300):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
        assert levenshtein(a, b) == oracle_levenshtein(a, b)


@given(
    a=st.text(alphabet="abc", max_size=8),
    b=st.text(alphabet="abc", max_size=8),
    c=st.text(alphabet="abc", max_size=8),
)
@settings(max_examples=150)
def test_levenshtein_metric_axioms(a, b, c):
    assert levenshtein(a, b) == levenshtein(b, a)
    assert (levenshtein(a, b) == 0) == (a == b)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


# --- lexical_join and key_join ----------------------------------------------


def _toy_datasets(rng, n_base=12, n_aux=15):
    vocab = ["red", "blue", "shoe", "boot", "gtx", "alpha", "nine"]
    base_rows, aux_rows = [], []
    for i in range(n_base):
        name = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 4)))
        base_rows.append((f"b{i}", [("name", name), ("note", rng.choice(vocab))]))
    for i in range(n_aux):
        name = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 4)))
        aux_rows.append((f"a{i}", [("name", name), ("note", rng.choice(vocab))]))
    base = dataset_from_rows("base", "base", base_rows)
    aux = dataset_from_rows("aux", "auxiliary", aux_rows)
    return base, aux


def test_ld_exact_key_match_ranks_first():
    base = dataset_from_rows("b", "base", [("b0", [("name", "alpha nine")])])
    aux = dataset_from_rows(
        "a", "auxiliary",
        [("a0", [("name", "zzzz qqqq")]), ("a1", [("name", "alpha nine")])],
    )
    result = baseline_join("LD", base, aux, key_column="name", k=2)
    top = for_base(result, "b0")[0]
    assert top.aux_id == "a1" and top.score == 0.0


def test_ld_threshold_keeps_below_30_edits():
    base = dataset_from_rows("b", "base", [("b0", [("name", "x" * 60)])])
    aux = dataset_from_rows("a", "auxiliary", [("a0", [("name", "y" * 60)])])
    result = baseline_join("LD", base, aux, key_column="name", k=5)
    assert for_base(result, "b0") == []


def test_ld_skips_the_dp_beyond_the_length_gap(monkeypatch):
    # levenshtein >= the length difference: a gap of 30 is still a match at
    # distance exactly 30, a gap of 31 is never computed.
    calls = []
    original = lexrank.levenshtein

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(lexrank, "levenshtein", counting)
    base = dataset_from_rows("b", "base", [("b0", [("name", "ab")])])
    aux = dataset_from_rows(
        "a", "auxiliary",
        [("a0", [("name", "ab" + "c" * 31)]), ("a1", [("name", "ab" + "c" * 30)])],
    )
    result = baseline_join("LD", base, aux, key_column="name", k=5)
    assert [(m.aux_id, m.rank, m.score) for m in for_base(result, "b0")] == [("a1", 1, 30.0)]
    assert calls == [("ab", "ab" + "c" * 30)]


def test_jaccard_join_threshold():
    base = dataset_from_rows("b", "base", [("b0", [("name", "red shoe")])])
    aux = dataset_from_rows(
        "a", "auxiliary",
        [("a0", [("name", "red shoe")]), ("a1", [("name", "zz qq ww vv")])],
    )
    result = baseline_join("J-WS", base, aux, k=5)
    ids = [m.aux_id for m in for_base(result, "b0")]
    assert "a0" in ids and "a1" not in ids


def test_missing_key_column_errors(tmp_path):
    # No key column names the first key baseline asked for; a column the
    # files lack names the first record without it.
    from emberish.data import DataError
    from emberish.lexrank import require_key_column
    from emberish.prepare import read_key_texts

    with pytest.raises(LexError, match="^baseline LD requires a key column$"):
        require_key_column(["BM25", "ld", "JK-WS"], None)
    require_key_column(["LD", "JK-2G"], "name")
    require_key_column(["BM25", "J-2G"], None)
    paths = [tmp_path / "b.csv", tmp_path / "a.csv"]
    paths[0].write_text("id,name\nb0,x\n", encoding="utf-8")
    paths[1].write_text("id,name\na0,y\n", encoding="utf-8")
    with pytest.raises(DataError, match="^key column 'nope' missing for record 'b0'$"):
        read_key_texts(paths, "nope")


@pytest.mark.parametrize("kind", ["LD", "J-WS", "J-2G", "JK-WS", "JK-2G", "BM25"])
def test_lexical_join_matches_exhaustive_oracle(kind):
    from emberish.prepare import tokenize

    rng = random.Random(5)
    base, aux = _toy_datasets(rng)
    k = 4
    result = baseline_join(kind, base, aux, key_column="name", k=k)

    corpus = [prepare_sentence(r).tokens for r in aux.records]

    for brec in base.records:
        scored = []
        for arec in aux.records:
            if kind == "LD":
                val = levenshtein(brec.value("name").lower(), arec.value("name").lower())
                if val <= 30:
                    scored.append((val, arec.id))
            elif kind == "BM25":
                val = bm25_score(prepare_sentence(brec).tokens,
                                 prepare_sentence(arec).tokens, corpus)
                if val > 0:
                    scored.append((-val, arec.id))
            else:
                mode = "whitespace" if kind.endswith("WS") else "char2gram"
                if kind.startswith("JK"):
                    sa = set(tokenize(brec.value("name"), mode))
                    sb = set(tokenize(arec.value("name"), mode))
                else:
                    sa = set(prepare_sentence(brec, tokenizer=mode).tokens)
                    sb = set(prepare_sentence(arec, tokenizer=mode).tokens)
                val = jaccard(sa, sb)
                if val >= 0.3:
                    scored.append((-val, arec.id))
        scored.sort()
        expected = [aid for _, aid in scored[:k]]
        got = [m.aux_id for m in for_base(result, brec.id)]
        assert got == expected, f"{kind} mismatch for {brec.id}"
        if kind != "LD":
            found = for_base(result, brec.id)
            assert [m.rank for m in found] == list(range(1, len(found) + 1))
            assert [m.score for m in found] == [-val for val, _ in scored[:k]]


@pytest.mark.parametrize("kind", ["BM25", "J-WS", "J-2G"])
def test_lexical_join_prepares_each_record_once(kind, tmp_path, monkeypatch):
    # join --baseline serializes and tokenizes each row once, as its file
    # streams past, and joins as the baseline of the loaded records does.
    from emberish import prepare
    from emberish.cli import cmd_join
    from emberish.data import write_dataset
    from emberish.joinspec import EngineConfig

    base, aux = _toy_datasets(random.Random(5))
    write_dataset(base, tmp_path / "base.csv")
    write_dataset(aux, tmp_path / "aux.csv")
    calls = Counter()
    for name in ("sentence_text", "tokenize"):
        def counting(*args, _name=name, _fn=getattr(prepare, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(prepare, name, counting)
    config = EngineConfig(data_dir=str(tmp_path))
    cmd_join(config, baseline=kind)
    monkeypatch.undo()
    assert calls == {"sentence_text": base.n + aux.n, "tokenize": base.n + aux.n}
    baseline_join(kind, base, aux, k=config.right_size).write_csv(tmp_path / "expected.csv")
    assert (tmp_path / "result.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def brute_jaccard_topk(queries, docs, ids, k, min_similarity=None):
    """Per query, its best ``(doc position, similarity)`` pairs."""
    out = []
    for query in queries:
        scored = sorted((-jaccard(query, doc), ids[i], i) for i, doc in enumerate(docs))
        out.append([(i, -neg) for neg, _, i in scored
                    if min_similarity is None or -neg >= min_similarity][:k])
    return out


def flat(per_query):
    """Per-query ``(doc position, score)`` lists as ``rank``'s ``(rows, cols,
    scores)``, each a list."""
    return [[row for row, best in enumerate(per_query) for _ in best],
            [col for best in per_query for col, _ in best],
            [score for best in per_query for _, score in best]]


def test_jaccard_topk_matches_brute_force_across_blocks(monkeypatch):
    # Two queries per block. Queries 1 and 2 (a block boundary) are the same
    # set and tie at the k-th place over duplicated docs listed against id
    # order; "zz" is in no doc; empty sets meet empty docs.
    monkeypatch.setattr(lexrank, "_LEX_CELLS", 2 * 7)
    docs = [{"a", "b"}, {"a", "c"}, set(), {"a", "b"}, {"c"}, {"a", "c"}, set()]
    ids = ["d6", "d5", "d4", "d3", "d2", "d1", "d0"]
    queries = [{"a"}, {"a", "zz"}, {"a", "zz"}, set(), {"zz"}, {"b", "c", "a"}]
    rank = id_ranks(ids)
    size, coded_queries, coded_docs = coded(queries, docs)
    for k in (1, 2, 3, 7, 9):
        for floor in (None, 0.0, 0.3, 0.5):
            got = [part.tolist() for part in
                   gather(jaccard_topk(iter(coded_queries), coded_docs, size, k, rank, floor))]
            assert got == flat(brute_jaccard_topk(queries, docs, ids, k, floor)), (k, floor)


def test_jaccard_topk_random_sets_across_blocks(monkeypatch):
    # Queries and docs are token lists that may repeat a token: each counts
    # as the set of its tokens.
    rng = random.Random(13)
    monkeypatch.setattr(lexrank, "_LEX_CELLS", 40)
    for trial in range(20):
        vocab = [f"t{i}" for i in range(rng.randrange(1, 8))]
        docs = [rng.choices(vocab, k=rng.randrange(len(vocab) + 2)) * rng.randrange(1, 3)
                for _ in range(rng.randrange(1, 15))]
        docs += [list(d) for d in rng.sample(docs, len(docs) // 2)]  # duplicates tie
        ids = [f"d{i}" for i in rng.sample(range(len(docs)), len(docs))]
        queries = [rng.choices(vocab + ["x", "y"], k=rng.randrange(len(vocab) + 4))
                   for _ in range(rng.randrange(1, 25))]
        size, coded_queries, coded_docs = coded(queries, docs)
        k = rng.randrange(1, len(docs) + 2)
        for floor in (None, 0.3):
            got = [part.tolist() for part in gather(
                jaccard_topk(coded_queries, coded_docs, size, k, id_ranks(ids), floor))]
            assert got == flat(brute_jaccard_topk(map(set, queries), list(map(set, docs)), ids,
                                                  k, floor))


@pytest.mark.parametrize("kind", ["J-WS", "J-2G", "JK-WS", "JK-2G"])
def test_jaccard_join_across_blocks_matches_brute_force(kind, monkeypatch):
    from emberish.prepare import tokenize

    # Blocks of three queries. Aux rows a1/a4 and a3/a0 are duplicates,
    # stored against id order, so ties at the k-th place break by id; b2
    # and b3 (a block boundary) share a key; "qq" and "zz" are in no aux
    # row; empty keys meet empty keys.
    names = {"a0": "red shoe", "a1": "blue boot", "a2": "", "a3": "red shoe",
             "a4": "blue boot", "a5": "r", "a6": "red boot gtx"}
    aux = dataset_from_rows("a", "auxiliary", [(aid, [("name", name), ("note", "x")])
                                               for aid, name in reversed(names.items())])
    monkeypatch.setattr(lexrank, "_LEX_CELLS", 3 * aux.n)
    keys = ["red shoe", "", "blue boot qq", "blue boot qq", "zz", "r", "red", "boot red",
            "shoe red gtx"]
    base = dataset_from_rows("b", "base", [(f"b{i}", [("name", key), ("note", "x")])
                                           for i, key in enumerate(keys)])
    mode = "whitespace" if kind.endswith("WS") else "char2gram"
    if kind.startswith("JK"):
        token_set = lambda r: set(tokenize(r.value("name"), mode))
    else:
        token_set = lambda r: set(prepare_sentence(r, tokenizer=mode).tokens)
    for k in (1, 2, 3):
        result = baseline_join(kind, base, aux, key_column="name", k=k)
        expected = brute_jaccard_topk([token_set(r) for r in base.records],
                                      [token_set(r) for r in aux.records], aux.ids(), k, 0.3)
        for brec, best in zip(base.records, expected):
            assert [(m.aux_id, m.rank, m.score) for m in for_base(result, brec.id)] == [
                (aux.ids()[i], rank, sim) for rank, (i, sim) in enumerate(best, start=1)
            ]
        assert len(matches(result)) == sum(map(len, expected))


def test_unknown_kind():
    base = dataset_from_rows("b", "base", [("b0", [("name", "x")])])
    with pytest.raises(LexError, match="unknown baseline kind"):
        baseline_join("SOUNDEX", base, base, k=1)


def test_each_join_runs_its_own_baselines():
    # lexical_join compares whole records from their token ids; key_join
    # compares one column's texts.
    from records import key_texts, token_ids

    base = dataset_from_rows("b", "base", [("b0", [("name", "x")])])
    features = token_ids([base, base])
    for kind in ("LD", "JK-WS", "jk_2g"):
        with pytest.raises(LexError, match="compares a key column"):
            lexical_join(kind, base.ids(), features, k=1)
    for kind in ("BM25", "J-WS", "j_2g"):
        with pytest.raises(LexError, match="compares whole records"):
            key_join(kind, base.ids(), key_texts([base, base], "name"), k=1)


# --- rank: one blocked pass for every lexical ranking ---------------------

# Docs stored against id order: a6/a3/a0 and a5/a2 are duplicates, so ties
# at the k-th place break by id; "x" and "y" are in no query, so a4 and a1
# score 0.0 for every query.
BM25_DOCS = [("a6", "a b"), ("a5", "a c c"), ("a4", "x"), ("a3", "a b"), ("a2", "a c c"),
             ("a1", "y y x"), ("a0", "b a")]
# With two queries per block, queries 1 and 2 straddle a block boundary;
# they repeat "a" and hold "zz", which is in no doc. Queries 3 and 4 score
# 0.0 against every doc.
BM25_QUERIES = ["a", "a a zz", "a a zz", "zz", "", "c a b c", "b"]


def brute_bm25(docs, queries, k, positive_only=False):
    """Per query, its best ``(doc position, bm25_score)`` pairs among the
    ``(doc id, tokens)`` pairs ``docs`` by a full sort: descending score,
    then ascending id."""
    corpus = [tokens for _, tokens in docs]
    out = []
    for query in queries:
        scored = sorted((-bm25_score(query, tokens, corpus), doc_id, i)
                        for i, (doc_id, tokens) in enumerate(docs))
        out.append([(i, -neg) for neg, _, i in scored if not positive_only or -neg > 0.0][:k])
    return out


def bm25_world():
    """``BM25_DOCS`` as the aux side and ``BM25_QUERIES`` as the base side,
    under different column names, so only the values ever match, and the
    aux side's ``(id, prepared tokens)`` documents."""
    aux = dataset_from_rows("a", "auxiliary", [(aid, [("t", text)]) for aid, text in BM25_DOCS])
    base = dataset_from_rows("b", "base", [(f"b{i}", [("q", text)])
                                           for i, text in enumerate(BM25_QUERIES)])
    return base, aux, [(r.id, prepare_sentence(r).tokens) for r in aux.records]


def test_bm25_rank_across_blocks_matches_per_query_oracle(monkeypatch):
    monkeypatch.setattr(lexrank, "_LEX_CELLS", 2 * len(BM25_DOCS))
    docs = [(doc_id, text.split()) for doc_id, text in BM25_DOCS]
    queries = [text.split() for text in BM25_QUERIES]
    index, coded_queries = coded_index(docs, queries)
    for query, coded_query in zip(queries, coded_queries):
        assert index.scores(coded_query).tolist() == [
            bm25_score(query, tokens, [t for _, t in docs]) for _, tokens in docs]
    positive = lambda scores: scores > 0.0
    for k in (1, 2, 3, 7, 9):
        for keep in (None, positive):
            got = gather(rank(iter(coded_queries), index.scores, index.n_docs, k,
                              index.id_rank, keep=keep))
            expected = brute_bm25(docs, queries, k, positive_only=keep is positive)
            assert [part.tolist() for part in got] == flat(expected), (k, keep)


def test_bm25_join_across_blocks_drops_zero_scores(monkeypatch):
    base, aux, docs = bm25_world()
    monkeypatch.setattr(lexrank, "_LEX_CELLS", 2 * aux.n)
    queries = [prepare_sentence(r).tokens for r in base.records]
    for k in (1, 2, 3, 9):
        result = baseline_join("BM25", base, aux, k=k)
        expected = brute_bm25(docs, queries, k, positive_only=True)
        assert not expected[3] and not expected[4]
        for brec, best in zip(base.records, expected):
            assert [(m.aux_id, m.rank, m.score) for m in for_base(result, brec.id)] == [
                (aux.ids()[i], rank, score) for rank, (i, score) in enumerate(best, start=1)
            ]
        assert len(matches(result)) == sum(map(len, expected))


def test_bm25_tiers_and_pretraining_across_blocks_keep_zero_scores(monkeypatch):
    base, aux, docs = bm25_world()
    monkeypatch.setattr(lexrank, "_LEX_CELLS", 2 * aux.n)
    queries = [prepare_sentence(r).tokens for r in base.records]
    pairs = [SupervisionPair(rec.id, "a0") for rec in reversed(base.records)]
    for tier_size in (1, 2, 3, 9):
        tiers = tiers_of(pairs, base, aux,
                         SamplerConfig(kind="stratified_bm25", tier_size=tier_size))
        expected = brute_bm25(docs, queries, tier_size)
        assert list(tiers) == [p.base_id for p in pairs]
        assert [tiers[rec.id] for rec in base.records] == [
            [aux.ids()[i] for i, _ in best] for best in expected
        ]
    # Every doc scores 0.0 for b3 and b4, so their positive is the lowest id.
    positives = [t.positive_id for t in pretraining_pairs(base, aux, seed=0)]
    assert positives == [aux.ids()[best[0][0]] for best in brute_bm25(docs, queries, 1)]
    assert positives[3] == positives[4] == "a0"


def test_one_bm25_ranking_serves_the_tiers_and_the_pretraining_pairs(monkeypatch):
    # Every base record's tier, ranked once, gives each anchor the tier it
    # ranks alone and each record the pretraining positive it ranks at k = 1.
    base, aux, _ = bm25_world()
    monkeypatch.setattr(lexrank, "_LEX_CELLS", 2 * aux.n)
    anchors = [record.id for record in reversed(base.records[1::2])]
    for tier_size in (1, 2, 3, 9):
        cfg = SamplerConfig(kind="stratified_bm25", tier_size=tier_size)
        pairs = [SupervisionPair(anchor, "a0") for anchor in anchors]
        ranked = tiers_of([SupervisionPair(rid, "a0") for rid in base.ids()], base, aux, cfg)
        assert {anchor: ranked[anchor] for anchor in anchors} == tiers_of(pairs, base, aux, cfg)
        assert (pretraining_pairs(base, aux, seed=3, per_record=2, tiers=ranked)
                == pretraining_pairs(base, aux, seed=3, per_record=2))


@pytest.mark.parametrize("caller", ["bm25_join", "stratified_bm25", "stratified_jaccard",
                                    "pretraining"])
def test_one_topk_per_block(caller, monkeypatch):
    # Seven queries in blocks of three: one topk per block, not per query.
    base, aux, _ = bm25_world()
    blocks = []

    def counting(scores, *args, **kwargs):
        blocks.append(scores.shape)
        return joiner.topk(scores, *args, **kwargs)

    monkeypatch.setattr(lexrank, "topk", counting)
    monkeypatch.setattr(lexrank, "_LEX_CELLS", 3 * aux.n)
    pairs = [SupervisionPair(rec.id, "a0") for rec in base.records]
    if caller == "bm25_join":
        baseline_join("BM25", base, aux, k=2)
    elif caller == "pretraining":
        pretraining_pairs(base, aux)
    else:
        tiers_of(pairs, base, aux, SamplerConfig(kind=caller))
    assert blocks == [(3, aux.n), (3, aux.n), (1, aux.n)]

"""Lexical kernels against independent oracles."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emberish.data import dataset_from_rows
from emberish.lexrank import (
    LexError,
    bm25_score,
    bm25_topk,
    build_bm25_index,
    jaccard,
    levenshtein,
    lexical_join,
)
from emberish.prepare import prepare_sentence


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
    index = build_bm25_index([("d1", ["x"]), ("d2", ["y"])])
    assert bm25_score(index, ["x"], "d1") == pytest.approx(math.log(2), abs=1e-12)


def test_bm25_absent_term_contributes_zero():
    index = build_bm25_index([("d1", ["x", "y"]), ("d2", ["y"])])
    base = bm25_score(index, ["x"], "d1")
    assert bm25_score(index, ["x", "zzz"], "d1") == base


def test_bm25_unknown_doc():
    index = build_bm25_index([("d1", ["x"]), ("d2", ["y"])])
    with pytest.raises(LexError, match="unknown doc"):
        bm25_score(index, ["x"], "nope")


def test_bm25_matches_oracle_on_toy_corpus():
    rng = random.Random(7)
    docs = random_corpus(rng, 5)
    index = build_bm25_index(docs)
    oracle = OracleBm25(docs)
    for _ in range(50):
        query = [f"t{rng.randrange(30)}" for _ in range(rng.randrange(1, 6))]
        for doc_id, _ in docs:
            assert bm25_score(index, query, doc_id) == pytest.approx(
                oracle.score(query, doc_id), abs=1e-9
            )


def test_bm25_monotone_in_term_frequency():
    # Increasing f(q, D) with all else fixed never decreases the term score.
    for f in range(1, 10):
        docs = [("d1", ["x"] * f + ["pad"] * (10 - f)), ("d2", ["pad"] * 10)]
        index = build_bm25_index(docs)
        score = bm25_score(index, ["x"], "d1")
        if f > 1:
            assert score >= prev  # noqa: F821
        prev = score  # noqa: F841


def test_bm25_topk_k_larger_than_corpus():
    index = build_bm25_index([("b", ["x"]), ("a", ["x"])])
    out = bm25_topk(index, ["x"], 10)
    assert len(out) == 2
    assert [doc_id for doc_id, _ in out] == ["a", "b"]  # tie broken by id


def test_bm25_topk_exclude_all():
    index = build_bm25_index([("a", ["x"]), ("b", ["y"])])
    assert bm25_topk(index, ["x"], 3, exclude={"a", "b"}) == []


def test_bm25_topk_ignores_unknown_excluded_ids():
    index = build_bm25_index([("a", ["x"]), ("b", ["x", "y"]), ("c", ["y"])])
    full = bm25_topk(index, ["x", "y"], 3)
    assert bm25_topk(index, ["x", "y"], 3, exclude=["nope"]) == full
    assert bm25_topk(index, ["x", "y"], 3, exclude=("nope", "b")) == [
        hit for hit in full if hit[0] != "b"
    ]


def test_bm25_topk_agrees_with_full_sort():
    rng = random.Random(3)
    for trial in range(20):
        docs = random_corpus(rng, rng.randrange(2, 20))
        index = build_bm25_index(docs)
        query = [f"t{rng.randrange(30)}" for _ in range(rng.randrange(1, 5))]
        expected = sorted(
            ((doc_id, bm25_score(index, query, doc_id)) for doc_id, _ in docs),
            key=lambda pair: (-pair[1], pair[0]),
        )
        for k in (1, 3, len(docs)):
            assert bm25_topk(index, query, k) == expected[:k]


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


# --- lexical_join -------------------------------------------------------------


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
    result = lexical_join("LD", base, aux, key_column="name", k=2)
    top = result.for_base("b0")[0]
    assert top.aux_id == "a1" and top.score == 0.0


def test_ld_threshold_keeps_below_30_edits():
    base = dataset_from_rows("b", "base", [("b0", [("name", "x" * 60)])])
    aux = dataset_from_rows("a", "auxiliary", [("a0", [("name", "y" * 60)])])
    result = lexical_join("LD", base, aux, key_column="name", k=5)
    assert result.for_base("b0") == []


def test_jaccard_join_threshold():
    base = dataset_from_rows("b", "base", [("b0", [("name", "red shoe")])])
    aux = dataset_from_rows(
        "a", "auxiliary",
        [("a0", [("name", "red shoe")]), ("a1", [("name", "zz qq ww vv")])],
    )
    result = lexical_join("J-WS", base, aux, k=5)
    ids = [m.aux_id for m in result.for_base("b0")]
    assert "a0" in ids and "a1" not in ids


def test_missing_key_column_errors():
    base = dataset_from_rows("b", "base", [("b0", [("name", "x")])])
    aux = dataset_from_rows("a", "auxiliary", [("a0", [("name", "y")])])
    with pytest.raises(LexError, match="key column"):
        lexical_join("LD", base, aux, key_column=None, k=1)
    with pytest.raises(LexError, match="key column"):
        lexical_join("JK-WS", base, aux, key_column="nope", k=1)


@pytest.mark.parametrize("kind", ["LD", "J-WS", "J-2G", "JK-WS", "JK-2G", "BM25"])
def test_lexical_join_matches_exhaustive_oracle(kind):
    from emberish.prepare import tokenize

    rng = random.Random(5)
    base, aux = _toy_datasets(rng)
    k = 4
    result = lexical_join(kind, base, aux, key_column="name", k=k)

    index = None
    if kind == "BM25":
        index = build_bm25_index([(r.id, prepare_sentence(r).tokens) for r in aux.records])

    for brec in base.records:
        scored = []
        for arec in aux.records:
            if kind == "LD":
                val = levenshtein(brec.value("name").lower(), arec.value("name").lower())
                if val <= 30:
                    scored.append((val, arec.id))
            elif kind == "BM25":
                val = bm25_score(index, prepare_sentence(brec).tokens, arec.id)
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
        got = [m.aux_id for m in result.for_base(brec.id)]
        assert got == expected, f"{kind} mismatch for {brec.id}"


def test_unknown_kind():
    base = dataset_from_rows("b", "base", [("b0", [("name", "x")])])
    with pytest.raises(LexError, match="unknown baseline kind"):
        lexical_join("SOUNDEX", base, base, k=1)

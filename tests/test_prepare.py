"""Sentence preparation and tokenizer behavior."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emberish.data import Record
from emberish.prepare import (TokenIds, code_tokens, prepare_sentence, read_key_texts,
                              read_token_ids, tokenize)
from emberish.supervise import PerturbationConfig, generate_fuzzy_join
from corpus import slot_grid_source
from records import token_ids


def test_two_field_record():
    rec = Record(id="1", fields=(("Title", "Dunkirk"), ("Year", "2017")))
    assert prepare_sentence(rec).text == "Title Dunkirk [SEP] Year 2017"


def test_single_field_no_separator():
    rec = Record(id="1", fields=(("k", "v"),))
    assert prepare_sentence(rec).text == "k v"


def test_empty_value_renders_key_alone():
    rec = Record(id="1", fields=(("k", ""),))
    assert prepare_sentence(rec).text == "k"


def test_empty_value_between_fields():
    rec = Record(id="1", fields=(("a", "1"), ("b", ""), ("c", "2")))
    assert prepare_sentence(rec).text == "a 1 [SEP] b [SEP] c 2"


def test_internal_whitespace_preserved_in_text():
    rec = Record(id="1", fields=(("k", "two  words"),))
    assert prepare_sentence(rec).text == "k two  words"


def test_determinism():
    rec = Record(id="1", fields=(("a", "x"), ("b", "y")))
    assert prepare_sentence(rec) == prepare_sentence(rec)


def test_whitespace_tokenizer():
    assert tokenize("A b") == ["a", "b"]
    assert tokenize("  A\t b\nc ") == ["a", "b", "c"]


def test_char2gram_tokenizer():
    assert tokenize("abc", "char2gram") == ["ab", "bc"]
    assert tokenize("a b c", "char2gram") == ["ab", "bc"]


def test_empty_inputs():
    assert tokenize("", "whitespace") == []
    assert tokenize("", "char2gram") == []
    assert tokenize("x", "char2gram") == []


def test_unknown_tokenizer():
    with pytest.raises(ValueError, match="unknown tokenizer"):
        tokenize("x", "wordpiece")


_field = st.tuples(
    st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True),
    st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=20),
)


@given(fields=st.lists(_field, max_size=6))
@settings(max_examples=150)
def test_schema_independence_and_token_totality(fields):
    # Preparation succeeds for any key set; tokens are never empty strings.
    rec = Record(id="r", fields=tuple(fields))
    sent = prepare_sentence(rec)
    assert all(tok for tok in sent.tokens)
    assert prepare_sentence(rec).text == sent.text
    for mode in ("whitespace", "char2gram"):
        assert all(tok for tok in tokenize(sent.text, mode))


class TestReadTokenIds:
    # A row's fields are every column but its id, an empty cell rendering
    # as its key alone; a file of ids alone holds records with no tokens.
    FILES = {"base.csv": "id,t,u\nx,Beta alpha,\ny,,alpha\n", "empty.csv": "id\ne\n",
             "aux.csv": "t,id\ngamma beta,z\n"}

    def paths(self, tmp_path):
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        return [tmp_path / name for name in self.FILES]

    def test_one_vocabulary_in_first_seen_order_across_files(self, tmp_path):
        ids, features = read_token_ids(self.paths(tmp_path), ["whitespace"])
        vocab, (base_ids, empty_ids, aux_ids) = features["whitespace"]
        assert ids == [("x", "y"), ("e",), ("z",)]
        assert vocab == ["t", "beta", "alpha", "[sep]", "u", "gamma"]
        assert [ids.tolist() for ids in base_ids] == [[0, 1, 2, 3, 4], [0, 3, 4, 2]]
        assert [ids.tolist() for ids in empty_ids] == [[]]
        assert [ids.tolist() for ids in aux_ids] == [[0, 5, 1]]

    def test_ids_spell_each_records_prepared_tokens(self, tmp_path):
        from emberish.data import load_dataset

        paths = self.paths(tmp_path)
        datasets = [load_dataset(path) for path in paths]
        for tokenizer in ("whitespace", "char2gram"):
            vocab, sides = read_token_ids(paths, [tokenizer])[1][tokenizer]
            assert len(vocab) == len(set(vocab))
            for dataset, side in zip(datasets, sides):
                assert len(side) == len(dataset.records)
                for rec, rec_ids in zip(dataset.records, side):
                    assert rec_ids.dtype == np.int32
                    assert [vocab[i] for i in rec_ids] == list(
                        prepare_sentence(rec, tokenizer=tokenizer).tokens)

    def test_an_empty_record_gives_an_empty_array(self, tmp_path):
        _, sides = read_token_ids(self.paths(tmp_path), ["whitespace"])[1]["whitespace"]
        empty_ids = sides[1]
        assert empty_ids[0].dtype == np.int32 and empty_ids[0].size == 0

    def test_char2gram(self, tmp_path):
        (tmp_path / "x.csv").write_text("id,ab\nx,ab\n", encoding="utf-8")
        (tmp_path / "y.csv").write_text("id,b\ny,\n", encoding="utf-8")
        vocab, sides = read_token_ids([tmp_path / "x.csv", tmp_path / "y.csv"],
                                      ["char2gram"])[1]["char2gram"]
        assert vocab == ["ab", "ba"]
        assert [[i.tolist() for i in ids] for ids in sides] == [[[0, 1, 0]], [[]]]

    def test_two_arrays_per_dataset(self, tmp_path):
        _, sides = read_token_ids(self.paths(tmp_path), ["whitespace"])[1]["whitespace"]
        for side in sides:
            assert isinstance(side, TokenIds)
            assert side.flat.dtype == np.int32 and side.offsets.dtype == np.int64
            assert len(side.offsets) == len(side) + 1
            for view in side:
                assert view.base is side.flat  # a view, not a copy


def test_code_tokens_of_grid_records_peaks_under_3_mb():
    # 12,000 grid-join records hold about 660,000 tokens, 6.4 MB as one
    # int64 array per record. The coder alone is traced: ``token_ids`` is
    # ``code_tokens`` of the records' prepared tokens.
    base, aux, _ = generate_fuzzy_join(slot_grid_source(2000),
                                       PerturbationConfig(copies_per_row=5, seed=7))
    assert base.n + aux.n == 12000
    tracemalloc.start()
    try:
        _, sides = token_ids([base, aux])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(side.flat.size for side in sides) > 600_000
    assert peak <= 3 * 2 ** 20


_tokens = st.lists(st.sampled_from(["a", "b", "cc", "d d", "é", ""]), max_size=8)


def _oracle_codes(groups):
    """Per group, each token list as an int64 array of first-seen ids."""
    vocab: dict[str, int] = {}
    for group in groups:
        for tokens in group:
            for token in tokens:
                vocab.setdefault(token, len(vocab))
    return list(vocab), [[np.fromiter((vocab[t] for t in tokens), np.int64, len(tokens))
                          for tokens in group] for group in groups]


def _check_views(side: TokenIds, expected: list[np.ndarray]) -> None:
    assert len(side) == len(expected)
    assert side.flat.dtype == np.int32 and side.offsets.dtype == np.int64
    for i, (view, want) in enumerate(zip(side, expected, strict=True)):
        assert view.dtype == np.int32 and view.tolist() == want.tolist()
        assert side[i].tolist() == side[i - len(side)].tolist() == want.tolist()
    for start in range(len(side) + 1):
        part = side[start : len(side) - 1]
        assert [view.tolist() for view in part] == [want.tolist()
                                                     for want in expected[start:-1]]
    with pytest.raises(IndexError):
        side[len(side)]


@given(groups=st.lists(st.lists(_tokens, max_size=6), max_size=3))
@settings(max_examples=150)
def test_code_tokens_views_equal_per_record_arrays(groups):
    vocab, sides = code_tokens(groups)
    want_vocab, expected = _oracle_codes(groups)
    assert vocab == want_vocab
    assert len(sides) == len(groups)
    for side, want in zip(sides, expected):
        _check_views(side, want)


# --- read_token_ids: the rows of dataset files, coded as they stream past ---

# Cells and column names with commas, quotes, line breaks, tabs and
# non-ASCII text; a cell may be empty or blank.
_cell = st.text(alphabet=st.sampled_from(list('ab Zé,"\n\t') + ["日"]), max_size=6)
_column = st.text(alphabet=st.sampled_from(list('kq é,"\n')), min_size=1, max_size=4)


@st.composite
def _tables(draw):
    """A dataset CSV's header and rows, with or without an id column (its
    ids unique), and the blank lines to put before each row."""
    header = draw(st.lists(_column, min_size=1, max_size=3, unique=True))
    n = draw(st.integers(0, 6))
    rows = [[draw(_cell) for _ in header] for _ in range(n)]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(header)))
        ids = draw(st.lists(st.text(alphabet='xy1é,"', max_size=3), min_size=n, max_size=n,
                            unique=True))
        header.insert(at, "id")
        rows = [[*row[:at], rid, *row[at:]] for row, rid in zip(rows, ids)]
    blanks = [draw(st.integers(0, 2)) for _ in range(n + 1)]
    return header, rows, blanks


def _render(header, rows, blanks=None):
    """The CSV text of ``header`` and ``rows`` (minimal quoting, "\\n" line
    ends) with ``blanks[i]`` blank lines before row i, and the physical
    line each row starts on."""
    import csv
    import io

    blanks = blanks or [0] * (len(rows) + 1)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    starts = []
    for row, blank in zip(rows, blanks):
        out.write("\n" * blank)
        starts.append(out.getvalue().count("\n") + 1)
        writer.writerow(row)
    out.write("\n" * blanks[-1])
    return out.getvalue(), starts


def _oracle_rows(header, rows):
    """Each row's (id, fields) as the CSV dataset format defines them."""
    at = header.index("id") if "id" in header else None
    return [(row[at] if at is not None else str(i),
             tuple((col, cell) for j, (col, cell) in enumerate(zip(header, row)) if j != at))
            for i, row in enumerate(rows)]


@given(table=_tables(), tokenizer=st.sampled_from(["whitespace", "char2gram"]))
@settings(max_examples=100, deadline=None)
def test_read_token_ids_views_equal_per_record_arrays(tmp_path_factory, table, tokenizer):
    # A file of no records, and records with no tokens, included.
    header, rows, blanks = table
    path = tmp_path_factory.mktemp("views") / "d.csv"
    path.write_text(_render(header, rows, blanks)[0], encoding="utf-8", newline="")
    vocab, (side,) = read_token_ids([path], [tokenizer])[1][tokenizer]
    want_vocab, (expected,) = _oracle_codes(
        [[prepare_sentence(Record(rec_id, fields), tokenizer=tokenizer).tokens
          for rec_id, fields in _oracle_rows(header, rows)]])
    assert vocab == want_vocab
    _check_views(side, expected)


def _same_features(got, want):
    (vocab, sides), (want_vocab, want_sides) = got, want
    assert vocab == want_vocab
    assert len(sides) == len(want_sides)
    for side, expected in zip(sides, want_sides):
        assert side.flat.dtype == np.int32 and side.offsets.dtype == np.int64
        assert side.flat.tolist() == expected.flat.tolist()
        assert side.offsets.tolist() == expected.offsets.tolist()


@given(tables=st.lists(_tables(), min_size=1, max_size=2),
       tokenizers=st.sampled_from([["whitespace"], ["char2gram"], ["char2gram", "whitespace"],
                                   ["whitespace", "char2gram"]]))
@settings(max_examples=150, deadline=None)
def test_read_token_ids_equals_token_ids_of_the_loaded_datasets(tmp_path_factory, tables,
                                                                 tokenizers):
    from emberish.data import load_dataset

    root = tmp_path_factory.mktemp("tables")
    paths = []
    for i, (header, rows, blanks) in enumerate(tables):
        paths.append(root / f"d{i}.csv")
        paths[-1].write_text(_render(header, rows, blanks)[0], encoding="utf-8", newline="")
    datasets = [load_dataset(path) for path in paths]
    for dataset, (header, rows, _) in zip(datasets, tables):
        assert [(rec.id, rec.fields) for rec in dataset.records] == _oracle_rows(header, rows)

    ids, features = read_token_ids(paths, tokenizers)
    assert ids == [dataset.ids() for dataset in datasets]
    assert list(features) == tokenizers
    for tokenizer in tokenizers:
        _same_features(features[tokenizer], token_ids(datasets, tokenizer))
        # One tokenizer's ids do not depend on the others coded beside it.
        _same_features(read_token_ids(paths, [tokenizer])[1][tokenizer], features[tokenizer])


@given(table=_tables(), fault=st.sampled_from(["empty", "blank", "empty-column",
                                               "cell-count", "duplicate",
                                               "duplicate-then-cell-count"]),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_read_token_ids_raises_the_errors_of_load_dataset(tmp_path_factory, table, fault,
                                                          data):
    # Each fault raises the DataError text that load_dataset always raised
    # for it, from both readers; a malformed row is reported before a
    # duplicate id, even one earlier in the file.
    from emberish.data import DataError, load_dataset

    header, rows, _ = table
    path = tmp_path_factory.mktemp("faulty") / "d.csv"
    if fault.startswith("duplicate"):
        if "id" not in header:
            header = ["id", *header]
            rows = [[f"r{i}", *row] for i, row in enumerate(rows)]
        rows = rows or [["r0"] * len(header)]
        rows.append(list(rows[0]))  # a later row repeats the first row's id
        expected = f"duplicate id {rows[0][header.index('id')]}"
    if fault.endswith("cell-count"):
        width = len(header)
        got = data.draw(st.integers(1, width + 2).filter(lambda n: n != width))
        pos = len(rows) if fault.startswith("duplicate") else data.draw(st.integers(0, len(rows)))
        rows.insert(pos, ["c"] * got)
        line = _render(header, rows)[1][pos]
        expected = f"{path}: malformed row at line {line}: expected {width} cells, got {got}"
    if fault == "empty-column":
        header = [*header, ""]
        expected = f"{path}: header has an empty column name"
    text = _render(header, rows)[0]
    if fault in ("empty", "blank"):
        text = "" if fault == "empty" else "\n\n"
        expected = f"{path}: empty file, expected a header row"
    path.write_text(text, encoding="utf-8", newline="")
    for read in (load_dataset, lambda p: read_token_ids([p], ["whitespace", "char2gram"])):
        with pytest.raises(DataError) as raised:
            read(path)
        assert str(raised.value) == expected


# --- read_key_texts: one column's cells, read as the rows stream past ------

# Key cells with commas, quotes, line breaks, a "\r" and non-ASCII text;
# column names may repeat.
_key_cell = st.text(alphabet=st.sampled_from(list('ab Zé,"\n\r') + ["日"]), max_size=6)


@given(header=st.lists(st.sampled_from(["k", "q", 'é,"']), min_size=1, max_size=4),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_read_key_texts_equals_the_loaded_records_values(tmp_path_factory, header, data):
    from emberish.data import DataError, load_dataset, write_table

    n = data.draw(st.integers(0, 5))
    rows = [[data.draw(_key_cell) for _ in header] for _ in range(n)]
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(header)))
        ids = data.draw(st.lists(st.text(alphabet='xy1é,"\r', max_size=3), min_size=n,
                                 max_size=n, unique=True))
        header = [*header[:at], "id", *header[at:]]
        rows = [[*row[:at], rid, *row[at:]] for row, rid in zip(rows, ids)]
    root = tmp_path_factory.mktemp("keys")
    paths = [root / "base.csv", root / "aux.csv"]
    write_table(paths[0], header, rows)
    write_table(paths[1], header, rows[::-1])
    datasets = [load_dataset(path) for path in paths]
    column = data.draw(st.sampled_from(sorted({"id", *header})))
    if column == "id" and n:
        # The id column is no field, so no record has it as its key.
        first = datasets[0].records[0].id
        with pytest.raises(DataError) as raised:
            read_key_texts(paths, column)
        assert str(raised.value) == f"key column 'id' missing for record {first!r}"
        return
    ids, keys = read_key_texts(paths, column)
    assert ids == [dataset.ids() for dataset in datasets]
    assert keys == [[rec.value(column) for rec in dataset.records] for dataset in datasets]


class TestReadKeyTexts:
    @staticmethod
    def read(tmp_path, key_column, *texts):
        paths = []
        for i, text in enumerate(texts):
            paths.append(tmp_path / f"d{i}.csv")
            paths[-1].write_text(text, encoding="utf-8")
        return read_key_texts(paths, key_column)

    def test_the_first_of_a_duplicated_column_wins(self, tmp_path):
        assert self.read(tmp_path, "k", "id,k,q,k\nr,a,b,c\n") == ([("r",)], [["a"]])

    def test_without_an_id_column_ids_are_ordinals(self, tmp_path):
        assert self.read(tmp_path, "k", "k\nx\ny\n") == ([("0", "1")], [["x", "y"]])

    def test_a_header_only_file_gives_empty_lists(self, tmp_path):
        assert self.read(tmp_path, "k", "id,k\n", "id,q\n") == ([(), ()], [[], []])

    @pytest.mark.parametrize("texts, missing", [
        (("id,q\nb0,x\n", "id,k\na0,y\n"), "b0"),
        (("id,k\nb0,x\n", "id,q\na0,y\n"), "a0"),
    ])
    def test_the_first_record_without_the_column_is_named(self, tmp_path, texts, missing):
        from emberish.data import DataError

        with pytest.raises(DataError) as raised:
            self.read(tmp_path, "k", *texts)
        assert str(raised.value) == f"key column 'k' missing for record {missing!r}"

    def test_the_id_column_is_no_key_column(self, tmp_path):
        from emberish.data import DataError

        with pytest.raises(DataError) as raised:
            self.read(tmp_path, "id", "id,k\nb0,x\n")
        assert str(raised.value) == "key column 'id' missing for record 'b0'"

    def test_the_files_errors_come_first(self, tmp_path):
        # A malformed aux row is reported before the base's missing column,
        # as loading both datasets first reported it.
        from emberish.data import DataError

        with pytest.raises(DataError, match="malformed row at line 2"):
            self.read(tmp_path, "k", "id,q\nb0,x\n", "id,k\na0,y,z\n")

"""Ingestion, supervision loading, and round-trip invariants."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emberish.data import (
    DataError,
    Dataset,
    DatasetRole,
    PairPositions,
    Record,
    SupervisionPair,
    SupervisionTriple,
    load_dataset,
    load_supervision,
    write_dataset,
    write_pairs,
)
from records import dataset_from_rows
from test_joiner import full_disk, record_ids


def test_load_csv_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,t\n1,a\n2,b\n")
    ds = load_dataset(path)
    assert ds.n == 2
    assert ds.records[0].id == "1" and ds.records[0].value("t") == "a"
    assert ds.records[1].id == "2" and ds.records[1].value("t") == "b"
    assert ds.column_names == ("id", "t")


def test_load_csv_header_only(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,t\n")
    ds = load_dataset(path)
    assert ds.n == 0


def test_load_csv_duplicate_id(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,t\n1,a\n1,b\n")
    with pytest.raises(DataError, match="duplicate id 1"):
        load_dataset(path)


def test_load_csv_without_id_column_uses_ordinals(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,u\na,b\nc,d\n")
    ds = load_dataset(path)
    assert [r.id for r in ds.records] == ["0", "1"]
    assert ds.records[0].fields == (("t", "a"), ("u", "b"))


@pytest.mark.parametrize("text, line", [
    ("id,t\n1,a\n2\n", 3),
    # A quoted cell spanning two lines counts both.
    ('id,t\n1,"a\nb"\n2\n', 4),
], ids=["one-line-rows", "two-line-cell-before"])
def test_load_csv_malformed_row_names_line(tmp_path, text, line):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"malformed row at line {line}:"):
        load_dataset(path)


def test_load_jsonl(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": 1, "title": "x", "year": 2017}\n{"id": 2, "title": "y"}\n')
    ds = load_dataset(path)
    assert ds.n == 2
    assert ds.records[0].id == "1"
    assert ds.records[0].value("year") == "2017"


def test_load_jsonl_rejects_nested(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": 1, "x": {"nested": true}}\n')
    with pytest.raises(DataError, match="line 1"):
        load_dataset(path)


def test_field_order_preserved(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("b,a,id\n1,2,x\n")
    ds = load_dataset(path)
    assert ds.records[0].keys == ("b", "a")


def test_csv_round_trip_lossless(tmp_path):
    original = tmp_path / "d.csv"
    original.write_text('id,t,u\n1,"a,b",c\n2,,d\n')
    ds = load_dataset(original)
    copy = tmp_path / "copy.csv"
    write_dataset(ds, copy)
    ds2 = load_dataset(copy)
    assert [r.id for r in ds2.records] == [r.id for r in ds.records]
    assert [r.fields for r in ds2.records] == [r.fields for r in ds.records]


values = st.one_of(st.just(""), record_ids)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), columns=st.lists(record_ids.filter(lambda c: c != "id"), min_size=1,
                                        max_size=3, unique=True),
       ids=st.lists(record_ids, max_size=6, unique=True), with_id=st.booleans())
def test_csv_round_trip_keeps_ids_and_fields(tmp_path, data, columns, ids, with_id):
    # Cells holding ",", '"', "\r", "\n", spaces or non-ASCII text, with and
    # without an id column among the declared ones.
    declared = list(columns)
    if with_id:
        declared.insert(data.draw(st.integers(0, len(columns))), "id")
    rows = [(rid, [(col, data.draw(values)) for col in columns]) for rid in ids]
    ds = dataset_from_rows("d", "base", rows, column_names=declared)
    write_dataset(ds, tmp_path / "d.csv")
    loaded = load_dataset(tmp_path / "d.csv")
    assert [(r.id, r.fields) for r in loaded.records] == [(r.id, r.fields) for r in ds.records]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairs=st.lists(st.builds(SupervisionPair, record_ids, record_ids), max_size=8))
def test_pairs_round_trip(tmp_path, pairs):
    write_pairs(pairs, tmp_path / "s.csv")
    assert load_supervision(tmp_path / "s.csv") == pairs


def test_a_failed_dataset_write_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "base.csv"
    write_dataset(dataset_from_rows("b", "base", [("0", [("t", "old")])]), path)
    old = path.read_bytes()
    # Room for the header and the first row of five.
    full_disk(monkeypatch, len("id,t\n") + len("0,new\n"))
    new = dataset_from_rows("b", "base", [(str(i), [("t", "new")]) for i in range(5)])
    with pytest.raises(OSError, match="No space"):
        write_dataset(new, path)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["base.csv"]


def test_jsonl_round_trip_preserves_keys_values_order(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": "a", "y": "1", "x": "2"}\n')
    ds = load_dataset(path)
    out = tmp_path / "out.jsonl"
    write_dataset(ds, out)
    ds2 = load_dataset(out)
    assert ds2.records[0].fields == ds.records[0].fields


def test_role_is_metadata_only(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,t\n1,a\n")
    as_base = load_dataset(path, role=DatasetRole.BASE)
    as_aux = load_dataset(path, role=DatasetRole.AUXILIARY)
    assert as_base.records == as_aux.records


def test_empty_field_key_rejected():
    with pytest.raises(DataError):
        Record(id="1", fields=(("", "v"),))


def test_keys_outside_declared_columns_rejected():
    with pytest.raises(DataError, match="outside declared columns"):
        Dataset(
            name="d",
            role=DatasetRole.BASE,
            records=(Record(id="1", fields=(("zzz", "v"),)),),
            column_names=("id", "t"),
        )


class TestSupervision:
    def test_pairs(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("base_id,aux_id\n1,9\n")
        out = load_supervision(path)
        assert out == [SupervisionPair(base_id="1", aux_id="9")]

    def test_triples(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("anchor_id,positive_id,negative_id\na,p,n\n")
        out = load_supervision(path)
        assert out == [SupervisionTriple(anchor_id="a", positive_id="p", negative_id="n")]

    @pytest.mark.parametrize("text, line", [
        ("base_id,aux_id\n1,9\n1,404\n", 3),
        ("base_id,aux_id\n1,9\n\n\n1,404\n", 5),
    ], ids=["no-blank-lines", "blank-lines-before"])
    def test_unresolvable_id_lists_rows(self, tmp_path, text, line):
        base = dataset_from_rows("b", "base", [("1", [("t", "x")])])
        aux = dataset_from_rows("a", "auxiliary", [("9", [("t", "y")])])
        path = tmp_path / "s.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"unresolvable ids: line {line}: aux id '404'$"):
            load_supervision(path, base.ids(), aux.ids())

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n_base=st.integers(1, 6), n_aux=st.integers(1, 6))
    def test_pairs_against_both_sides_ids_are_positions(self, tmp_path, data, n_base, n_aux):
        # Ids CSV must quote; pairs repeat. The positions read as the list of
        # pairs that the file gives without ids to resolve.
        base_ids = data.draw(st.lists(record_ids, min_size=n_base, max_size=n_base, unique=True))
        aux_ids = data.draw(st.lists(record_ids, min_size=n_aux, max_size=n_aux, unique=True))
        pairs = data.draw(st.lists(st.builds(SupervisionPair, st.sampled_from(base_ids),
                                             st.sampled_from(aux_ids)), min_size=1))
        path = tmp_path / "s.csv"
        write_pairs(pairs, path)
        out = load_supervision(path, tuple(base_ids), tuple(aux_ids))
        assert isinstance(out, PairPositions) and out.base.itemsize == out.aux.itemsize == 4
        assert list(out) == load_supervision(path) == pairs
        assert [out[i] for i in range(len(out))] == pairs

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 400), fraction=st.floats(0.0, 1.0, exclude_min=True),
           seed=st.integers(0, 2**63))
    def test_drawing_positions_draws_the_pairs_the_list_sample_draws(self, n, fraction, seed):
        # fit_encoder draws supervision_fraction of the pairs as positions,
        # and builds only the pairs drawn; the draw must be the list's.
        pairs = [SupervisionPair(f"b{i}", f"a{i % 7}") for i in range(n)]
        keep = max(1, round(fraction * n))
        drawn = random.Random(seed).sample(range(n), keep)
        assert [pairs[at] for at in drawn] == random.Random(seed).sample(pairs, keep)

    def test_triple_rejects_equal_positive_negative(self):
        with pytest.raises(DataError):
            SupervisionTriple(anchor_id="a", positive_id="p", negative_id="p")

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(DataError, match="2 columns"):
            load_supervision(path)

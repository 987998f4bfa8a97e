"""Record and dataset types, CSV/JSONL ingestion, and the CSV table layer:
every CSV file the engine reads goes through ``read_table``, and every one
it writes through ``table_writer``, or ``table_field`` for a writer that
renders each distinct cell once.

A dataset CSV has one parser, ``dataset_table``, which yields each row as
an id and its (key, value) fields while ``read_table`` streams the file.
``load_dataset`` builds a ``Record`` per row from it for ``generate``,
the one command that edits records. Every other command holds no row:
``prepare.read_token_ids`` codes each row's tokens from it,
``prepare.read_key_texts`` keeps each row's key cell, and
``join --dump-sentences`` writes each row's sentence as it streams past.

Datasets are immutable after load; readers may share them freely across
threads. All field values are stored as strings (numeric cells keep their
decimal rendering), which is what the sentence preparer consumes.
"""

from __future__ import annotations

import csv
import json
import os
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence, TextIO


class DataError(ValueError):
    """Malformed input file or violated dataset invariant."""


class DatasetRole(str, Enum):
    BASE = "base"
    AUXILIARY = "auxiliary"


# A row's (key, value) pairs, in file order.
Fields = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Record:
    """One row: a stable string id plus ordered (key, value) fields."""

    id: str
    fields: Fields

    def __post_init__(self) -> None:
        for key, _ in self.fields:
            if not key:
                raise DataError(f"record {self.id!r} has an empty field key")

    def value(self, key: str) -> str | None:
        for k, v in self.fields:
            if k == key:
                return v
        return None

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.fields)


@dataclass(frozen=True)
class Dataset:
    name: str
    role: DatasetRole
    records: tuple[Record, ...]
    column_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for rec in self.records:
            if rec.id in seen:
                raise DataError(f"duplicate id {rec.id}")
            seen.add(rec.id)
            if self.column_names is not None:
                extra = [k for k in rec.keys if k not in self.column_names]
                if extra:
                    raise DataError(
                        f"record {rec.id!r} has keys {extra} outside declared columns"
                    )

    @property
    def n(self) -> int:
        return len(self.records)

    def ids(self) -> tuple[str, ...]:
        return tuple(rec.id for rec in self.records)


@dataclass(frozen=True)
class SupervisionPair:
    """A labeled related pair: one base record, one auxiliary record."""

    base_id: str
    aux_id: str


@dataclass(frozen=True, eq=False)
class PairPositions(Sequence[SupervisionPair]):
    """Supervision pairs as positions into the base and aux datasets' ids:
    pair i relates ``base_ids[base[i]]`` to ``aux_ids[aux[i]]``. Its
    ``SupervisionPair`` is built when it is read (by an int index)."""

    base_ids: Sequence[str]
    aux_ids: Sequence[str]
    base: array  # int32
    aux: array  # int32

    def __len__(self) -> int:
        return len(self.base)

    def __getitem__(self, i: int) -> SupervisionPair:  # type: ignore[override]
        return SupervisionPair(self.base_ids[self.base[i]], self.aux_ids[self.aux[i]])


@dataclass(frozen=True)
class SupervisionTriple:
    """An anchor with one related and one unrelated auxiliary record."""

    anchor_id: str
    positive_id: str
    negative_id: str

    def __post_init__(self) -> None:
        if self.positive_id == self.negative_id:
            raise DataError(
                f"triple for anchor {self.anchor_id!r} repeats id {self.positive_id!r} "
                "as both positive and negative"
            )


@contextmanager
def atomic_write(path: str | Path, mode: str = "wb", **kwargs) -> Iterator[IO]:
    """Open a temporary file beside ``path`` (``.<name>.partial``) and
    replace ``path`` with it once the block completes: a write that fails
    leaves ``path`` as it was, never truncated, and no temporary file."""
    path = Path(path)
    partial = path.with_name(f".{path.name}.partial")
    try:
        with partial.open(mode, **kwargs) as fh:
            yield fh
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def read_table(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows of a CSV file, header first, each with the
    physical line it starts on (a quoted cell may span lines)."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        start = 1
        for row in reader:
            if row:
                yield start, row
            start = reader.line_num + 1


def quotes_all(cells: Iterable[object]) -> bool:
    """Whether a table holding ``cells`` (every cell the file will hold)
    quotes every field. Minimal quoting leaves a bare "\\r" unquoted, which
    a reader takes for a line end, so one cell holding it quotes them all."""
    return any("\r" in str(cell) for cell in cells)


def table_writer(fh: TextIO, cells: Iterable[object]):
    """A CSV writer onto ``fh`` with "\\n" line ends and minimal quoting, or
    every field quoted when ``quotes_all(cells)``."""
    return csv.writer(fh, lineterminator="\n",
                      quoting=csv.QUOTE_ALL if quotes_all(cells) else csv.QUOTE_MINIMAL)


def table_field(text: str, quote_all: bool) -> str:
    """``text`` as a field of a ``table_writer`` row with more than one
    field: quoted, its quotes doubled, under ``quote_all`` or when it holds
    a ",", a '"' or a "\\n"."""
    if quote_all or "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_table(path: str | Path, header: Sequence[object],
                rows: Iterable[Sequence[object]]) -> None:
    """Write a CSV table through ``atomic_write``."""
    table = [header, *rows]
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        table_writer(fh, chain.from_iterable(table)).writerows(table)


def _render_scalar(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def dataset_table(path: str | Path) -> tuple[tuple[str, ...], Iterator[tuple[str, Fields]]]:
    """A dataset CSV's header, and its rows as ``(id, fields)`` as
    ``read_table`` streams them: the one CSV dataset parser, which
    ``load_dataset`` and ``prepare.read_token_ids`` share.

    Ids come from an ``id`` column when present, otherwise the 0-based row
    ordinal rendered as a decimal string; a row's fields are its other
    cells under their column names, in file order. The header is checked
    here, each row as it is reached, and the ids once the last row is out,
    so a duplicate id is reported after every malformed row, as a Dataset
    built from all of them would report it.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    rows = read_table(path)
    _, header = next(rows, (1, None))
    if header is None:
        raise DataError(f"{path}: empty file, expected a header row")
    if any(not col for col in header):
        raise DataError(f"{path}: header has an empty column name")
    return tuple(header), _dataset_rows(path, header, rows)


def _dataset_rows(path: Path, header: list[str],
                  rows: Iterator[tuple[int, list[str]]]) -> Iterator[tuple[str, Fields]]:
    id_pos = header.index("id") if "id" in header else None
    keys = [(pos, col) for pos, col in enumerate(header) if pos != id_pos]
    seen: set[str] = set()
    duplicate = None
    for ordinal, (line_no, row) in enumerate(rows):
        if len(row) != len(header):
            raise DataError(
                f"{path}: malformed row at line {line_no}: expected "
                f"{len(header)} cells, got {len(row)}"
            )
        if id_pos is None:
            rec_id = str(ordinal)
        else:
            rec_id = row[id_pos]
            if rec_id in seen and duplicate is None:
                duplicate = rec_id
            seen.add(rec_id)
        yield rec_id, tuple((col, row[pos]) for pos, col in keys)
    if duplicate is not None:
        raise DataError(f"duplicate id {duplicate}")


def load_dataset(
    path: str | Path,
    *,
    name: str | None = None,
    role: DatasetRole | str = DatasetRole.BASE,
) -> Dataset:
    """Load a CSV (header required, read by ``dataset_table``) or, by its
    ``.jsonl`` suffix, a JSONL file into a Dataset of ``Record``s.

    Ids come from an ``id`` key or column when present, otherwise the
    0-based row ordinal rendered as a decimal string. Field order follows
    the file.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    role = DatasetRole(role)
    name = name if name is not None else path.stem

    records: list[Record] = []
    if path.suffix.lower() != ".jsonl":
        header, rows = dataset_table(path)
        records = [Record(id=rec_id, fields=fields) for rec_id, fields in rows]
        columns: tuple[str, ...] | None = header
    else:
        with path.open(encoding="utf-8") as fh:
            column_seen: list[str] = []
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path}: malformed row at line {line_no}: {exc}") from None
                if not isinstance(obj, dict):
                    raise DataError(
                        f"{path}: malformed row at line {line_no}: expected an object"
                    )
                for key, value in obj.items():
                    if isinstance(value, (dict, list)):
                        raise DataError(
                            f"{path}: malformed row at line {line_no}: "
                            f"key {key!r} is not a scalar"
                        )
                    if key not in column_seen:
                        column_seen.append(key)
                rec_id = _render_scalar(obj["id"]) if "id" in obj else str(len(records))
                fields = tuple(
                    (k, _render_scalar(v)) for k, v in obj.items() if k != "id"
                )
                records.append(Record(id=rec_id, fields=fields))
        columns = tuple(column_seen) if column_seen else None

    return Dataset(name=name, role=role, records=tuple(records), column_names=columns)


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Serialize a Dataset through ``atomic_write``, preserving ids, field
    keys, values and order: JSONL for a ``.jsonl`` path, else CSV with an
    ``id`` column, placed first when ``column_names`` lacks one."""
    path = Path(path)
    if path.suffix.lower() == ".jsonl":
        with atomic_write(path, "w", encoding="utf-8") as fh:
            for rec in dataset.records:
                obj: dict[str, str] = {"id": rec.id}
                obj.update({k: v for k, v in rec.fields})
                fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
        return
    columns = dataset.column_names
    if columns is None:
        columns = dict.fromkeys(["id", *chain.from_iterable(r.keys for r in dataset.records)])
    header = list(columns) if "id" in columns else ["id", *columns]
    write_table(path, header, (
        [rec.id if col == "id" and rec.value("id") is None else rec.value(col) or ""
         for col in header]
        for rec in dataset.records))


def load_supervision(
    path: str | Path,
    base_ids: Sequence[str] | None = None,
    aux_ids: Sequence[str] | None = None,
) -> Sequence[SupervisionPair] | list[SupervisionTriple]:
    """Load supervision CSV; two columns give pairs, three give triples.

    When the base and aux datasets' ids are supplied every referenced id
    must resolve; all offending rows are reported together. Pairs read
    against both sides' ids come as ``PairPositions``, resolved as the
    rows stream past; otherwise as a list.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"supervision file not found: {path}")
    rows = read_table(path)
    _, header = next(rows, (1, None))
    if header is None:
        raise DataError(f"{path}: empty file, expected a header row")
    width = len(header)
    if width not in (2, 3):
        raise DataError(
            f"{path}: expected 2 columns (pairs) or 3 columns (triples), got {width}"
        )

    def checked() -> Iterator[tuple[int, list[str]]]:
        for line_no, row in rows:
            if len(row) != width:
                raise DataError(
                    f"{path}: malformed row at line {line_no}: expected {width} cells"
                )
            yield line_no, row

    if width == 2 and base_ids is not None and aux_ids is not None:
        return _pair_positions(path, checked(), base_ids, aux_ids)
    lines: list[int] = []
    cells: list[list[str]] = []
    for line_no, row in checked():
        lines.append(line_no)
        cells.append(row)

    base_ids, aux_ids = (set(ids) if ids is not None else None for ids in (base_ids, aux_ids))
    if width == 2:
        out: list = [SupervisionPair(*row) for row in cells]
        roles = (("base", base_ids), ("aux", aux_ids))
    else:
        out = [SupervisionTriple(*row) for row in cells]
        roles = (("anchor", base_ids), ("positive", aux_ids), ("negative", aux_ids))
    bad = [f"line {line_no}: {role} id {rid!r}"
           for line_no, row in zip(lines, cells)
           for (role, known), rid in zip(roles, row)
           if known is not None and rid not in known]
    if bad:
        raise DataError(f"{path}: unresolvable ids: " + "; ".join(bad))
    return out


def _pair_positions(path: Path, rows: Iterable[tuple[int, list[str]]], base_ids: Sequence[str],
                    aux_ids: Sequence[str]) -> PairPositions:
    """The pairs of supervision ``rows`` as ``PairPositions``, each id
    resolved to its position as the rows stream past; every unresolvable
    id is reported together, as ``load_supervision`` does."""
    sides = [("base", {rid: at for at, rid in enumerate(base_ids)}, array("i")),
             ("aux", {rid: at for at, rid in enumerate(aux_ids)}, array("i"))]
    bad = []
    for line_no, row in rows:
        for (role, position, column), rid in zip(sides, row):
            at = position.get(rid)
            if at is None:
                bad.append(f"line {line_no}: {role} id {rid!r}")
            else:
                column.append(at)
    if bad:
        raise DataError(f"{path}: unresolvable ids: " + "; ".join(bad))
    return PairPositions(base_ids, aux_ids, sides[0][2], sides[1][2])


def write_pairs(pairs: Iterable[SupervisionPair], path: str | Path) -> None:
    write_table(path, ["base_id", "aux_id"], ((p.base_id, p.aux_id) for p in pairs))


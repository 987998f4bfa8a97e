"""In-memory datasets and record lookups for the tests.

The engine reads datasets from files and never looks a record up by id;
the tests build small datasets from rows and look records up to check
what the engine did with them.
"""

from typing import Sequence

from emberish.data import DataError, Dataset, DatasetRole, Record


def dataset_from_rows(
    name: str,
    role: DatasetRole | str,
    rows: Sequence[tuple[str, Sequence[tuple[str, str]]]],
    column_names: Sequence[str] | None = None,
) -> Dataset:
    """Build a Dataset in memory; rows are (id, [(key, value), ...])."""
    records = tuple(Record(id=rid, fields=tuple(fields)) for rid, fields in rows)
    return Dataset(
        name=name,
        role=DatasetRole(role),
        records=records,
        column_names=tuple(column_names) if column_names is not None else None,
    )


def by_id(dataset: Dataset) -> dict[str, Record]:
    """Each record of ``dataset`` under its id."""
    return {rec.id: rec for rec in dataset.records}


def record(dataset: Dataset, record_id: str) -> Record:
    """The record of ``dataset`` with id ``record_id``."""
    for rec in dataset.records:
        if rec.id == record_id:
            return rec
    raise DataError(f"no record with id {record_id!r} in dataset {dataset.name!r}")

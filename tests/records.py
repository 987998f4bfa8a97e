"""In-memory datasets and record lookups for the tests, and the engine's
featurizing functions applied to them.

The engine reads datasets from files and never looks a record up by id;
the tests build small datasets from rows and look records up to check
what the engine did with them. The engine's functions past the reader
take each dataset as its ids plus its token ids; the helpers here give
them those of an in-memory dataset, ``prepare.token_ids``, which are the
ids ``prepare.read_token_ids`` codes from the dataset's file.
"""

from typing import Sequence

from emberish.data import DataError, Dataset, DatasetRole, Record
from emberish.encoder import embed_tokens, fit_encoder, train
from emberish.joiner import JoinResult
from emberish.lexrank import baseline_tokenizer, key_join, lexical_join, uses_key_column
from emberish.prepare import token_ids
from emberish.supervise import build_pretraining_pairs, build_tiers, sample_triples


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


def embed_dataset(model, dataset: Dataset, tokenizer: str = "whitespace", features=None):
    """``embed_tokens`` of a dataset's records, from ``features`` (a
    vocabulary and the records' token ids) or featurized here."""
    if features is None:
        vocab, (tokens,) = token_ids([dataset], tokenizer)
        features = (vocab, tokens)
    return embed_tokens(model, dataset.ids(), features)


def baseline_join(kind: str, base: Dataset, aux: Dataset, key_column: str | None = None,
                  k: int = 10):
    """The baseline join ``join --baseline kind`` runs on the datasets'
    files: ``key_join`` of the records or ``lexical_join`` of their ids,
    its blocks joined into one ``JoinResult``."""
    if uses_key_column(kind):
        columns = key_join(kind, base, aux, key_column, k)
    else:
        columns = lexical_join(kind, aux.ids(), token_ids([base, aux], baseline_tokenizer(kind)),
                               k)
    return JoinResult.from_columns(base.ids(), aux.ids(), columns)


def tiers_of(pairs, base: Dataset, aux: Dataset, cfg):
    """``build_tiers`` of the pairs' anchors in the datasets, from their
    whitespace token ids."""
    return build_tiers((pair.base_id for pair in pairs), base.ids(), aux.ids(), cfg,
                       token_ids([base, aux]))


def sample(pairs, base: Dataset, aux: Dataset, cfg):
    """``sample_triples`` from the datasets' ``tiers_of``, as ``fit_encoder``
    samples them."""
    return sample_triples(pairs, aux.ids(), cfg, tiers_of(pairs, base, aux, cfg))


def pretraining_pairs(base: Dataset, aux: Dataset, **kwargs):
    """``build_pretraining_pairs`` of the datasets, from their whitespace
    token ids."""
    return build_pretraining_pairs(base.ids(), aux.ids(), token_ids([base, aux]), **kwargs)


def train_on(model, triples, base: Dataset, aux: Dataset, cfg, **kwargs):
    """``encoder.train`` on the datasets' whitespace token ids."""
    return train(model, triples, base.ids(), aux.ids(), token_ids([base, aux]), cfg, **kwargs)


def fit_datasets(base: Dataset, aux: Dataset, supervision, config, **kwargs):
    """``fit_encoder`` of the datasets, featurized as ``train`` featurizes
    their files: under ``config.tokenizer`` (unless ``features`` is given),
    and under whitespace too for the pretraining pairs and the sampler
    tiers when the two differ."""
    kwargs.setdefault("features", token_ids([base, aux], config.tokenizer))
    if config.tokenizer != "whitespace":
        kwargs.setdefault("lexical", token_ids([base, aux]))
    return fit_encoder(base.ids(), aux.ids(), supervision, config, **kwargs)

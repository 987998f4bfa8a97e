"""Record-to-sentence preparation and tokenization.

Every record serializes to ``key_1 value_1 [SEP] key_2 value_2 ...``
regardless of schema, so downstream encoders and lexical kernels see a
uniform representation. All functions here but ``read_token_ids`` are
pure.

A dataset's tokens are coded as vocabulary ids in one ``TokenIds``: a
flat int32 array of every record's ids, end to end, and an int64 array of
the n + 1 offsets where each record's ids start and end. It reads as a
sequence of per-record views, but holds two arrays per dataset, however
many records it has.

``read_token_ids`` is the one featurizer: it codes the rows of dataset
CSV files as ``data.dataset_table`` streams them, under every tokenizer
the command needs in one pass per file, and builds no ``Record``.
``read_key_texts`` reads the one cell per row that the key-column
baselines compare, from the same stream.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .data import DataError, Record, dataset_table

SEPARATOR = "[SEP]"

TOKENIZERS = ("whitespace", "char2gram")


class TokenIds(Sequence[np.ndarray]):
    """Records as runs of one flat array: record i is
    ``flat[offsets[i]:offsets[i + 1]]``. Indexing gives that view, slicing
    (step 1) a ``TokenIds`` of the slice's records."""

    __slots__ = ("flat", "offsets")

    def __init__(self, flat: np.ndarray, offsets: np.ndarray) -> None:
        self.flat = flat
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(len(self))
            if step != 1:
                raise ValueError("TokenIds slices take step 1")
            offsets = self.offsets[start : max(start, stop) + 1]
            return TokenIds(self.flat[offsets[0] : offsets[-1]], offsets - offsets[0])
        n = len(self.offsets) - 1
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("TokenIds index out of range")
        return self.flat[self.offsets[i] : self.offsets[i + 1]]

    def __iter__(self) -> Iterator[np.ndarray]:
        flat, bounds = self.flat, self.offsets.tolist()
        return (flat[lo:hi] for lo, hi in zip(bounds, bounds[1:]))

    def map(self, table: np.ndarray) -> "TokenIds":
        """The same records with each id ``i`` replaced by ``table[i]``: one
        gather over the flat array."""
        return TokenIds(table[self.flat], self.offsets)


# A vocabulary, then per group (dataset) its records' tokens as vocabulary ids.
Features = tuple[Sequence[str], Sequence[TokenIds]]


def tokenize(text: str, mode: str = "whitespace") -> list[str]:
    """Lowercase and split; never raises, tokens are always non-empty."""
    if mode == "whitespace":
        return text.lower().split()
    if mode == "char2gram":
        squeezed = "".join(text.lower().split())
        return [squeezed[i : i + 2] for i in range(len(squeezed) - 1)]
    raise ValueError(f"unknown tokenizer {mode!r} (expected one of {TOKENIZERS})")


@dataclass(frozen=True)
class Sentence:
    record_id: str
    text: str
    tokens: tuple[str, ...]


def sentence_text(fields: Iterable[tuple[str, str]], separator: str = SEPARATOR) -> str:
    """The sentence of a row's ``(key, value)`` fields.

    Fields join in stored order as ``key value`` segments separated by the
    separator token; an empty value renders as the key alone so no segment
    carries a dangling space.
    """
    return f" {separator} ".join(f"{key} {value}".strip() if value.strip() else key
                                 for key, value in fields)


def prepare_sentence(
    record: Record,
    separator: str = SEPARATOR,
    tokenizer: str = "whitespace",
) -> Sentence:
    """Serialize a record to its sentence form, ``sentence_text`` of its
    fields, and tokenize it."""
    text = sentence_text(record.fields, separator)
    return Sentence(record_id=record.id, text=text, tokens=tuple(tokenize(text, tokenizer)))


class _Coder:
    """Codes token sequences, group by group, as int32 ids in one
    vocabulary: the distinct tokens in first-seen order. A group's ids go
    into one ``array`` as they come, with no array per sequence."""

    def __init__(self) -> None:
        self.index: defaultdict[str, int] = defaultdict()
        self.index.default_factory = self.index.__len__  # an unseen token gets the next id
        self.groups: list[TokenIds] = []
        self._start()

    def _start(self) -> None:
        self.flat, self.offsets = array("i"), array("q", [0])  # C int and long long

    def add(self, tokens: Iterable[str]) -> None:
        self.flat.fromlist(list(map(self.index.__getitem__, tokens)))  # faster than extend
        self.offsets.append(len(self.flat))

    def end_group(self) -> None:
        self.groups.append(TokenIds(np.frombuffer(self.flat, np.int32),
                                    np.frombuffer(self.offsets, np.int64)))
        self._start()

    def features(self) -> Features:
        return list(self.index), self.groups


def code_tokens(groups: Iterable[Iterable[Sequence[str]]]) -> Features:
    """One vocabulary, the distinct tokens of all ``groups`` in first-seen
    order, and per group its token sequences as int32 vocabulary ids in one
    ``TokenIds``, built in one pass with no array per sequence."""
    coder = _Coder()
    for group in groups:
        for tokens in group:
            coder.add(tokens)
        coder.end_group()
    return coder.features()


def read_token_ids(paths: Sequence[str | Path], tokenizers: Sequence[str]
                   ) -> tuple[list[tuple[str, ...]], dict[str, Features]]:
    """Each dataset CSV's ids, in file order, and under each of
    ``tokenizers`` one vocabulary and per file its rows' ``TokenIds``:
    ``code_tokens`` of the files' ``prepare_sentence`` tokens.

    Each file is read once, by ``data.dataset_table``, with its checks and
    errors; each row's sentence is built once, tokenized under every
    tokenizer and coded as it streams past, and no row is held.
    """
    coders = {tokenizer: _Coder() for tokenizer in tokenizers}
    ids = []
    for path in paths:
        _, rows = dataset_table(path)
        side = []
        for rec_id, fields in rows:
            side.append(rec_id)
            text = sentence_text(fields)
            for tokenizer, coder in coders.items():
                coder.add(tokenize(text, tokenizer))
        for coder in coders.values():
            coder.end_group()
        ids.append(tuple(side))
    return ids, {tokenizer: coder.features() for tokenizer, coder in coders.items()}


def read_key_texts(paths: Sequence[str | Path], key_column: str
                   ) -> tuple[list[tuple[str, ...]], list[list[str]]]:
    """Each dataset CSV's ids, in file order, and each row's ``key_column``
    cell: its first field of that name, as ``Record.value`` gives it.

    Each file is read once, by ``data.dataset_table``, with its checks and
    errors, which come first; then a ``DataError`` names the first row,
    in file order, that has no such field.
    """
    ids, keys, missing = [], [], None
    for path in paths:
        _, rows = dataset_table(path)
        side, texts = [], []
        for rec_id, fields in rows:
            text = next((value for key, value in fields if key == key_column), None)
            if text is None and missing is None:
                missing = rec_id
            side.append(rec_id)
            texts.append(text)
        ids.append(tuple(side))
        keys.append(texts)
    if missing is not None:
        raise DataError(f"key column {key_column!r} missing for record {missing!r}")
    return ids, keys

"""Record-to-sentence preparation and tokenization.

Every record serializes to ``key_1 value_1 [SEP] key_2 value_2 ...``
regardless of schema, so downstream encoders and lexical kernels see a
uniform representation. All functions here are pure.

``token_ids`` codes each dataset's tokens as vocabulary ids in one
``TokenIds``: a flat int32 array of every record's ids, end to end, and an
int64 array of the n + 1 offsets where each record's ids start and end.
It reads as a sequence of per-record views, but holds two arrays per
dataset, however many records it has.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .data import Dataset, Record

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


def prepare_sentence(
    record: Record,
    separator: str = SEPARATOR,
    tokenizer: str = "whitespace",
) -> Sentence:
    """Serialize a record to its sentence form.

    Fields join in stored order as ``key value`` segments separated by the
    separator token; an empty value renders as the key alone so no segment
    carries a dangling space.
    """
    segments = []
    for key, value in record.fields:
        segment = f"{key} {value}".strip() if value.strip() else key
        segments.append(segment)
    text = f" {separator} ".join(segments)
    return Sentence(record_id=record.id, text=text, tokens=tuple(tokenize(text, tokenizer)))


def code_tokens(groups: Iterable[Iterable[Sequence[str]]]) -> Features:
    """One vocabulary, the distinct tokens of all ``groups`` in first-seen
    order, and per group its token sequences as int32 vocabulary ids in one
    ``TokenIds``, built in one pass with no array per sequence."""
    index: defaultdict[str, int] = defaultdict()
    index.default_factory = index.__len__  # an unseen token gets the next id
    coded = []
    for group in groups:
        flat, offsets = array("i"), array("q", [0])  # C int and long long
        for tokens in group:
            flat.fromlist(list(map(index.__getitem__, tokens)))  # faster than extend
            offsets.append(len(flat))
        coded.append(TokenIds(np.frombuffer(flat, np.int32), np.frombuffer(offsets, np.int64)))
    return list(index), coded


def token_ids(datasets: Sequence[Dataset], tokenizer: str = "whitespace") -> Features:
    """The featurization every command shares: ``code_tokens`` of each
    dataset's prepared records, in dataset order."""
    return code_tokens((prepare_sentence(rec, tokenizer=tokenizer).tokens for rec in ds.records)
                       for ds in datasets)

"""Record-to-sentence preparation and tokenization.

Every record serializes to ``key_1 value_1 [SEP] key_2 value_2 ...``
regardless of schema, so downstream encoders and lexical kernels see a
uniform representation. All functions here are pure.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset, Record

SEPARATOR = "[SEP]"

TOKENIZERS = ("whitespace", "char2gram")

# A vocabulary, then per group (dataset) each record's tokens as vocabulary ids.
Features = tuple[Sequence[str], Sequence[Sequence[np.ndarray]]]


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
    order, and per group each token sequence as int64 vocabulary ids."""
    index: defaultdict[str, int] = defaultdict()
    index.default_factory = index.__len__  # an unseen token gets the next id
    ids = [[np.fromiter(map(index.__getitem__, tokens), np.int64, len(tokens))
            for tokens in group]
           for group in groups]
    return list(index), ids


def token_ids(datasets: Sequence[Dataset], tokenizer: str = "whitespace") -> Features:
    """The featurization every command shares: ``code_tokens`` of each
    dataset's prepared records, in dataset order."""
    return code_tokens((prepare_sentence(rec, tokenizer=tokenizer).tokens for rec in ds.records)
                       for ds in datasets)

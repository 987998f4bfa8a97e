"""Record-to-sentence preparation and tokenization.

Every record serializes to ``key_1 value_1 [SEP] key_2 value_2 ...``
regardless of schema, so downstream encoders and lexical kernels see a
uniform representation. All functions here are pure.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, Record

SEPARATOR = "[SEP]"

TOKENIZERS = ("whitespace", "char2gram")


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


def token_ids(datasets: Sequence[Dataset],
              tokenizer: str = "whitespace") -> tuple[list[str], list[list[np.ndarray]]]:
    """The featurization every learned command shares: one vocabulary, the
    distinct prepared tokens of all ``datasets`` in first-seen order, and
    per dataset each record's tokens as int64 vocabulary ids, in dataset
    order."""
    index: defaultdict[str, int] = defaultdict()
    index.default_factory = index.__len__  # an unseen token gets the next id
    ids = [[np.fromiter(map(index.__getitem__, tokens), np.int64, len(tokens))
            for tokens in (prepare_sentence(rec, tokenizer=tokenizer).tokens
                           for rec in dataset.records)]
           for dataset in datasets]
    return list(index), ids

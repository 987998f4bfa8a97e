"""Record-to-sentence preparation and tokenization.

Every record serializes to ``key_1 value_1 [SEP] key_2 value_2 ...``
regardless of schema, so downstream encoders and lexical kernels see a
uniform representation. All functions here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def record_tokens(dataset: Dataset, tokenizer: str,
                  vocab: dict[str, str]) -> list[tuple[str, ...]]:
    """Each record's prepared tokens, in dataset order. ``vocab`` collects
    the distinct tokens, and equal tokens share its one string."""
    return [tuple(vocab.setdefault(t, t) for t in prepare_sentence(rec, tokenizer=tokenizer).tokens)
            for rec in dataset.records]


def pair_sentences(first: Sentence, second: Sentence, separator: str = SEPARATOR) -> str:
    """Concatenate two prepared sentences around a single separator."""
    parts = [p for p in (first.text, separator, second.text) if p]
    return " ".join(parts)

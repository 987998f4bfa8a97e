"""Keyless-join statement parser and the JSON engine configuration.

The statement grammar is::

    base_table_ref [join_type] KEYLESS JOIN aux_table_ref
    LEFT SIZE integer RIGHT SIZE integer
    USING supervision ;

    join_type = INNER | LEFT | RIGHT | FULL   (defaults to INNER)

Keywords are case-insensitive, identifiers are case-sensitive, and
whitespace between tokens is free-form. Parse errors carry the byte
offset of the offending token.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields as dc_fields
from enum import Enum
from pathlib import Path


class SpecParseError(ValueError):
    """Join statement rejected; ``offset`` is a byte offset into the input."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"parse error at byte {offset}: {message}")
        self.offset = offset


class ConfigError(ValueError):
    """Configuration file rejected."""


class JoinType(str, Enum):
    INNER = "INNER"
    LEFT = "LEFT"
    RIGHT = "RIGHT"
    FULL = "FULL"


@dataclass(frozen=True)
class JoinSpec:
    base_ref: str
    aux_ref: str
    join_type: JoinType = JoinType.INNER
    left_size: int = 1
    right_size: int = 10
    supervision_ref: str = ""

    def __post_init__(self) -> None:
        if self.left_size < 1 or self.right_size < 1:
            raise ValueError("size must be >= 1")


_JOIN_TYPE_WORDS = {jt.value for jt in JoinType}
_TOKEN_RE = re.compile(r"\s*(?:(?P<word>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<semi>;)|(?P<bad>\S))")


@dataclass(frozen=True)
class _Token:
    text: str
    kind: str  # word | int | semi | end
    offset: int


def _byte_offset(text: str, char_pos: int) -> int:
    return len(text[:char_pos].encode("utf-8"))


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            break
        offset = _byte_offset(text, match.start(match.lastgroup))
        if match.lastgroup == "bad":
            raise SpecParseError(f"unexpected character {match.group('bad')!r}", offset)
        tokens.append(_Token(text=match.group(match.lastgroup), kind=match.lastgroup, offset=offset))
        pos = match.end()
    tokens.append(_Token(text="", kind="end", offset=_byte_offset(text, len(text.rstrip()))))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> _Token:
        return self._tokens[self._pos]

    def advance(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind != "end":
            self._pos += 1
        return tok

    def expect_keyword(self, *words: str) -> _Token:
        tok = self.peek()
        if tok.kind == "word" and tok.text.upper() in words:
            return self.advance()
        wanted = " or ".join(words)
        got = repr(tok.text) if tok.kind != "end" else "end of input"
        raise SpecParseError(f"expected {wanted}, got {got}", tok.offset)

    def identifier(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "word":
            got = repr(tok.text) if tok.kind != "end" else "end of input"
            raise SpecParseError(f"expected {what}, got {got}", tok.offset)
        return self.advance()

    def integer(self, what: str) -> tuple[int, _Token]:
        tok = self.peek()
        if tok.kind != "int":
            got = repr(tok.text) if tok.kind != "end" else "end of input"
            raise SpecParseError(f"expected {what} as an integer, got {got}", tok.offset)
        self.advance()
        return int(tok.text), tok


def _statement(parser: _Parser) -> JoinSpec:
    """Parse one statement, through its ';', off ``parser``."""
    base = parser.identifier("base table reference")

    join_type = JoinType.INNER
    tok = parser.peek()
    if tok.kind == "word" and tok.text.upper() in _JOIN_TYPE_WORDS:
        join_type = JoinType(tok.text.upper())
        parser.advance()
    elif tok.kind == "word" and tok.text.upper() != "KEYLESS":
        raise SpecParseError(
            f"unknown keyword {tok.text!r}: expected a join type or KEYLESS", tok.offset
        )

    parser.expect_keyword("KEYLESS")
    parser.expect_keyword("JOIN")
    aux = parser.identifier("auxiliary table reference")

    parser.expect_keyword("LEFT")
    parser.expect_keyword("SIZE")
    left_size, left_tok = parser.integer("LEFT SIZE")
    parser.expect_keyword("RIGHT")
    parser.expect_keyword("SIZE")
    right_size, right_tok = parser.integer("RIGHT SIZE")

    if parser.peek().kind != "word" or parser.peek().text.upper() != "USING":
        tok = parser.peek()
        got = repr(tok.text) if tok.kind != "end" else "end of input"
        raise SpecParseError(f"missing USING clause: got {got}", tok.offset)
    parser.advance()
    supervision = parser.identifier("supervision reference")

    semi = parser.peek()
    if semi.kind != "semi":
        got = repr(semi.text) if semi.kind != "end" else "end of input"
        raise SpecParseError(f"expected ';', got {got}", semi.offset)
    parser.advance()

    if left_size < 1:
        raise SpecParseError("size must be >= 1", left_tok.offset)
    if right_size < 1:
        raise SpecParseError("size must be >= 1", right_tok.offset)

    return JoinSpec(
        base_ref=base.text,
        aux_ref=aux.text,
        join_type=join_type,
        left_size=left_size,
        right_size=right_size,
        supervision_ref=supervision.text,
    )


def parse_join_spec(text: str) -> JoinSpec:
    """Parse one keyless-join statement into a JoinSpec."""
    parser = _Parser(_lex(text))
    spec = _statement(parser)
    trailing = parser.peek()
    if trailing.kind != "end":
        raise SpecParseError(f"trailing input after ';': {trailing.text!r}", trailing.offset)
    return spec


def parse_join_specs(text: str) -> list[JoinSpec]:
    """Parse a sequence of ';'-terminated statements (for chain files);
    error offsets count from the start of ``text``."""
    parser = _Parser(_lex(text))
    specs: list[JoinSpec] = []
    while parser.peek().kind != "end":
        specs.append(_statement(parser))
    return specs


def render_join_spec(spec: JoinSpec) -> str:
    """Canonical text for a JoinSpec; parse(render(s)) == s."""
    return (
        f"{spec.base_ref} {spec.join_type.value} KEYLESS JOIN {spec.aux_ref} "
        f"LEFT SIZE {spec.left_size} RIGHT SIZE {spec.right_size} "
        f"USING {spec.supervision_ref};"
    )


@dataclass(frozen=True)
class EngineConfig:
    """Engine configuration; every field except data_dir has a default."""

    data_dir: str
    join_type: JoinType = JoinType.INNER
    left_size: int = 1
    right_size: int = 10
    num_encoders: int = 1
    encoder_init: str = "random"  # random | pretrained_artifact
    finetune: bool = True
    supervision_fraction: float = 1.0
    sampler: str = "stratified_bm25"  # random | stratified_bm25 | stratified_jaccard | custom
    epochs: int = 10
    batch_size: int = 8
    embedding_dim: int = 200
    pooling: str = "mean"
    tokenizer: str = "whitespace"  # whitespace | char2gram
    learning_rate: float = 1e-5
    loss_margin: float = 1.0
    distance: str = "l2"  # l2 | inner_product
    normalize: bool = True
    seed: int = 0


def _expect_type(key: str, value: object, expected: type, type_name: str) -> object:
    # bool is an int subclass; keep the two apart.
    if expected is int and isinstance(value, bool):
        raise ConfigError(f"config key {key!r} expects {type_name}, got bool")
    if expected is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, expected):
        raise ConfigError(
            f"config key {key!r} expects {type_name}, got {type(value).__name__}"
        )
    return value


_ENUM_KEYS = {
    "join_type": {"INNER", "LEFT", "RIGHT", "FULL"},
    "encoder_init": {"random", "pretrained_artifact"},
    "sampler": {"random", "stratified_bm25", "stratified_jaccard", "custom"},
    "tokenizer": {"whitespace", "char2gram"},
    "distance": {"l2", "inner_product"},
}


def config_from_dict(raw: dict) -> EngineConfig:
    known = {f.name for f in dc_fields(EngineConfig)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    if "data_dir" not in raw:
        raise ConfigError("data_dir required")

    out: dict[str, object] = {}
    for key, value in raw.items():
        if key == "data_dir":
            out[key] = _expect_type(key, value, str, "string")
        elif key in ("left_size", "right_size", "num_encoders", "epochs", "batch_size",
                     "embedding_dim", "seed"):
            out[key] = _expect_type(key, value, int, "integer")
        elif key in ("supervision_fraction", "learning_rate", "loss_margin"):
            out[key] = _expect_type(key, value, float, "number")
        elif key in ("finetune", "normalize"):
            out[key] = _expect_type(key, value, bool, "boolean")
        elif key == "pooling":
            value = _expect_type(key, value, str, "string")
            if value == "cls":
                raise ConfigError(
                    "pooling 'cls' needs a transformer-style encoder with a leading "
                    "aggregation token; this engine supports 'mean' only"
                )
            if value != "mean":
                raise ConfigError(f"config key 'pooling' must be 'mean', got {value!r}")
            out[key] = value
        elif key == "join_type":
            value = _expect_type(key, value, str, "string")
            if value.upper() not in _ENUM_KEYS["join_type"]:
                raise ConfigError(f"config key 'join_type' must be one of INNER/LEFT/RIGHT/FULL")
            out[key] = JoinType(value.upper())
        elif key in _ENUM_KEYS:
            value = _expect_type(key, value, str, "string")
            if value not in _ENUM_KEYS[key]:
                allowed = "/".join(sorted(_ENUM_KEYS[key]))
                raise ConfigError(f"config key {key!r} must be one of {allowed}, got {value!r}")
            out[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")

    cfg = EngineConfig(**out)  # type: ignore[arg-type]
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: EngineConfig) -> None:
    if cfg.left_size < 1 or cfg.right_size < 1:
        raise ConfigError("join sizes must be >= 1")
    if cfg.num_encoders not in (1, 2):
        raise ConfigError("num_encoders must be 1 or 2")
    if not (0.0 < cfg.supervision_fraction <= 1.0):
        raise ConfigError("supervision_fraction must be in (0, 1]")
    if cfg.epochs < 0:
        raise ConfigError("epochs must be >= 0")
    if cfg.batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if cfg.embedding_dim < 1:
        raise ConfigError("embedding_dim must be >= 1")
    if cfg.learning_rate <= 0:
        raise ConfigError("learning_rate must be > 0")
    if cfg.loss_margin < 0:
        raise ConfigError("loss_margin must be >= 0")


def config_object(json_text: str) -> dict:
    """The JSON object of a configuration text, keys not yet checked."""
    try:
        raw = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    return raw


def parse_config(json_text: str) -> EngineConfig:
    """Parse the JSON configuration; unknown keys are rejected by name."""
    return config_from_dict(config_object(json_text))


def resolve_ref(ref: str, data_dir: str | Path) -> Path:
    """Table and supervision references resolve to <data_dir>/<ref>.csv."""
    return Path(data_dir) / f"{ref}.csv"

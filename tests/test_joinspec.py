"""Join statement parsing, rendering, and config validation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emberish.joinspec import (
    ConfigError,
    EngineConfig,
    JoinSpec,
    JoinType,
    SpecParseError,
    parse_config,
    parse_join_spec,
    parse_join_specs,
    render_join_spec,
)

WORKED_EXAMPLES = [
    (
        "entity_mentions_A INNER KEYLESS JOIN entity_mentions_B "
        "LEFT SIZE 1 RIGHT SIZE 1 USING matching_mentions;",
        (JoinType.INNER, 1, 1),
    ),
    (
        "query_corpus LEFT KEYLESS JOIN document_corpus "
        "LEFT SIZE 1 RIGHT SIZE 10 USING relevant_docs_for_query;",
        (JoinType.LEFT, 1, 10),
    ),
    (
        "user_database INNER KEYLESS JOIN product_database "
        "LEFT SIZE 20 RIGHT SIZE 10 USING relevant_docs_for_query;",
        (JoinType.INNER, 20, 10),
    ),
]


@pytest.mark.parametrize("text,expected", WORKED_EXAMPLES)
def test_worked_examples(text, expected):
    spec = parse_join_spec(text)
    assert (spec.join_type, spec.left_size, spec.right_size) == expected


def test_join_type_defaults_to_inner():
    spec = parse_join_spec("a KEYLESS JOIN b LEFT SIZE 2 RIGHT SIZE 3 USING s;")
    assert spec.join_type == JoinType.INNER


def test_keywords_case_insensitive_identifiers_not():
    spec = parse_join_spec("TableA full keyless join TableB left size 4 right size 5 using Sup;")
    assert spec.join_type == JoinType.FULL
    assert spec.base_ref == "TableA" and spec.aux_ref == "TableB"
    assert spec.supervision_ref == "Sup"


def test_size_zero_rejected():
    with pytest.raises(SpecParseError, match="size must be"):
        parse_join_spec("a KEYLESS JOIN b LEFT SIZE 0 RIGHT SIZE 1 USING s;")


def test_unknown_keyword_has_offset():
    text = "a CROSS KEYLESS JOIN b LEFT SIZE 1 RIGHT SIZE 1 USING s;"
    with pytest.raises(SpecParseError) as exc_info:
        parse_join_spec(text)
    assert exc_info.value.offset == text.index("CROSS")


def test_non_integer_size():
    with pytest.raises(SpecParseError, match="integer"):
        parse_join_spec("a KEYLESS JOIN b LEFT SIZE x RIGHT SIZE 1 USING s;")


def test_missing_using_clause():
    with pytest.raises(SpecParseError, match="USING"):
        parse_join_spec("a KEYLESS JOIN b LEFT SIZE 1 RIGHT SIZE 1;")


def test_missing_semicolon():
    with pytest.raises(SpecParseError, match="';'"):
        parse_join_spec("a KEYLESS JOIN b LEFT SIZE 1 RIGHT SIZE 1 USING s")


def test_trailing_garbage_rejected():
    with pytest.raises(SpecParseError, match="trailing"):
        parse_join_spec("a KEYLESS JOIN b LEFT SIZE 1 RIGHT SIZE 1 USING s; extra")


def test_render_contains_full_keyless_join():
    spec = JoinSpec("a", "b", JoinType.FULL, 5, 7, "s")
    assert "FULL KEYLESS JOIN" in render_join_spec(spec)


@pytest.mark.parametrize("text,_", WORKED_EXAMPLES)
def test_worked_examples_round_trip_up_to_case(text, _):
    spec = parse_join_spec(text)
    rendered = render_join_spec(spec)
    assert parse_join_spec(rendered) == spec
    # Identity up to keyword case: canonical form uppercases keywords only.
    assert rendered.replace(" ", "") == text.replace(" ", "")


_ident = st.from_regex(r"[a-z][a-z0-9_]{0,12}", fullmatch=True).filter(
    lambda s: s.upper() not in {"INNER", "LEFT", "RIGHT", "FULL", "KEYLESS", "JOIN", "SIZE", "USING"}
)


@given(
    base=_ident,
    aux=_ident,
    sup=_ident,
    join_type=st.sampled_from(list(JoinType)),
    left=st.integers(min_value=1, max_value=10**6),
    right=st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=200)
def test_round_trip_property(base, aux, sup, join_type, left, right):
    spec = JoinSpec(base, aux, join_type, left, right, sup)
    assert parse_join_spec(render_join_spec(spec)) == spec


def test_parse_multiple_statements():
    text = (
        "a KEYLESS JOIN b LEFT SIZE 1 RIGHT SIZE 1 USING s;\n"
        "b LEFT KEYLESS JOIN c LEFT SIZE 1 RIGHT SIZE 2 USING t;\n"
    )
    specs = parse_join_specs(text)
    assert [s.aux_ref for s in specs] == ["b", "c"]


def test_chain_error_offsets_count_from_the_start_of_the_file():
    first = "a KEYLESS JOIN b LEFT SIZE 1 RIGHT SIZE 1 USING s;\n"
    text = first + "b CROSS KEYLESS JOIN c LEFT SIZE 1 RIGHT SIZE 2 USING t;\n"
    with pytest.raises(SpecParseError, match="unknown keyword 'CROSS'") as exc_info:
        parse_join_specs(text)
    assert exc_info.value.offset == text.index("CROSS")
    unterminated = first + "b KEYLESS JOIN c LEFT SIZE 1 RIGHT SIZE 2 USING t  \n"
    with pytest.raises(SpecParseError, match="expected ';'") as exc_info:
        parse_join_specs(unterminated)
    assert exc_info.value.offset == len(unterminated.rstrip())


class TestConfig:
    def test_listing_style_config(self):
        cfg = parse_config(
            '{"data_dir": "IMDb-wiki", "join_type": "INNER", "left_size": 1, "right_size": 1}'
        )
        assert cfg.data_dir == "IMDb-wiki"
        assert cfg.join_type == JoinType.INNER
        assert (cfg.left_size, cfg.right_size) == (1, 1)

    def test_data_dir_required(self):
        with pytest.raises(ConfigError, match="data_dir required"):
            parse_config("{}")

    def test_type_mismatch_names_key_and_type(self):
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config('{"data_dir": "x", "batch_size": "eight"}')

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="banana"):
            parse_config('{"data_dir": "x", "banana": 1}')

    @pytest.mark.parametrize("text, message", [
        ("{not json", "configuration is not valid JSON"),
        ('["data_dir", "x"]', "configuration must be a JSON object"),
    ])
    def test_text_that_is_not_a_json_object_rejected(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_every_documented_key_accepted(self):
        cfg = parse_config(
            """
            {"data_dir": "x", "join_type": "LEFT", "left_size": 2, "right_size": 3,
             "num_encoders": 2, "encoder_init": "random", "finetune": false,
             "supervision_fraction": 0.5, "sampler": "random", "epochs": 1,
             "batch_size": 4, "embedding_dim": 8, "pooling": "mean",
             "tokenizer": "char2gram", "learning_rate": 0.01, "loss_margin": 0.5,
             "distance": "inner_product", "normalize": false, "seed": 7}
            """
        )
        assert cfg.num_encoders == 2
        assert cfg.supervision_fraction == 0.5

    def test_defaults(self):
        cfg = parse_config('{"data_dir": "x"}')
        assert cfg.batch_size == 8
        assert cfg.embedding_dim == 200
        assert cfg.learning_rate == 1e-5
        assert cfg.loss_margin == 1.0
        assert cfg.left_size == 1 and cfg.right_size == 10
        assert cfg.normalize is True

    def test_cls_pooling_rejected_with_pointed_message(self):
        with pytest.raises(ConfigError, match="mean"):
            parse_config('{"data_dir": "x", "pooling": "cls"}')

    def test_bool_is_not_integer(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_config('{"data_dir": "x", "epochs": true}')

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            parse_config('{"data_dir": "x", "supervision_fraction": 0.0}')

    def test_random_documented_subsets_parse(self):
        # Config parsing is total over the documented key set.
        full = {
            "join_type": "FULL", "left_size": 2, "right_size": 3, "num_encoders": 1,
            "encoder_init": "pretrained_artifact", "finetune": True,
            "supervision_fraction": 0.25, "sampler": "stratified_jaccard", "epochs": 2,
            "batch_size": 2, "embedding_dim": 4, "pooling": "mean",
            "tokenizer": "whitespace", "learning_rate": 0.1, "loss_margin": 0.0,
            "distance": "l2", "normalize": True, "seed": 1,
        }
        rng = random.Random(0)
        keys = list(full)
        for _ in range(50):
            subset = {"data_dir": "x"}
            subset.update({k: full[k] for k in rng.sample(keys, rng.randrange(len(keys)))})
            import json

            parse_config(json.dumps(subset))

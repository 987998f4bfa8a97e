"""Sentence preparation and tokenizer behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emberish.data import Record
from emberish.prepare import prepare_sentence, token_ids, tokenize
from records import dataset_from_rows


def test_two_field_record():
    rec = Record(id="1", fields=(("Title", "Dunkirk"), ("Year", "2017")))
    assert prepare_sentence(rec).text == "Title Dunkirk [SEP] Year 2017"


def test_single_field_no_separator():
    rec = Record(id="1", fields=(("k", "v"),))
    assert prepare_sentence(rec).text == "k v"


def test_empty_value_renders_key_alone():
    rec = Record(id="1", fields=(("k", ""),))
    assert prepare_sentence(rec).text == "k"


def test_empty_value_between_fields():
    rec = Record(id="1", fields=(("a", "1"), ("b", ""), ("c", "2")))
    assert prepare_sentence(rec).text == "a 1 [SEP] b [SEP] c 2"


def test_internal_whitespace_preserved_in_text():
    rec = Record(id="1", fields=(("k", "two  words"),))
    assert prepare_sentence(rec).text == "k two  words"


def test_determinism():
    rec = Record(id="1", fields=(("a", "x"), ("b", "y")))
    assert prepare_sentence(rec) == prepare_sentence(rec)


def test_whitespace_tokenizer():
    assert tokenize("A b") == ["a", "b"]
    assert tokenize("  A\t b\nc ") == ["a", "b", "c"]


def test_char2gram_tokenizer():
    assert tokenize("abc", "char2gram") == ["ab", "bc"]
    assert tokenize("a b c", "char2gram") == ["ab", "bc"]


def test_empty_inputs():
    assert tokenize("", "whitespace") == []
    assert tokenize("", "char2gram") == []
    assert tokenize("x", "char2gram") == []


def test_unknown_tokenizer():
    with pytest.raises(ValueError, match="unknown tokenizer"):
        tokenize("x", "wordpiece")


_field = st.tuples(
    st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True),
    st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=20),
)


@given(fields=st.lists(_field, max_size=6))
@settings(max_examples=150)
def test_schema_independence_and_token_totality(fields):
    # Preparation succeeds for any key set; tokens are never empty strings.
    rec = Record(id="r", fields=tuple(fields))
    sent = prepare_sentence(rec)
    assert all(tok for tok in sent.tokens)
    assert prepare_sentence(rec).text == sent.text
    for mode in ("whitespace", "char2gram"):
        assert all(tok for tok in tokenize(sent.text, mode))


class TestTokenIds:
    @staticmethod
    def datasets():
        base = dataset_from_rows("base", "base", [
            ("x", [("t", "Beta alpha")]), ("e", []), ("y", [("u", "alpha")])])
        aux = dataset_from_rows("aux", "auxiliary", [("z", [("t", "gamma beta")])])
        return base, aux

    def test_one_vocabulary_in_first_seen_order_across_datasets(self):
        vocab, (base_ids, aux_ids) = token_ids(self.datasets())
        assert vocab == ["t", "beta", "alpha", "u", "gamma"]
        assert [ids.tolist() for ids in base_ids] == [[0, 1, 2], [], [3, 2]]
        assert [ids.tolist() for ids in aux_ids] == [[0, 4, 1]]

    def test_ids_spell_each_records_prepared_tokens(self):
        for tokenizer in ("whitespace", "char2gram"):
            datasets = self.datasets()
            vocab, ids = token_ids(datasets, tokenizer)
            assert len(vocab) == len(set(vocab))
            for dataset, side in zip(datasets, ids):
                assert len(side) == len(dataset.records)
                for rec, rec_ids in zip(dataset.records, side):
                    assert rec_ids.dtype == np.int64
                    assert [vocab[i] for i in rec_ids] == list(
                        prepare_sentence(rec, tokenizer=tokenizer).tokens)

    def test_an_empty_record_gives_an_empty_array(self):
        _, (base_ids, _) = token_ids(self.datasets())
        assert base_ids[1].dtype == np.int64 and base_ids[1].size == 0

    def test_char2gram(self):
        base = dataset_from_rows("base", "base", [("x", [("ab", "ab")]), ("y", [("b", "")])])
        vocab, (ids,) = token_ids([base], "char2gram")
        assert vocab == ["ab", "ba"]
        assert [i.tolist() for i in ids] == [[0, 1, 0], []]

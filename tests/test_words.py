import numpy as np
import pytest

from qverify import bit_oracle, build_algorithm, classical_query_counts, classical_verify
from qverify.builder import hadamard_power, index_set
from qverify.words import check_word, parse_word

NOT_BINARY = "word must contain only '0' and '1': "


@pytest.mark.parametrize("word,length,error,message", [
    (b"0101", None, TypeError, "expected a bitstring, got bytes"),
    (1010, None, TypeError, "expected a bitstring, got int"),
    ("0101", 5, ValueError, "expected a word of length 5, got 4"),
    ("", None, ValueError, "empty word"),
    ("", 0, ValueError, "empty word"),
    ("012", None, ValueError, NOT_BINARY + "'012'"),
    ("01é0", None, ValueError, NOT_BINARY + "'01é0'"),
    (" 01", None, ValueError, NOT_BINARY + "' 01'"),
    ("01\n", None, ValueError, NOT_BINARY + "'01\\n'"),
])
def test_check_word_and_parse_word_raise_alike(word, length, error, message):
    for validate in (check_word, parse_word):
        with pytest.raises(error) as exc:
            validate(word, length)
        assert type(exc.value) is error
        assert str(exc.value) == message


@pytest.mark.parametrize("word", ["0", "1", "0110", "1" * 24, "10" * 40])
def test_valid_words(word):
    assert check_word(word, len(word)) == word
    bits = parse_word(word, len(word))
    assert bits.dtype == np.uint8
    assert bits.tolist() == [int(c) for c in word]


@pytest.mark.parametrize("call,message", [
    (lambda: build_algorithm(4.0), "n must be an integer, got 4.0"),
    (lambda: build_algorithm(5), "n must be even and within [2, 24], got 5"),
    (lambda: classical_query_counts(4.0), "verifier arity must be an integer, got 4.0"),
    (lambda: classical_verify(bit_oracle("1111"), 4.0),
     "verifier arity must be an integer, got 4.0"),
    (lambda: hadamard_power(2.0), "t must be an integer, got 2.0"),
    (lambda: index_set(1.0, 8), "stage number must be an integer, got 1.0"),
    (lambda: index_set(1, 8.0), "dimension must be an integer, got 8.0"),
], ids=["build_algorithm", "build_algorithm-odd", "classical_query_counts",
        "classical_verify", "hadamard_power", "index_set", "index_set-dimension"])
def test_sizes_go_through_check_length(call, message):
    # words.check_length refuses a float size: after the range checks, whose
    # messages integers keep, or, for index_set's dimension, before the
    # power-of-two test, which a float cannot take.
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message

import numpy as np
import pytest

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

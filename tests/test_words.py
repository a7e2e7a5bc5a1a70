import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qverify import bit_oracle, build_algorithm, classical_query_counts, classical_verify
from qverify.builder import final_factors, hadamard_power, index_set
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


# A float, a str and None: arithmetic before check_length would raise
# TypeError on the last two.
NOT_SIZES = (4.0, "4", None)


@pytest.mark.parametrize("call,sizes,message", [
    (build_algorithm, NOT_SIZES, "n must be an integer, got {!r}"),
    (build_algorithm, [5], "n must be even, got {}"),
    (classical_query_counts, NOT_SIZES, "verifier arity must be an integer, got {!r}"),
    (classical_query_counts, [3], "verifier arity must be even, got {}"),
    (lambda n: classical_verify(bit_oracle("1111"), n), NOT_SIZES,
     "verifier arity must be an integer, got {!r}"),
    (hadamard_power, NOT_SIZES, "t must be an integer, got {!r}"),
    (final_factors, NOT_SIZES, "t must be an integer, got {!r}"),
    (final_factors, [10**30], "t must be at most 12, got {}"),
    (lambda i: index_set(i, 8), NOT_SIZES, "stage number must be an integer, got {!r}"),
    (lambda k: index_set(1, k), NOT_SIZES, "dimension must be an integer, got {!r}"),
], ids=["build_algorithm", "build_algorithm-odd", "classical_query_counts",
        "classical_query_counts-odd", "classical_verify", "hadamard_power", "final_factors",
        "final_factors-huge", "index_set", "index_set-dimension"])
def test_sizes_go_through_check_length(call, sizes, message):
    # words.check_length refuses a size that is not an integer before any
    # arithmetic on it, and words.check_even an odd one after it; a cap
    # refuses a huge one.
    for size in sizes:
        with pytest.raises(ValueError) as exc:
            call(size)
        assert str(exc.value) == message.format(size)


def test_huge_sizes_are_compared_before_any_shift():
    # 1 << 2**34 is a 2 GiB int. Under an address-space limit of 256 MiB past
    # what the interpreter holds, building it would raise MemoryError, so
    # each refusal must compare the size first.
    script = """
import resource
import numpy as np
from qverify import BooleanFunction, hadamard_power, index_set
pages = int(open("/proc/self/statm").read().split()[0])
limit = pages * resource.getpagesize() + (256 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
huge = 1 << 34
for call, message in [
        (lambda: hadamard_power(huge), f"dimension 2**{huge} exceeds the supported maximum 4096"),
        (lambda: index_set(huge, 8), f"stage {huge} needs spacing k/2**i >= 1, but k = 8"),
        (lambda: BooleanFunction(huge, np.zeros(4, np.uint8)),
         f"truth table must have 2**{huge} entries, got shape (4,)")]:
    try:
        call()
    except ValueError as exc:
        assert str(exc) == message, exc
    else:
        raise AssertionError(message)
"""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qverify import (BooleanFunction, QueryAlgorithm, StringPair, build_algorithm, check_exact,
                     compute, interleave, load_algorithm, save_algorithm,
                     strings_equal)
from qverify import strings

binary = st.integers(1, 8).flatmap(
    lambda k: st.tuples(st.integers(0, 2 ** k - 1).map(lambda v: format(v, f"0{k}b")),
                        st.integers(0, 2 ** k - 1).map(lambda v: format(v, f"0{k}b"))))


class TestInterleave:
    def test_mixed_pair(self):
        assert interleave(StringPair("10", "11")) == "1101"

    def test_single_bit(self):
        assert interleave(StringPair("0", "0")) == "00"

    def test_equal_strings_give_accepting_word(self):
        word = interleave(StringPair("101", "101"))
        assert word == "110011"
        assert BooleanFunction.verify(6).evaluate(word) == 1

    @given(binary)
    def test_round_trip(self, pair):
        # y is read back from the odd positions and z from the even ones.
        word = interleave(StringPair(*pair))
        assert StringPair(word[0::2], word[1::2]) == StringPair(*pair)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            StringPair("10", "100")

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            StringPair("10", "1x")


class TestStringPair:
    def test_keyword_construction(self):
        p = StringPair(y="10", z="11")
        assert (p.y, p.z, p.length) == ("10", "11", 2)
        assert p == StringPair("10", "11")

    def test_equality_and_hash(self):
        p, q = StringPair("101", "001"), StringPair(y="101", z="001")
        assert p == q and hash(p) == hash(q)
        assert len({p, q}) == 1
        assert p != StringPair("101", "101")
        assert p != ("101", "001")

    def test_repr(self):
        assert repr(StringPair(y="10", z="11")) == "StringPair(y='10', z='11')"

    @pytest.mark.parametrize("field", ["y", "z", "other", *QueryAlgorithm.__slots__])
    def test_fields_are_read_only(self, field):
        # A QueryAlgorithm shares the pair's read-only base and its messages.
        p, alg = StringPair("10", "11"), build_algorithm(6)
        fields = [getattr(alg, name) for name in QueryAlgorithm.__slots__]
        for obj in (p, alg):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(obj, field, "00")
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(obj, field)
        assert p == StringPair("10", "11")
        assert all(getattr(alg, name) is v for name, v in zip(QueryAlgorithm.__slots__, fields))

    def test_copies_and_pickles_keep_the_pair(self, tmp_path):
        p = StringPair("0110", "0111")
        assert copy.copy(p) == p and copy.deepcopy(p) == p
        assert pickle.loads(pickle.dumps(p)) == p
        # An algorithm's copies re-run its constructor too: read-only arrays,
        # and the same report to the bit, for a built and a loaded algorithm.
        save_algorithm(build_algorithm(8), tmp_path / "alg8.json")
        loaded = load_algorithm(tmp_path / "alg8.json")
        assert loaded.final.dims == (4, 4)
        for alg in (build_algorithm(6), loaded):
            f = BooleanFunction.verify(alg.n_vars)
            report = repr(check_exact(alg, f))
            for c in (pickle.loads(pickle.dumps(alg)), copy.copy(alg), copy.deepcopy(alg)):
                arrays = [c.start, c.labels, *(a for factor in c.final.factors for a in factor),
                          *(a for st in c.stages for a in (*st.nonzeros, st.query))]
                assert not any(a.flags.writeable for a in arrays)
                assert repr(check_exact(c, f)) == report


def _words(k, seed):
    """Every 2k-bit word for k <= 4; otherwise 50 seeded codewords (y
    interleaved with itself) and 50 seeded interleaved pairs."""
    if k <= 4:
        return [format(w, f"0{2 * k}b") for w in range(1 << (2 * k))]
    rng = random.Random(seed + k)
    words = []
    for _ in range(50):
        y, z = (format(rng.getrandbits(k), f"0{k}b") for _ in range(2))
        words += [interleave(StringPair(y, y)), interleave(StringPair(y, z))]
    return words


class TestRunMatchesModel:
    """strings._run_verifier is the built verifier's stage rule run in plain
    Python; model.compute on the built algorithm is the one executor."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_agrees_with_compute(self, k):
        alg = build_algorithm(2 * k)
        words = _words(k, seed=1729)
        if k > 4:
            assert len(words) == 100 and sum(w[0::2] == w[1::2] for w in words) >= 50
        for word in words:
            output, exact, p0, p1 = strings._run_verifier(word)
            want = compute(alg, word)
            assert (output, exact) == (want.output, want.exact), word
            assert abs(p0 - want.p0) <= 1e-15 and abs(p1 - want.p1) <= 1e-15, (word, p0, p1, want)

    def test_non_exact_run_raises(self, monkeypatch):
        monkeypatch.setattr(strings, "_run_verifier", lambda word: (1, False, 0.4, 0.6))
        with pytest.raises(RuntimeError, match=r"not exact on '1100' \(p=0\.6\)"):
            strings_equal(StringPair("10", "10"))


class TestStringsEqual:
    def test_equal_pair(self):
        assert strings_equal(StringPair("11", "11"))

    def test_unequal_pair(self):
        assert not strings_equal(StringPair("10", "01"))

    def test_single_unequal_bit(self):
        assert not strings_equal(StringPair("0", "1"))

    def test_length_cap(self):
        with pytest.raises(ValueError):
            strings_equal(StringPair("0" * 13, "0" * 13))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exhaustive_small_lengths(self, k):
        for a in range(1 << k):
            for b in range(1 << k):
                pair = StringPair(format(a, f"0{k}b"), format(b, f"0{k}b"))
                assert strings_equal(pair) == (a == b)

    @given(binary)
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_comparison(self, pair):
        p = StringPair(*pair)
        assert strings_equal(p) == (p.y == p.z)

    def test_longest_supported_strings(self, rng):
        for _ in range(20):
            y = "".join(str(b) for b in rng.integers(0, 2, size=12))
            z = "".join(str(b) for b in rng.integers(0, 2, size=12))
            assert strings_equal(StringPair(y, z)) == (y == z)
            assert strings_equal(StringPair(y, y))

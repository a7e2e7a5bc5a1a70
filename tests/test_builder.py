import importlib.util

import numpy as np
import pytest

import qverify
from qverify import (
    BooleanFunction,
    build_algorithm,
    build_stage_query,
    build_stage_unitary,
    check_exact,
    compute,
    hadamard_power,
    index_set,
    is_unitary,
    run,
)

from qverify import builder, model
from qverify.builder import final_factors

import refdata


H2 = np.array([[refdata.R, refdata.R], [refdata.R, -refdata.R]])


class TestHadamardPower:
    def test_t1_is_the_hadamard_matrix(self):
        assert np.allclose(hadamard_power(1), H2, atol=1e-12)

    def test_t3_first_row(self):
        m = hadamard_power(3)
        assert m.shape == (8, 8)
        assert np.allclose(m[0], refdata.E, atol=1e-12)

    def test_t2_collapses_uniform_negative_state(self):
        # Final step of the 4-bit run table for word 1100.
        out = hadamard_power(2) @ np.full(4, -0.5)
        assert np.allclose(out, [-1, 0, 0, 0], atol=1e-9)

    def test_rejects_t0(self):
        with pytest.raises(ValueError):
            hadamard_power(0)

    @pytest.mark.parametrize("t", range(1, 11))
    def test_entries_are_exact(self, t):
        # Entry (i, j) is exactly 2**(-t/2) with the sign (-1)**popcount(i & j):
        # no rounding, and no zero whose sign bit could differ.
        m = hadamard_power(t)
        assert m.tobytes() == refdata.hadamard_rows(t, slice(None)).tobytes()
        assert not m.flags.writeable

    @pytest.mark.parametrize("t", range(1, 7))
    def test_self_inverse(self, t):
        m = hadamard_power(t)
        delta = m @ m - np.eye(1 << t)
        assert np.abs(delta).max() <= 1e-12

    @pytest.mark.parametrize("t", range(1, 7))
    def test_matches_repeated_tensor(self, t):
        expected = H2
        for _ in range(t - 1):
            expected = np.kron(expected, H2)
        assert np.abs(hadamard_power(t) - expected).max() <= 1e-12


class TestIndexSet:
    def test_first_stage_of_eight(self):
        # 1-based form {1, 5}.
        assert index_set(1, 8).tolist() == [0, 4]

    def test_second_stage_of_eight(self):
        # 1-based form {1, 3, 5, 7}.
        assert index_set(2, 8).tolist() == [0, 2, 4, 6]

    def test_first_stage_of_four(self):
        # 1-based form {1, 3}.
        assert index_set(1, 4).tolist() == [0, 2]

    def test_last_stage_is_every_index(self):
        assert index_set(3, 8).tolist() == list(range(8))

    @pytest.mark.parametrize("i,k", [(3, 4), (2, 2), (0, 8), (1, 6)])
    def test_rejects_bad_arguments(self, i, k):
        with pytest.raises(ValueError):
            index_set(i, k)

    @pytest.mark.parametrize("k", [2, 8, 64, 1024])
    def test_spacing_formula(self, k):
        for i in range(1, k.bit_length()):
            indices = index_set(i, k)
            assert indices.shape == (1 << i,)
            assert np.array_equal(indices, np.arange(1 << i) * (k >> i))
            assert indices[0] == 0


class TestStageMatrices:
    def test_six_bit_stage_unitaries(self):
        assert np.abs(build_stage_unitary(1, 8) - refdata.SIX_BIT_U1).max() <= 1e-12
        assert np.abs(build_stage_unitary(2, 8) - refdata.SIX_BIT_U2).max() <= 1e-12
        assert np.abs(build_stage_unitary(3, 8) - refdata.SIX_BIT_U3).max() <= 1e-12

    def test_six_bit_stage_queries(self):
        assert build_stage_query(1, 8).tolist() == refdata.SIX_BIT_Q1_VARS
        assert build_stage_query(2, 8).tolist() == refdata.SIX_BIT_Q2_VARS
        assert build_stage_query(3, 8).tolist() == refdata.SIX_BIT_Q3_VARS

    def test_four_bit_stage_matrices(self):
        assert np.abs(build_stage_unitary(1, 4) - refdata.FOUR_BIT_U1).max() <= 1e-12
        assert np.abs(build_stage_unitary(2, 4) - refdata.FOUR_BIT_U2).max() <= 1e-12
        assert build_stage_query(1, 4).tolist() == refdata.FOUR_BIT_Q1_VARS
        assert build_stage_query(2, 4).tolist() == refdata.FOUR_BIT_Q2_VARS

    def test_single_pair_stage_is_hadamard(self):
        assert np.abs(build_stage_unitary(1, 2) - hadamard_power(1)).max() <= 1e-12

    @pytest.mark.parametrize("k", [2, 4, 16, 128])
    def test_stage_unitaries_are_unitary(self, k):
        for i in range(1, k.bit_length()):
            assert is_unitary(build_stage_unitary(i, k), tol=1e-12)


class TestBuildAlgorithm:
    def test_four_bit_run_table(self, alg4):
        for word, (stage1, stage2, final, output) in refdata.FOUR_BIT_RUNS.items():
            trace = run(alg4, word)
            assert np.allclose(trace.after_stage(1), stage1, atol=1e-9), word
            assert np.allclose(trace.after_stage(2), stage2, atol=1e-9), word
            assert np.allclose(trace.final, final, atol=1e-9), word
            assert compute(alg4, word).output == output, word

    def test_two_bit_instance_by_hand(self):
        alg = build_algorithm(2)
        for word, (after_stage, final, output) in refdata.TWO_BIT_RUNS.items():
            trace = run(alg, word)
            assert np.allclose(trace.after_stage(1), after_stage, atol=1e-9), word
            assert np.allclose(trace.final, final, atol=1e-9), word
            result = compute(alg, word)
            assert (result.output, result.exact) == (output, True), word

    def test_two_bit_instance_matches_negated_xor(self):
        alg = build_algorithm(2)
        for word in ("00", "01", "10", "11"):
            x1, x2 = int(word[0]), int(word[1])
            assert compute(alg, word).output == 1 - (x1 ^ x2)

    def test_six_bit_matrices_match_fixtures(self, alg6):
        expected = (refdata.SIX_BIT_U1, refdata.SIX_BIT_U2, refdata.SIX_BIT_U3)
        expected_vars = (refdata.SIX_BIT_Q1_VARS, refdata.SIX_BIT_Q2_VARS,
                         refdata.SIX_BIT_Q3_VARS)
        for stage, exp_u, exp_v in zip(alg6.stages, expected, expected_vars):
            assert np.abs(stage.unitary - exp_u).max() <= 1e-12
            assert stage.query.tolist() == exp_v

    def test_final_unitary_is_tensor_power(self, alg6):
        h = hadamard_power(1)
        assert np.abs(alg6.final_unitary - np.kron(np.kron(h, h), h)).max() <= 1e-12

    @pytest.mark.parametrize("t", range(1, 13))
    def test_final_factors_are_bitwise_the_hadamard_power(self, t):
        # Against the entry formula, which does not call the builder, 512
        # rows at a time; hadamard_power(t) is this product.
        final = final_factors(t)
        assert final.dims == (4,) * (t // 2) + (2,) * (t % 2)
        dense = final.dense()
        assert not dense.flags.writeable
        for lo in range(0, 1 << t, 512):
            rows = slice(lo, lo + 512)
            assert dense[rows].tobytes() == refdata.hadamard_rows(t, rows).tobytes()

    @pytest.mark.parametrize("t", [13, 16, 64])
    def test_hadamard_power_is_capped_by_the_builder_cap(self, t, monkeypatch):
        # Refused before any array is built: 2**13 would be 512 MiB dense,
        # 2**16 32 GiB.
        monkeypatch.setattr(np, "zeros", lambda *args, **kwargs: pytest.fail("built an array"))
        with pytest.raises(ValueError, match=rf"^t must be at most 12, got {t}$"):
            hadamard_power(t)

    def test_n24_final_is_six_shared_factors(self, monkeypatch):
        # The 4096 x 4096 power is never built: six references to one
        # stored 4 x 4 block, under 1 KB, in place of 16.7 M entries.
        monkeypatch.setattr(model.Kron, "dense", lambda self: pytest.fail("built the power"))
        alg = build_algorithm(24)
        assert alg.final.dims == (4,) * 6
        block = alg.final.factors[0]
        assert block.values.size == 16
        assert all(a is b for f in alg.final.factors for a, b in zip(f, block))
        assert sum(a.nbytes for a in block) < 1024

    def test_stages_are_stored_as_their_nonzeros(self):
        alg = build_algorithm(20)
        k = alg.dim
        for i, stage in enumerate(alg.stages, start=1):
            # Identity plus 2**(i-1) Hadamard blocks: K + 2**i entries, not K**2.
            assert stage.nonzeros.values.size == k + (1 << i)
            assert sum(a.nbytes for a in stage.nonzeros) == 24 * (k + (1 << i))

    @pytest.mark.parametrize("n", [2, 4, 8, 12])
    def test_dense_matrices_are_byte_equal_to_the_references(self, n):
        alg = build_algorithm(n)
        k = alg.dim
        for i, stage in enumerate(alg.stages, start=1):
            # The identity with a Hadamard block at each stage-i pair.
            t1, t2 = index_set(i, k).reshape(-1, 2).T
            ref = np.eye(k)
            ref[t1, t1] = ref[t1, t2] = ref[t2, t1] = 1 / np.sqrt(2)
            ref[t2, t2] = -1 / np.sqrt(2)
            assert stage.unitary.tobytes() == build_stage_unitary(i, k).tobytes() == ref.tobytes()
        assert alg.final_unitary.tobytes() == hadamard_power(n // 2).tobytes()

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
    def test_dimension_law(self, n):
        alg = build_algorithm(n)
        assert alg.t_queries == n // 2
        assert alg.dim == 1 << (n // 2)
        assert alg.start[0] == 1.0 and not alg.start[1:].any()
        assert alg.labels[0] == 1 and not alg.labels[1:].any()

    @pytest.mark.parametrize("n", [3, 0, -2, 26])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            build_algorithm(n)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_built_matrices_are_unitary(self, n):
        alg = build_algorithm(n)
        assert alg.unitary_within()

    @pytest.mark.parametrize("n", [2, 6, 10, 12])
    def test_exact_on_every_word(self, n):
        report = check_exact(build_algorithm(n), BooleanFunction.verify(n))
        assert report.exact
        assert report.min_probability >= 1 - 1e-9


def test_matrix_rules_live_in_model_and_builder():
    assert qverify.hadamard_power is builder.hadamard_power
    assert qverify.is_unitary is model.is_unitary
    assert builder.is_power_of_two is model.is_power_of_two
    assert "tensor" not in qverify.__all__ and not hasattr(qverify, "tensor")
    assert importlib.util.find_spec("qverify.linalg") is None

"""Simulator: oracle action, unitary application, measurement, completion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import symquery.qsim as qsim
from symquery.algos import xquery_state, xquery_unitaries


def test_basis_state_measurement():
    s = qsim.basis_state(2, 3, 0, 0)
    assert qsim.measure(s) == [((0, 0), 1.0)]


def test_uniform_four_outcomes():
    amp = np.full(4, 0.5, dtype=complex)
    s = qsim.QState(1, 2, amp)
    dist = qsim.measure(s)
    assert len(dist) == 4
    assert all(abs(p - 0.25) < 1e-12 for _, p in dist)


def test_measure_prunes_tiny_amplitudes():
    amp = np.zeros(4, dtype=complex)
    amp[0] = 1.0
    amp[3] = 1e-8  # squared: 1e-16, below the pruning threshold
    s = qsim.QState(1, 2, amp)
    assert [o for o, _ in qsim.measure(s)] == [(0, 0)]


def test_norm_validation():
    with pytest.raises(ValueError):
        qsim.QState(1, 1, np.array([1.0, 1.0]))


def test_state_is_immutable():
    s = qsim.basis_state(1, 1, 0, 0)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0
    with pytest.raises(AttributeError):
        s.amplitudes = np.zeros(2)
    amp = np.array([1.0, 0.0])
    s = qsim.QState(1, 1, amp)
    amp[0] = 0.0
    assert s.amplitudes[0] == 1.0


class TestOracle:
    def test_all_zero_input_is_identity(self):
        s = qsim.basis_state(3, 2, 2, 1)
        t = qsim.apply_oracle(s, "000")
        assert np.allclose(s.amplitudes, t.amplitudes)

    def test_involution(self):
        amp = np.full(8, 1 / math.sqrt(8), dtype=complex)
        s = qsim.QState(3, 2, amp)
        t = qsim.apply_oracle(qsim.apply_oracle(s, "101"), "101")
        assert np.allclose(s.amplitudes, t.amplitudes)

    def test_signs_on_two_bit_example(self):
        amp = np.zeros(3, dtype=complex)
        amp[1] = amp[2] = 1 / math.sqrt(2)  # (|1,0> + |2,0>)/sqrt(2)
        s = qsim.QState(2, 1, amp)
        t = qsim.apply_oracle(s, "10")
        assert abs(t.amplitude(1, 0) + 1 / math.sqrt(2)) < 1e-12
        assert abs(t.amplitude(2, 0) - 1 / math.sqrt(2)) < 1e-12

    def test_zero_row_untouched(self):
        amp = np.zeros(4, dtype=complex)
        amp[0] = amp[2] = 1 / math.sqrt(2)  # (|0,0> + |1,0>)/sqrt(2)
        s = qsim.QState(1, 2, amp)
        t = qsim.apply_oracle(s, "1")
        assert abs(t.amplitude(0, 0) - 1 / math.sqrt(2)) < 1e-12
        assert abs(t.amplitude(1, 0) + 1 / math.sqrt(2)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            qsim.apply_oracle(qsim.basis_state(2, 1), "101")

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=30, deadline=None)
    def test_oracle_commutes_with_workspace_maps(self, n, data):
        m = data.draw(st.integers(1, 3))
        x = "".join(data.draw(st.sampled_from("01")) for _ in range(n))
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        v, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        u = np.kron(np.eye(n + 1), v)  # acts only on the workspace register
        amp = rng.normal(size=(n + 1) * m) + 1j * rng.normal(size=(n + 1) * m)
        amp /= np.linalg.norm(amp)
        s = qsim.QState(n, m, amp)
        a = qsim.apply_map(qsim.apply_oracle(s, x), u)
        b = qsim.apply_oracle(qsim.apply_map(s, u), x)
        assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-9)


class TestApplyMap:
    def test_identity(self):
        s = qsim.basis_state(2, 2, 1, 1)
        t = qsim.apply_map(s, np.eye(s.dim))
        assert np.allclose(s.amplitudes, t.amplitudes)

    def test_spread_map_on_start_state(self):
        m = 5
        u1, _ = xquery_unitaries(m)
        s = qsim.apply_map(qsim.basis_state(m, m + 1, 0, 0), u1)
        for i in range(1, m + 1):
            assert abs(s.amplitude(i, 0) - 1 / math.sqrt(m)) < 1e-9
        assert abs(s.amplitude(0, 0)) < 1e-9

    def test_non_unitary_rejected_with_deviation(self):
        s = qsim.basis_state(1, 1)
        bad = np.eye(2) * 1.001
        with pytest.raises(ValueError, match="deviation"):
            qsim.apply_map(s, bad)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            qsim.apply_map(qsim.basis_state(2, 1), np.eye(5))

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_norm_preserved_by_random_unitaries(self, seed):
        rng = np.random.default_rng(seed)
        dim = 6
        u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amp /= np.linalg.norm(amp)
        s = qsim.QState(1, 3, amp)
        t = qsim.apply_map(s, u)
        assert abs(float(np.sum(np.abs(t.amplitudes) ** 2)) - 1.0) < 1e-9


class TestCircuitStates:
    def test_pair_outcomes_for_balanced_four_bits(self):
        dist = qsim.measure(xquery_state("1100"))
        expected = {(1, 3), (1, 4), (2, 3), (2, 4)}
        assert {o for o, _ in dist} == expected
        assert all(abs(p - 0.25) < 1e-9 for _, p in dist)

    def test_normalization_identity_all_weights(self):
        # flat-outcome weight plus pair weight fills the whole distribution
        for m in range(1, 17):
            for t in range(m + 1):
                assert (m - 2 * t) ** 2 + 4 * t * (m - t) == m * m


class TestCompletion:
    def test_completion_is_unitary_and_preserves_columns(self):
        rng = np.random.default_rng(11)
        dim = 7
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        columns = {0: q[:, 0], 3: q[:, 1], 5: q[:, 2]}
        u = qsim.complete_unitary(dim, columns)
        assert qsim.unitary_deviation(u) < 1e-9
        for c, vec in columns.items():
            assert np.allclose(u[:, c], vec)

    def test_non_orthonormal_columns_rejected(self):
        with pytest.raises(ValueError):
            qsim.complete_unitary(3, {0: np.array([1.0, 0, 0]), 1: np.array([1.0, 0, 0])})

    def test_householder_sends_source_to_target(self):
        dim = 6
        target = np.zeros(dim)
        target[2:] = 0.5
        h = qsim.householder_map(dim, 0, target)
        assert qsim.unitary_deviation(h) < 1e-12
        assert np.allclose(h[:, 0], target)

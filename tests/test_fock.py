import math

import numpy as np
import pytest

from pairdeco import fock
from pairdeco.decoherence import s_mn


def test_truncated_mode_structure():
    mode = fock.TruncatedMode(5, 2.0)
    assert mode.lowering[0, 1] == 1.0
    assert mode.lowering[4, 5] == pytest.approx(math.sqrt(5))
    assert np.all(np.diag(mode.number) == np.arange(6))
    # [b, b+] is the identity but for the truncation corner, -n_max
    for n_max in (5, 700):
        mode = fock.TruncatedMode(n_max, 1.0)
        comm = mode.lowering @ mode.raising - mode.raising @ mode.lowering
        expected = np.eye(n_max + 1, dtype=complex)
        expected[-1, -1] = -n_max
        assert np.allclose(comm, expected, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        fock.TruncatedMode(0, 1.0)
    with pytest.raises(ValueError):
        fock.TruncatedMode(5, -1.0)


def test_hamiltonian_hermitian():
    mode = fock.TruncatedMode(8, 1.5)
    h = mode.hamiltonian(0.3 - 0.4j, f=-0.5)
    assert np.allclose(h, h.conj().T)


def test_thermal_state_basics():
    mode = fock.TruncatedMode(40, 1.0)
    theta = fock.thermal_state(mode, 1.0)
    assert np.trace(theta).real == 1.0  # pinned exactly
    assert np.all(np.diag(theta).real >= 0)
    assert np.allclose(theta, np.diag(np.diag(theta)))


def test_thermal_state_ground_limit():
    mode = fock.TruncatedMode(10, 1.0)
    theta = fock.thermal_state(mode, 50.0)
    assert theta[0, 0].real >= 1.0 - 1e-20


def test_thermal_state_occupation():
    beta_w = 0.1
    mode = fock.TruncatedMode(600, 1.0)
    theta = fock.thermal_state(mode, beta_w)
    nbar = float(np.sum(np.diag(theta).real * np.arange(601)))
    assert nbar == pytest.approx(1.0 / math.expm1(beta_w), abs=1e-6)


def test_propagator_unitary():
    mode = fock.TruncatedMode(30, 1.0)
    u = fock._propagator(mode, 0.3 - 0.2j, 1.7)
    assert np.max(np.abs(u @ u.conj().T - np.eye(31))) < 1e-12


def test_equal_lambda_pure_phase():
    mode = fock.TruncatedMode(80, 1.0)
    s = fock.numeric_s_free(0.3, 0.3, mode, 1.0, 2.0)
    assert abs(abs(s) - 1.0) < 1e-10


def test_t_zero_returns_unit_trace():
    mode = fock.TruncatedMode(60, 1.0)
    s = fock.numeric_s_free(0.3, -0.2, mode, 1.0, 0.0)
    assert s == pytest.approx(1.0, abs=1e-12)


def test_free_trace_matches_closed_form_easy_point():
    s_num, n_used = fock.converged_s_free(0.3, -0.2j, 1.0, 1.0, 1.3)
    s_cl = s_mn([(1.0, 0.3, -0.2j)], 1.0, 1.3)
    assert abs(s_num - s_cl) / abs(s_cl) < 1e-9
    assert n_used >= 2


def test_reversal_tb_zero_equals_free():
    mode = fock.TruncatedMode(70, 1.0)
    r = fock.numeric_s_reversal(0.3, 0.5, mode, 1.0, 0.8, 0.0, -0.5)
    f = fock.numeric_s_free(0.3, 0.5, mode, 1.0, 0.8)
    assert abs(r - f) < 1e-12


def test_reversal_f1_additivity():
    mode = fock.TruncatedMode(70, 1.0)
    r = fock.numeric_s_reversal(0.3, 0.5, mode, 1.0, 0.4, 0.9, 1.0)
    f = fock.numeric_s_free(0.3, 0.5, mode, 1.0, 1.3)
    assert abs(r - f) < 1e-12


def test_displaced_identity_residual():
    mode = fock.TruncatedMode(50, 1.0)
    # lambda = 0: pure matrix-product roundoff (sqrt(n)^2 vs n)
    assert fock.displaced_identity_residual(0.0, mode) <= 1e-13
    assert fock.displaced_identity_residual(0.4, mode, 1.0) <= 1e-12
    assert fock.displaced_identity_residual(0.3 - 0.2j, mode, -0.5) <= 1e-12


def test_cutoff_schedule_monotone_in_temperature():
    hot = fock.cutoff_schedule((0.3,), 1.0, 0.05)
    cold = fock.cutoff_schedule((0.3,), 1.0, 5.0)
    assert hot[0] > cold[0]
    assert hot[1] == 2 * hot[0]


def test_converge_exhaustion():
    with pytest.raises(fock.ConvergenceError) as info:
        fock.converge(lambda n: complex(n), [2, 4, 8], 0.0)
    assert info.value.last == 8.0
    assert info.value.previous == 4.0
    with pytest.raises(ValueError):
        fock.converge(lambda n: 1.0 + 0j, [], 1e-10)


def test_converge_returns_first_settled():
    value, n_used = fock.converge(lambda n: 1.0 + 0j, [4, 8, 16], 1e-10)
    assert value == 1.0
    assert n_used == 8

import math

import numpy as np
import pytest

from pairdeco import fock, oracles
from pairdeco.core import ConfigError
from pairdeco.decoherence import s_mn


def dense_hamiltonian(lam, n_max, f):
    """M + f*J = diag(j) + f*(lam* b + lam b+) as a dense complex matrix."""
    lam = complex(lam)
    lowering = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)
    return (np.diag(np.arange(n_max + 1.0))
            + f * (np.conj(lam) * lowering + lam * lowering.conj().T))


def dense_propagator(lam, n_max, t, f=1.0):
    """exp(-i (M + f J) t) by complex Hermitian eigendecomposition."""
    energies, vectors = np.linalg.eigh(dense_hamiltonian(lam, n_max, f))
    return (vectors * np.exp(-1j * energies * t)) @ vectors.conj().T


def dense_theta(beta, n_max):
    weights = np.exp(-beta * np.arange(n_max + 1))
    return np.diag(weights / weights.sum())


def dense_s_free(lm, ln, n_max, beta, t):
    """The free trace from dense propagators: the reference for the gauge."""
    return complex(np.trace(dense_propagator(lm, n_max, t)
                            @ dense_theta(beta, n_max)
                            @ dense_propagator(ln, n_max, -t)))


def dense_s_reversal(lm, ln, n_max, beta, t_f, t_b, f_b):
    left = dense_propagator(lm, n_max, t_b, f_b) @ dense_propagator(
        lm, n_max, t_f)
    right = dense_propagator(ln, n_max, -t_f) @ dense_propagator(
        ln, n_max, -t_b, f_b)
    return complex(np.trace(left @ dense_theta(beta, n_max) @ right))


#: real, imaginary, equal-modulus, non-collinear complex and zero pairs
GAUGE_PAIRS = [(0.3, -0.2), (0.5, -0.3), (0.2j, complex(0.0, -0.2)),
               (0.3, -0.3), (0.3 - 0.4j, 0.5), (0.3 + 0.4j, -0.2j),
               (0.0, 0.4), (0.0, 0.0)]


@pytest.mark.parametrize("n_max", [40, 160])
@pytest.mark.parametrize("lm, ln", GAUGE_PAIRS)
def test_gauge_traces_equal_dense_traces(lm, ln, n_max):
    beta = 1.0
    times = (0.0, 0.7, math.pi)
    gauges = fock.numeric_s_free(lm, ln, beta, times, n_max)
    for t, gauge in zip(times, gauges, strict=True):
        assert abs(gauge - dense_s_free(lm, ln, n_max, beta, t)) <= 1e-12
    pairs = ((0.5, 1.0), (0.8, 0.0), (1.3, 2.6))
    for f_b in (1.0, -0.5):
        traces = fock.numeric_s_reversal(lm, ln, beta, pairs, f_b, n_max)
        for (t_f, t_b), gauge in zip(pairs, traces, strict=True):
            dense = dense_s_reversal(lm, ln, n_max, beta, t_f, t_b, f_b)
            assert abs(gauge - dense) <= 1e-12


def test_thermal_state_basics():
    # the diagonal of Theta, which the traces carry as weights
    w = fock._thermal_weights(1.0, 40)
    assert w.sum() == 1.0  # pinned exactly
    assert np.all(w >= 0)
    for beta_w in (0.0, -1.0):
        with pytest.raises(ValueError):
            fock._thermal_weights(beta_w, 10)


def test_thermal_state_ground_limit():
    assert fock._thermal_weights(50.0, 10)[0] >= 1.0 - 1e-20


def test_thermal_state_occupation():
    beta_w = 0.1
    nbar = float(np.sum(fock._thermal_weights(beta_w, 600) * np.arange(601)))
    assert nbar == pytest.approx(1.0 / math.expm1(beta_w), abs=1e-6)


def test_gauge_reduction_is_exact_similarity():
    # D (M + f J) D^+ is the real tridiagonal the traces diagonalize
    for lam, f in ((0.3 - 0.4j, -0.5), (0.2j, 1.0), (-0.3, -0.5)):
        (e, v, u), = fock._mode_systems(((lam, f),), 30)
        d = np.diag(u ** np.arange(31))
        t = d @ dense_hamiltonian(lam, 30, f) @ d.conj().T
        assert np.max(np.abs(t.imag)) <= 1e-15
        assert np.max(np.abs(t.real @ v - v * e)) <= 1e-12


def test_equal_lambda_pure_phase():
    s, = fock.numeric_s_free(0.3, 0.3, 1.0, [2.0], 80)
    assert abs(abs(s) - 1.0) < 1e-10


def test_t_zero_returns_unit_trace():
    s, = fock.numeric_s_free(0.3, -0.2, 1.0, [0.0], 60)
    assert s == pytest.approx(1.0, abs=1e-12)


def test_free_trace_matches_closed_form_easy_point():
    s_cl = s_mn([(1.0, 0.3, -0.2j)], 1.0, 1.3)
    (s_num,), n_used = fock.converged_s_free(0.3, -0.2j, 1.0, [1.3],
                                             0.25e-9 * abs(s_cl))
    assert abs(s_num - s_cl) / abs(s_cl) < 1e-9
    assert n_used >= 2


def test_reversal_tb_zero_equals_free():
    r, = fock.numeric_s_reversal(0.3, 0.5, 1.0, [(0.8, 0.0)], -0.5, 70)
    f, = fock.numeric_s_free(0.3, 0.5, 1.0, [0.8], 70)
    assert abs(r - f) < 1e-12


def test_reversal_f1_additivity():
    r, = fock.numeric_s_reversal(0.3, 0.5, 1.0, [(0.4, 0.9)], 1.0, 70)
    f, = fock.numeric_s_free(0.3, 0.5, 1.0, [1.3], 70)
    assert abs(r - f) < 1e-12


def test_displaced_identity_residual():
    # lambda = 0: pure matrix-product roundoff (sqrt(n)^2 vs n)
    assert fock.displaced_identity_residual(0.0, 50, 1.0) <= 1e-13
    assert fock.displaced_identity_residual(0.4, 50, 1.0) <= 1e-12
    assert fock.displaced_identity_residual(0.3 - 0.2j, 50, -0.5) <= 1e-12


def test_tail_bound_n_max():
    n_hot = fock.tail_bound_n_max(0.1, (0.5,), 1e-20)
    n_cold = fock.tail_bound_n_max(5.0, (0.5,), 1e-20)
    assert n_hot > n_cold
    assert n_cold >= 20
    # 0.25 * tol * |S| at tol = 1e-300 is subnormal: c/target overflows,
    # its logarithm does not, and the cutoff it names is past the limit
    with pytest.raises(ConfigError, match="cutoff of 7267"):
        fock.tail_bound_n_max(0.1, (-0.3, 0.5), 0.25 * 1e-300 * 1.9e-12)


@pytest.mark.parametrize("beta", [0.1, 1.0, 5.0])
def test_tail_bound_n_max_at_target_past_tail_constant(beta):
    # at target >= c = 2/(1-q)^2 the tail bound holds at every n >= 0,
    # so the thermal tail takes no levels and only the displacement's
    # 4 max|lam|^2 + 20 remain
    c = 2.0 / (1.0 - math.exp(-beta)) ** 2
    for target in (c, 2.0 * c, 1e20, 1e300, math.inf):
        assert fock.tail_bound_n_max(beta, (0.3, -0.5), target) == 21
        assert fock.tail_bound_n_max(beta, (), target) == 20
    assert fock.tail_bound_n_max(beta, (), 0.5 * c) > 20


def test_float64_records_of_a_group_share_one_cutoff(monkeypatch, capsys):
    calls = []

    def counted(trace):
        def wrapper(*args):
            calls.append(args)
            return trace(*args)
        return wrapper

    for name in ("converged_s_free", "converged_s_reversal"):
        monkeypatch.setattr(fock, name, counted(getattr(fock, name)))
    report = oracles.fock_suite(quick=True)
    groups = {}
    for c in report["checks"]:
        if "rel_err" in c:
            assert c["method"] == "float64"
            inputs = c["inputs"]
            key = (complex(*inputs["lambda_m"]), complex(*inputs["lambda_n"]),
                   inputs["beta_omega"])
            groups.setdefault(key, []).append(c)
    assert len(groups) == len(capsys.readouterr().err.splitlines())
    # one call per kind per group, each over all of the group's times
    assert len(calls) == 2 * len(groups)
    for (lm, ln, beta), records in groups.items():
        smallest = min(abs(complex(*c["closed_form"])) for c in records)
        cutoff = fock.tail_bound_n_max(beta, (lm, ln),
                                       0.25 * oracles.FOCK_TOL * smallest)
        assert {c["n_max"] for c in records} == {cutoff}

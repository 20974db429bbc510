"""Acceptance gate: one test per criterion, named and ordered.

The `pytest -v` line of each test is the per-criterion pass/fail
record; each test also prints an `ACCEPTANCE n: PASS` line (visible
with -s or -rP) once its assertions have all held.
"""

import math

import numpy as np
import pytest

from pairdeco import eigdist, magicecho as me, oracles, phonon
from pairdeco.core import gypsum_config
from pairdeco.fock import displaced_identity_residual, numeric_s_free, \
    numeric_s_reversal


@pytest.fixture(scope="module")
def cfg():
    return gypsum_config()


@pytest.fixture(scope="module")
def rates(cfg):
    return phonon.rate_constants(cfg)


def test_criterion_01_paper_constants(cfg, rates):
    """Reference-sample rate constants within 1% (Omega0 within 0.5%)."""
    assert rates.Omega0 == pytest.approx(-210.7e3, rel=5e-3)
    assert rates.nuD == pytest.approx(1.2e-8 * 1e3, rel=1e-2)   # 1.2e-8 kHz
    assert rates.nu0 == pytest.approx(16.8e3, rel=1e-2)
    assert rates.tau_gamma == pytest.approx(1926.0, rel=1e-2)
    print("ACCEPTANCE 1: PASS - reference rate constants")


def test_criterion_02_decay_constants(cfg, rates):
    """tau_gamma_min = 214 s (1%), tau_X = 165 us (2%), sigma_X anchor."""
    assert rates.tau_gamma_min == pytest.approx(214.0, rel=1e-2)
    assert rates.sigma_X == pytest.approx(
        math.sqrt(1.5 * (1e23) ** (2.0 / 3.0)))
    assert rates.sigma_X == pytest.approx(5.68e7, rel=1e-2)
    assert rates.tau_X == pytest.approx(165e-6, rel=2e-2)
    print("ACCEPTANCE 2: PASS - decay constants")


def test_criterion_03_parameter_extremes(rates):
    """tau_X extremes over (N, v_s) and the observable oscillation."""
    hot = phonon.rate_constants(gypsum_config(N=1e21, v_s=8000.0))
    assert hot.tau_X == pytest.approx(2343e-6, rel=2e-2)
    cold = phonon.rate_constants(gypsum_config(N=1e25, v_s=2000.0))
    assert cold.tau_X == pytest.approx(6.8e-6, rel=2e-2)
    assert rates.nu0_hat == pytest.approx(50.4e3, rel=2e-2)
    assert rates.tau_X_hat == pytest.approx(55e-6, rel=2e-2)
    print("ACCEPTANCE 3: PASS - parameter extremes and observables")


def test_criterion_04_echo_factors(cfg, rates):
    """Echo doubles the envelope time; amplitude Gaussian exact."""
    tau_echo = 2.0 * rates.tau_X
    tau_echo_hat = tau_echo / 3.0
    assert tau_echo_hat == pytest.approx(110e-6, rel=2e-2)
    # elementwise doubled time constant
    s0 = phonon.initial_after_pulse(cfg.omega0_larmor, cfg.T)
    t = 90e-6
    echo = me.me_sigma(cfg, s0, t)
    free_half = phonon.free_sigma(cfg, s0, t / 2.0)
    assert np.allclose(np.abs(echo), np.abs(free_half), rtol=1e-12)
    assert me.me_amplitude(cfg, tau_echo_hat) == pytest.approx(
        math.exp(-1.0), abs=1e-12)
    print("ACCEPTANCE 4: PASS - echo time-constant factors")


def test_criterion_05_fock_oracle_equivalence():
    """Closed forms vs truncated-Fock traces, 1e-8 relative, full grid.

    Free and reversal (f_B = -1/2, t_B = 2 t_F) decoherence functions
    over the documented lambda/beta/time grid; strongly decohered
    points run on the double-double engine.  Runtime 5-7 s on a 2-CPU
    machine.
    """
    report = oracles.fock_suite()
    bad = [c for c in report["checks"] if not c["passed"]]
    assert not bad, f"failing grid points: {bad[:3]}"
    grid_points = [c for c in report["checks"] if "rel_err" in c]
    assert len(grid_points) >= 2 * 15 * 9  # free + reversal per pair
    worst = max(c["rel_err"] for c in grid_points)
    assert worst <= 1e-8
    assert all(c["n_max"] <= 700 for c in grid_points)
    print(f"ACCEPTANCE 5: PASS - oracle equivalence, worst rel {worst:.3g}")


def test_criterion_06_reversal_additivity_and_displacement():
    """f_B = 1 additivity to 1e-12; displaced identity to 1e-12 omega."""
    n_max, beta = 160, 1.0
    pairs = ((0.4, 0.9), (1.0, 2.0), (0.1, 3.0))
    for lm, ln in ((0.3, 0.5), (0.3, -0.2j), (-0.2j, 0.5)):
        revs = numeric_s_reversal(lm, ln, beta, pairs, 1.0, n_max)
        frees = numeric_s_free(lm, ln, beta,
                               [t_f + t_b for t_f, t_b in pairs], n_max)
        for rev, free in zip(revs, frees, strict=True):
            assert abs(rev - free) <= 1e-12
    for f in (1.0, -0.5):
        for lam in (0.0, 0.4, 0.3 - 0.2j, 0.5j):
            assert displaced_identity_residual(lam, n_max, f) <= 1e-12
    print("ACCEPTANCE 6: PASS - additivity and displaced identity")


def test_criterion_07_eigenvalue_distribution():
    """Exact counts/moments (zero tolerance) and CLT convergence."""
    for n in (4, 8, 12, 16, 20):
        table = eigdist.exact_counts(n)
        assert table.total() == 4**n
        mean, var = eigdist.dist_moments(table)
        assert mean == 0
        assert 2 * var == 3 * n  # exact rational identity
    distances = [eigdist.kolmogorov_distance(eigdist.exact_counts(n))
                 for n in (4, 8, 12, 16, 20)]
    assert all(b <= a for a, b in zip(distances, distances[1:]))
    print("ACCEPTANCE 7: PASS - exact distribution and CLT witness")


def test_criterion_08_discrete_vs_continuum():
    """Discrete k-sums vs closed kernels, 2%, 1e5 modes, x in {0, a, 3a}.

    gamma is compared inside the continuum window where its linear
    closed form is defined (at 1 us the discrete sum has saturated, 57x
    beyond the finite-size recurrence bound); epsilon and zeta use
    t = 1 us.  At the lattice zeros x = a, 3a the closed zeta is a
    cancellation residue ~5 orders below the kernel scale, so those two
    points are measured against the x = 0 kernel magnitude.
    """
    report = oracles.ksum_suite()
    bad = [c for c in report["checks"] if not c["passed"]]
    assert not bad, f"failing kernel checks: {bad}"
    assert all(c["rel_err"] <= 0.02 for c in report["checks"]
               if "rel_err" in c)
    kinds = {c["kind"] for c in report["checks"]}
    assert {"gamma_window", "epsilon", "zeta_x0",
            "zeta_lattice_zero", "window_consistency"} <= kinds
    print("ACCEPTANCE 8: PASS - discrete vs continuum kernels")


def test_criterion_09_structural_invariants(cfg):
    """Hermiticity/trace, eigen-selection, monotone envelopes, scaling."""
    s0 = phonon.initial_after_pulse(cfg.omega0_larmor, cfg.T)
    previous = None
    for t in np.linspace(0.0, 4e-4, 9):
        s = phonon.free_sigma(cfg, s0, float(t))
        assert np.allclose(s, s.conj().T)
        assert abs(np.trace(s)) < 1e-25
        assert np.allclose(np.diag(s), np.diag(s0))
        if previous is not None:
            assert np.all(np.abs(s) <= np.abs(previous) + 1e-30)
        previous = s
    # eigen-selection: equal kappas never decay
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 2] = mat[2, 0] = 1.0
    assert np.allclose(phonon.free_sigma(cfg, mat, 1e-3), mat)
    # scaling laws
    base = phonon.rate_constants(cfg)
    assert phonon.rate_constants(gypsum_config(v_s=2 * cfg.v_s)).tau_X \
        == pytest.approx(4 * base.tau_X, rel=1e-12)
    assert phonon.rate_constants(gypsum_config(N=8 * cfg.N)).tau_X \
        == pytest.approx(base.tau_X / 2, rel=1e-12)
    taus = me.theory_curve([20.0, 40.0], cfg.v_s, cfg.N)
    assert taus[0] == pytest.approx(4 * taus[1], rel=1e-12)
    print("ACCEPTANCE 9: PASS - structural invariants")


def test_criterion_10_experiment_curve_substitute():
    """Power law, anchor arithmetic, synthetic round trip (no real data)."""
    # strict nu^-2 power law
    nus = [10.0, 20.0, 40.0, 80.0]
    taus = me.theory_curve(nus, 4570.0, 4.7e22)
    for (n1, t1), (n2, t2) in zip(zip(nus, taus), zip(nus[1:], taus[1:])):
        assert t2 == pytest.approx(t1 * (n1 / n2) ** 2, rel=1e-12)
    # anchor arithmetic
    anchor = me.theory_curve([50.4], 4570.0, 4.7e22)[0]
    assert anchor == pytest.approx(141e-6, rel=2e-2)
    # synthetic round trip with deterministic 5% perturbations
    perturb = [1.05, 0.95, 1.03, 0.97]
    records = [me.ExperimentRecord(nu_hat_0=nu, tau_exp=tau * p)
               for nu, tau, p in zip(nus, taus, perturb)]
    report = me.compare_experiment(records, 4570.0, 4.7e22)
    for record, theory, residual in zip(report.records, report.tau_theory,
                                        report.residuals):
        assert abs(residual) <= 3 * 0.05 * theory
    print("ACCEPTANCE 10: PASS - experiment-curve substitute")

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairdeco import eigdist, magicecho as me, phonon
from pairdeco.core import gypsum_config
from pairdeco.decoherence import decoherence_exponent_k, s_mn

CFG = gypsum_config()

finite_lambda = st.complex_numbers(min_magnitude=0.0, max_magnitude=2.0,
                                   allow_nan=False, allow_infinity=False)
pos_omega = st.floats(min_value=0.1, max_value=10.0)
pos_beta = st.floats(min_value=0.05, max_value=20.0)
pos_time = st.floats(min_value=0.0, max_value=50.0)


@given(finite_lambda, finite_lambda, pos_omega, pos_beta, pos_time)
def test_gamma_nonnegative_and_modulus_bounded(lm, ln, omega, beta, t):
    exp = decoherence_exponent_k(lm, ln, omega, beta, t)
    assert exp.gamma >= 0.0
    assert abs(s_mn([(omega, lm, ln)], beta, t)) <= 1.0 + 1e-12


@given(finite_lambda, pos_omega, pos_beta, pos_time)
def test_eigen_selection(lam, omega, beta, t):
    exp = decoherence_exponent_k(lam, lam, omega, beta, t)
    assert exp.gamma == 0.0


@given(finite_lambda, finite_lambda, pos_omega, pos_beta, pos_time)
def test_conjugate_swap(lm, ln, omega, beta, t):
    a = s_mn([(omega, lm, ln)], beta, t)
    b = s_mn([(omega, ln, lm)], beta, t)
    assert abs(a - b.conjugate()) <= 1e-9 * max(abs(a), 1e-300)


@given(finite_lambda, finite_lambda, pos_omega, pos_beta,
       st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=0.0, max_value=10.0))
def test_reversal_f1_is_free_evolution(lm, ln, omega, beta, t_f, t_b):
    sched = me.ReversalSchedule(t_F=t_f, t_B=t_b, f_B=1.0)
    rev = me.reversal_exponent_k(lm, ln, omega, beta, sched)
    free = decoherence_exponent_k(lm, ln, omega, beta, t_f + t_b)
    scale = max(abs(free.gamma), abs(free.upsilon), 1.0)
    assert abs(rev.gamma - free.gamma) <= 1e-10 * scale
    assert abs(rev.upsilon - free.upsilon) <= 1e-10 * scale


@given(st.floats(min_value=-1.0, max_value=-1e-6),
       st.floats(min_value=1e-9, max_value=100.0),
       st.floats(min_value=0.0, max_value=100.0))
def test_irreversibility_linear_phase(f_b, t_b, t_f):
    assert t_f + f_b**2 * t_b > 0.0


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
       st.floats(min_value=0.0, max_value=1e3),
       st.floats(min_value=1.0, max_value=1e4))
def test_phi_step_bounds(x, t, v_s):
    phi = phonon.phi_step(x, t, v_s)
    assert 0.0 <= phi / math.pi <= 1.0


@given(st.floats(min_value=0.0, max_value=1e-3))
def test_free_sigma_hermitian_traceless(t):
    s0 = phonon.initial_after_pulse(CFG.omega0_larmor, CFG.T)
    s = phonon.free_sigma(CFG, s0, t)
    assert np.allclose(s, s.conj().T)
    assert abs(np.trace(s)) < 1e-25


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("evolve", [phonon.free_sigma, me.me_sigma])
@settings(max_examples=25)
@given(st.lists(st.floats(min_value=0.0, max_value=2e-3), max_size=40))
def test_times_array_is_stack_of_scalar_calls(evolve, exact, times):
    s0 = phonon.initial_after_pulse(CFG.omega0_larmor, CFG.T)
    times = np.array([0.0] + sorted(times))
    stacked = np.stack([evolve(CFG, s0, float(t), exact_path=exact)
                        for t in times])
    assert np.array_equal(evolve(CFG, s0, times, exact_path=exact), stacked)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("evolve", [phonon.free_sigma, me.me_sigma])
def test_sigma_at_zero_is_sigma0(evolve, exact):
    # on the exact path G' multiplies sigma(0) too; at the reference
    # sample it is 1 - 1.2e-10, so this pins the size of that effect
    s0 = phonon.initial_after_pulse(CFG.omega0_larmor, CFG.T)
    s = evolve(CFG, s0, 0.0, exact_path=exact)
    assert np.all(np.abs(s - s0) <= 1e-9 * np.abs(s0))


@given(st.floats(min_value=0.0, max_value=5e-4),
       st.floats(min_value=1.0, max_value=3.0))
def test_envelope_monotone(t, factor):
    s0 = phonon.initial_after_pulse(CFG.omega0_larmor, CFG.T)
    early = phonon.free_sigma(CFG, s0, t)
    late = phonon.free_sigma(CFG, s0, t * factor)
    assert np.all(np.abs(late) <= np.abs(early) + 1e-30)


@given(st.floats(min_value=0.0, max_value=2e-3))
def test_me_amplitude_in_unit_interval(t):
    amp = me.me_amplitude(CFG, t)
    assert 0.0 < amp <= 1.0


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=14))
def test_eigdist_exactness(n):
    table = eigdist.exact_counts(n)
    assert table.total() == 4**n
    mean, var = eigdist.dist_moments(table)
    assert mean == 0
    assert var == Fraction(3 * n, 2)
    support = table.support()
    assert support[0] == -2 * n and support[-1] == n


@settings(max_examples=20)
@given(st.floats(min_value=1e20, max_value=1e26),
       st.floats(min_value=500.0, max_value=10000.0))
def test_tau_x_scaling_laws(n, v_s):
    base = phonon.rate_constants(gypsum_config(N=n, v_s=v_s))
    doubled_vs = phonon.rate_constants(gypsum_config(N=n, v_s=2.0 * v_s))
    assert doubled_vs.tau_X == pytest.approx(4.0 * base.tau_X, rel=1e-9)
    scaled_n = phonon.rate_constants(gypsum_config(N=8.0 * n, v_s=v_s))
    assert scaled_n.tau_X == pytest.approx(base.tau_X / 2.0, rel=1e-9)
    # the observable-frequency form of the same decay time
    assert 1.0 / phonon.decay_rate(base.nu0_hat, v_s, base.sigma_X) \
        == pytest.approx(base.tau_X, rel=1e-9)

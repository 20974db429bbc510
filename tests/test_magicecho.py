import io
import math

import numpy as np
import pytest

from pairdeco import magicecho as me, phonon
from pairdeco.core import gypsum_config
from pairdeco.decoherence import decoherence_exponent_k


@pytest.fixture
def cfg():
    return gypsum_config()


def test_schedule_validation():
    with pytest.raises(ValueError):
        me.ReversalSchedule(t_F=-1.0, t_B=0.0, f_B=-0.5)
    sched = me.ideal_echo_schedule(3.0)
    assert sched.t_F == 1.0
    assert sched.t_B == 2.0
    assert sched.f_B == -0.5
    assert sched.total == 3.0


def test_reversal_trig_f1_collapse():
    sched = me.ReversalSchedule(0.4, 0.9, 1.0)
    c, s = me.reversal_trig(2.0, sched)
    assert c == pytest.approx(1.0 - math.cos(2.0 * 1.3), rel=1e-12)
    assert s == pytest.approx(math.sin(2.0 * 1.3), rel=1e-12)
    assert me.reversal_trig(2.0, me.ReversalSchedule(0, 0, -0.5)) == (0.0, 0.0)


def echo_reduced_trig(omega, t):
    """(C, S) specialized to the ideal echo, as explicit harmonics of t/3.

    C = (3/2)[1-cos(wt/3)] + (3/4)[1-cos(2wt/3)] - (1/2)[1-cos(wt)]
    and the sine analogue; coded independently of reversal_trig.
    """
    c = 0.0
    s = 0.0
    for n, j in enumerate(me.ME_STEP_WEIGHTS, start=1):
        c += j * (1.0 - math.cos(n * omega * t / 3.0))
        s += j * math.sin(n * omega * t / 3.0)
    return c, s


def test_reversal_trig_matches_reduced_form():
    # both codings of the ideal-echo trig, independent by construction
    for omega in (0.7, 1.0, 3.1):
        for t in (0.3, 1.0, 7.7):
            sched = me.ideal_echo_schedule(t)
            c1, s1 = me.reversal_trig(omega, sched)
            c2, s2 = echo_reduced_trig(omega, t)
            assert c1 == pytest.approx(c2, abs=1e-12)
            assert s1 == pytest.approx(s2, abs=1e-12)


def test_reversal_exponent_f1_additivity():
    sched = me.ReversalSchedule(0.4, 0.9, 1.0)
    rev = me.reversal_exponent_k(0.3, -0.2j, 1.7, 0.8, sched)
    free = decoherence_exponent_k(0.3, -0.2j, 1.7, 0.8, 1.3)
    assert rev.gamma == pytest.approx(free.gamma, abs=1e-12)
    assert abs(rev.upsilon - free.upsilon) < 1e-12


def test_reversal_exponent_equal_lambdas():
    sched = me.ideal_echo_schedule(2.0)
    exp = me.reversal_exponent_k(0.4, 0.4, 1.0, 1.0, sched)
    assert exp.gamma == 0.0
    assert exp.upsilon == 0.0


def test_linear_phase_never_cancelled():
    # the secular drift term stays positive for any partial reversal
    for f in np.linspace(-1.0, -1e-3, 7):
        for t_b in (0.1, 1.0, 10.0):
            sched = me.ReversalSchedule(0.5, t_b, float(f))
            assert sched.t_F + sched.f_B**2 * sched.t_B > 0


def test_phi_step_echo_range(cfg):
    values = [me.phi_step_echo(x, 1.0, 1.0)
              for x in np.linspace(-2.0, 2.0, 2001)]
    assert min(values) >= -math.pi / 2.0 - 1e-12
    assert max(values) <= 7.0 * math.pi / 4.0 + 1e-12
    assert me.phi_step_echo(0.0, 1.0, 1.0) == pytest.approx(7 * math.pi / 4)


def test_zeta_closed_echo_halves_linear_term(cfg):
    t = 1e-6
    z_echo = me.zeta_closed_echo(cfg, 0.0, t)
    c = cfg.constants
    scale = cfg.d**2 * c.hbar * cfg.a / (2.0 * cfg.v_s**3 * c.m_p)
    expected = scale * (7.0 / 8.0 - cfg.v_s / cfg.a * t / 2.0)
    assert z_echo == pytest.approx(expected, rel=1e-12)


def test_me_sigma_structure(cfg):
    s0 = phonon.initial_after_pulse(cfg.omega0_larmor, cfg.T)
    assert np.allclose(me.me_sigma(cfg, s0, 0.0), s0)
    t = 80e-6
    s = me.me_sigma(cfg, s0, t)
    assert np.allclose(s, s.conj().T)
    # no oscillation: phases of nonzero elements unchanged
    mask = s0 != 0
    assert np.allclose(np.angle(s[mask]), np.angle(s0[mask]))
    with pytest.raises(ValueError):
        me.me_sigma(cfg, s0, -1.0)


def test_me_slower_than_free(cfg):
    s0 = phonon.initial_after_pulse(cfg.omega0_larmor, cfg.T)
    for t in (20e-6, 60e-6, 150e-6):
        echo = me.me_sigma(cfg, s0, t)
        free = phonon.free_sigma(cfg, s0, t)
        assert np.all(np.abs(echo) >= np.abs(free) - 1e-30)


def test_me_sigma_double_time_constant(cfg):
    rates = phonon.rate_constants(cfg)
    s0 = phonon.initial_after_pulse(cfg.omega0_larmor, cfg.T)
    t = 70e-6
    echo = me.me_sigma(cfg, s0, t)
    free_at_half = phonon.free_sigma(cfg, s0, t / 2.0)
    assert np.allclose(np.abs(echo), np.abs(free_at_half), rtol=1e-12)


def test_me_sigma_exact_path_close(cfg):
    s0 = phonon.initial_after_pulse(cfg.omega0_larmor, cfg.T)
    t = 80e-6
    default = me.me_sigma(cfg, s0, t)
    exact = me.me_sigma(cfg, s0, t, exact_path=True)
    assert np.max(np.abs(default - exact)) < 1e-6 * np.max(np.abs(s0))


def test_me_amplitude(cfg):
    rates = phonon.rate_constants(cfg)
    tau_hat = 2.0 * rates.tau_X / 3.0
    assert tau_hat == pytest.approx(110e-6, rel=2e-2)
    assert me.me_amplitude(cfg, 0.0) == 1.0
    assert me.me_amplitude(cfg, tau_hat) == pytest.approx(math.exp(-1.0),
                                                          abs=1e-12)
    grid = np.linspace(0.0, 5 * tau_hat, 50)
    values = [me.me_amplitude(cfg, float(t)) for t in grid]
    assert all(0.0 < v <= 1.0 for v in values)
    assert all(b <= a for a, b in zip(values, values[1:]))


def ix_expectation(cfg, t, n_pairs):
    """Collective <I_x> after the echo, for n_pairs identical pairs.

    -(hbar w0 n / K_B T) sum |<m|I_x|n>|^2 exp(-[3t/(2 tau_X)]^2); the
    four nonzero elements contribute |I_x|^2 summing to 2.  Must agree
    with n * Tr[I_x me_sigma(t)].
    """
    c = cfg.constants
    rates = phonon.rate_constants(cfg)
    weight = np.sum(phonon.ix_matrix() ** 2)
    arg = 3.0 * t / (2.0 * rates.tau_X)
    return (-c.hbar * cfg.omega0_larmor * n_pairs / (c.k_B * cfg.T)
            * float(weight) * math.exp(-(arg**2)))


def test_ix_expectation_paths_agree(cfg):
    for t in (0.0, 40e-6, 120e-6):
        explicit = ix_expectation(cfg, t, cfg.N)
        s0 = phonon.initial_after_pulse(cfg.omega0_larmor, cfg.T)
        via_trace = cfg.N * np.trace(
            phonon.ix_matrix() @ me.me_sigma(cfg, s0, t)).real
        assert explicit == pytest.approx(via_trace, rel=1e-12)
    # amplitude ratio equals me_amplitude
    t = 90e-6
    ratio = ix_expectation(cfg, t, cfg.N) / ix_expectation(cfg, 0.0, cfg.N)
    assert ratio == pytest.approx(me.me_amplitude(cfg, t), rel=1e-12)


def test_ix_weight_sum():
    assert np.sum(phonon.ix_matrix() ** 2) == pytest.approx(2.0)


def test_theory_curve_power_law():
    taus = me.theory_curve([25.2, 50.4, 100.8], 4570.0, 1e23)
    assert taus[0] == pytest.approx(4.0 * taus[1], rel=1e-12)
    assert taus[2] == pytest.approx(taus[1] / 4.0, rel=1e-12)
    with pytest.raises(ValueError):
        me.theory_curve([-1.0], 4570.0, 1e23)


def test_theory_curve_anchors():
    assert me.theory_curve([50.4], 4570.0, 1e23)[0] == pytest.approx(
        110e-6, rel=2e-2)
    assert me.theory_curve([50.4], 4570.0, 4.7e22)[0] == pytest.approx(
        141e-6, rel=2e-2)


def test_load_experiment_csv():
    good = io.StringIO("nu_hat_khz,tau_exp_us\n50.4,140\n\n30,400\n")
    records = me.load_experiment_csv(good)
    assert len(records) == 2
    assert records[0].tau_exp == pytest.approx(140e-6)
    with pytest.raises(ValueError, match="empty"):
        me.load_experiment_csv(io.StringIO(""))
    with pytest.raises(ValueError, match="line 1"):
        me.load_experiment_csv(io.StringIO("bad,header\n1,2\n"))
    with pytest.raises(ValueError, match="line 2"):
        me.load_experiment_csv(io.StringIO("nu_hat_khz,tau_exp_us\nx,2\n"))
    with pytest.raises(ValueError, match="line 3"):
        me.load_experiment_csv(
            io.StringIO("nu_hat_khz,tau_exp_us\n50,140\n-1,3\n"))


def test_compare_experiment_exact_match():
    tau = me.theory_curve([50.4], 4570.0, 4.7e22)[0]
    record = me.ExperimentRecord(nu_hat_0=50.4, tau_exp=tau)
    report = me.compare_experiment([record], 4570.0, 4.7e22)
    assert report.residuals[0] == pytest.approx(0.0, abs=1e-20)
    assert set(report.envelopes) == {"lower", "upper"}
    assert report.envelopes["lower"][0] < tau < report.envelopes["upper"][0]
    with pytest.raises(ValueError):
        me.compare_experiment([], 4570.0, 1e22)


def test_comparison_csv():
    record = me.ExperimentRecord(nu_hat_0=50.4, tau_exp=140e-6)
    report = me.compare_experiment([record], 4570.0, 4.7e22)
    buf = io.StringIO()
    me.write_comparison_csv(report, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "nu_hat_khz,tau_exp_us,tau_theory_us,residual_us"
    fields = lines[1].split(",")
    assert float(fields[1]) == pytest.approx(140.0)
    assert float(fields[2]) == pytest.approx(140.9, rel=1e-2)

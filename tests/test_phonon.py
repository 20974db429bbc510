import math
import warnings
from collections import namedtuple

import numpy as np
import pytest

from pairdeco import core, phonon
from pairdeco.core import ConfigError, gypsum_config


@pytest.fixture
def cfg():
    return gypsum_config()


def test_dipolar_coupling_reference(cfg):
    omega0 = phonon.dipolar_coupling(cfg.d)
    assert omega0 == pytest.approx(-2.107e5, rel=5e-3)


def test_dipolar_coupling_angles(cfg):
    magic = math.acos(1.0 / math.sqrt(3.0))
    assert phonon.dipolar_coupling(cfg.d, magic) == pytest.approx(0.0, abs=1e-12)
    perp = phonon.dipolar_coupling(cfg.d, math.pi / 2.0)
    par = phonon.dipolar_coupling(cfg.d, 0.0)
    assert perp == pytest.approx(0.5 * abs(par), rel=1e-12)
    with pytest.raises(ConfigError):
        phonon.dipolar_coupling(-1.0)


def test_level_quantities(cfg):
    omega0 = phonon.dipolar_coupling(cfg.d)
    t_zero, singlet = core.KAPPA_VALUES[1], core.KAPPA_VALUES[3]
    assert phonon.level_energy(cfg, t_zero) == pytest.approx(-omega0)
    assert phonon.lambda_coefficient(cfg, t_zero) == pytest.approx(
        3.0 * omega0 / cfg.d)
    assert phonon.lambda_coefficient(cfg, singlet) == 0.0
    for kappa in (2, -1, "T0"):
        for quantity in (phonon.level_energy, phonon.lambda_coefficient):
            with pytest.raises(ConfigError, match="kappa"):
                quantity(cfg, kappa)


def test_acoustic_coupling_structure(cfg):
    assert phonon.acoustic_coupling(0.0, cfg) == 0j
    k = 1e9
    g = phonon.acoustic_coupling(k, cfg)
    assert g.real == 0.0  # purely imaginary
    assert phonon.acoustic_coupling(-k, cfg) == -g  # odd
    with pytest.raises(ConfigError):
        phonon.acoustic_coupling(2.0 * math.pi / cfg.a, cfg)


def test_acoustic_coupling_small_kd_limit(cfg):
    k = 0.3 / cfg.d  # |k| d = 0.3 <= 0.35
    g = phonon.acoustic_coupling(k, cfg)
    omega_k = cfg.v_s * k
    limit = (core.HBAR * cfg.d**2 / (4.0 * cfg.v_s**3 * core.M_P * cfg.N)
             / k)
    assert abs(g) ** 2 / omega_k**2 == pytest.approx(limit, rel=1e-2)


OpticalRatio = namedtuple("OpticalRatio", ["ratio", "condition_holds"])


def optical_acoustic_ratio(k, omega_o, cfg):
    """Optical-to-acoustic weight ratio of the kernel integrand.

    ratio = 4 v_s^3 |k| / (w_o^3 d^2); the optical branch is negligible
    when |k| a < 2 (d/a)^2 (w_o/w_a)^3 with w_a = 2 v_s/a, reported as
    the boolean.
    """
    if omega_o <= 0:
        raise ConfigError("omega_o > 0 violated")
    if k == 0:
        raise ConfigError("k != 0 required")
    ratio = 4.0 * cfg.v_s**3 * abs(k) / (omega_o**3 * cfg.d**2)
    omega_a = 2.0 * cfg.v_s / cfg.a
    condition = abs(k) * cfg.a < 2.0 * (cfg.d / cfg.a) ** 2 \
        * (omega_o / omega_a) ** 3
    return OpticalRatio(ratio=ratio, condition_holds=bool(condition))


def test_optical_acoustic_ratio(cfg):
    omega_a = 2.0 * cfg.v_s / cfg.a
    r = optical_acoustic_ratio(math.pi / cfg.a, 5.0 * omega_a, cfg)
    assert r.ratio < 1.0
    assert r.condition_holds
    r_inf = optical_acoustic_ratio(math.pi / cfg.a, 1e6 * omega_a, cfg)
    assert r_inf.ratio < 1e-10
    r_eq = optical_acoustic_ratio(math.pi / cfg.a, omega_a, cfg)
    assert not r_eq.condition_holds
    with pytest.raises(ConfigError):
        optical_acoustic_ratio(0.0, omega_a, cfg)


def test_closed_kernels_linear(cfg):
    t = 2e-10
    g1, e1 = phonon.closed_kernels(cfg, t)
    g2, e2 = phonon.closed_kernels(cfg, 2 * t)
    assert g2 == pytest.approx(2 * g1)
    assert e2 == pytest.approx(2 * e1)
    g0, e0 = phonon.closed_kernels(cfg, 0.0)
    assert g0 == 0.0 and e0 == 0.0
    with pytest.raises(ValueError):
        phonon.closed_kernels(cfg, -1.0)
    with pytest.warns(UserWarning, match="window"):
        phonon.closed_kernels(cfg, 1e-14)


def test_phi_step():
    assert phonon.phi_step(0.0, 1.0, 1.0) == math.pi
    assert phonon.phi_step(1.0, 1.0, 1.0) == math.pi / 2.0
    assert phonon.phi_step(2.0, 1.0, 1.0) == 0.0
    assert phonon.phi_step(0.5, 0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        phonon.phi_step(0.0, -1.0, 1.0)


def test_sinc_weight(cfg):
    assert phonon.sinc_weight(0.0, cfg.a) == 1.0
    for q in (1, 2, -3):
        assert phonon.sinc_weight(q * cfg.a, cfg.a) == pytest.approx(0.0, abs=1e-15)
    assert phonon.sinc_weight(cfg.a / 2.0, cfg.a) == pytest.approx(2.0 / math.pi)
    with pytest.raises(ConfigError):
        phonon.sinc_weight(0.0, -1.0)


def test_zeta_closed_special_points(cfg):
    t = 1e-6
    # lattice site outside the sound cone (v_s t = 4.57 mm): both terms
    # vanish up to the rounding of sin(pi q)
    q = 10**7  # q a = 8 mm
    # tolerance: ~1e-16 of the kernel scale (sin(pi q) rounding)
    assert phonon.zeta_closed(cfg, q * cfg.a, t) == pytest.approx(0.0, abs=1e-55)
    scale = cfg.d**2 * core.HBAR * cfg.a / (2.0 * cfg.v_s**3 * core.M_P)
    expected = scale * (0.5 - cfg.v_s / cfg.a * t)
    assert phonon.zeta_closed(cfg, 0.0, t) == pytest.approx(expected, rel=1e-12)


def test_rate_constants_reference(cfg):
    r = phonon.rate_constants(cfg)
    assert r.nuD == pytest.approx(1.2e-8 * 1e3, rel=1e-2)
    assert r.nu0 == pytest.approx(16.8e3, rel=1e-2)
    assert r.tau_gamma == pytest.approx(1926.0, rel=1e-2)
    assert r.tau_gamma_min == pytest.approx(r.tau_gamma / 9.0)
    assert r.sigma_X == pytest.approx(5.68e7, rel=1e-2)
    assert r.sigma_Xprime == pytest.approx(3.87e11, rel=1e-2)
    assert r.tau_X == pytest.approx(165e-6, rel=2e-2)
    assert r.nu0_hat == pytest.approx(50.4e3, rel=2e-2)
    assert r.tau_X_hat == pytest.approx(55e-6, rel=2e-2)


def test_rate_constants_magic_angle(cfg):
    magic = math.acos(1.0 / math.sqrt(3.0))
    r = phonon.rate_constants(gypsum_config(theta=magic))
    assert r.Omega0 == 0.0
    assert math.isinf(r.tau_X)
    assert math.isinf(r.tau_gamma)


def test_rate_constants_scaling(cfg):
    r0 = phonon.rate_constants(cfg)
    r_vs = phonon.rate_constants(gypsum_config(v_s=2 * cfg.v_s))
    assert r_vs.tau_X == pytest.approx(4.0 * r0.tau_X, rel=1e-12)
    r_n = phonon.rate_constants(gypsum_config(N=8 * cfg.N))
    assert r_n.tau_X == pytest.approx(r0.tau_X / 2.0, rel=1e-12)


def test_rate_constants_d_cancellation(cfg):
    # tau_gamma and tau_X depend on d only through Omega0
    r0 = phonon.rate_constants(cfg)
    cfg2 = gypsum_config(d=2 * cfg.d)
    r2 = phonon.rate_constants(cfg2)
    ratio = (r2.Omega0 / r0.Omega0) ** 2
    assert r2.tau_gamma * ratio == pytest.approx(r0.tau_gamma, rel=1e-12)
    assert r2.tau_X * ratio == pytest.approx(r0.tau_X, rel=1e-12)


def test_initial_after_pulse(cfg):
    s0 = phonon.initial_after_pulse(cfg.omega0_larmor, cfg.T)
    assert np.allclose(np.diag(s0), 0.0)
    assert np.allclose(s0, s0.conj().T)
    amp = -core.HBAR * cfg.omega0_larmor / (core.K_B * cfg.T)
    assert s0[0, 1] == pytest.approx(amp / math.sqrt(2.0))
    assert s0[0, 2] == 0.0


def test_free_sigma_structure(cfg):
    s0 = phonon.initial_after_pulse(cfg.omega0_larmor, cfg.T)
    for t in (0.0, 30e-6, 200e-6):
        s = phonon.free_sigma(cfg, s0, t)
        assert np.allclose(s, s.conj().T)
        assert abs(np.trace(s)) < 1e-30
    # diagonal static
    rng_sigma = np.diag([0.1, 0.2, -0.1, -0.2]).astype(complex)
    s = phonon.free_sigma(cfg, rng_sigma, 1e-3)
    assert np.allclose(s, rng_sigma)
    # kappa-equal off-diagonal element: no decay, no oscillation
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 2] = mat[2, 0] = 1.0  # TPlus-TMinus
    assert np.allclose(phonon.free_sigma(cfg, mat, 1e-3), mat)


def test_free_sigma_envelope_and_frequency(cfg):
    r = phonon.rate_constants(cfg)
    s0 = phonon.initial_after_pulse(cfg.omega0_larmor, cfg.T)
    t = 40e-6
    s = phonon.free_sigma(cfg, s0, t)
    expected = (s0[0, 1] * np.exp(2j * math.pi * r.nu0 * 3.0 * t)
                * math.exp(-((3.0 * t / r.tau_X) ** 2)))
    assert s[0, 1] == pytest.approx(expected, rel=1e-12)


def test_free_sigma_exact_path_close_to_default(cfg):
    s0 = phonon.initial_after_pulse(cfg.omega0_larmor, cfg.T)
    t = 50e-6
    default = phonon.free_sigma(cfg, s0, t)
    exact = phonon.free_sigma(cfg, s0, t, exact_path=True)
    # slow kernels are negligible at reference scale
    assert np.max(np.abs(default - exact)) < 1e-6 * np.max(np.abs(s0))
    with pytest.raises(ValueError):
        phonon.free_sigma(cfg, s0, -1.0)


def test_discrete_kernel_sums_window_warning(cfg):
    with pytest.warns(UserWarning, match="window"):
        phonon.discrete_kernel_sums(cfg, 1e-6, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phonon.discrete_kernel_sums(cfg, 2e-10, 0.0)  # in window: no warning


def test_discrete_vs_closed_gamma(cfg):
    t = 2e-10
    g_d, e_d, z_d = phonon.discrete_kernel_sums(cfg, t, 0.0)
    g_c, e_c = phonon.closed_kernels(cfg, t)
    assert g_d == pytest.approx(g_c, rel=2e-2)


@pytest.mark.parametrize("n1", [64, 65])
def test_discrete_kernel_sums_match_full_grid_sum(n1):
    # the direct sum over q = +-1..+-N1/2 with partner coupling
    # g_k exp(-ikx), whose sin(kx) part the half-grid form drops
    cfg = gypsum_config(N1=n1)
    half = n1 // 2
    q = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    k = 2.0 * math.pi * q / (n1 * cfg.a)
    omega = cfg.v_s * np.abs(k)
    g2 = (4.0 * core.HBAR / (2.0 * omega * core.M_P * cfg.N * 2.0)
          * np.sin(k * cfg.d / 2.0) ** 2)
    base = cfg.N / n1 * g2 / omega**2
    coth_f = 1.0 / np.tanh(cfg.beta * omega / 2.0)
    for t in (2e-12, 7e-12):
        wt = omega * t
        osc = np.sin(wt) - wt
        gamma = np.sum(2.0 * base * np.sin(wt / 2.0) ** 2 * coth_f)
        epsilon = np.sum(base * osc)
        for x in (0.0, cfg.a, 2.5 * cfg.a):
            zeta = np.sum(2.0 * base * (np.cos(k * x) * osc
                                        + np.sin(k * x) * (1.0 - np.cos(wt))))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # N1 this small: off-window
                got = phonon.discrete_kernel_sums(cfg, t, x)
            assert got == pytest.approx((gamma, epsilon, zeta), rel=1e-12,
                                        abs=0.0)

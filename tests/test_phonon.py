import math
import re
import tracemalloc
import warnings
from collections import namedtuple

import numpy as np
import pytest

from pairdeco import core, oracles, phonon
from pairdeco.core import ConfigError, gypsum_config
from pairdeco.decoherence import condensed_kernels


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


def test_free_sigma_at_magic_angle_keeps_sigma0_past_overflow():
    # tau_X = inf: no decay, also where (km - kn) t overflows to inf
    cfg = gypsum_config(theta=math.acos(1.0 / math.sqrt(3.0)))
    s0 = np.arange(16.0).reshape(4, 4) + 1j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = phonon.free_sigma(cfg, s0, [0.0, 1e308])
    assert np.array_equal(s, [s0, s0])


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
        phonon.discrete_kernel_sums(cfg, 1e-6, (0.0,), 100000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phonon.discrete_kernel_sums(cfg, 2e-10, (0.0,), 100000)  # in window
        # the window's upper edge, n1 a/(10 v_s), follows the mode count
        phonon.discrete_kernel_sums(cfg, 5e-12, (), 1000)
    with pytest.warns(UserWarning, match="window"):
        phonon.discrete_kernel_sums(cfg, 5e-12, (0.0, cfg.a), 100)


@pytest.mark.parametrize("t, n1", [(5e-9, 100000), (1e-6, 100000),
                                   (1e-12, 100000), (5e-12, 100)])
def test_discrete_kernel_sums_window_warning_names_its_bounds(cfg, t, n1):
    # the bounds it prints are the ones it checks, so they exclude t
    with pytest.warns(UserWarning, match="window") as caught:
        phonon.discrete_kernel_sums(cfg, t, (), n1)
    lower, upper = map(float, re.search(r"window \[(\S+), (\S+)\] s",
                                        str(caught[0].message)).groups())
    assert lower == pytest.approx(10.0 * cfg.a / cfg.v_s, rel=1e-5)
    assert upper == pytest.approx(n1 * cfg.a / (10.0 * cfg.v_s), rel=1e-5)
    assert not lower <= t <= upper


def test_ksum_suite_ignores_only_the_window_warning(monkeypatch):
    # the suite's 1 us sums warn, and that warning alone is silenced
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert oracles.ksum_suite()["failures"] == 0
    closed = phonon.closed_kernels

    def warns(cfg_, t):
        warnings.warn("overflow in a kernel", RuntimeWarning)
        return closed(cfg_, t)

    monkeypatch.setattr(phonon, "closed_kernels", warns)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow in a kernel"):
            oracles.ksum_suite()


@pytest.mark.parametrize("n1", [1, 0, -4])
def test_discrete_kernel_sums_rejects_fewer_than_two_modes(cfg, n1):
    with pytest.raises(ConfigError, match="n1 >= 2"):
        phonon.discrete_kernel_sums(cfg, 2e-10, (0.0,), n1)


def test_discrete_vs_closed_gamma(cfg):
    t = 2e-10
    g_d, e_d, z_d = phonon.discrete_kernel_sums(cfg, t, (0.0,),
                                                oracles.KSUM_MODES)
    g_c, e_c = phonon.closed_kernels(cfg, t)
    assert g_d == pytest.approx(g_c, rel=2e-2)


@pytest.mark.parametrize("n1", [64, 65])
def test_discrete_kernel_sums_match_full_grid_sum(n1):
    # the direct sum over q = +-1..+-N1/2 with partner coupling
    # g_k exp(-ikx), whose sin(kx) part the half-grid form drops
    cfg = gypsum_config()
    half = n1 // 2
    q = np.concatenate([np.arange(-half, 0), np.arange(1, half + 1)])
    k = 2.0 * math.pi * q / (n1 * cfg.a)
    omega = cfg.v_s * np.abs(k)
    g2 = (4.0 * core.HBAR / (2.0 * omega * core.M_P * cfg.N * 2.0)
          * np.sin(k * cfg.d / 2.0) ** 2)
    base = cfg.N / n1 * g2 / omega**2
    coth_f = 1.0 / np.tanh(cfg.beta * omega / 2.0)
    xs = (0.0, cfg.a, 2.5 * cfg.a)
    for t in (2e-12, 7e-12):
        wt = omega * t
        osc = np.sin(wt) - wt
        gamma = np.sum(2.0 * base * np.sin(wt / 2.0) ** 2 * coth_f)
        epsilon = np.sum(base * osc)
        zetas = [np.sum(2.0 * base * (np.cos(k * x) * osc
                                      + np.sin(k * x) * (1.0 - np.cos(wt))))
                 for x in xs]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # N1 this small: off-window
            g_d, e_d, z_d = phonon.discrete_kernel_sums(cfg, t, xs, n1)
        assert [g_d, e_d, *z_d] == pytest.approx([gamma, epsilon, *zetas],
                                                 rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n1", [64, 65])
def test_discrete_kernel_sums_match_full_grid_sum_in_small_blocks(
        n1, monkeypatch):
    # 7-mode blocks: the 32 modes of the half grid span 4 whole blocks
    # and a partial one
    monkeypatch.setattr(phonon, "_KSUM_BLOCK", 7)
    test_discrete_kernel_sums_match_full_grid_sum(n1)


_B = phonon._KSUM_BLOCK


@pytest.mark.parametrize("n1", [2, 3, 2 * _B - 2, 2 * _B, 2 * _B + 1,
                                2 * _B + 2, 6 * _B + 5])
def test_discrete_kernel_sums_blocks_match_whole_half_grid(cfg, n1):
    # one condensed_kernels call over the whole k > 0 half grid at
    # weight 2N/n1: the blocks differ from it by reassociation only
    k = 2.0 * math.pi * np.arange(1, n1 // 2 + 1) / (n1 * cfg.a)
    g = phonon.acoustic_coupling(k, cfg)
    weight = 2.0 * cfg.N / n1
    xs = (0.0, cfg.a, 2.5 * cfg.a)
    for t in (2e-12, 2e-10):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # off-window at small n1
            g_d, e_d, z_d = phonon.discrete_kernel_sums(cfg, t, xs, n1)
        for x, zeta in zip(xs, z_d, strict=True):
            gamma, epsilon, (zeta_whole,) = condensed_kernels(
                g, [g * np.cos(k * x)], cfg.v_s * k, cfg.beta, t)
            want = (weight * gamma, weight * epsilon, weight * zeta_whole)
            assert (g_d, e_d, zeta) == pytest.approx(want, rel=1e-13,
                                                     abs=0.0)


def test_discrete_kernel_sums_memory_does_not_grow_with_modes(cfg):
    # the ksum oracle's 4e5-mode window-consistency sum (over the whole
    # half grid at once it needs about 24 MiB) and its 1e5-mode sum with
    # three partners; nor with the offsets: eight of them cost at most
    # one block's partner array (8192 complex modes, 128 KiB) over one
    def peak(t, xs, n1):
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # 1 us is off-window
                phonon.discrete_kernel_sums(cfg, t, xs, n1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for t, xs, n1 in ((2e-10, (), 4 * oracles.KSUM_MODES),
                      (1e-6, (0.0, cfg.a, 3.0 * cfg.a), oracles.KSUM_MODES)):
        assert peak(t, xs, n1) < 2 * 2**20, (t, len(xs), n1)
    one = peak(1e-6, (0.0,), oracles.KSUM_MODES)
    eight = peak(1e-6, tuple(i * cfg.a for i in range(8)), oracles.KSUM_MODES)
    assert eight - one <= 16 * phonon._KSUM_BLOCK, (one, eight)


@pytest.mark.parametrize("n1", [64, 6 * _B + 5])
def test_discrete_kernel_sums_offsets_match_one_offset_calls(cfg, n1):
    # a repeated offset keeps its own partner; each zeta has the bits of
    # a call with that offset alone, gamma and epsilon those of no offset
    xs = (cfg.a, 0.0, 3.0 * cfg.a, cfg.a, 2.5 * cfg.a)
    for t in (2e-12, 2e-10, 1e-6):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # off-window at some t
            g_d, e_d, z_d = phonon.discrete_kernel_sums(cfg, t, xs, n1)
            assert (g_d, e_d, []) == phonon.discrete_kernel_sums(cfg, t, (),
                                                                 n1)
            assert z_d == [phonon.discrete_kernel_sums(cfg, t, (x,), n1)[2][0]
                           for x in xs]


def test_ksum_suite_makes_three_kernel_sums(cfg, monkeypatch):
    calls = []
    real = phonon.discrete_kernel_sums

    def counted(cfg_, t, xs, n1):
        calls.append((t, n1, tuple(xs)))
        return real(cfg_, t, xs, n1)

    monkeypatch.setattr(phonon, "discrete_kernel_sums", counted)
    report = oracles.ksum_suite()
    n1 = oracles.KSUM_MODES
    assert sorted(calls) == [(2e-10, n1, ()), (2e-10, 4 * n1, ()),
                             (1e-6, n1, (0.0, cfg.a, 3.0 * cfg.a))]
    assert report["total"] == 6 and report["failures"] == 0

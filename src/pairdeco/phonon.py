"""Dipole-coupled proton pairs in a common acoustic phonon bath.

Concrete model behind the generic kernels: the dipolar coupling sets the
per-level interaction strengths, longitudinal acoustic phonons supply
the bath, and the kernels admit both a discrete k-sum and a closed
continuum limit.  Rate constants and the free-evolution reduced matrix
live here too.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .core import GAMMA_P, HBAR, K_B, KAPPA_VALUES, M_P, MU_0, ConfigError
from .decoherence import condensed_kernels
from .eigdist import sum_width

#: modes discrete_kernel_sums takes per block; it bounds the per-mode
#: arrays, so peak memory does not grow with the mode count
_KSUM_BLOCK = 8192


def dipolar_coupling(d, theta=0.0):
    """Secular dipolar coupling strength of one proton pair, rad/s.

    Omega0 = mu0 gamma_p^2 hbar/(8 pi) * (1 - 3 cos^2 theta)/d^3

    Negative for theta below the magic angle; zero exactly at it.
    """
    if d <= 0:
        raise ConfigError("d > 0 violated")
    factor = 1.0 - 3.0 * math.cos(theta) ** 2
    if abs(factor) < 1e-14:  # magic angle up to rounding of cos
        factor = 0.0
    return MU_0 * GAMMA_P**2 * HBAR / (8.0 * math.pi) * factor / d**3


def _level_kappa(kappa):
    if kappa not in KAPPA_VALUES:
        raise ConfigError(f"kappa = {kappa!r} is not one of {KAPPA_VALUES}")
    return kappa


def lambda_coefficient(cfg, kappa):
    """Gradient coefficient of the level kappa_m times the mode amplitude.

    lambda_m / g_k = -(3/2) (Omega0/d) kappa_m, in rad/(s m): the
    derivative of the dipolar coupling along the pair axis.
    """
    omega0 = dipolar_coupling(cfg.d, cfg.theta)
    return -1.5 * (omega0 / cfg.d) * _level_kappa(kappa)


def level_energy(cfg, kappa):
    """Unperturbed energy E_m = (Omega0/2) kappa_m of a level, rad/s."""
    omega0 = dipolar_coupling(cfg.d, cfg.theta)
    return 0.5 * omega0 * _level_kappa(kappa)


def acoustic_coupling(k, cfg):
    """Acoustic-branch displacement amplitude g_k, complex meters.

    g_k = -2 u_k i sin(k d/2), u_k = sqrt(hbar/(2 w_k m_p N l_M)),
    l_M = 2 ions per cell, w_k = v_s |k|.  Odd in k and purely
    imaginary, so g_{-k} = -g_k = g_k^*.
    k = 0 gives 0 (the uniform translation couples to nothing).  k is a
    wavevector or an array of them; the result has its shape.
    """
    k = np.asarray(k, dtype=float)
    if np.any(np.abs(k) > math.pi / cfg.a * (1.0 + 1e-12)):
        raise ConfigError("|k| <= pi/a violated")
    omega_k = cfg.v_s * np.abs(k)
    # k = 0 divides by zero here; np.where then drops that entry
    with np.errstate(divide="ignore", invalid="ignore"):
        u_k = np.sqrt(HBAR / (2.0 * omega_k * M_P * cfg.N * 2.0))
        g_k = -2.0j * u_k * np.sin(k * cfg.d / 2.0)
    return np.where(k == 0, 0j, g_k)


def _window_check(cfg, t, op_name):
    if t < 0:
        raise ValueError("t >= 0 required")
    lower = 10.0 * cfg.a / (2.0 * cfg.v_s)
    if 0.0 < t < lower:
        warnings.warn(
            f"{op_name}: t = {t:g} s below the continuum window "
            f"(t >= {lower:g} s); the linear kernel forms degrade",
            stacklevel=3,
        )


def closed_kernels(cfg, t):
    """Continuum-limit kernels (gamma, epsilon), units m^2 s^2.

    gamma(T,t) = d^2 K_B T a/(4 v_s^3 m_p) t  (high-T, linear regime)
    epsilon(t) = -d^2 hbar/(4 v_s^2 m_p) t

    Valid for t well above a/(2 v_s) (warned) and below the finite-size
    recurrence time n1 a/v_s of any discrete comparison over n1 modes.
    """
    _window_check(cfg, t, "closed_kernels")
    gamma = cfg.d**2 * K_B * cfg.T * cfg.a / (4.0 * cfg.v_s**3 * M_P) * t
    epsilon = -cfg.d**2 * HBAR / (4.0 * cfg.v_s**2 * M_P) * t
    return gamma, epsilon


def phi_step(x, t, v_s):
    """Retardation step (pi/2)[sgn(v_s t + x) + sgn(v_s t - x)].

    pi inside the sound cone |x| < v_s t, pi/2 on it, 0 outside; 0 at
    t = 0.
    """
    if t < 0:
        raise ValueError("t >= 0 required")
    return (math.pi / 2.0) * (_sgn(float(v_s * t + x))
                              + _sgn(float(v_s * t - x)))


def _sgn(value):
    return (value > 0) - (value < 0)


def sinc_weight(x, a):
    """sin(pi x/a)/(pi x/a), the axial geometry weight; 1 at x = 0."""
    if a <= 0:
        raise ConfigError("a > 0 violated")
    return float(np.sinc(x / a))


def zeta_closed(cfg, x, t):
    """Continuum-limit cross kernel, units m^2 s^2.

    zeta = d^2 hbar a/(2 v_s^3 m_p) [phi(x,t)/(2 pi)
                                     - (v_s/a) t sinc(x/a)]

    Exactly zero for x on a nonzero lattice site outside the sound cone.
    """
    _window_check(cfg, t, "zeta_closed")
    scale = cfg.d**2 * HBAR * cfg.a / (2.0 * cfg.v_s**3 * M_P)
    return scale * (phi_step(x, t, cfg.v_s) / (2.0 * math.pi)
                    - (cfg.v_s / cfg.a) * t * sinc_weight(x, cfg.a))


@dataclass(frozen=True)
class RateConstants:
    """Characteristic rates and widths of the pair-phonon model.

    Omega0 rad/s (signed); nu0, nuD in Hz (nu0 signed); times in
    seconds; the widths are dimensionless standard deviations of the
    bath-site eigenvalue sums (sigma_X over the contributing plane of
    N^{2/3} sites, sigma_Xprime over all N).
    """

    Omega0: float
    nu0: float
    nuD: float
    tau_gamma: float
    tau_gamma_min: float
    sigma_X: float
    sigma_Xprime: float
    tau_X: float

    @property
    def nu0_hat(self):
        """Observable oscillation frequency 3|nu0|, Hz."""
        return 3.0 * abs(self.nu0)

    @property
    def tau_X_hat(self):
        """Observable decay time tau_X/3 (kappa difference 3), s."""
        return self.tau_X / 3.0

    @property
    def tau_echo(self):
        """Magic-echo envelope time 2 tau_X, s."""
        return 2.0 * self.tau_X

    @property
    def tau_echo_hat(self):
        """Observable magic-echo decay time 2 tau_X/3, s."""
        return 2.0 * self.tau_X / 3.0


def decay_time(nu_d, sigma):
    """Gaussian dephasing time tau_X = [2 sqrt(2) pi nu_D sigma]^{-1}, s."""
    return 1.0 / (2.0 * math.sqrt(2.0) * math.pi * nu_d * sigma)


def decay_rate(nu_hat, v_s, sigma):
    """1/tau_X from the observable frequency nu_hat = 3|nu0|, 1/s.

    sqrt(2) pi^2 nu_hat^2 hbar sigma/(v_s^2 m_p).  A subnormal
    sqrt(2) pi^2 nu_hat^2 hbar, v_s^2 m_p or rate has lost digits to
    underflow and raises FloatingPointError.
    """
    head = math.sqrt(2.0) * math.pi**2 * nu_hat**2 * HBAR
    inertia = v_s**2 * M_P
    rate = head * sigma / inertia
    if any(0.0 < abs(x) < sys.float_info.min for x in (head, inertia, rate)):
        raise FloatingPointError("decay rate underflows to a subnormal")
    return rate


def rate_constants(cfg):
    """Rate constants from the sample geometry.

    nu_D = 9 Omega0^2 hbar/(32 pi v_s^2 m_p)        [Hz]
    nu_0 = -Omega0/(4 pi)                           [Hz]
    1/tau_gamma = 9 Omega0^2 K_B T a/(16 v_s^3 m_p) [1/s]
    tau_X = decay_time(nu_D, sigma_X)               [s]

    At the magic angle Omega0 = 0 and the times are infinite, not an
    error; elsewhere leaving the float range (an infinite or zero time,
    an overflow, a divisor that underflows to 0) raises ConfigError.
    """
    try:
        omega0 = dipolar_coupling(cfg.d, cfg.theta)
        nu_d = 9.0 * omega0**2 * HBAR / (32.0 * math.pi * cfg.v_s**2 * M_P)
        nu_0 = -omega0 / (4.0 * math.pi)
        sigma_x = sum_width(cfg.N ** (2.0 / 3.0))
        sigma_xp = sum_width(cfg.N)
        tau_g = tau_x = math.inf
        if omega0 != 0.0:
            tau_g = 1.0 / (9.0 * omega0**2 * K_B * cfg.T * cfg.a
                           / (16.0 * cfg.v_s**3 * M_P))
            tau_x = decay_time(nu_d, sigma_x)
        # a finite, nonzero tau_X needs finite nu_D and sigma_X
        in_range = (math.isfinite(sigma_xp) and min(tau_g, tau_x) > 0.0
                    and (omega0 == 0.0 or max(tau_g, tau_x) < math.inf))
    except (OverflowError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise ConfigError("rate constants outside the float range")
    return RateConstants(
        Omega0=omega0, nu0=nu_0, nuD=nu_d,
        tau_gamma=tau_g, tau_gamma_min=tau_g / 9.0,
        sigma_X=sigma_x, sigma_Xprime=sigma_xp, tau_X=tau_x,
    )


def ix_matrix():
    """Collective I_x of the pair over the triplet-singlet basis.

    Nonzero elements 1/sqrt(2) connect TPlus<->TZero and TZero<->TMinus
    only; the singlet is dark.
    """
    ix = np.zeros((4, 4))
    s = 1.0 / math.sqrt(2.0)
    ix[0, 1] = ix[1, 0] = s
    ix[1, 2] = ix[2, 1] = s
    return ix


def initial_after_pulse(omega0_larmor, T):
    """Deviation matrix right after a saturating pi/2 pulse.

    Delta sigma(0) = -(hbar w0 / K_B T) I_x: traceless, Hermitian, with
    weight only on the single-quantum triplet coherences.
    """
    if T <= 0:
        raise ConfigError("T > 0 violated")
    kt = K_B * T  # underflows to 0 below T ~ 2e-301 K
    amp = -HBAR * omega0_larmor / kt if kt > 0 else math.inf
    if not math.isfinite(amp):
        raise ConfigError(f"hbar w0 / (K_B T) at T = {T:g} K is not finite")
    return amp * ix_matrix().astype(complex)


def _gprime(rates, cfg, dk):
    """Residual bath-average factor of the unapproximated path."""
    arg = (math.sqrt(2.0) * math.pi * rates.nuD * dk
           * rates.sigma_Xprime * cfg.a / cfg.v_s)
    # exp(-arg^2) underflows to 0 long before arg^2 overflows
    return math.exp(-(arg**2)) if arg < 1e10 else 0.0


def free_sigma(cfg, sigma0, t, exact_path=False):
    """Free evolution of the deviation matrix.

    Default: sigma_mn(t) = sigma_mn(0) exp(i 2 pi nu0 (km-kn) t)
    exp(-[(km-kn) t / tau_X]^2).  The exact path keeps the slow
    exp(-(km-kn)^2 t/tau_gamma) decay, the quadratic nu_D phase and the
    near-unity residual factor G'.

    t is a time or a 1-D array of times; an array gives shape (T, 4, 4)
    whose row i equals, bit for bit, the call at t[i].  The default path
    drops G', so it raises ConfigError where G' is not within 1e-6 of 1.
    """
    return _evolve_sigma(cfg, sigma0, t, exact_path, energy_phase=True)


def _evolve_sigma(cfg, sigma0, t, exact_path, energy_phase):
    """free_sigma, with or without the nu0 energy phase.

    The rate constants, the kappa differences and the G' matrix are
    built once per call, whatever the number of times.  Each factor is
    multiplied into a named product: numpy would otherwise reuse a large
    temporary in place, and its in-place complex multiply rounds some
    last digits differently, so rows would depend on the array's length.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("t must be a time or a 1-D array of times")
    if np.any(times < 0):
        raise ValueError("t >= 0 required")
    sigma0 = np.asarray(sigma0, dtype=complex)
    if sigma0.shape != (4, 4):
        raise ValueError("sigma0 must be 4x4")
    rates = rate_constants(cfg)
    kappa = np.array(KAPPA_VALUES, dtype=float)
    dk = np.subtract.outer(kappa, kappa)
    gp = np.vectorize(lambda e: _gprime(rates, cfg, abs(e)))(dk)
    # the default path drops G', so it must actually be negligible; G'
    # falls with |km-kn|, so its minimum is the worst element
    if not exact_path and not 1.0 - 1e-6 <= gp.min() <= 1.0:
        raise ConfigError(
            f"G' = {gp.min():.9g} outside [1-1e-6, 1]: the default path "
            "drops it, use the exact path (--exact-path)")
    ts = np.atleast_1d(times)[:, None, None]
    out = sigma0
    if energy_phase:
        phase = _phase(rates.nu0, dk, ts)
        out = out * phase
    # tau_X = inf at the magic angle gives an envelope of exactly 1, also
    # where dk t overflows (fmax takes the nan of inf/inf to 0); an
    # exponent that overflows to -inf gives exp(-inf) = 0, the exact limit
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = np.exp(-np.fmax((dk * ts / rates.tau_X) ** 2, 0.0))
    out = out * envelope
    if exact_path:
        ksq = np.subtract.outer(kappa**2, kappa**2)
        nud_phase = _phase(rates.nuD, ksq, ts)
        out = out * nud_phase
        if math.isfinite(rates.tau_gamma):
            with np.errstate(over="ignore"):
                slow = np.exp(-(dk**2) * ts / rates.tau_gamma)
            out = out * slow
        out = out * gp
    return out if times.ndim else out[0]


def _phase(freq, factor, ts):
    """exp(2 pi i freq factor t); an argument past the float range has no
    value mod 2 pi, so it raises ConfigError instead of giving nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        arg = 2.0j * math.pi * freq * factor * ts
    if not np.isfinite(arg).all():
        raise ConfigError(f"the phase of the {freq:g} Hz rotation leaves "
                          "the float range within the time grid")
    return np.exp(arg)


def discrete_kernel_sums(cfg, t, xs, n1):
    """Direct mode sums (gamma, epsilon, [zeta(x) for x in xs]), m^2 s^2.

    Sums over the 1-D grid of n1 modes along the pair axis, k_q =
    2 pi q/(n1 a), q = +-1..+-n1/2, with each grid mode standing for
    N/n1 of the full bath.  Valid inside the window a/v_s << t <<
    n1 a/v_s, taken as 10 a/v_s <= t <= n1 a/(10 v_s) (a UserWarning
    outside names these bounds); this is the oracle for the closed kernels.

    These are condensed_kernels with one partner per offset x in xs, the
    sequence of partner offsets (it may be empty), over the k > 0 half
    grid at twice the weight: |g_k|^2 and omega_k are even in k and the
    sin(kx) part of the cross term is odd, so the partner coupling
    g_k cos(kx) gives the whole sum.  The partners are read one at a
    time, in the order of xs, so a repeated offset keeps its own zeta,
    each zeta has the bits of a call with that offset alone, and memory
    does not grow with the number of offsets.

    The half grid is summed in blocks of a fixed number of modes, each
    block through one condensed_kernels call, so memory does not depend
    on n1.  Adding the block sums reassociates the sum over the modes:
    against one sum over the whole half grid the results move in the
    last bits only, and not at all when n1/2 fits in one block.
    """
    if n1 < 2:
        raise ConfigError("n1 >= 2 violated")
    if t < 0:
        raise ValueError("t >= 0 required")
    lower = cfg.a / cfg.v_s * 10.0
    upper = n1 * cfg.a / cfg.v_s / 10.0
    if not lower <= t <= upper:
        warnings.warn(
            f"discrete_kernel_sums: t = {t:g} s outside the window "
            f"[{lower:g}, {upper:g}] s; finite-size artifacts dominate",
            stacklevel=2,
        )
    sums = np.zeros(2 + len(xs))  # gamma, epsilon, then zeta per offset
    for lo in range(0, n1 // 2, _KSUM_BLOCK):
        hi = min(lo + _KSUM_BLOCK, n1 // 2)
        k = 2.0 * math.pi * np.arange(lo + 1, hi + 1) / (n1 * cfg.a)
        g = acoustic_coupling(k, cfg)
        gamma, epsilon, zetas = condensed_kernels(
            g, (g * np.cos(k * x) for x in xs), cfg.v_s * k, cfg.beta, t)
        sums += [gamma, epsilon, *zetas]
    gamma, epsilon, *zetas = (2.0 * cfg.N / n1 * sums).tolist()
    return gamma, epsilon, zetas

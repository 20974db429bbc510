"""Forward/backward (echo) evolution with imperfect sign reversal.

The pulse sequence scales the pair interaction by f_B during the
backward interval; f_B = -1/2 with t_B = 2 t_F is the ideal magic echo.
Reversal decoherence exponents, the echoed reduced matrix, the echo
amplitude and the comparison against experimental decay times live
here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import HBAR, M_P, coth
from .decoherence import DecoherenceExponent, SingularModeError
from .eigdist import sum_width
from . import phonon

#: weights of the three sound-cone steps of the echoed cross kernel
ME_STEP_WEIGHTS = (1.5, 0.75, -0.5)


@dataclass(frozen=True)
class ReversalSchedule:
    """Forward time, backward time and reversal efficiency."""

    t_F: float
    t_B: float
    f_B: float

    def __post_init__(self):
        if self.t_F < 0 or self.t_B < 0:
            raise ValueError("t_F, t_B >= 0 required")

    @property
    def total(self):
        return self.t_F + self.t_B


def ideal_echo_schedule(t_total):
    """f_B = -1/2, t_B = 2 t_F split of a total evolution time."""
    return ReversalSchedule(t_F=t_total / 3.0, t_B=2.0 * t_total / 3.0,
                            f_B=-0.5)


def reversal_trig(omega, sched):
    """Trigonometric pair (C, S) of the reversal exponents.

    C = (1-f)[1-cos w t_F] + f(f-1)[1-cos w t_B] + f[1-cos w(t_F+t_B)]
    S = (1-f) sin(w t_F) + f(f-1) sin(w t_B) + f sin(w(t_F+t_B))

    f = 1 collapses both to plain evolution over t_F + t_B.
    """
    if omega <= 0:
        raise ValueError("omega > 0 required")
    f = sched.f_B
    wf, wb = omega * sched.t_F, omega * sched.t_B
    c = ((1.0 - f) * (1.0 - math.cos(wf))
         + f * (f - 1.0) * (1.0 - math.cos(wb))
         + f * (1.0 - math.cos(wf + wb)))
    s = ((1.0 - f) * math.sin(wf)
         + f * (f - 1.0) * math.sin(wb)
         + f * math.sin(wf + wb))
    return c, s


def reversal_exponent_k(lambda_m, lambda_n, omega, beta, sched):
    """Per-mode decoherence exponent of the reversal sequence.

    Gamma   = |lm-ln|^2/w^2 coth(beta w/2) C
    Upsilon = (lm-ln)(lm+ln)*/w^2 [S - w(t_F + f^2 t_B)]
              - 2 Im{lm ln*}/w^2 (C + i[S - w(t_F + f^2 t_B)])

    The linear phase term t_F + f^2 t_B > 0 survives any f_B: the
    backward interval can cancel oscillations but not the secular drift.
    """
    if omega == 0:
        raise SingularModeError("omega = 0 mode must be excluded upstream")
    if omega < 0:
        raise ValueError("omega must be positive")
    if beta <= 0:
        raise ValueError("beta must be positive")
    lm = complex(lambda_m)
    ln = complex(lambda_n)
    c, s = reversal_trig(omega, sched)
    lin = s - omega * (sched.t_F + sched.f_B**2 * sched.t_B)
    diff = lm - ln
    gamma = abs(diff) ** 2 / omega**2 * coth(beta * omega / 2.0) * c
    upsilon = (diff * (lm + ln).conjugate() / omega**2 * lin
               - 2.0 * (lm * ln.conjugate()).imag / omega**2
               * (c + 1j * lin))
    return DecoherenceExponent(gamma=gamma, upsilon=upsilon)


def phi_step_echo(x, t, v_s):
    """Echoed retardation step: weighted sum of three sound cones.

    phi = (3/2) phi(x, t/3) + (3/4) phi(x, 2t/3) - (1/2) phi(x, t);
    ranges over [-pi/2, 7 pi/4].
    """
    total = 0.0
    for n, j in enumerate(ME_STEP_WEIGHTS, start=1):
        total += j * phonon.phi_step(x, n * t / 3.0, v_s)
    return total


def zeta_closed_echo(cfg, x, t):
    """Continuum cross kernel of the echoed sequence, m^2 s^2.

    The linear parts of the three harmonics sum to t/2, so the sinc term
    is the free one at half the total time; the step term uses the
    three-cone phi.
    """
    if t < 0:
        raise ValueError("t >= 0 required")
    scale = cfg.d**2 * HBAR * cfg.a / (2.0 * cfg.v_s**3 * M_P)
    return scale * (phi_step_echo(x, t, cfg.v_s) / (2.0 * math.pi)
                    - (cfg.v_s / cfg.a) * (t / 2.0)
                    * phonon.sinc_weight(x, cfg.a))


def me_sigma(cfg, sigma0, t, exact_path=False):
    """Echoed deviation matrix at total time t (t_B = 2 t_F, f_B = -1/2).

    Default: sigma_mn(t) = sigma_mn(0) exp(-[(km-kn) t / (2 tau_X)]^2);
    the energy phases cancel, the envelope time constant doubles.  The
    exact path keeps the slow kernels, all evaluated at half the total
    time (the echoed linear parts sum to t/2), plus the near-unity G'.
    Both are free evolution at t/2 without the nu0 phase, which is how
    this is computed: t/2 is exact, so dk (t/2)/tau_X = dk t/(2 tau_X).

    t is a time or a 1-D array of times, as for phonon.free_sigma.
    """
    half = np.asarray(t, dtype=float) / 2.0
    return phonon._evolve_sigma(cfg, sigma0, half, exact_path,
                               energy_phase=False)


def me_amplitude(cfg, t_total):
    """Normalized echo amplitude exp(-[t/tau_hat]^2), tau_hat = 2 tau_X/3.

    All observable coherences carry |kappa difference| = 3, so a single
    Gaussian with the reduced time constant covers the signal.
    """
    if t_total < 0:
        raise ValueError("t_total >= 0 required")
    rates = phonon.rate_constants(cfg)
    return math.exp(-((t_total / rates.tau_echo_hat) ** 2))


def theory_curve(nu_hat_khz, v_s, n_pairs):
    """Observable echo decay times tau_hat for dipolar frequencies in kHz.

    tau_hat(nu) = (2/3) / phonon.decay_rate(nu, v_s, sigma_X) with
    sigma_X = sqrt(3 n^{2/3} / 2); strictly proportional to nu^-2.
    Returns seconds; a time outside (0, inf) raises ValueError.
    """
    nus = list(nu_hat_khz)
    if any(nu_khz <= 0 for nu_khz in nus):
        raise ValueError("frequencies must be positive")
    sigma_x = sum_width(n_pairs ** (2.0 / 3.0))
    taus = []
    for nu_khz in nus:
        try:
            tau = (2.0 / 3.0) / phonon.decay_rate(nu_khz * 1e3, v_s, sigma_x)
        except ArithmeticError:  # overflow, zero or subnormal rate
            tau = math.nan
        if not 0.0 < tau < math.inf:
            raise ValueError(f"theory decay time at nu_hat = {nu_khz:g} kHz "
                             "is outside the float range")
        taus.append(tau)
    return taus


@dataclass(frozen=True)
class ExperimentRecord:
    """One measured echo decay: dipolar frequency (kHz) and time (s)."""

    nu_hat_0: float
    tau_exp: float

    def __post_init__(self):
        if not (0.0 < self.nu_hat_0 < math.inf
                and 0.0 < self.tau_exp < math.inf):
            raise ValueError("nu_hat_0 and tau_exp must be positive and "
                             "finite")


#: Fig-style envelope parameter sets (v_s m/s, pair count)
ENVELOPE_PARAMS = {
    "lower": (2800.0, 8e21),
    "upper": (5500.0, 8e22),
}


def load_experiment_csv(stream):
    """Parse `nu_hat_khz,tau_exp_us` records; errors carry line numbers."""
    reader = csv.reader(stream)
    rows = list(reader)
    if not rows:
        raise ValueError("empty experiment file")
    header = [h.strip() for h in rows[0]]
    if header != ["nu_hat_khz", "tau_exp_us"]:
        raise ValueError("line 1: expected header nu_hat_khz,tau_exp_us")
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 2:
            raise ValueError(f"line {lineno}: expected two columns")
        try:
            nu = float(row[0])
            tau_us = float(row[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric value") from None
        try:
            records.append(ExperimentRecord(nu_hat_0=nu, tau_exp=tau_us * 1e-6))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not records:
        raise ValueError("no data rows in experiment file")
    return records


@dataclass(frozen=True)
class ComparisonReport:
    """Per-record theory values plus the bracketing envelope curves."""

    records: tuple
    tau_theory: tuple      # s, aligned with records
    residuals: tuple       # s, tau_exp - tau_theory
    envelopes: dict        # label -> tuple of tau (s) aligned with records


def compare_experiment(records, v_s, n_pairs):
    """Theory decay times and residuals for measured echo records."""
    records = tuple(records)
    if not records:
        raise ValueError("records must be nonempty")
    nus = [r.nu_hat_0 for r in records]
    theory = theory_curve(nus, v_s, n_pairs)
    residuals = [r.tau_exp - th for r, th in zip(records, theory)]
    envelopes = {
        label: tuple(theory_curve(nus, ev, en))
        for label, (ev, en) in ENVELOPE_PARAMS.items()
    }
    return ComparisonReport(records=records, tau_theory=tuple(theory),
                            residuals=tuple(residuals), envelopes=envelopes)


def write_comparison_csv(report, stream):
    """Emit nu_hat_khz, tau_exp_us, tau_theory_us, residual_us rows."""
    writer = csv.writer(stream)
    writer.writerow(["nu_hat_khz", "tau_exp_us", "tau_theory_us",
                     "residual_us"])
    for rec, th, res in zip(report.records, report.tau_theory,
                            report.residuals):
        writer.writerow([
            "{:.17g}".format(rec.nu_hat_0),
            "{:.17g}".format(rec.tau_exp * 1e6),
            "{:.17g}".format(th * 1e6),
            "{:.17g}".format(res * 1e6),
        ])

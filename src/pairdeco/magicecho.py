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

from .decoherence import DecoherenceExponent, decoherence_exponent_k
from .eigdist import sum_width
from . import phonon


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

    @property
    def terms(self):
        """(weight, time) pairs of the sequence as free evolutions.

        Every closed form linear in the bath kernels obeys
        X_echo = (1-f) X(t_F) + f(f-1) X(t_B) + f X(t_F + t_B).
        The weights sum to 1 - f + f^2, not 1; the weighted times sum to
        t_F + f^2 t_B, which is t/2 for the ideal echo.  f = 1 collapses
        the sequence to plain evolution over t_F + t_B.
        """
        f = self.f_B
        return ((1.0 - f, self.t_F), (f * (f - 1.0), self.t_B),
                (f, self.total))


def ideal_echo_schedule(t_total):
    """f_B = -1/2, t_B = 2 t_F split of a total evolution time."""
    return ReversalSchedule(t_F=t_total / 3.0, t_B=2.0 * t_total / 3.0,
                            f_B=-0.5)


def reversal_exponent_k(lambda_m, lambda_n, omega, beta, sched):
    """Per-mode decoherence exponent of the reversal sequence.

    The weighted sum of decoherence_exponent_k over sched.terms.  Its
    linear phase term -w(t_F + f^2 t_B) survives any f_B: the backward
    interval can cancel oscillations but not the secular drift.
    """
    gamma, upsilon = 0.0, 0j
    for weight, t in sched.terms:
        exponent = decoherence_exponent_k(lambda_m, lambda_n, omega, beta, t)
        gamma += weight * exponent.gamma
        upsilon += weight * exponent.upsilon
    return DecoherenceExponent(gamma=gamma, upsilon=upsilon)


def zeta_closed_echo(cfg, x, t):
    """Continuum cross kernel of the echoed sequence, m^2 s^2.

    The weighted sum of phonon.zeta_closed over the ideal echo's terms:
    the sinc term is the free one at t/2, the step term weighs three
    sound cones and ranges over [-pi/2, 7 pi/4].  Each term that falls
    below the continuum window warns, as zeta_closed does.
    """
    return sum(weight * phonon.zeta_closed(cfg, x, t_k)
               for weight, t_k in ideal_echo_schedule(t).terms)


def me_sigma(cfg, sigma0, t, exact_path=False):
    """Echoed deviation matrix at total time t (t_B = 2 t_F, f_B = -1/2).

    Default: sigma_mn(t) = sigma_mn(0) exp(-[(km-kn) t / (2 tau_X)]^2);
    the energy phases cancel, the envelope time constant doubles.  The
    exact path keeps the slow kernels, all evaluated at half the total
    time, plus the near-unity G': the weighted times of
    ReversalSchedule.terms sum to t_F + f_B^2 t_B, which is t/2 here.
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
    """Per-record theory values and residuals."""

    records: tuple
    tau_theory: tuple      # s, aligned with records
    residuals: tuple       # s, tau_exp - tau_theory


def compare_experiment(records, v_s, n_pairs):
    """Theory decay times and residuals for measured echo records."""
    records = tuple(records)
    if not records:
        raise ValueError("records must be nonempty")
    theory = theory_curve([r.nu_hat_0 for r in records], v_s, n_pairs)
    residuals = [r.tau_exp - th for r, th in zip(records, theory)]
    return ComparisonReport(records=records, tau_theory=tuple(theory),
                            residuals=tuple(residuals))


def write_comparison_csv(report, stream):
    """Emit nu_hat_khz, tau_exp_us, tau_theory_us, residual_us rows.

    A value that overflows in microseconds raises ValueError before any
    row is written.
    """
    rows = []
    for rec, th, res in zip(report.records, report.tau_theory,
                            report.residuals):
        row = [rec.nu_hat_0, rec.tau_exp * 1e6, th * 1e6, res * 1e6]
        if not all(math.isfinite(value) for value in row):
            raise ValueError(f"decay times at nu_hat = {rec.nu_hat_0:g} kHz "
                             "overflow in microseconds")
        rows.append(["{:.17g}".format(value) for value in row])
    writer = csv.writer(stream)
    writer.writerow(["nu_hat_khz", "tau_exp_us", "tau_theory_us",
                     "residual_us"])
    writer.writerows(rows)

"""Closed-form decoherence machinery for eigen-selective dephasing.

Per-mode decoherence exponents, their product over a mode family, and
the condensed single-element reduction used when many equivalent
elements share a bath: the kernels of one representative element A,
with its cross kernel zeta against each partner A' summed as the
partners are read, and the reduced-matrix element they give.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import coth


class SingularModeError(ValueError):
    """An omega = 0 mode reached the closed forms.

    The k = 0 mode carries zero coupling in every concrete model and must
    be excluded upstream instead of limit-evaluated here.
    """


@dataclass(frozen=True)
class DecoherenceExponent:
    """Per-mode pair (Gamma >= 0 real, Upsilon complex).

    The mode's contribution to the decoherence function is
    exp(-gamma) * exp(-1j*upsilon); Im(upsilon) feeds magnitude.
    """

    gamma: float
    upsilon: complex

    def s_value(self):
        """exp(-Gamma - i*Upsilon) for this mode."""
        return cmath.exp(-self.gamma - 1j * self.upsilon)


def decoherence_exponent_k(lambda_m, lambda_n, omega, beta, t):
    """Decoherence exponent of a single bath mode.

    gamma   = 2|lm-ln|^2/w^2 * sin^2(wt/2) * coth(beta*w/2)
    upsilon = (lm-ln)(lm+ln)*/w^2 * [sin(wt) - wt]
              - 2 Im{lm ln*}/w^2 * ([1-cos(wt)] + i[sin(wt) - wt])

    lambda_m, lambda_n are the interaction eigenvalues (rad/s) of the two
    system levels; beta is hbar/(k_B T) in seconds.
    """
    if omega == 0:
        raise SingularModeError("omega = 0 mode must be excluded upstream")
    if omega < 0:
        raise ValueError("omega must be positive")
    if beta <= 0:
        raise ValueError("beta must be positive")
    if t < 0:
        raise ValueError("t must be non-negative")
    lm = complex(lambda_m)
    ln = complex(lambda_n)
    wt = omega * t
    diff = lm - ln
    osc = math.sin(wt) - wt
    gamma = (2.0 * abs(diff) ** 2 / omega**2
             * math.sin(wt / 2.0) ** 2 * coth(beta * omega / 2.0))
    upsilon = (diff * (lm + ln).conjugate() / omega**2 * osc
               - 2.0 * (lm * ln.conjugate()).imag / omega**2
               * ((1.0 - math.cos(wt)) + 1j * osc))
    return DecoherenceExponent(gamma=gamma, upsilon=upsilon)


def s_mn(modes, beta, t):
    """Decoherence function: product of per-mode factors.

    ``modes`` is an iterable of (omega, lambda_m, lambda_n).  Returns
    exp(-sum Gamma) * exp(-i sum Upsilon); the empty product is 1.
    """
    total_gamma = 0.0
    total_upsilon = 0j
    for omega, lm, ln in modes:
        exponent = decoherence_exponent_k(lm, ln, omega, beta, t)
        total_gamma += exponent.gamma
        total_upsilon += exponent.upsilon
    return cmath.exp(-total_gamma - 1j * total_upsilon)


def condensed_kernels(g_a, partners, omegas, beta, t):
    """Bath kernels for one representative element A among many.

    g_a       per-mode complex couplings g_k of A
    partners  iterable of per-mode couplings of the partner elements A',
              read one at a time
    omegas    per-mode frequencies, rad/s

    Returns (gamma_A, epsilon_A, [zeta_A' for each partner], in their
    order), all in s^2 with lambda carrying rad/s per unit coupling:
    gamma_A multiplies (lambda_m - lambda_n)^2, epsilon_A multiplies
    (lambda_m^2 - lambda_n^2), and zeta_A' is A's cross kernel with one
    partner.  A partner traced out in a fixed level of eigenvalue
    kappa_A' adds kappa_A' zeta_A' to chi_A, which multiplies
    (lambda_m - lambda_n) (see condensed_sigma_element).
    """
    omegas = np.asarray(omegas, dtype=float)
    if np.any(omegas == 0):
        raise SingularModeError("omega = 0 mode must be excluded upstream")
    g_a = np.asarray(g_a, dtype=complex)
    if g_a.shape != omegas.shape:
        raise ValueError("mode sequences misaligned")
    wt = omegas * t
    osc = np.sin(wt) - wt
    coth_f = 1.0 / np.tanh(beta * omegas / 2.0)
    abs2 = np.abs(g_a) ** 2 / omegas**2
    gamma_a = float(np.sum(2.0 * abs2 * np.sin(wt / 2.0) ** 2 * coth_f))
    epsilon_a = float(np.sum(abs2 * osc))
    zeta = []
    for g_p in partners:
        g_p = np.asarray(g_p, dtype=complex)
        if g_p.shape != omegas.shape:
            raise ValueError("mode sequences misaligned")
        cross = g_a * np.conj(g_p)
        zeta.append(float(np.sum(2.0 / omegas**2
                                 * (cross.real * osc
                                    - cross.imag * (1.0 - np.cos(wt))))))
    return gamma_a, epsilon_a, zeta


def condensed_sigma_element(rho0_elem, E_m, E_n, lambda_m, lambda_n,
                            gamma_A, epsilon_A, chi_A, t):
    """One element of the condensed reduced matrix.

    rho(0) * exp(-i(E_m-E_n)t) * exp(-(lm-ln)^2 gamma_A)
           * exp(-i(lm^2-ln^2) epsilon_A) * exp(-i(lm-ln) chi_A)

    gamma_A and epsilon_A are condensed_kernels' first two sums, and
    chi_A = sum over partners of kappa_A' zeta_A'.
    """
    diff = lambda_m - lambda_n
    return (rho0_elem
            * cmath.exp(-1j * (E_m - E_n) * t)
            * cmath.exp(-(diff**2) * gamma_A)
            * cmath.exp(-1j * (lambda_m**2 - lambda_n**2) * epsilon_A)
            * cmath.exp(-1j * diff * chi_A))

"""Brute-force decoherence traces over a truncated bosonic Fock space.

This is the independent numerical check of the closed forms: the trace
Tr[exp(-i(M+J_m)t) Theta exp(+i(M+J_n)t)] is evaluated by dense Hermitian
eigendecomposition, with no coherent-state algebra anywhere.
"""

from __future__ import annotations

import numpy as np


class ConvergenceError(RuntimeError):
    """Cutoff doubling exhausted before the trace settled."""

    def __init__(self, message, last=None, previous=None):
        super().__init__(message)
        self.last = last
        self.previous = previous


class TruncatedMode:
    """Single bath mode truncated at occupation n_max.

    Carries dense (n_max+1) x (n_max+1) matrices for the lowering,
    raising and number operators.  The commutator [b, b+] equals the
    identity except at the truncation corner, which is asserted.
    """

    def __init__(self, n_max, omega):
        if n_max < 1:
            raise ValueError("n_max >= 1 required")
        if omega <= 0:
            raise ValueError("omega > 0 required")
        self.n_max = int(n_max)
        self.omega = float(omega)
        n = np.arange(self.n_max + 1)
        self.lowering = np.diag(np.sqrt(n[1:]).astype(complex), 1)
        self.raising = self.lowering.conj().T
        self.number = np.diag(n.astype(complex))
        comm = self.lowering @ self.raising - self.raising @ self.lowering
        expected = np.eye(self.n_max + 1, dtype=complex)
        expected[-1, -1] = -self.n_max  # truncation artifact
        if not np.allclose(comm, expected, rtol=0, atol=1e-12):
            raise AssertionError("commutator truncation structure violated")

    def hamiltonian(self, lam, f=1.0):
        """M + f*J with J = lam* b + lam b+ (Hermitian), in rad/s."""
        lam = complex(lam)
        return (self.omega * self.number
                + f * (np.conj(lam) * self.lowering + lam * self.raising))


def thermal_state(mode, beta):
    """Thermal state Theta = exp(-beta w b+b)/Z over the truncated space.

    Diagonal, non-negative, trace exactly 1.
    """
    if beta * mode.omega <= 0:
        raise ValueError("beta*omega > 0 required")
    n = np.arange(mode.n_max + 1)
    weights = np.exp(-beta * mode.omega * n)
    z = weights.sum()
    if not np.isfinite(z) or z == 0.0:
        raise ValueError("thermal weights underflowed to zero")
    weights = weights / z
    # pin the trace to exactly 1 in floating point
    weights[0] += 1.0 - weights.sum()
    return np.diag(weights.astype(complex))


def _propagator(mode, lam, t, f=1.0):
    """exp(-i (M + f J) t) by Hermitian eigendecomposition."""
    energies, vectors = np.linalg.eigh(mode.hamiltonian(lam, f))
    return (vectors * np.exp(-1j * energies * t)) @ vectors.conj().T


def numeric_s_free(lambda_m, lambda_n, mode, beta, t):
    """Tr[exp(-i(M+J_m)t) Theta exp(+i(M+J_n)t)] on the truncated space."""
    if t < 0:
        raise ValueError("t >= 0 required")
    theta = thermal_state(mode, beta)
    forward = _propagator(mode, lambda_m, t)
    backward = _propagator(mode, lambda_n, -t)
    return complex(np.trace(forward @ theta @ backward))


def numeric_s_reversal(lambda_m, lambda_n, mode, beta, t_F, t_B, f_B):
    """Five-factor trace of the forward/backward (reversal) sequence.

    Tr[exp(-i(M+f_B J_m)t_B) exp(-i(M+J_m)t_F) Theta
       exp(+i(M+J_n)t_F) exp(+i(M+f_B J_n)t_B)]
    """
    if t_F < 0 or t_B < 0:
        raise ValueError("t_F, t_B >= 0 required")
    theta = thermal_state(mode, beta)
    left = (_propagator(mode, lambda_m, t_B, f_B)
            @ _propagator(mode, lambda_m, t_F))
    right = (_propagator(mode, lambda_n, -t_F)
             @ _propagator(mode, lambda_n, -t_B, f_B))
    return complex(np.trace(left @ theta @ right))


def displaced_identity_residual(lam, mode, f=1.0):
    """Max-norm residual of the displaced-operator identity.

    Builds N = a+a from a = b + f*lam/w and compares M + f*J against
    w*N - f^2 |lam|^2/w on the interior (non-corner) block.
    """
    lam = complex(lam)
    dim = mode.n_max + 1
    shift = f * lam / mode.omega
    a = mode.lowering + shift * np.eye(dim)
    n_disp = a.conj().T @ a
    lhs = mode.hamiltonian(lam, f)
    rhs = (mode.omega * n_disp
           - (f**2) * abs(lam) ** 2 / mode.omega * np.eye(dim))
    residual = (lhs - rhs)[:-1, :-1]
    return float(np.max(np.abs(residual)))


def cutoff_schedule(lambdas, omega, beta, n_steps=6):
    """Doubling n_max schedule from the occupation-based cutoff rule.

    n_max_initial = ceil(10*nbar + 4*max|lam/w|^2 + 20): the thermal tail
    and the coherent displacement both inflate the occupied levels.
    """
    nbar = 1.0 / np.expm1(beta * omega)
    disp = max((abs(complex(l) / omega) ** 2 for l in lambdas), default=0.0)
    n0 = int(np.ceil(10.0 * nbar + 4.0 * disp + 20.0))
    return [n0 * 2**i for i in range(n_steps)]


def converge(op, schedule, tol):
    """First value along the schedule whose successor moves < tol.

    ``op`` maps n_max to a complex trace.  Returns (value, n_used) where
    the value is the successor (the better of the two estimates).  When
    the schedule runs out, ConvergenceError carries its final two
    estimates as ``last`` and ``previous``.
    """
    schedule = list(schedule)
    if not schedule:
        raise ValueError("schedule must be nonempty")
    last, previous = op(schedule[0]), None
    for n in schedule[1:]:
        last, previous = op(n), last
        if abs(last - previous) < tol:
            return last, n
    raise ConvergenceError(
        f"trace not converged to {tol} within schedule {schedule}",
        last=last, previous=previous,
    )


def converged_s_free(lambda_m, lambda_n, omega, beta, t, tol=1e-10):
    """numeric_s_free under the doubling cutoff rule."""
    def op(n_max):
        return numeric_s_free(lambda_m, lambda_n,
                              TruncatedMode(n_max, omega), beta, t)
    schedule = cutoff_schedule((lambda_m, lambda_n), omega, beta)
    return converge(op, schedule, tol)


def converged_s_reversal(lambda_m, lambda_n, omega, beta, t_F, t_B, f_B,
                         tol=1e-10):
    """numeric_s_reversal under the doubling cutoff rule."""
    def op(n_max):
        return numeric_s_reversal(lambda_m, lambda_n,
                                  TruncatedMode(n_max, omega), beta,
                                  t_F, t_B, f_B)
    schedule = cutoff_schedule((lambda_m, lambda_n), omega, beta)
    return converge(op, schedule, tol)

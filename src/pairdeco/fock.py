"""Brute-force decoherence traces over a truncated bosonic Fock space.

The independent numerical check of the closed forms: the traces over
the levels j <= n_max, with no coherent-state algebra anywhere, in
omega = 1 units (times omega*t, inverse temperatures beta*omega).
Both precisions truncate at the cutoff ``tail_bound_n_max`` gives for
an absolute error target, and ``xprec`` evaluates the same formula in
double-double.  A trace call of either precision takes a sequence of
times at one cutoff: the systems and overlaps below do not depend on
t, so each call builds them once, and each time adds only its phase
vectors and the final sum.

* M + f*J, J = lam* b + lam b+, has diagonal j and off-diagonal
  f*lam* sqrt(j) above it.  With D = diag(u^j), u = sign(f)
  conj(lam)/|lam| (any unit when f*lam = 0), D (M + f*J) D^+ is the
  real symmetric tridiagonal T with off-diagonal |f*lam| sqrt(j), an
  exact similarity.  T = V diag(E) V^T, so M + f*J has the
  eigenvectors U = D^+ V.
* Two systems meet through U_a^+ diag(w) U_b = V_a^T diag(c w) V_b,
  c_j = (u_a conj(u_b))^j, real for one lambda or collinear lambdas;
  w_j = exp(-beta j)/Z for Theta, else 1.
* Free: with A = U_m^+ Theta U_n, B = U_n^+ U_m and the phases
  pm = exp(-i E_m t), pn = exp(+i E_n t), S = sum_jl pm_j A_jl B_lj pn_l.
* Reversal, systems 1 = (m, f_B), 2 = (m, 1), 3 = (n, 1), 4 = (n, f_B)
  with phase diagonals D_i: Tr(D1 G12 D2 G_theta D3 G34 D4 G41) =
  Tr(P Q), P = D2 (G_theta D3) G34 and Q = D4 (G41 D1) G12.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigError


def _thermal_weights(beta, n_max):
    """exp(-beta j)/Z for j <= n_max, pinned to sum to exactly 1."""
    if not 0.0 < beta < np.inf:
        raise ValueError("0 < beta*omega < inf required")
    weights = np.exp(-beta * np.arange(n_max + 1))
    weights /= weights.sum()
    weights[0] += 1.0 - weights.sum()
    return weights


def _powers(z, n):
    """z**j for j < n by repeated doubling; z in {+-1, +-i} stays exact."""
    p = np.ones(1, dtype=type(z))
    while p.size < n:
        p, z = np.concatenate([p, p * z]), z * z
    return p[:n]


def _mode_systems(pairs, n_max):
    """(E, V, u) of M + f*J per (lam, f), one eigh per distinct |f*lam|."""
    root, eigensystems, systems = np.sqrt(np.arange(1, n_max + 1)), {}, []
    for lam, f in pairs:
        lam = complex(lam)
        mag = abs(f * lam)
        if mag not in eigensystems:
            off = np.diag(mag * root, 1)
            eigensystems[mag] = np.linalg.eigh(
                np.diag(np.arange(n_max + 1.0)) + off + off.T)
        u = np.copysign(1.0, f) * lam.conjugate() / abs(lam) if lam else 1.0
        systems.append(eigensystems[mag] + (u,))
    return systems


def _overlap(sys_a, sys_b, weights):
    """V_a^T diag(c w) V_b with c_j = (u_a conj(u_b))^j; w is 1 or a vector."""
    (_, v_a, u_a), (_, v_b, u_b) = sys_a, sys_b
    ratio = complex(u_a * np.conj(u_b))
    ratio /= abs(ratio)  # a unit to the last bit, so |c_j| does not drift
    c = _powers(ratio.real if ratio.imag == 0 else ratio, v_a.shape[0])
    return v_a.T @ ((c * weights)[:, None] * v_b)


def numeric_s_free(lambda_m, lambda_n, beta, times, n_max):
    """Tr[exp(-i(M+J_m)t) Theta exp(+i(M+J_n)t)] per t in times, truncated.

    The mode systems and overlaps do not depend on t and are built once
    per call; each time adds only its two phase vectors and the sum.
    """
    if any(t < 0 for t in times):
        raise ValueError("t >= 0 required")
    sys_m, sys_n = _mode_systems(((lambda_m, 1.0), (lambda_n, 1.0)), n_max)
    a_mat = _overlap(sys_m, sys_n, _thermal_weights(beta, n_max))
    a_b = a_mat * _overlap(sys_n, sys_m, 1.0).T
    # S = sum_jl pm_j A_jl B_lj pn_l
    return [complex(np.exp(-1j * sys_m[0] * t) @ a_b
                    @ np.exp(1j * sys_n[0] * t)) for t in times]


def numeric_s_reversal(lambda_m, lambda_n, beta, times, f_B, n_max):
    """Five-factor reversal trace per (t_F, t_B) in times, truncated.

    Tr[exp(-i(M+f_B J_m)t_B) exp(-i(M+J_m)t_F) Theta
       exp(+i(M+J_n)t_F) exp(+i(M+f_B J_n)t_B)]

    The overlaps are built once per call, as in numeric_s_free.
    """
    if any(t_F < 0 or t_B < 0 for t_F, t_B in times):
        raise ValueError("t_F, t_B >= 0 required")
    s1, s2, s3, s4 = _mode_systems(
        ((lambda_m, f_B), (lambda_m, 1.0), (lambda_n, 1.0), (lambda_n, f_B)),
        n_max)
    g12, g34 = _overlap(s1, s2, 1.0), _overlap(s3, s4, 1.0)
    g_theta = _overlap(s2, s3, _thermal_weights(beta, n_max))
    g41 = _overlap(s4, s1, 1.0)

    def trace(t_F, t_B):
        p1, p2 = np.exp(-1j * s1[0] * t_B), np.exp(-1j * s2[0] * t_F)
        p3, p4 = np.exp(1j * s3[0] * t_F), np.exp(1j * s4[0] * t_B)
        p_mat = (g_theta * p3) @ g34
        q_mat = (g41 * p1) @ g12
        # Tr(P Q) = sum_jl p2_j (G_theta D3 G34)_jl p4_l (G41 D1 G12)_lj
        return complex(p2 @ (p_mat * q_mat.T) @ p4)

    return [trace(t_F, t_B) for t_F, t_B in times]


def displaced_identity_residual(lam, n_max, f):
    """Max-norm residual of the displaced-operator identity.

    Builds N = a+a from a = b + f*lam and compares M + f*J against
    N - f^2 |lam|^2 on the interior (non-corner) block, with b the
    dense sqrt(j) lowering matrix on j <= n_max.
    """
    lam = complex(lam)
    n = np.arange(n_max + 1)
    b = np.diag(np.sqrt(n[1:]), 1)
    a = b + f * lam * np.eye(n_max + 1)
    lhs = np.diag(n) + f * (np.conj(lam) * b + lam * b.T)
    rhs = a.conj().T @ a - (f**2) * abs(lam) ** 2 * np.eye(n_max + 1)
    return float(np.max(np.abs((lhs - rhs)[:-1, :-1])))


def tail_bound_n_max(beta, lambdas, target_abs):
    """Fock cutoff whose truncation error is below target_abs.

    The trace mass beyond level n is below ~2 q^(n+1)/(1-q)^2, q =
    exp(-beta), in either precision, which holds at every n >= 0 once
    target_abs >= c = 2/(1-q)^2; 4 max|lam|^2 + 20 more levels cover
    the coherent displacement.  A cutoff above 700, the largest the
    traces are tested at, raises ConfigError naming it, so no trace is
    built at it.
    """
    q = math.exp(-beta)
    c = 2.0 / (1.0 - q) ** 2
    # log(c) - log(target) stays finite where c/target overflows
    n_tail = max(0.0, (math.log(c) - math.log(target_abs)) / beta)
    disp = max((abs(complex(l)) ** 2 for l in lambdas), default=0.0)
    n_max = int(math.ceil(n_tail + 4.0 * disp + 20.0))
    if n_max > 700:
        raise ConfigError(f"truncation target {target_abs:.3g} needs a Fock "
                          f"cutoff of {n_max}, above the limit of 700")
    return n_max


def converged_s_free(lambda_m, lambda_n, beta, times, target):
    """(numeric_s_free list, n_max), truncation error below target."""
    n_max = tail_bound_n_max(beta, (lambda_m, lambda_n), target)
    return numeric_s_free(lambda_m, lambda_n, beta, times, n_max), n_max


def converged_s_reversal(lambda_m, lambda_n, beta, times, f_B, target):
    """(numeric_s_reversal list, n_max), truncation error below target."""
    n_max = tail_bound_n_max(beta, (lambda_m, lambda_n), target)
    return (numeric_s_reversal(lambda_m, lambda_n, beta, times, f_B, n_max),
            n_max)

"""Extended-precision (double-double) evaluation of the Fock traces.

The float64 eigendecomposition route in ``fock`` carries an absolute
error floor of roughly eps * ||H t|| ~ 1e-11 for the oracle-grid
Hamiltonians.  Grid points whose decoherence function is smaller than
~1e-3 therefore cannot be verified to 1e-8 *relative* in plain float64.
This module reproduces the same truncated-Fock traces with ~1e-30
arithmetic so the relative comparison stays meaningful down to
|S| ~ 1e-16.

Machinery: double-double (pairs of float64) arithmetic vectorized over
numpy arrays; exact-product sliced matrix multiplication (Ozaki, Ogita,
Oishi & Rump, Numer. Algorithms 59, 2012) so BLAS does the heavy
lifting, each slice product added into the double-double sum as it is
formed; tridiagonal reduction of M + f*J by a diagonal phase
similarity; eigenpairs refined by inverse iteration plus Rayleigh
quotients in double-double.  mpmath supplies only scalar phases and
thermal weights (cheap, and independent of the matrix algebra).

The traces take a sequence of times.  Eigensystems and overlaps do not
depend on t and are built once per call; an eigensystem depends only on
the cutoff and |f*lambda|, and callers share them across calls through
one ``eigensystems`` dict.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


# ---------------------------------------------------------------------------
# double-double primitives (hi, lo) on numpy arrays
# ---------------------------------------------------------------------------

def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fast_two_sum(a, b):
    # requires |a| >= |b| elementwise
    s = a + b
    return s, b - (s - a)


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd(hi, lo=None):
    """Pack a double-double value; arrays broadcast as usual."""
    hi = np.asarray(hi, dtype=float)
    lo = np.zeros_like(hi) if lo is None else np.asarray(lo, dtype=float)
    return hi, lo


def dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    t, f = _two_sum(x[1], y[1])
    e = e + t
    s, e = _fast_two_sum(s, e)
    e = e + f
    return _fast_two_sum(s, e)


def dd_neg(x):
    return -x[0], -x[1]


def dd_sub(x, y):
    return dd_add(x, dd_neg(y))


def dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    e = e + (x[0] * y[1] + x[1] * y[0])
    return _fast_two_sum(p, e)


def dd_mul_f(x, f):
    p, e = _two_prod(x[0], f)
    e = e + x[1] * f
    return _fast_two_sum(p, e)


def dd_div(x, y):
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul_f(y, q1))
    q2 = r[0] / y[0]
    r = dd_sub(r, dd_mul_f(y, q2))
    q3 = r[0] / y[0]
    s, e = _fast_two_sum(q1, q2)
    e = e + q3
    return _fast_two_sum(s, e)


def dd_sqrt(x):
    y = np.sqrt(x[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        r = dd_sub(x, dd_mul((y, np.zeros_like(y)), (y, np.zeros_like(y))))
        corr = np.where(y > 0.0, r[0] / (2.0 * y), 0.0)
    return _fast_two_sum(y, corr)


def dd_sum(x, axis):
    """Pairwise double-double reduction along an axis."""
    hi, lo = np.moveaxis(x[0], axis, 0), np.moveaxis(x[1], axis, 0)
    while hi.shape[0] > 1:
        m = hi.shape[0]
        half = m // 2
        head = (hi[:half], lo[:half])
        tail = (hi[half:2 * half], lo[half:2 * half])
        s = dd_add(head, tail)
        if m % 2:
            hi = np.concatenate([s[0], hi[-1:]], axis=0)
            lo = np.concatenate([s[1], lo[-1:]], axis=0)
        else:
            hi, lo = s
    return hi[0], lo[0]


def dd_to_float(x):
    return x[0] + x[1]


def dd_from_mpf(value):
    """Scalar mpmath -> double-double."""
    hi = float(value)
    lo = float(value - mpmath.mpf(hi))
    return hi, lo


# ---------------------------------------------------------------------------
# complex double-double helpers: tuples (re, im) of dd pairs
# ---------------------------------------------------------------------------

def cdd_mul(x, y):
    re = dd_sub(dd_mul(x[0], y[0]), dd_mul(x[1], y[1]))
    im = dd_add(dd_mul(x[0], y[1]), dd_mul(x[1], y[0]))
    return re, im


def cdd_sum(x, axis):
    return dd_sum(x[0], axis), dd_sum(x[1], axis)


def cdd_to_complex(x):
    return complex(dd_to_float(x[0]), dd_to_float(x[1]))


# ---------------------------------------------------------------------------
# sliced exact-product matrix multiplication (double-double via BLAS)
# ---------------------------------------------------------------------------

def _dd_add_f(x, p):
    """x + p for double-double x and float64 p.

    The same bits as dd_add(x, dd(p)): with a zero low word, dd_add's
    second two_sum and its final renormalization change nothing.
    dd_matmul adds each slice product with it.
    """
    s, e = _two_sum(x[0], p)
    return _fast_two_sum(s, e + x[1])


def _slice_matrix(x, delta, axis, n_slices):
    """Split a dd matrix into float64 slices of <= delta significand bits.

    ``axis`` is the inner (contracted) dimension: slices share one
    binary scale along it (per row of the left operand, per column of
    the right) so slice products accumulate exactly in float64 dot
    products.  The extraction (r + sigma) - sigma is exact rounding.
    """
    r = x
    slices = []
    while True:
        mu = np.max(np.abs(r[0]), axis=axis, keepdims=True)
        _, expo = np.frexp(mu)  # mu < 2**expo
        sigma = np.ldexp(1.0, expo + (53 - delta))
        s = (r[0] + sigma) - sigma
        slices.append(s)
        if len(slices) == n_slices:
            return slices
        # s is r[0] rounded to a multiple of 2**(expo - delta), so
        # r[0] - s is exact and only the renormalization remains
        r = _fast_two_sum(r[0] - s, r[1])


def dd_matmul(a, b, n_slices=6):
    """C = A @ B for double-double matrices, accurate to ~1e-30 relative.

    Each operand is sliced into limited-significand float64 matrices
    whose pairwise products are exact in BLAS.  Products of slices i, j
    with i + j > n_slices lie below the target precision and are
    skipped; the rest are added into the double-double sum as they are
    formed, smallest first: level i + j from n_slices down to 0, i
    ascending within a level.
    """
    k = a[0].shape[1]
    if b[0].shape[0] != k:
        raise ValueError("inner dimensions disagree")
    delta = int((53 - math.ceil(math.log2(max(k, 2)))) // 2)
    a_slices = _slice_matrix(a, delta, axis=1, n_slices=n_slices)
    b_slices = _slice_matrix(b, delta, axis=0, n_slices=n_slices)
    acc = dd(np.zeros((a[0].shape[0], b[0].shape[1])))
    for level in range(n_slices, -1, -1):
        for i in range(max(0, level - n_slices + 1),
                       min(level, n_slices - 1) + 1):
            acc = _dd_add_f(acc, a_slices[i] @ b_slices[level - i])
    return acc


def cdd_matmul(a, b):
    """Complex dd matmul from four real dd matmuls."""
    re = dd_sub(dd_matmul(a[0], b[0]), dd_matmul(a[1], b[1]))
    im = dd_add(dd_matmul(a[0], b[1]), dd_matmul(a[1], b[0]))
    return re, im


def dd_transpose(x):
    return x[0].T.copy(), x[1].T.copy()


# ---------------------------------------------------------------------------
# symmetric tridiagonal eigensystems in double-double
# ---------------------------------------------------------------------------

def _solve_shifted(diag_dd, off_dd, shifts, rhs):
    """Solve (T - shift_j) x_j = rhs_j for many shifts at once.

    Banded Gaussian elimination with partial pivoting (one fill-in
    band), fully in double-double; vectorized across the systems axis.
    diag_dd: dd (n,); off_dd: dd (n-1,); shifts: dd (m,); rhs: dd (n, m).
    """
    n = diag_dd[0].shape[0]
    m = shifts[0].shape[0]

    def row_diag(i):
        d_i = (np.full(m, diag_dd[0][i]), np.full(m, diag_dd[1][i]))
        return dd_sub(d_i, shifts)

    def off_const(i):
        return np.full(m, off_dd[0][i]), np.full(m, off_dd[1][i])

    zeros = dd(np.zeros(m))
    u0 = [None] * n
    u1 = [None] * n
    u2 = [None] * n
    y = [None] * n
    # evolving pivot row at columns (i, i+1, i+2)
    c0, c1, c2 = row_diag(0), off_const(0) if n > 1 else zeros, zeros
    rc = (rhs[0][0].copy(), rhs[1][0].copy())
    for i in range(n - 1):
        q0 = off_const(i)
        q1 = row_diag(i + 1)
        q2 = off_const(i + 1) if i + 1 < n - 1 else zeros
        rq = (rhs[0][i + 1].copy(), rhs[1][i + 1].copy())
        swap = np.abs(q0[0]) > np.abs(c0[0])

        def pick(a, b):
            return (np.where(swap, b[0], a[0]), np.where(swap, b[1], a[1]))

        c0, q0 = pick(c0, q0), pick(q0, c0)
        c1, q1 = pick(c1, q1), pick(q1, c1)
        c2, q2 = pick(c2, q2), pick(q2, c2)
        rc, rq = pick(rc, rq), pick(rq, rc)
        mult = dd_div(q0, c0)
        u0[i], u1[i], u2[i], y[i] = c0, c1, c2, rc
        c0 = dd_sub(q1, dd_mul(mult, c1))
        c1 = dd_sub(q2, dd_mul(mult, c2))
        c2 = zeros
        rc = dd_sub(rq, dd_mul(mult, rc))
    u0[n - 1], u1[n - 1], u2[n - 1], y[n - 1] = c0, c1, c2, rc

    x_hi = np.empty((n, m))
    x_lo = np.empty((n, m))

    def set_x(i, value):
        x_hi[i], x_lo[i] = value

    def get_x(i):
        return x_hi[i], x_lo[i]

    set_x(n - 1, dd_div(y[n - 1], u0[n - 1]))
    if n > 1:
        v = dd_sub(y[n - 2], dd_mul(u1[n - 2], get_x(n - 1)))
        set_x(n - 2, dd_div(v, u0[n - 2]))
    for i in range(n - 3, -1, -1):
        v = dd_sub(y[i], dd_mul(u1[i], get_x(i + 1)))
        v = dd_sub(v, dd_mul(u2[i], get_x(i + 2)))
        set_x(i, dd_div(v, u0[i]))
    return x_hi, x_lo


def _normalize_columns(v):
    norm2 = dd_sum(dd_mul(v, v), axis=0)
    inv = dd_div(dd(np.ones_like(norm2[0])), dd_sqrt(norm2))
    return dd_mul(v, (inv[0][None, :], inv[1][None, :]))


def _rayleigh(diag_dd, off_dd, v):
    """x^T T x per column for tridiagonal T, in double-double."""
    d_col = (diag_dd[0][:, None], diag_dd[1][:, None])
    e_col = (off_dd[0][:, None], off_dd[1][:, None])
    quad = dd_sum(dd_mul(d_col, dd_mul(v, v)), axis=0)
    head = (v[0][:-1], v[1][:-1])
    tail = (v[0][1:], v[1][1:])
    cross = dd_sum(dd_mul(e_col, dd_mul(head, tail)), axis=0)
    return dd_add(quad, dd_add(cross, cross))


def tridiag_eigh_dd(diag_dd, off_dd):
    """Eigensystem of a real symmetric tridiagonal matrix in double-double.

    float64 eigh seeds the spectrum; two inverse-iteration sweeps with
    Rayleigh-quotient shifts refine each eigenpair well past float64.
    Returns (eigenvalues dd (n,), eigenvectors dd (n, n) as columns).
    """
    n = diag_dd[0].shape[0]
    t64 = np.diag(dd_to_float(diag_dd))
    if n > 1:
        e64 = dd_to_float(off_dd)
        t64 += np.diag(e64, 1) + np.diag(e64, -1)
    e0, v0 = np.linalg.eigh(t64)
    v = dd(v0)
    shifts = dd(e0)
    for _ in range(2):
        v = _solve_shifted(diag_dd, off_dd, shifts, v)
        v = _normalize_columns(v)
        shifts = _rayleigh(diag_dd, off_dd, v)
    return shifts, v


def tridiag_residual(diag_dd, off_dd, eigvals, v):
    """max-norm of T v - v diag(eigvals), as float (diagnostic)."""
    n, m = v[0].shape
    zeros_row = (np.zeros((1, m)), np.zeros((1, m)))

    def pad(x, front):
        hi = np.concatenate([zeros_row[0], x[0]] if front
                            else [x[0], zeros_row[0]], axis=0)
        lo = np.concatenate([zeros_row[1], x[1]] if front
                            else [x[1], zeros_row[1]], axis=0)
        return hi, lo

    d_col = (diag_dd[0][:, None], diag_dd[1][:, None])
    e_col = (off_dd[0][:, None], off_dd[1][:, None])
    tv = dd_mul(d_col, v)
    # e_i v_{i+1} lands on row i; e_{i-1} v_{i-1} lands on row i
    tv = dd_add(tv, pad(dd_mul(e_col, (v[0][1:], v[1][1:])), front=False))
    tv = dd_add(tv, pad(dd_mul(e_col, (v[0][:-1], v[1][:-1])), front=True))
    ev = dd_mul((eigvals[0][None, :], eigvals[1][None, :]), v)
    res = dd_sub(tv, ev)
    return float(np.max(np.abs(dd_to_float(res))))


# ---------------------------------------------------------------------------
# extended-precision Fock traces
# ---------------------------------------------------------------------------

def _mp_ctx():
    ctx = mpmath.mp.clone()
    ctx.dps = 50
    return ctx


def _mode_system(omega, lam, f, n_max, ctx, eigensystems):
    """Tridiagonal reduction of M + f*J and its dd eigensystem.

    M + f*J has constant off-diagonal phase; the diagonal similarity
    diag(u^j) with u = (f*lam)*/|f*lam| makes it real symmetric with
    off-diagonal |f*lam| sqrt(j).  The eigensystem depends on lam and f
    only through |f*lam|, so ``eigensystems`` keeps one per (omega,
    n_max, |f*lam|) and every (lam, f) that reduces to it shares it.
    Returns (E dd, V dd, u mpc).
    """
    z = ctx.mpc(lam.real, lam.imag) * f
    mag = abs(z)
    u = ctx.mpc(1, 0) if mag == 0 else ctx.conj(z) / mag
    key = (float(omega), n_max, mag)
    if key not in eigensystems:
        n = np.arange(n_max + 1, dtype=float)
        diag_dd = _two_prod(np.full(n_max + 1, float(omega)), n)
        if mag == 0:
            off_dd = dd(np.zeros(n_max))
        else:
            mag_dd = dd_from_mpf(mag)
            root = dd_sqrt(dd(np.arange(1, n_max + 1, dtype=float)))
            off_dd = dd_mul(root, (np.full(n_max, mag_dd[0]),
                                   np.full(n_max, mag_dd[1])))
        eigensystems[key] = tridiag_eigh_dd(diag_dd, off_dd)
    eigvals, vectors = eigensystems[key]
    return eigvals, vectors, u


def _unit_powers(u, n_max, ctx):
    """u^j for j = 0..n_max as an mpmath list."""
    powers = [ctx.mpc(1, 0)]
    for _ in range(n_max):
        powers.append(powers[-1] * u)
    return powers


def _cdd_vector(values):
    re_hi = np.array([float(v.real) for v in values])
    im_hi = np.array([float(v.imag) for v in values])
    re_lo = np.array([float(v.real - mpmath.mpf(h))
                      for v, h in zip(values, re_hi)])
    im_lo = np.array([float(v.imag - mpmath.mpf(h))
                      for v, h in zip(values, im_hi)])
    return (re_hi, re_lo), (im_hi, im_lo)


def _phase_vector(eigvals, t, sign, ctx):
    """exp(sign * i * E_j * t) as complex dd, phases done in mpmath."""
    values = []
    t_mp = ctx.mpf(t)
    for hi, lo in zip(eigvals[0], eigvals[1]):
        theta = (ctx.mpf(hi) + ctx.mpf(lo)) * t_mp * sign
        values.append(ctx.mpc(ctx.cos(theta), ctx.sin(theta)))
    return _cdd_vector(values)


def _overlap(v_a, pow_a, v_b, pow_b, ctx, weights=None):
    """V_a^T diag(c) V_b with c_j = u_a^j conj(u_b^j), times weights_j.

    With U_a = D_a^+ V_a, D_a = diag(u_a^j), this is the overlap of the
    two eigenbases U_a^+ diag(weights) U_b in real-V form.
    """
    c = [pa * ctx.conj(pb) for pa, pb in zip(pow_a, pow_b)]
    if weights is not None:
        c = [x * w for x, w in zip(c, weights)]
    c_re, c_im = _cdd_vector(c)
    a_t = dd_transpose(v_a)
    re = dd_matmul(a_t, dd_mul((c_re[0][:, None], c_re[1][:, None]), v_b))
    im = dd_matmul(a_t, dd_mul((c_im[0][:, None], c_im[1][:, None]), v_b))
    return re, im


def _thermal_weights(beta, omega, n_max, ctx):
    w = [ctx.exp(-ctx.mpf(beta) * ctx.mpf(omega) * j)
         for j in range(n_max + 1)]
    z = ctx.fsum(w)
    return [wi / z for wi in w]


def tail_bound_n_max(beta, omega, lambdas, target_abs):
    """Truncation level with thermal-tail trace error below target_abs.

    The neglected trace mass beyond n is bounded by ~2 q^(n+1)/(1-q)^2
    with q = exp(-beta*omega); a displacement margin mirrors the float64
    cutoff rule.
    """
    q = math.exp(-beta * omega)
    c = 2.0 / (1.0 - q) ** 2
    # log(c) - log(target) stays finite where c/target overflows
    n_tail = (math.log(c) - math.log(target_abs)) / (beta * omega)
    disp = max((abs(complex(l) / omega) ** 2 for l in lambdas), default=0.0)
    return int(math.ceil(n_tail + 4.0 * disp + 20.0))


def s_free_x(lambda_m, lambda_n, omega, beta, times, n_max,
             eigensystems=None):
    """Extended-precision Tr[exp(-iH_m t) Theta exp(+iH_n t)] per t in times.

    Eigensystems and overlaps do not depend on t and are built once per
    call; each time adds only its two phase vectors and the weighted
    sum.  Calls at one cutoff that pass the same ``eigensystems`` dict
    build each distinct tridiagonal once between them.
    """
    ctx = _mp_ctx()
    if eigensystems is None:
        eigensystems = {}
    lm, ln = complex(lambda_m), complex(lambda_n)
    e_m, v_m, u_m = _mode_system(omega, lm, 1.0, n_max, ctx, eigensystems)
    e_n, v_n, u_n = _mode_system(omega, ln, 1.0, n_max, ctx, eigensystems)
    pow_m = _unit_powers(u_m, n_max, ctx)
    pow_n = _unit_powers(u_n, n_max, ctx)
    weights = _thermal_weights(beta, omega, n_max, ctx)
    a_mat = _overlap(v_m, pow_m, v_n, pow_n, ctx, weights)
    b_mat = _overlap(v_n, pow_n, v_m, pow_m, ctx)
    # S = sum_jl pm_j A_jl B_lj pn_l
    b_t = (dd_transpose(b_mat[0]), dd_transpose(b_mat[1]))
    a_b = cdd_mul(a_mat, b_t)
    values = []
    for t in times:
        p_m = _phase_vector(e_m, t, -1, ctx)
        p_n = _phase_vector(e_n, t, +1, ctx)
        col = ((p_n[0][0][None, :], p_n[0][1][None, :]),
               (p_n[1][0][None, :], p_n[1][1][None, :]))
        rows = cdd_sum(cdd_mul(a_b, col), axis=1)
        values.append(cdd_to_complex(cdd_sum(cdd_mul(rows, p_m), axis=0)))
    return values


def s_reversal_x(lambda_m, lambda_n, omega, beta, times, f_B, n_max,
                 eigensystems=None):
    """Extended-precision five-factor reversal trace per (t_F, t_B) in times.

    The four overlaps are built once per call; each time adds its four
    phase vectors and two complex dd matmuls.  ``eigensystems`` is
    shared as in s_free_x.
    """
    ctx = _mp_ctx()
    if eigensystems is None:
        eigensystems = {}
    lm, ln = complex(lambda_m), complex(lambda_n)
    systems = [
        _mode_system(omega, lm, f_B, n_max, ctx, eigensystems),  # 1: back, m
        _mode_system(omega, lm, 1.0, n_max, ctx, eigensystems),  # 2: fwd, m
        _mode_system(omega, ln, 1.0, n_max, ctx, eigensystems),  # 3: fwd, n
        _mode_system(omega, ln, f_B, n_max, ctx, eigensystems),  # 4: back, n
    ]
    powers = [_unit_powers(u, n_max, ctx) for _, _, u in systems]
    weights = _thermal_weights(beta, omega, n_max, ctx)

    def overlap(ia, ib, weights=None):
        return _overlap(systems[ia][1], powers[ia], systems[ib][1],
                        powers[ib], ctx, weights)

    g12 = overlap(0, 1)
    g_theta = overlap(1, 2, weights)
    g34 = overlap(2, 3)
    g41 = overlap(3, 0)

    def scale(mat, row, col):
        row_b = ((row[0][0][:, None], row[0][1][:, None]),
                 (row[1][0][:, None], row[1][1][:, None]))
        col_b = ((col[0][0][None, :], col[0][1][None, :]),
                 (col[1][0][None, :], col[1][1][None, :]))
        return cdd_mul(cdd_mul(row_b, mat), col_b)

    values = []
    for t_F, t_B in times:
        p1 = _phase_vector(systems[0][0], t_B, -1, ctx)
        p2 = _phase_vector(systems[1][0], t_F, -1, ctx)
        p3 = _phase_vector(systems[2][0], t_F, +1, ctx)
        p4 = _phase_vector(systems[3][0], t_B, +1, ctx)
        x_mat = cdd_matmul(scale(g12, p1, p2), g_theta)
        y_mat = cdd_matmul(scale(g34, p3, p4), g41)
        y_t = (dd_transpose(y_mat[0]), dd_transpose(y_mat[1]))
        total = cdd_sum(cdd_sum(cdd_mul(x_mat, y_t), axis=1), axis=0)
        values.append(cdd_to_complex(total))
    return values

"""Extended-precision (double-double) evaluation of the Fock traces.

This is the double-double form of the trace formula that ``fock``'s
module docstring derives: the gauge-reduced real tridiagonals, their
eigensystems, the overlaps V_a^T diag(c w) V_b and the phase sums, at
the cutoff ``fock.tail_bound_n_max`` gives.  ``fock`` evaluates it in
float64, whose absolute error floor, about 1e-15 on the oracle grid,
leaves a 1e-8 *relative* comparison meaningless once |S| nears 1e-7.
Here the same traces carry ~1e-30 arithmetic, so the comparison stays
meaningful down to |S| ~ 1e-16.
It works in omega = 1 units: times are omega*t and inverse
temperatures beta*omega.

Machinery, all in double-double (pairs of float64) arithmetic vectorized
over numpy arrays: matrix products sliced into exact float64 products
that BLAS forms (dd_matmul, after Ozaki, Ogita, Oishi & Rump, Numer.
Algorithms 59, 2012); the tridiagonal reduction of M + f*J by a diagonal
phase similarity, with eigenpairs seeded by float64 eigh and refined by
Newton steps (tridiag_eigh_dd); the phases exp(-+i E t) by argument
reduction and Taylor series (Hida, Li & Bailey, ARITH-15, 2001), the
thermal weights as powers of exp(-beta) and the gauge by complex
products, each tested against a 50-digit reference.
"""

from __future__ import annotations

import math

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant
#: rows of A per banded slice product in dd_matmul (32 to 128 time alike)
_ROW_BLOCK = 64
#: slices per dd_matmul operand; dd_matmul's docstring bounds the error
_N_SLICES = 6
#: pi/2 as double-double; the pair errs by 1.5e-33
_HALF_PI = (1.5707963267948966, 6.123233995736766e-17)


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


def dd(hi):
    """A float64 value or array as double-double, with zero low words."""
    hi = np.asarray(hi, dtype=float)
    return hi, np.zeros_like(hi)


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


def _series(x, divisors):
    """1 + x/d_1 (1 + x/d_2 (... (1 + x/d_m))) by Horner's rule.

    With d_k = k this is the Taylor series of exp(x); with x = -r**2
    and d_k = (2k - 1) 2k or 2k (2k + 1), those of cos r and sin(r)/r.
    """
    p = dd(np.ones_like(x[0]))
    for d in divisors[::-1]:
        p = dd_add(dd(1.0), dd_div(dd_mul(x, p), dd(d)))
    return p


def _exp(x):
    """exp(x) of a float64 x >= 0 as double-double, by scaling and squaring.

    The Taylor series is summed to 30 terms at x / 2**m < 1, leaving <
    1.2e-34; each of the m squarings doubles its relative error, which
    ends near 2**m eps <= max(1, 2 x) eps.
    """
    m = max(math.frexp(x)[1], 0)
    v = _series(dd(x * 2.0 ** -m), np.arange(1.0, 31.0))
    for _ in range(m):
        v = dd_mul(v, v)
    return v


# ---------------------------------------------------------------------------
# complex double-double helpers: tuples (re, im) of dd pairs
# ---------------------------------------------------------------------------

def cdd_mul(x, y):
    """Elementwise complex product; an imaginary part of None is zero."""
    re = dd_mul(x[0], y[0])
    if x[1] is None and y[1] is None:
        return re, None
    if x[1] is None:
        return re, dd_mul(x[0], y[1])
    if y[1] is None:
        return re, dd_mul(x[1], y[0])
    return (dd_sub(re, dd_mul(x[1], y[1])),
            dd_add(dd_mul(x[0], y[1]), dd_mul(x[1], y[0])))


def cdd_sum(x, axis):
    return dd_sum(x[0], axis), dd_sum(x[1], axis)


def cdd_to_complex(x):
    return complex(dd_to_float(x[0]), dd_to_float(x[1]))


def _cdd_map(func, *xs):
    """func applied word by word to the float64 arrays of complex dd values."""
    return tuple(None if parts[0] is None else
                 (func(*(x[0] for x in parts)), func(*(x[1] for x in parts)))
                 for parts in zip(*xs))


def _cis(theta):
    """exp(i theta) = (cos theta, sin theta), complex dd, for dd theta.

    theta = j pi/2 + r with j the integer nearest theta/(pi/2), so |r|
    <= pi/4.  The products of j by the words of _HALF_PI are exact, so
    r errs only by j times _HALF_PI's error: 1e-29 at |theta| = 1e4.
    Taylor series give cos r and sin r, and i**j, whose words are 0 and
    +-1, turns them exactly.
    """
    j = np.rint(theta[0] / _HALF_PI[0])
    r = dd_sub(dd_sub(theta, _two_prod(j, _HALF_PI[0])),
               _two_prod(j, _HALF_PI[1]))
    k = np.arange(1.0, 15.0)  # at |r| <= pi/4 the terms left are < 3e-36
    x = dd_neg(dd_mul(r, r))
    cos_r = _series(x, (2.0 * k - 1.0) * 2.0 * k)
    sin_r = dd_mul(r, _series(x, 2.0 * k * (2.0 * k + 1.0)))
    turn = np.mod(j, 4.0).astype(int)
    return cdd_mul((cos_r, sin_r), (dd(np.array([1.0, 0.0, -1.0, 0.0])[turn]),
                                    dd(np.array([0.0, 1.0, 0.0, -1.0])[turn])))


def _powers(z, n):
    """z**j for j < n, by repeated doubling with cdd_mul.

    ``z`` is a complex dd scalar, its imaginary part None if zero, as is
    that of the powers.  z in {+-1, +-i} gives exactly +-1 and +-i.
    """
    p = dd(np.ones(1)), None if z[1] is None else dd(np.zeros(1))
    while p[0][0].shape[0] < n:
        # p holds z**j for j < len(p), and z is now z**len(p)
        p = _cdd_map(lambda a, b: np.concatenate([a, b]), p, cdd_mul(p, z))
        z = cdd_mul(z, z)
    return _cdd_map(lambda x: x[:n], p)


# ---------------------------------------------------------------------------
# sliced exact-product matrix multiplication (double-double via BLAS)
# ---------------------------------------------------------------------------

def _dd_add_f(x, p):
    """x + p for double-double x and float64 p.

    The same bits as dd_add(x, dd(p)): with a zero low word, dd_add's
    second two_sum and its final renormalization change nothing.
    dd_matmul adds each level sum of slice products with it.
    """
    s, e = _two_sum(x[0], p)
    return _fast_two_sum(s, e + x[1])


def _slice_matrix(x, delta, axis):
    """Split a dd matrix into float64 slices on one exponent ladder.

    ``axis`` is the inner (contracted) dimension.  Each row of the left
    operand (column of the right) takes e from its largest |hi|, with
    max < 2**e, and keeps it for every slice: slice i is the residual
    rounded by (r + sigma_i) - sigma_i, sigma_i = 2**(e - i*delta + 53 -
    delta), an exact extraction.  Slice i is thus an integer multiple of
    2**(e + 1 - (i + 1)*delta) and at most 2**(e - i*delta) in
    magnitude: at most delta bits on a unit that depends only on e and
    i.  The slices leave about 2**(e - _N_SLICES*delta) at most, unformed.
    """
    mu = np.max(np.abs(x[0]), axis=axis, keepdims=True)
    _, expo = np.frexp(mu)  # mu < 2**expo
    r = x
    slices = []
    for i in range(_N_SLICES):
        if slices:
            # the previous slice is r[0] rounded to a multiple of
            # 2**(expo + 1 - i*delta), so r[0] minus it is exact
            r = _fast_two_sum(r[0] - slices[-1], r[1])
        sigma = np.ldexp(1.0, expo + (53 - (i + 1) * delta))
        slices.append((r[0] + sigma) - sigma)
    return slices


def _row_extents(s):
    """First and one-past-last nonzero column of each row; (n, 0) if none."""
    nonzero = s != 0.0
    n = s.shape[1]
    any_ = nonzero.any(axis=1)
    return (np.where(any_, nonzero.argmax(axis=1), n),
            np.where(any_, n - nonzero[:, ::-1].argmax(axis=1), 0))


def dd_matmul(a, b):
    """C = A @ B for double-double matrices, accurate to ~1e-30 relative.

    Each operand is sliced on one exponent ladder per row of A and per
    column of B (_slice_matrix).  Products of slices i, j with
    i + j > _N_SLICES lie below the target precision and are skipped;
    the other 26 are summed per level i + j in float64, and each of the
    _N_SLICES + 1 level sums is added once into the double-double
    result, smallest level first.

    A level sum is exact.  Entry (r, c) of a level-L product is a sum of
    k terms, each an integer multiple of u = 2**(e_r + e_c + 2 -
    (L + 2)*delta) and at most 2**(2*delta - 2)*u in magnitude, and a
    level holds fewer than _N_SLICES + 1 products.  With
    delta = floor((53 - ceil(log2(k*(_N_SLICES + 1))))/2) every partial
    sum, in BLAS or across the level, is a multiple of u below 2**53*u
    and so a float64.  The skipped levels and the slices' remainders
    are about 2**(-_N_SLICES*delta) of |A||B|: 2**-120, or 8e-37, at
    k = 545, where delta = 20.

    Slice products skip exact-zero stretches: a block of _ROW_BLOCK
    rows of slice i of A multiplies only its nonzero columns [k0, k1)
    into the columns [c0, c1) where rows k0:k1 of slice j of B are
    nonzero.  All other terms are exact zeros, and as every partial sum
    is exact, leaving them out changes no bit but perhaps a zero's sign.
    Non-finite operands raise ValueError, as skipping would leave part
    of a NaN row finite.
    """
    k = a[0].shape[1]
    if b[0].shape[0] != k:
        raise ValueError("inner dimensions disagree")
    for name, x in (("a", a), ("b", b)):
        if not (np.isfinite(x[0]).all() and np.isfinite(x[1]).all()):
            raise ValueError(f"dd_matmul: operand {name} is not finite")
    delta = (53 - math.ceil(math.log2(max(k, 1) * (_N_SLICES + 1)))) // 2
    a_slices = _slice_matrix(a, delta, axis=1)
    b_slices = _slice_matrix(b, delta, axis=0)
    a_extents = [_row_extents(s) for s in a_slices]
    b_extents = [_row_extents(s) for s in b_slices]
    m, p = a[0].shape[0], b[0].shape[1]
    acc = dd(np.zeros((m, p)))
    for level in range(_N_SLICES, -1, -1):
        level_sum = np.zeros((m, p))
        for i in range(max(0, level - _N_SLICES + 1),
                       min(level, _N_SLICES - 1) + 1):
            a_s, (a_first, a_last) = a_slices[i], a_extents[i]
            b_s, (b_first, b_last) = b_slices[level - i], b_extents[level - i]
            for r0 in range(0, m, _ROW_BLOCK):
                rows = slice(r0, r0 + _ROW_BLOCK)
                k0, k1 = a_first[rows].min(), a_last[rows].max()
                if k0 >= k1:
                    continue
                c0, c1 = b_first[k0:k1].min(), b_last[k0:k1].max()
                if c0 < c1:
                    level_sum[rows, c0:c1] += (a_s[rows, k0:k1]
                                               @ b_s[k0:k1, c0:c1])
        acc = _dd_add_f(acc, level_sum)
    return acc


def dd_transpose(x):
    return x[0].T.copy(), x[1].T.copy()


# ---------------------------------------------------------------------------
# symmetric tridiagonal eigensystems in double-double
# ---------------------------------------------------------------------------

def _normalize_columns(v):
    norm2 = dd_sum(dd_mul(v, v), axis=0)
    inv = dd_div(dd(np.ones_like(norm2[0])), dd_sqrt(norm2))
    return dd_mul(v, (inv[0][None, :], inv[1][None, :]))


def _tridiag_times(diag_dd, off_dd, v):
    """T v for the symmetric tridiagonal T = (diag, off), in double-double."""
    zero = np.zeros((1, v[0].shape[1]))
    e_col = (off_dd[0][:, None], off_dd[1][:, None])
    # row i: d_i v_i + e_i v_{i+1} + e_{i-1} v_{i-1}
    above = dd_mul(e_col, (v[0][1:], v[1][1:]))
    below = dd_mul(e_col, (v[0][:-1], v[1][:-1]))
    tv = dd_mul((diag_dd[0][:, None], diag_dd[1][:, None]), v)
    tv = dd_add(tv, tuple(np.vstack([x, zero]) for x in above))
    return dd_add(tv, tuple(np.vstack([zero, x]) for x in below))


def tridiag_eigh_dd(diag_dd, off_dd):
    """Eigensystem of a real symmetric tridiagonal matrix in double-double.

    float64 eigh seeds (V, lambda).  Each of two Newton steps
    (Dongarra, Moler & Wilkinson, SIAM J. Numer. Anal. 20, 1983)
    normalizes the columns, forms R = T V - V diag(lambda) in
    double-double, O(n^2) as T is tridiagonal, and projects it on the
    basis in float64: R is only ~u |T| in size, so C = V_hi^T R_hi
    holds all the digits the step needs.  Then lambda_j += C_jj and
    v_j += sum_k F_kj v_k with F_kj = C_kj / (lambda_j - lambda_k), one
    float64 matmul.  A step squares the error, so two take the seed's
    ~1e-16 below the double-double floor; a last normalization removes
    the norm error the second-order terms of a correction leave.

    The float64 product V_hi F errs by about n u max|F| per entry, u =
    2**-53.  At n ~ 545 that stays below ~1e-30 only while max|F| <
    1e-18, so the second step raises ValueError, naming the smallest
    seed gap, when its F is larger.  Oscillator tridiagonals reach
    ~1e-26 there; Wilkinson's W21+, whose top eigenvalues pair up
    7e-14 apart, reaches 1e-4.

    Returns (eigenvalues dd (n,) ascending, eigenvectors dd (n, n) as
    columns).
    """
    n = diag_dd[0].shape[0]
    t64 = np.diag(dd_to_float(diag_dd))
    if n > 1:
        e64 = dd_to_float(off_dd)
        t64 += np.diag(e64, 1) + np.diag(e64, -1)
    e0, v0 = np.linalg.eigh(t64)
    gap = e0[None, :] - e0[:, None]  # lambda_j - lambda_k at (k, j)
    np.fill_diagonal(gap, np.inf)
    eigvals, v = dd(e0), dd(v0)
    for step in range(2):
        v = _normalize_columns(v)
        res = dd_sub(_tridiag_times(diag_dd, off_dd, v),
                     dd_mul((eigvals[0][None, :], eigvals[1][None, :]), v))
        c = v[0].T @ res[0]
        eigvals = _dd_add_f(eigvals, np.diag(c))
        with np.errstate(divide="ignore", invalid="ignore"):
            f = c / gap
        if step and not np.max(np.abs(f)) < 1e-18:
            raise ValueError("tridiag_eigh_dd: eigenvalues too close to "
                             "refine, smallest seed gap "
                             f"{np.min(np.diff(e0)):.3g}")
        v = _dd_add_f(v, v[0] @ f)
    return eigvals, _normalize_columns(v)


def tridiag_residual(diag_dd, off_dd, eigvals, v):
    """max-norm of T v - v diag(eigvals), as float (diagnostic)."""
    res = dd_sub(_tridiag_times(diag_dd, off_dd, v),
                 dd_mul((eigvals[0][None, :], eigvals[1][None, :]), v))
    return float(np.max(np.abs(dd_to_float(res))))


# ---------------------------------------------------------------------------
# extended-precision Fock traces
# ---------------------------------------------------------------------------

def _mode_system(lam, f, n_max, eigensystems):
    """The gauge-reduced tridiagonal of M + f*J and its dd eigensystem.

    The double-double form of ``fock._mode_systems``: u = sign(f)
    conj(lam)/|lam|, off-diagonal |f*lam| sqrt(j).  For real or
    imaginary lam, |lam| and u are exact.  ``eigensystems`` keeps one
    eigensystem per (n_max, |f*lam| hi, lo).  Returns (E dd, V dd,
    u complex dd).
    """
    sign = -1.0 if f < 0 else 1.0
    re, im = np.float64(sign * lam.real), np.float64(-sign * lam.imag)
    abs_lam = dd_sqrt(dd_add(_two_prod(re, re), _two_prod(im, im)))
    mag = dd_mul_f(abs_lam, abs(f))
    u = dd(1.0), dd(0.0)
    if abs_lam[0] != 0:
        u = dd_div(dd(re), abs_lam), dd_div(dd(im), abs_lam)
    key = (n_max, float(mag[0]), float(mag[1]))
    if key not in eigensystems:
        root = dd_sqrt(dd(np.arange(1, n_max + 1, dtype=float)))
        eigensystems[key] = tridiag_eigh_dd(
            dd(np.arange(n_max + 1, dtype=float)), dd_mul(root, mag))
    eigvals, vectors = eigensystems[key]
    return eigvals, vectors, u


def _overlap(sys_a, sys_b, weights=None):
    """V_a^T diag(c) V_b with c_j = (u_a conj(u_b))^j, times weights_j.

    The double-double form of ``fock._overlap``, for _mode_system
    results.  Returns (re, im) with im None when every c_j is real;
    then one dd_matmul forms it, else two.
    """
    (_, v_a, u_a), (_, v_b, u_b) = sys_a, sys_b
    ratio = cdd_mul(u_a, (u_b[0], dd_neg(u_b[1])))
    if ratio[1][0] == 0:
        ratio = ratio[0], None
    c = _powers(ratio, v_a[0].shape[0])
    if weights is not None:
        c = cdd_mul(c, (weights, None))
    a_t = dd_transpose(v_a)
    return tuple(None if x is None else
                 dd_matmul(a_t, dd_mul((x[0][:, None], x[1][:, None]), v_b))
                 for x in c)


def _thermal_weights(beta, n_max):
    """exp(-beta j) / Z for j <= n_max, as powers of exp(-beta)."""
    q = dd_div(dd(1.0), _exp(beta))
    w = _powers((q, None), n_max + 1)[0]
    return dd_div(w, dd_sum(w, axis=0))


def _bilinear(w, left, right):
    """sum_jl left_j w_jl right_l for a complex dd matrix and vectors."""
    rows = cdd_sum(cdd_mul(w, _cdd_map(lambda x: x[None, :], right)), axis=1)
    return cdd_to_complex(cdd_sum(cdd_mul(rows, left), axis=0))


def s_free_x(lambda_m, lambda_n, beta, times, n_max, eigensystems=None):
    """Extended-precision Tr[exp(-iH_m t) Theta exp(+iH_n t)] per t in times.

    The double-double form of ``fock.numeric_s_free``.  Eigensystems
    and overlaps do not depend on t and are built once per call; each
    time adds only its two phase vectors and the weighted sum.  Calls
    at one cutoff that pass the same ``eigensystems`` dict build each
    distinct tridiagonal once between them.
    """
    if eigensystems is None:
        eigensystems = {}
    sys_m = _mode_system(complex(lambda_m), 1.0, n_max, eigensystems)
    sys_n = _mode_system(complex(lambda_n), 1.0, n_max, eigensystems)
    a_mat = _overlap(sys_m, sys_n, _thermal_weights(beta, n_max))
    b_mat = _overlap(sys_n, sys_m)
    # S = sum_jl pm_j A_jl B_lj pn_l
    a_b = cdd_mul(a_mat, _cdd_map(np.transpose, b_mat))
    return [_bilinear(a_b, _cis(dd_mul_f(sys_m[0], -t)),
                      _cis(dd_mul_f(sys_n[0], t))) for t in times]


def s_reversal_x(lambda_m, lambda_n, beta, times, f_B, n_max,
                 eigensystems=None):
    """Extended-precision five-factor reversal trace per (t_F, t_B) in times.

    The double-double form of ``fock.numeric_s_reversal``, Tr(P Q).  G12
    and G34 are real, so each time forms its two complex x real
    products as four real dd matmuls.  The overlaps are built once per
    call; ``eigensystems`` is shared as in s_free_x.
    """
    if eigensystems is None:
        eigensystems = {}
    lm, ln = complex(lambda_m), complex(lambda_n)
    systems = [_mode_system(lam, f, n_max, eigensystems)
               for lam, f in ((lm, f_B), (lm, 1.0), (ln, 1.0), (ln, f_B))]
    g12, _ = _overlap(systems[0], systems[1])
    g_theta = _overlap(systems[1], systems[2], _thermal_weights(beta, n_max))
    g34, _ = _overlap(systems[2], systems[3])
    g41 = _overlap(systems[3], systems[0])

    def times_real(mat, col_phase, real):
        """(mat D) @ real, D = diag(col_phase): one dd_matmul per part."""
        scaled = cdd_mul(mat, _cdd_map(lambda x: x[None, :], col_phase))
        return dd_matmul(scaled[0], real), dd_matmul(scaled[1], real)

    def trace(t_F, t_B):
        """Tr(P Q) at one time; its P and Q die before the next time's."""
        p1 = _cis(dd_mul_f(systems[0][0], -t_B))
        p2 = _cis(dd_mul_f(systems[1][0], -t_F))
        p3 = _cis(dd_mul_f(systems[2][0], t_F))
        p4 = _cis(dd_mul_f(systems[3][0], t_B))
        p_mat = times_real(g_theta, p3, g34)
        q_mat = times_real(g41, p1, g12)
        # Tr(P Q) = sum_jl p2_j (G_theta D3 G34)_jl p4_l (G41 D1 G12)_lj
        return _bilinear(cdd_mul(p_mat, _cdd_map(np.transpose, q_mat)),
                         p2, p4)

    return [trace(t_F, t_B) for t_F, t_B in times]

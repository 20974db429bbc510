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
lifting.  Each row of the left operand and column of the right is cut
into slices on one exponent ladder taken from its largest entry, with
delta = floor((53 - ceil(log2(k*(n_slices + 1))))/2) bits per slice for
inner dimension k, so the slice products of one level i + j share a
unit and sum exactly in float64; each level sum is then added once into
the double-double result.  The operands are Franck-Condon matrices, so
most slice entries are exact zeros; each slice product forms only the
nonzero band of each block of rows, and as a level's partial sums are
exact, omitting zero terms changes no bit but perhaps a zero's sign.
Tridiagonal reduction of M + f*J by a diagonal phase similarity;
eigenpairs seeded by float64 eigh and refined by two Newton steps, each
a double-double residual projected on the basis in float64.  mpmath
supplies only scalar phases and thermal weights (cheap, and independent
of the matrix algebra).

The traces take a sequence of times.  Eigensystems and overlaps do not
depend on t and are built once per call; an eigensystem depends only on
the cutoff and |f*lambda|, and callers share them across calls through
one ``eigensystems`` dict.  Overlaps whose phase diagonal is real take
one real matrix product, and the reversal trace is grouped so that each
time multiplies complex matrices by real ones only.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant
#: rows of A per banded slice product in dd_matmul (32 to 128 time alike)
_ROW_BLOCK = 64


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


def _cdd_map(func, x):
    """func applied to every float64 array of a complex dd value."""
    return tuple(None if part is None else (func(part[0]), func(part[1]))
                 for part in x)


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


def _slice_matrix(x, delta, axis, n_slices):
    """Split a dd matrix into float64 slices on one exponent ladder.

    ``axis`` is the inner (contracted) dimension.  Each row of the left
    operand (column of the right) takes e from its largest |hi|, with
    max < 2**e, and keeps it for every slice: slice i is the residual
    rounded by (r + sigma_i) - sigma_i, sigma_i = 2**(e - i*delta + 53 -
    delta), an exact extraction.  Slice i is thus an integer multiple of
    2**(e + 1 - (i + 1)*delta) and at most 2**(e - i*delta) in
    magnitude: at most delta bits on a unit that depends only on e and
    i.  The slices leave about 2**(e - n_slices*delta) at most.
    """
    mu = np.max(np.abs(x[0]), axis=axis, keepdims=True)
    _, expo = np.frexp(mu)  # mu < 2**expo
    r = x
    slices = []
    for i in range(n_slices):
        sigma = np.ldexp(1.0, expo + (53 - (i + 1) * delta))
        s = (r[0] + sigma) - sigma
        slices.append(s)
        # s is r[0] rounded to a multiple of 2**(expo + 1 - (i+1)*delta),
        # so r[0] - s is exact and only the renormalization remains
        r = _fast_two_sum(r[0] - s, r[1])
    return slices


def _row_extents(s):
    """First and one-past-last nonzero column of each row; (n, 0) if none."""
    nonzero = s != 0.0
    n = s.shape[1]
    any_ = nonzero.any(axis=1)
    return (np.where(any_, nonzero.argmax(axis=1), n),
            np.where(any_, n - nonzero[:, ::-1].argmax(axis=1), 0))


def dd_matmul(a, b, n_slices=6):
    """C = A @ B for double-double matrices, accurate to ~1e-30 relative.

    Each operand is sliced on one exponent ladder per row of A and per
    column of B (_slice_matrix).  Products of slices i, j with
    i + j > n_slices lie below the target precision and are skipped;
    the other 26 (at n_slices = 6) are summed per level i + j in
    float64, and each of the n_slices + 1 level sums is added once into
    the double-double result, smallest level first.

    A level sum is exact.  Entry (r, c) of a level-L product is a sum of
    k terms, each an integer multiple of u = 2**(e_r + e_c + 2 -
    (L + 2)*delta) and at most 2**(2*delta - 2)*u in magnitude, and a
    level holds fewer than n_slices + 1 products.  With
    delta = floor((53 - ceil(log2(k*(n_slices + 1))))/2) every partial
    sum, in BLAS or across the level, is a multiple of u below 2**53*u
    and so a float64.  The skipped levels and the slices' remainders
    are about 2**(-n_slices*delta) of |A||B|: 2**-120, or 8e-37, at
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
    delta = (53 - math.ceil(math.log2(max(k, 1) * (n_slices + 1)))) // 2
    a_slices = _slice_matrix(a, delta, axis=1, n_slices=n_slices)
    b_slices = _slice_matrix(b, delta, axis=0, n_slices=n_slices)
    a_extents = [_row_extents(s) for s in a_slices]
    b_extents = [_row_extents(s) for s in b_slices]
    m, p = a[0].shape[0], b[0].shape[1]
    acc = dd(np.zeros((m, p)))
    for level in range(n_slices, -1, -1):
        level_sum = np.zeros((m, p))
        for i in range(max(0, level - n_slices + 1),
                       min(level, n_slices - 1) + 1):
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

def _mp_ctx():
    ctx = mpmath.mp.clone()
    ctx.dps = 50
    return ctx


def _mode_system(omega, lam, f, n_max, ctx, eigensystems):
    """Tridiagonal reduction of M + f*J and its dd eigensystem.

    M + f*J has constant off-diagonal phase; the diagonal similarity
    diag(u^j) with u = sign(f) conj(lam)/|lam|, the phase of (f*lam)*
    for real f, makes it real symmetric with off-diagonal |f*lam|
    sqrt(j); any unit u serves when f*lam = 0.  Two systems of one lam
    thus have u_a conj(u_b) = +-1 exactly.  The eigensystem depends on
    lam and f only through |f*lam|, so ``eigensystems`` keeps one per
    (omega, n_max, |f*lam|) and every (lam, f) that reduces to it
    shares it.  Returns (E dd, V dd, u mpc).
    """
    z = ctx.mpc(lam.real, lam.imag)
    mag = abs(z * f)
    u = ctx.mpc(1, 0) if z == 0 else ctx.conj(z) / abs(z)
    if f < 0:
        u = -u
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


def _overlap(sys_a, sys_b, ctx, weights=None):
    """V_a^T diag(c) V_b with c_j = (u_a conj(u_b))^j, times weights_j.

    ``sys_a`` and ``sys_b`` are _mode_system results.  With U_a = D_a^+
    V_a, D_a = diag(u_a^j), this is the overlap of the two eigenbases
    U_a^+ diag(weights) U_b in real-V form.  Returns (re, im) with im
    None when every c_j is real, as for two systems of one lambda or of
    collinear lambdas; then one dd_matmul forms it, else two.
    """
    (_, v_a, u_a), (_, v_b, u_b) = sys_a, sys_b
    ratio = u_a * ctx.conj(u_b)
    c = [ctx.mpc(1, 0)]
    for _ in range(v_a[0].shape[0] - 1):
        c.append(c[-1] * ratio)
    if weights is not None:
        c = [x * w for x, w in zip(c, weights)]
    a_t = dd_transpose(v_a)

    def part(values):
        return dd_matmul(a_t, dd_mul((values[0][:, None], values[1][:, None]),
                                     v_b))

    c_re, c_im = _cdd_vector(c)
    if ratio.imag == 0:
        return part(c_re), None
    return part(c_re), part(c_im)


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


def _bilinear(w, left, right):
    """sum_jl left_j w_jl right_l for a complex dd matrix and vectors."""
    rows = cdd_sum(cdd_mul(w, _cdd_map(lambda x: x[None, :], right)), axis=1)
    return cdd_to_complex(cdd_sum(cdd_mul(rows, left), axis=0))


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
    sys_m = _mode_system(omega, complex(lambda_m), 1.0, n_max, ctx,
                         eigensystems)
    sys_n = _mode_system(omega, complex(lambda_n), 1.0, n_max, ctx,
                         eigensystems)
    weights = _thermal_weights(beta, omega, n_max, ctx)
    a_mat = _overlap(sys_m, sys_n, ctx, weights)
    b_mat = _overlap(sys_n, sys_m, ctx)
    # S = sum_jl pm_j A_jl B_lj pn_l
    a_b = cdd_mul(a_mat, _cdd_map(np.transpose, b_mat))
    return [_bilinear(a_b, _phase_vector(sys_m[0], t, -1, ctx),
                      _phase_vector(sys_n[0], t, +1, ctx)) for t in times]


def s_reversal_x(lambda_m, lambda_n, omega, beta, times, f_B, n_max,
                 eigensystems=None):
    """Extended-precision five-factor reversal trace per (t_F, t_B) in times.

    With D_i the phase diagonals and G the overlaps, the trace is
    Tr(D1 G12 D2 G_theta D3 G34 D4 G41) = Tr(P Q), P = D2 (G_theta D3)
    G34 and Q = D4 (G41 D1) G12.  G12 and G34 pair two systems of one
    lambda and are real, so each time forms its two complex x real
    products as four real dd matmuls.  The overlaps are built once per
    call; ``eigensystems`` is shared as in s_free_x.
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
    weights = _thermal_weights(beta, omega, n_max, ctx)
    g12, _ = _overlap(systems[0], systems[1], ctx)
    g_theta = _overlap(systems[1], systems[2], ctx, weights)
    g34, _ = _overlap(systems[2], systems[3], ctx)
    g41 = _overlap(systems[3], systems[0], ctx)

    def times_real(mat, col_phase, real):
        """(mat D) @ real, D = diag(col_phase): one dd_matmul per part."""
        scaled = cdd_mul(mat, _cdd_map(lambda x: x[None, :], col_phase))
        return dd_matmul(scaled[0], real), dd_matmul(scaled[1], real)

    def trace(t_F, t_B):
        """Tr(P Q) at one time; its P and Q die before the next time's."""
        p1 = _phase_vector(systems[0][0], t_B, -1, ctx)
        p2 = _phase_vector(systems[1][0], t_F, -1, ctx)
        p3 = _phase_vector(systems[2][0], t_F, +1, ctx)
        p4 = _phase_vector(systems[3][0], t_B, +1, ctx)
        p_mat = times_real(g_theta, p3, g34)
        q_mat = times_real(g41, p1, g12)
        # Tr(P Q) = sum_jl p2_j (G_theta D3 G34)_jl p4_l (G41 D1 G12)_lj
        return _bilinear(cdd_mul(p_mat, _cdd_map(np.transpose, q_mat)),
                         p2, p4)

    return [trace(t_F, t_B) for t_F, t_B in times]

"""Extended-precision (double-double) evaluation of the Fock traces.

This is the double-double form of the trace formula that ``fock``'s
module docstring derives: the gauge-reduced real tridiagonals, their
eigensystems, the overlaps V_a^T diag(c w) V_b and the phase sums, at
the cutoff ``fock.tail_bound_n_max`` gives.  ``fock`` evaluates it in
float64, whose absolute error floor, about 1e-15 on the oracle grid,
leaves the oracle's *relative* gate ``oracles.FOCK_TOL`` meaningless
once |S| nears 1e-7.
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

dd_matmul and tridiag_eigh_dd, most of the time taken here, the
stacked operands of _times_real and the row sums of _bilinear work on
panels of _PANEL rows or columns, which _share hands out to this thread
and, on a machine that gives the process a second CPU, one worker
thread.  Each output entry takes the same float64 operations in the
same order on either thread, so the results are bit-identical for any
thread count.  Two rules bound the worker.  It allocates only
panel-sized arrays, as whole-size temporaries on two threads, each with
its own glibc malloc arena, raise the peak resident set.  And it calls
none of s_free_x, s_reversal_x, tridiag_eigh_dd and dd_matmul, so a
tracer that wraps them, as perfbench's does with one span stack, sees
every span on the calling thread.

Every overlap V_a^T diag(c) V_b, and every complex x real product of an
echo trace, is one _times_real: a single dd_matmul whose left operand
stacks the real rows of the complex factor over the imaginary ones and
is overwritten by the product.  The matrices are Franck-Condon bands:
in one grid-verify pass 67-75% of the entries of each overlap and
56-67% of each stacked echo product are exact zeros, and the
eigenvectors' far tails lie below the last slice.  dd_matmul maps its
right operand by chunks of rows, keeping each chunk's slices only over
the columns that can hold a nonzero slice, and multiplies tile by tile;
tridiag_eigh_dd's normalization, projection and correction and
_bilinear's products work on each panel's nonzero window alone.  All
give the bits of the whole-width passes; sums whose pairing depends on
the length run over the whole length, zeros embedded.

An oracle group's s_free_x and s_reversal_x calls share one
``eigensystems`` dict.  It keeps what both calls use: the f = 1
eigensystems of lambda_m and lambda_n and their thermal overlap.  The
back-pulse (f_B) eigensystems serve s_reversal_x alone, which keeps
them out of the dict; their eigenvectors, 4.75 MiB each at n = 545,
die once its overlaps are formed, before its trace loop.
"""

from __future__ import annotations

import collections
import math
import os
import threading

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant
#: rows or columns per panel of dd_matmul, tridiag_eigh_dd and _bilinear
#: (32 to 128 time alike at n = 545)
_PANEL = 64
#: threads that share the panels: this one and, given a second CPU, one
#: worker; the work is float64 BLAS and ufunc loops, which run without
#: the interpreter lock
_THREADS = min(2, (len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1))
#: the worker thread, created by the first _share that needs it
_worker = None
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
# panels shared between this thread and one worker
# ---------------------------------------------------------------------------

def _panels(n):
    """Slices of _PANEL indices covering range(n), the last one partial."""
    return [slice(i, min(i + _PANEL, n)) for i in range(0, n, _PANEL)]


def _share(func, panels):
    """func(panel) for every panel, on this thread and one worker thread.

    The panel passes are dd_matmul's band map of B by chunks of rows
    (_band_map) and its products by rows of A; tridiag_eigh_dd's
    normalization, projection and correction by columns; _times_real's
    stacked operand by rows; and _bilinear's row sums.  The panels go
    in order to whichever thread is free.  A call writes only its own
    panel of arrays the caller allocated, or its own key of a dict, and
    reads nothing another call writes, so the results do not depend on
    _THREADS.  It keeps the module docstring's two rules.  Measured for
    the first: with each reversal time's whole trace on a thread
    instead, a two-point oracle run peaked at 156-170 MiB resident,
    151-154 MiB with one glibc arena, against 129-131 MiB.  Nor may it
    call _share, whose work would queue behind itself on the worker.  An
    exception in a call is raised here, once both threads are done.
    """
    global _worker
    todo = iter(panels)
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                panel = next(todo, None)
            if panel is None:
                return
            func(panel)

    if _THREADS < 2 or len(panels) < 2:
        drain()
        return
    if _worker is None:
        # deferred: concurrent.futures costs ~9 ms to import
        from concurrent.futures import ThreadPoolExecutor
        _worker = ThreadPoolExecutor(1)
    future = _worker.submit(drain)
    try:
        drain()
    finally:
        future.result()


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


def _slice_matrix(x, expo, delta):
    """Split a dd matrix, scaled by 2**-expo, into float64 slices.

    ``expo`` holds e for each row of a left operand (column of a right
    one), with the largest |hi| of the row below 2**e; scaling by 2**-e
    is exact, and the scaled row's largest |hi| lies in [1/2, 1).  Slice
    i is the scaled residual rounded by (r + sigma_i) - sigma_i, sigma_i
    = 2**(53 - (i + 1)*delta), an exact extraction.  Slice i is thus an
    integer multiple of 2**(1 - (i + 1)*delta) and at most 2**(-i*delta)
    in magnitude: at most delta bits on a unit that depends only on i,
    far above float64's underflow threshold whatever e is.  The slices
    leave about 2**(-_N_SLICES*delta) at most, unformed.  Each entry's
    slices depend on that entry and its e alone, so a window of the
    matrix slices to the same bits as the whole.
    """
    r = np.ldexp(x[0], -expo), np.ldexp(x[1], -expo)
    slices = []
    for i in range(_N_SLICES):
        if slices:
            # the previous slice is r[0] rounded to a multiple of
            # 2**(1 - i*delta), so r[0] minus it is exact
            r = _fast_two_sum(r[0] - slices[-1], r[1])
        sigma = 2.0 ** (53 - (i + 1) * delta)
        slices.append((r[0] + sigma) - sigma)
    return slices


def _window(live):
    """First and one-past-last set index of a 1-D mask; (0, 0) if none."""
    where = np.flatnonzero(live)
    return (int(where[0]), int(where[-1]) + 1) if where.size else (0, 0)


def _band(*xs):
    """The rows outside which all of the 2-D arrays are zero, as a slice."""
    return slice(*_window(np.logical_or.reduce([(x != 0).any(axis=1)
                                                for x in xs])))


def _embed(x, index, shape):
    """x at ``index`` of a zero array of ``shape``; x itself if it fills it."""
    if x.shape == shape:
        return x
    out = np.zeros(shape)
    out[index] = x
    return out


def _exponents(x, axis):
    """e per row (axis 1) or column (axis 0) of dd x: its largest |hi| < 2**e.

    max |hi| is taken as max(max hi, -min hi), with no |hi| temporary.
    """
    return np.frexp(np.maximum(x[0].max(axis=axis, keepdims=True),
                               -x[0].min(axis=axis, keepdims=True)))[1]


def _slice_window(x, expo, delta):
    """_slice_matrix of a dd block over the columns that hold its slices.

    ``expo`` holds e per row of the block, or per column, broadcast.  The
    window is the stretch of columns that holds every entry with |hi| >=
    2**(e - (_N_SLICES*delta + 2)).  Any smaller entry, with |lo| <= |hi|
    as a normalized pair has, scales to |r| < 2**(-_N_SLICES*delta - 1),
    half the unit of the last slice in the binade just below its sigma,
    and so is +0 in every slice.  The bound depends on delta: a fixed
    one would cut slices at one k and keep dead entries at another.
    Returns (s, c0, c1) per slice: a copy of the slice cut to its
    nonzero columns [c0, c1) of the block, empty if it has none.
    """
    live = np.abs(x[0]) >= np.ldexp(1.0, expo - (_N_SLICES * delta + 2))
    w0, w1 = _window(live.any(axis=0))
    slices = _slice_matrix((x[0][:, w0:w1], x[1][:, w0:w1]),
                           np.broadcast_to(expo, x[0].shape)[:, w0:w1], delta)
    spans = [_window((s != 0.0).any(axis=0)) for s in slices]
    return [(np.ascontiguousarray(s[:, c0:c1]), w0 + c0, w0 + c1)
            for s, (c0, c1) in zip(slices, spans)]


def _band_map(b, delta):
    """The exponents of b's columns and its chunks of _PANEL rows, sliced.

    The exponents are found once, on this thread.  Each chunk is then
    sliced by _slice_window on the panels that _share hands out, and
    the map holds its cut slices under the chunk's first row.
    """
    expo = _exponents(b, axis=0)
    chunks = {}

    def chunk(rows):
        chunks[rows.start] = _slice_window((b[0][rows], b[1][rows]), expo,
                                           delta)

    _share(chunk, _panels(b[0].shape[0]))
    return expo, chunks


def dd_matmul(a, b, *, out=None):
    """C = A @ B for double-double matrices, accurate to ~1e-30 relative.

    Each operand is sliced on one exponent ladder per row of A and per
    column of B (_slice_matrix), each row or column scaled by 2**-e to a
    largest |hi| in [1/2, 1).  Entry (r, c) of the result is formed
    from the scaled operands and scaled back by 2**(e_r + e_c), so the
    slices and their products never come near float64's underflow
    threshold, where they would stop being exact.  Products of slices
    i, j with i + j > _N_SLICES lie below the target precision and are
    skipped; the other 26 are summed per level i + j in float64, and
    each of the _N_SLICES + 1 level sums is added once into the
    double-double result, smallest level first.

    A level sum is exact.  Entry (r, c) of a level-L product is a sum of
    k terms, each an integer multiple of u = 2**(2 - (L + 2)*delta) and
    at most 2**(2*delta - 2)*u in magnitude, and a level holds fewer
    than _N_SLICES + 1 products.  With
    delta = floor((53 - ceil(log2(k*(_N_SLICES + 1))))/2) every partial
    sum of these terms, in BLAS, across a level or over any split of
    the k terms, is a multiple of u below 2**53*u and so a float64.
    The skipped levels and the slices' remainders are about
    2**(-_N_SLICES*delta) of |A||B|: 2**-120, or 8e-37, at k = 545,
    where delta = 20.

    The work stays inside the Franck-Condon band.  B is mapped once per
    call (_band_map) in chunks of _PANEL rows of the contracted axis:
    each chunk is sliced only over its live column window, and each
    slice is kept only over its own nonzero column range
    (_slice_window).  In a grid-verify pass a chunk's window holds
    15-46% of B's columns, and the map stores 26% of the entries of
    whole-width slices.  A is then sliced, multiplied and summed one
    panel of _PANEL rows at a time, into that panel's rows of the
    result, each slice i of the panel over its own nonzero span [k0, k1)
    of the contracted axis.  A tile is the product of slice i, over the
    rows of one chunk inside [k0, k1), by slice j of that chunk, over
    the chunk's column range for slice j.  Each level is added over the
    running union of the columns of all tiles so far, so a column, once
    formed, takes every later level, zero or not, as in the whole
    product; a column in the union that no tile has reached yet takes
    only +0 sums onto its (+0, +0).  Only that union is scaled back; the
    rest of the panel's rows is +0.  All other terms are exact zeros,
    and as every partial sum is exact, leaving them out changes no bit
    but perhaps a zero's sign.  Non-finite operands raise ValueError, as
    skipping would leave part of a NaN row finite.

    The chunks and the panels are shared by _share between this thread
    and a worker; each allocates only chunk- or panel-sized arrays.  A
    row's slices depend on that row alone and a column's on that column,
    so each output entry takes the same float64 operations whichever
    panel or thread forms it.  A panel reads its rows of A before it
    writes the same rows of the result, so ``out``, a keyword, may be A
    itself, as in _times_real; else a new pair is returned.
    """
    k = a[0].shape[1]
    if b[0].shape[0] != k:
        raise ValueError("inner dimensions disagree")
    for name, x in (("a", a), ("b", b)):
        if not (np.isfinite(x[0]).all() and np.isfinite(x[1]).all()):
            raise ValueError(f"dd_matmul: operand {name} is not finite")
    delta = (53 - math.ceil(math.log2(max(k, 1) * (_N_SLICES + 1)))) // 2
    m, p = a[0].shape[0], b[0].shape[1]
    b_expo, chunks = _band_map(b, delta)
    if out is None:
        out = np.empty((m, p)), np.empty((m, p))

    def panel(rows):
        a_rows = a[0][rows], a[1][rows]
        a_expo = _exponents(a_rows, axis=1)
        a_cut = _slice_window(a_rows, a_expo, delta)
        # the panel's sums, transposed, so that a tile's columns are
        # contiguous rows
        acc = dd(np.zeros((p, a_expo.shape[0])))
        u0, u1 = p, 0  # the union of the columns formed so far
        for level in range(_N_SLICES, -1, -1):
            tiles = []
            for i in range(max(0, level - _N_SLICES + 1),
                           min(level, _N_SLICES - 1) + 1):
                a_slice, k0, k1 = a_cut[i]
                # the chunks of B that meet the span [k0, k1) of slice i
                for r0 in range(k0 - k0 % _PANEL, k1, _PANEL):
                    b_slice, c0, c1 = chunks[r0][level - i]
                    if c0 < c1:
                        t0, t1 = max(k0, r0), min(k1, r0 + _PANEL)
                        tiles.append((a_slice[:, t0 - k0:t1 - k0],
                                      b_slice[t0 - r0:t1 - r0], c0, c1))
                        u0, u1 = min(u0, c0), max(u1, c1)
            if u0 >= u1:
                continue
            level_sum = np.zeros((u1 - u0, acc[0].shape[1]))
            for a_tile, b_tile, c0, c1 in tiles:
                level_sum[c0 - u0:c1 - u0] += b_tile.T @ a_tile.T
            acc[0][u0:u1], acc[1][u0:u1] = _dd_add_f(
                (acc[0][u0:u1], acc[1][u0:u1]), level_sum)
        scale = a_expo + b_expo[:, u0:u1]
        for x, part in zip(out, acc):
            x[rows] = 0.0
            x[rows, u0:u1] = np.ldexp(part[u0:u1].T, scale)

    _share(panel, _panels(m))
    return out


# ---------------------------------------------------------------------------
# symmetric tridiagonal eigensystems in double-double
# ---------------------------------------------------------------------------

def _normalize_columns(v, band, n):
    """Rows ``band`` of n-row columns, zero elsewhere, scaled to unit norm.

    The squares are summed over all n rows, the band's embedded in
    zeros, as dd_sum's pairing depends on the length.
    """
    norm2 = dd_sum(tuple(_embed(x, band, (n, x.shape[1]))
                         for x in dd_mul(v, v)), axis=0)
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

    The seed, the gaps, the eigenvalue update and the check on F take
    the whole matrix, on the calling thread.  The rest runs on panels of
    _PANEL columns, shared by _share between this thread and a worker,
    in passes that each finish before the next begins: one normalizes
    the seed into V; per step, one forms the panel's columns of R and
    C, and one adds V_hi F to the panel's columns of a new V, reading
    the old V, and normalizes them.  A panel allocates only
    panel-sized arrays, and a column's operations do not depend on the
    panel or thread that holds it.

    The eigenvectors are Franck-Condon bands.  At n = 545 the nonzero
    rows of a panel of the float64 seed cover 30-43% of its rows on
    average, and 65-90% after the first step.  Each pass works on the
    panel's nonzero row band (_band) and leaves +0 outside it, which is
    what the whole-column arithmetic gives a zero entry; R takes one
    more row on each side, where T reaches out of the band.  The
    float64 products V_hi^T R and V_hi F stay whole, R embedded in
    zeros, as BLAS's summation order may depend on the shapes; so does
    the norms' dd_sum (_normalize_columns).  The results have the bits
    of the whole-column passes.

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
    eigvals = dd(e0)
    v = np.zeros((n, n)), np.zeros((n, n))
    panels = _panels(n)

    def normalize(cols):
        band = _band(v0[:, cols])
        v[0][band, cols], v[1][band, cols] = _normalize_columns(
            dd(v0[band, cols]), band, n)

    _share(normalize, panels)
    for step in range(2):
        c = np.empty((n, n))

        def project(cols):
            band = _band(v[0][:, cols])
            rows = slice(max(band.start - 1, 0), min(band.stop + 1, n))
            v_p = v[0][rows, cols], v[1][rows, cols]
            t_rows = (tuple(x[rows] for x in diag_dd),
                      tuple(x[rows.start:rows.stop - 1] for x in off_dd))
            res = dd_sub(_tridiag_times(*t_rows, v_p),
                         dd_mul((eigvals[0][None, cols],
                                 eigvals[1][None, cols]), v_p))
            c[:, cols] = v[0].T @ _embed(res[0], rows, (n, res[0].shape[1]))

        _share(project, panels)
        eigvals = _dd_add_f(eigvals, np.diag(c))
        with np.errstate(divide="ignore", invalid="ignore"):
            f = c / gap
        if step and not np.max(np.abs(f)) < 1e-18:
            raise ValueError("tridiag_eigh_dd: eigenvalues too close to "
                             "refine, smallest seed gap "
                             f"{np.min(np.diff(e0)):.3g}")
        new = np.zeros((n, n)), np.zeros((n, n))

        def correct(cols):
            step_f = v[0] @ f[:, cols]
            band = _band(v[0][:, cols], step_f)
            new[0][band, cols], new[1][band, cols] = _normalize_columns(
                _dd_add_f((v[0][band, cols], v[1][band, cols]),
                          step_f[band]), band, n)

        _share(correct, panels)
        v = new
    return eigvals, v


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


def _times_real(mat, col_phase, real):
    """(mat D) @ real, D = diag(col_phase), in one dd_matmul.

    ``mat`` and ``col_phase`` are complex dd, their imaginary parts None
    if zero, and ``real`` is dd.  The left operand stacks the real rows
    of mat D over the imaginary ones, or holds the real rows alone when
    mat D is real; each row panel is formed in place by cdd_mul, on the
    panels that _share hands out, and the product is written over the
    operand, so the real factor is sliced once.  Returns (re, im), the
    top and bottom parts, with im None when mat D is real.
    """
    m = mat[0][0].shape[0]
    parts = 1 if mat[1] is None and col_phase[1] is None else 2
    stacked = (np.empty((parts * m, real[0].shape[0])),
               np.empty((parts * m, real[0].shape[0])))
    phase = _cdd_map(lambda x: x[None, :], col_phase)

    def scale(rows):
        product = cdd_mul(_cdd_map(lambda x: x[rows], mat), phase)
        for i, part in enumerate(product[:parts]):
            below = slice(rows.start + i * m, rows.stop + i * m)
            stacked[0][below], stacked[1][below] = part

    _share(scale, _panels(m))
    dd_matmul(stacked, real, out=stacked)
    return tuple((stacked[0][i * m:(i + 1) * m], stacked[1][i * m:(i + 1) * m])
                 if i < parts else None for i in range(2))


def _overlap(sys_a, sys_b, weights=None):
    """V_a^T diag(c) V_b with c_j = (u_a conj(u_b))^j, times weights_j.

    The double-double form of ``fock._overlap``, for _mode_system
    results: one _times_real of V_a^T by c and V_b.  Returns (re, im)
    with im None when every c_j is real.
    """
    (_, v_a, u_a), (_, v_b, u_b) = sys_a, sys_b
    ratio = cdd_mul(u_a, (u_b[0], dd_neg(u_b[1])))
    if ratio[1][0] == 0:
        ratio = ratio[0], None
    c = _powers(ratio, v_a[0].shape[0])
    if weights is not None:
        c = cdd_mul(c, (weights, None))
    return _times_real(((v_a[0].T, v_a[1].T), None), c, v_b)


def _thermal_overlap(lm, ln, beta, n_max, eigensystems):
    """_overlap of the f = 1 systems of lm and ln, with thermal weights.

    It is s_free_x's first overlap and s_reversal_x's G_theta, so
    ``eigensystems`` keeps it under (lm, ln, beta, n_max) for the other
    call of a group, beside the two f = 1 systems it is formed from.
    The dict keeps no other entry: the back-pulse systems stay out.
    """
    key = (lm, ln, beta, n_max)
    if key not in eigensystems:
        eigensystems[key] = _overlap(
            _mode_system(lm, 1.0, n_max, eigensystems),
            _mode_system(ln, 1.0, n_max, eigensystems),
            _thermal_weights(beta, n_max))
    return eigensystems[key]


def _thermal_weights(beta, n_max):
    """exp(-beta j) / Z for j <= n_max, as powers of exp(-beta)."""
    q = dd_div(dd(1.0), _exp(beta))
    w = _powers((q, None), n_max + 1)[0]
    return dd_div(w, dd_sum(w, axis=0))


def _bilinear(wa, wb, left, right):
    """sum_jl left_j wa_jl wb_lj right_l for complex dd matrices and vectors.

    The sums over l run on panels of _PANEL rows, shared by _share.  A
    panel forms its own rows of wa o wb^T and their product with right
    only over the columns l where both its rows of wa and its columns of
    wb can be nonzero (a zero hi has a zero lo, as in any normalized
    pair), and embeds them in zeros for the row sums, whose pairwise
    dd_sum depends on the length.  A zero term changes no sum with a
    nonzero hi, so the result has the bits of the whole product but
    perhaps a zero's sign.
    """
    n = wa[0][0].shape[0]
    rows = tuple((np.empty(n), np.empty(n)) for _ in range(2))

    def panel(r):
        # the nonzero columns of wa's rows r and rows of wb's columns r
        a_cols = _band(*(x[0][r].T for x in wa if x is not None))
        b_cols = _band(*(x[0][:, r] for x in wb if x is not None))
        cols = slice(max(a_cols.start, b_cols.start),
                     min(a_cols.stop, b_cols.stop))
        w = cdd_mul(_cdd_map(lambda x: x[r, cols], wa),
                    _cdd_map(lambda x: x[cols, r].T, wb))
        terms = cdd_mul(w, _cdd_map(lambda x: x[None, cols], right))
        sums = cdd_sum(_cdd_map(lambda x: _embed(x, (slice(None), cols),
                                                 (x.shape[0], n)), terms),
                       axis=1)
        for out, part in zip(rows, sums):
            out[0][r], out[1][r] = part

    _share(panel, _panels(n))
    return cdd_to_complex(cdd_sum(cdd_mul(rows, left), axis=0))


def s_free_x(lambda_m, lambda_n, beta, times, n_max, eigensystems=None):
    """Extended-precision Tr[exp(-iH_m t) Theta exp(+iH_n t)] per t in times.

    The double-double form of ``fock.numeric_s_free``.  Eigensystems
    and overlaps do not depend on t and are built once per call; each
    time adds only its two phase vectors and the weighted sum.  Calls
    at one cutoff that pass the same ``eigensystems`` dict build each
    distinct tridiagonal once between them.  The dict keeps the f = 1
    systems of lambda_m and lambda_n and the thermal overlap
    V_m^T diag(c w) V_n, which s_reversal_x's G_theta at the same
    (lambda_m, lambda_n, beta, n_max) reuses; s_reversal_x's back-pulse
    systems do not enter it, and their eigenvectors die before its
    trace loop.
    """
    if eigensystems is None:
        eigensystems = {}
    lm, ln = complex(lambda_m), complex(lambda_n)
    sys_m = _mode_system(lm, 1.0, n_max, eigensystems)
    sys_n = _mode_system(ln, 1.0, n_max, eigensystems)
    a_mat = _thermal_overlap(lm, ln, beta, n_max, eigensystems)
    b_mat = _overlap(sys_n, sys_m)
    # S = sum_jl pm_j A_jl B_lj pn_l
    return [_bilinear(a_mat, b_mat, _cis(dd_mul_f(sys_m[0], -t)),
                      _cis(dd_mul_f(sys_n[0], t))) for t in times]


def s_reversal_x(lambda_m, lambda_n, beta, times, f_B, n_max,
                 eigensystems=None):
    """Extended-precision five-factor reversal trace per (t_F, t_B) in times.

    The double-double form of ``fock.numeric_s_reversal``, Tr(P Q).  G12
    and G34 are real, so each time forms its two complex x real
    products G_theta D3 G34 and G41 D1 G12 with _times_real, one
    dd_matmul each, as _overlap forms the overlaps.  The overlaps are
    built once per call.  ``eigensystems`` is shared as in s_free_x: it
    keeps the f = 1 systems and the thermal overlap G_theta.  The
    back-pulse (f_B) systems serve this call alone: they are looked up
    in it, which finds the f = 1 ones when f_B = +-1, but a new one is
    built into a call-local overlay.  Their eigenvectors, and the f = 1
    ones too when no dict is passed, die once the overlaps are formed,
    before the first time's trace, as the traces read only the
    eigenvalues.
    """
    if eigensystems is None:
        eigensystems = {}
    lm, ln = complex(lambda_m), complex(lambda_n)
    # the f = 1 systems first, so that f_B = +-1 finds them in the dict
    forward = [_mode_system(lam, 1.0, n_max, eigensystems) for lam in (lm, ln)]
    overlay = collections.ChainMap({}, eigensystems)
    systems = [_mode_system(lm, f_B, n_max, overlay), *forward,
               _mode_system(ln, f_B, n_max, overlay)]
    g12, _ = _overlap(systems[0], systems[1])
    g_theta = _thermal_overlap(lm, ln, beta, n_max, eigensystems)
    g34, _ = _overlap(systems[2], systems[3])
    g41 = _overlap(systems[3], systems[0])
    # the traces read only eigenvalues: every eigenvector that a caller's
    # dict does not keep dies here
    systems = [(eigvals, u) for eigvals, _, u in systems]
    del forward, overlay, eigensystems

    def trace(t_F, t_B):
        """Tr(P Q) at one time; its P and Q die before the next time's."""
        p1 = _cis(dd_mul_f(systems[0][0], -t_B))
        p2 = _cis(dd_mul_f(systems[1][0], -t_F))
        p3 = _cis(dd_mul_f(systems[2][0], t_F))
        p4 = _cis(dd_mul_f(systems[3][0], t_B))
        p_mat = _times_real(g_theta, p3, g34)
        q_mat = _times_real(g41, p1, g12)
        # Tr(P Q) = sum_jl p2_j (G_theta D3 G34)_jl p4_l (G41 D1 G12)_lj
        return _bilinear(p_mat, q_mat, p2, p4)

    return [trace(t_F, t_B) for t_F, t_B in times]

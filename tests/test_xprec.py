import inspect
import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, \
    strategies as st

from pairdeco import fock, oracles, xprec as xp
from pairdeco.core import ConfigError
from pairdeco.decoherence import s_mn
from pairdeco.magicecho import ReversalSchedule, ideal_echo_schedule, \
    reversal_exponent_k


def _mp(x):
    return mpmath.mpf(x[0]) + mpmath.mpf(x[1])


def _transpose(x):
    return x[0].T.copy(), x[1].T.copy()


def dd_from_mpf(value):
    """Scalar mpmath -> double-double."""
    hi = float(value)
    return hi, float(value - mpmath.mpf(hi))


@pytest.fixture(autouse=True)
def _dps():
    with mpmath.workdps(50):
        yield


def test_dd_scalar_ops_vs_mpmath():
    rng = np.random.default_rng(7)
    hi = rng.standard_normal(50)
    lo = rng.standard_normal(50) * 1e-18
    a = (hi, lo)
    b = (rng.standard_normal(50), rng.standard_normal(50) * 1e-18)
    for op, mp_op in [(xp.dd_add, lambda x, y: x + y),
                      (xp.dd_sub, lambda x, y: x - y),
                      (xp.dd_mul, lambda x, y: x * y),
                      (xp.dd_div, lambda x, y: x / y)]:
        r = op(a, b)
        for i in range(50):
            expected = mp_op(_mp((a[0][i], a[1][i])), _mp((b[0][i], b[1][i])))
            err = abs(_mp((r[0][i], r[1][i])) - expected) / abs(expected)
            assert err < 1e-30


def test_dd_sqrt():
    a = xp.dd(np.array([2.0, 3.0, 0.0, 1e-8]))
    r = xp.dd_sqrt(a)
    for i, v in enumerate([2.0, 3.0, 0.0, 1e-8]):
        expected = mpmath.sqrt(mpmath.mpf(v))
        got = _mp((r[0][i], r[1][i]))
        assert abs(got - expected) <= 1e-31 * max(float(expected), 1.0)


def test_dd_sum_pairwise():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(1001)
    s = xp.dd_sum(xp.dd(vals), axis=0)
    expected = mpmath.fsum([mpmath.mpf(v) for v in vals])
    assert abs(_mp(s) - expected) < 1e-28


@pytest.mark.parametrize("bound, tol", [(math.pi, 1e-30), (1e4, 1e-27)])
def test_cis_vs_mpmath(bound, tol):
    # the oracle grid's E t reaches about 7e3
    rng = np.random.default_rng(31)
    hi = rng.uniform(-bound, bound, 400)
    hi[:3] = 0.0, bound, -bound
    # quadrant edges near theta = 0 and near the largest j
    j = np.arange(-8, 9) if bound < 4 else np.arange(6350, 6367)
    hi[3:20] = (j + 0.5) * math.pi / 2
    theta = xp._fast_two_sum(hi, hi * rng.standard_normal(400) * 2.0**-60)
    cos, sin = xp._cis(theta)
    for i in range(400):
        exact = _mp((theta[0][i], theta[1][i]))
        assert abs(_mp((cos[0][i], cos[1][i])) - mpmath.cos(exact)) <= tol
        assert abs(_mp((sin[0][i], sin[1][i])) - mpmath.sin(exact)) <= tol


@pytest.mark.parametrize("beta", [0.1, 1.0, 5.0])
def test_thermal_weights_vs_mpmath(beta):
    w = xp._thermal_weights(beta, 700)
    exact = [mpmath.exp(-mpmath.mpf(beta) * j) for j in range(701)]
    z = mpmath.fsum(exact)
    for j, e in enumerate(exact):
        if e / z > 1e-290:
            assert abs(_mp((w[0][j], w[1][j])) - e / z) <= 1e-28 * e / z, j


def test_powers_vs_mpmath():
    p = xp._powers((xp.dd(0.6), xp.dd(-0.8)), 600)
    for j in range(600):
        exact = mpmath.mpc(0.6, -0.8) ** j
        got = mpmath.mpc(_mp((p[0][0][j], p[0][1][j])),
                         _mp((p[1][0][j], p[1][1][j])))
        assert abs(got - exact) <= 1e-28 * abs(exact), j


@pytest.mark.parametrize("re, im, cycle", [(1.0, None, [1]),
                                           (-1.0, None, [1, -1]),
                                           (0.0, 1.0, [1, 1j, -1, -1j]),
                                           (0.0, -1.0, [1, -1j, -1, 1j])])
def test_powers_of_axis_units_are_exact(re, im, cycle):
    p = xp._powers((xp.dd(re), None if im is None else xp.dd(im)), 41)
    want = np.array([cycle[j % len(cycle)] for j in range(41)], dtype=complex)
    assert np.array_equal(p[0][0], want.real) and not np.any(p[0][1])
    if im is None:
        assert p[1] is None
    else:
        assert np.array_equal(p[1][0], want.imag) and not np.any(p[1][1])


@pytest.mark.parametrize("lam", [0.3, -0.3, 0.2j, complex(0.0, -0.2), 0.5])
@pytest.mark.parametrize("f", [1.0, -0.5])
def test_mode_system_gauge_exact_on_axes(lam, f):
    eigensystems = {}
    *_, u = xp._mode_system(complex(lam), f, 3, eigensystems)
    # |f lambda| has a zero low word
    assert list(eigensystems) == [(3, abs(f * lam), 0.0)]
    want = math.copysign(1.0, f) * complex(lam).conjugate() / abs(lam)
    assert (u[0][0], u[1][0]) == (want.real, want.imag)
    assert u[0][1] == 0.0 and u[1][1] == 0.0


def test_dd_matmul_vs_mpmath():
    rng = np.random.default_rng(11)
    n = 30
    a = (rng.standard_normal((n, n)), rng.standard_normal((n, n)) * 1e-18)
    b = (rng.standard_normal((n, n)), rng.standard_normal((n, n)) * 1e-18)
    c = xp.dd_matmul(a, b)
    for (i, j) in [(0, 0), (5, 17), (29, 3)]:
        expected = mpmath.fsum(
            _mp((a[0][i, k], a[1][i, k])) * _mp((b[0][k, j], b[1][k, j]))
            for k in range(n))
        err = abs(_mp((c[0][i, j], c[1][i, j])) - expected)
        assert err < 1e-28


def test_dd_matmul_wide_dynamic_range():
    # per-row/per-column scaling must keep tiny rows exact
    rng = np.random.default_rng(13)
    n = 20
    scale = 10.0 ** rng.integers(-12, 12, size=n).astype(float)
    a_hi = rng.standard_normal((n, n)) * scale[:, None]
    b_hi = rng.standard_normal((n, n)) * scale[None, :]
    c = xp.dd_matmul(xp.dd(a_hi), xp.dd(b_hi))
    i, j = 4, 9
    expected = mpmath.fsum(mpmath.mpf(a_hi[i, k]) * mpmath.mpf(b_hi[k, j])
                           for k in range(n))
    err = abs(_mp((c[0][i, j], c[1][i, j])) - expected) / abs(expected)
    assert err < 1e-28


@pytest.mark.parametrize("k", [292, 293])
def test_dd_matmul_level_sums_at_exactness_edge(k):
    # delta = floor((53 - ceil(log2(7 k))) / 2) steps from 21 to 20 here
    delta = (53 - math.ceil(math.log2(7 * k))) // 2
    assert delta == (21 if k == 292 else 20)
    two = mpmath.mpf(2)
    digit = 2 ** (delta - 1) - 1
    # five full-width positive slices on the ladder of e = 0: the level
    # sums of full rows times full columns reach their largest values
    full = dd_from_mpf(mpmath.fsum(digit * two ** (1 - (i + 1) * delta)
                                      for i in range(5)))
    one = digit * 2.0 ** (1 - delta)   # nothing left after one slice
    # one slice, then a residual far below the next rung of the ladder
    tiny = (one, one * 2.0**-90)
    rng = np.random.default_rng(19)

    def const(value, scale=1.0):
        return np.full(k, value[0] * scale), np.full(k, value[1] * scale)

    rows = [const(full), const(full, 8.0), const((one, 0.0)), const(tiny),
            const(full, 2.0**-40)]
    # the per-row scales of test_dd_matmul_wide_dynamic_range
    wide = (rng.standard_normal((3, k))
            * 10.0 ** rng.integers(-12, 12, size=3)[:, None])
    a = (np.vstack([r[0] for r in rows] + [wide]),
         np.vstack([r[1] for r in rows] + [np.zeros_like(wide)]))
    cols = [const(full), const(full, 2.0**17), const((one, 0.0)),
            (rng.standard_normal(k) * 1e7, np.zeros(k))]
    b = (np.column_stack([col[0] for col in cols]),
         np.column_stack([col[1] for col in cols]))
    c = xp.dd_matmul(a, b)
    for i in range(a[0].shape[0]):
        for j in range(b[0].shape[1]):
            expected = mpmath.fsum(
                _mp((a[0][i, m], a[1][i, m])) * _mp((b[0][m, j], b[1][m, j]))
                for m in range(k))
            err = abs(_mp((c[0][i, j], c[1][i, j])) - expected)
            assert err < 1e-28 * abs(expected), (i, j)


def _delta(k):
    return (53 - math.ceil(math.log2(k * (xp._N_SLICES + 1)))) // 2


def _whole_slices(x, delta, axis):
    # every entry sliced, on its row's (axis 1) or column's (axis 0) ladder
    _, expo = np.frexp(np.max(np.abs(x[0]), axis=axis, keepdims=True))
    return xp._slice_matrix(x, expo, delta), expo


def _dense_dd_matmul(a, b):
    # dd_matmul's level loop with whole matrices sliced and every slice
    # product formed in full
    n_slices, delta = xp._N_SLICES, _delta(a[0].shape[1])
    a_s, a_expo = _whole_slices(a, delta, axis=1)
    b_s, b_expo = _whole_slices(b, delta, axis=0)
    acc = xp.dd(np.zeros((a[0].shape[0], b[0].shape[1])))
    for level in range(n_slices, -1, -1):
        pairs = range(max(0, level - n_slices + 1),
                      min(level, n_slices - 1) + 1)
        acc = xp._dd_add_f(acc, sum(a_s[i] @ b_s[level - i] for i in pairs))
    return tuple(np.ldexp(x, a_expo + b_expo) for x in acc)


def _assert_equals_dense(a, b):
    got, want = xp.dd_matmul(a, b), _dense_dd_matmul(a, b)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def _banded(rng, rows, cols, width, cutoff, zero_blocks):
    """Entries falling off as exp(-(d/width)^2) off a stretched diagonal,
    zero past distance cutoff and in the chosen 64-row blocks."""
    i, j = np.indices((rows, cols))
    dist = np.abs(i * (cols / rows) - j)
    hi = rng.standard_normal((rows, cols)) * np.exp(-(dist / width) ** 2)
    hi[dist > cutoff] = 0.0
    for block in zero_blocks:
        hi[64 * block:64 * (block + 1)] = 0.0
    return hi, hi * rng.standard_normal((rows, cols)) * 2.0**-60


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 200), st.integers(1, 200), st.integers(1, 200),
       st.integers(0, 2**32 - 1), st.floats(0.5, 80.0), st.floats(0.5, 80.0),
       st.integers(0, 200), st.sets(st.integers(0, 3), max_size=3),
       st.sets(st.integers(0, 3), max_size=3))
# columns of B whose entries, and so the slices' units, lie near 1e-294
@example(119, 193, 193, 0, 1.0, 1.0, 27, set(), {1})
@example(2, 151, 93, 1, 4.0, 2.0, 52, set(), {1, 2})
@example(150, 113, 59, 2, 2.0, 1.0, 26, set(), {1})
def test_dd_matmul_banded_equals_dense(m, k, p, seed, width_a, width_b,
                                       cutoff, zero_a, zero_b):
    rng = np.random.default_rng(seed)
    a = _banded(rng, m, k, width_a, cutoff, zero_a)
    b = _banded(rng, k, p, width_b, cutoff, zero_b)
    _assert_equals_dense(a, b)


def test_dd_matmul_bits_scale_with_operands():
    # scaling rows of A and columns of B by powers of two scales the
    # result alone, here to entries near 2**-1000 with subnormal low
    # parts, whose slice products on an unscaled ladder would underflow
    rng = np.random.default_rng(47)
    m, k, p = 70, 90, 80
    a = rng.standard_normal((m, k)), rng.standard_normal((m, k)) * 1e-17
    b = rng.standard_normal((k, p)), rng.standard_normal((k, p)) * 1e-17
    row_e = rng.integers(-540, -480, (m, 1))
    col_e = rng.integers(-520, -470, (1, p))
    scaled = xp.dd_matmul(tuple(np.ldexp(x, row_e) for x in a),
                          tuple(np.ldexp(x, col_e) for x in b))
    want = tuple(np.ldexp(x, row_e + col_e) for x in xp.dd_matmul(a, b))
    assert _same_bits(scaled, want)


@pytest.mark.parametrize("m, k, p, zero", [(70, 90, 50, "a"),
                                           (50, 70, 90, "b"),
                                           (37, 45, 23, None),
                                           (150, 130, 140, None)])
def test_dd_matmul_equals_dense_levels(m, k, p, zero):
    # an all-zero operand, shapes inside one row block, dense operands
    rng = np.random.default_rng(23)
    ops = {name: (rng.standard_normal(shape),
                  rng.standard_normal(shape) * 1e-18)
           for name, shape in (("a", (m, k)), ("b", (k, p)))}
    if zero:
        ops[zero] = xp.dd(np.zeros_like(ops[zero][0]))
    _assert_equals_dense(ops["a"], ops["b"])
    if zero:
        assert not np.any(xp.dd_matmul(ops["a"], ops["b"])[0])


@pytest.mark.parametrize("mag", [0.15, 0.5])
def test_dd_matmul_overlap_operands_equal_dense(monkeypatch, mag):
    # the oracle's operands at n = 545: the overlaps of lambda and -lambda
    operands = []
    matmul = xp.dd_matmul

    def captured(a, b, **out):
        # the operand is overwritten by its product
        operands.append((tuple(x.copy() for x in a), b))
        return matmul(a, b, **out)

    monkeypatch.setattr(xp, "dd_matmul", captured)
    eigensystems = {}
    sys_a = xp._mode_system(complex(mag), 1.0, 544, eigensystems)
    sys_b = xp._mode_system(complex(-mag), 1.0, 544, eigensystems)
    xp._overlap(sys_a, sys_b, xp._thermal_weights(0.1, 544))
    xp._overlap(sys_b, sys_a)
    monkeypatch.undo()
    assert len(operands) == 2
    for a, b in operands:
        _assert_equals_dense(a, b)


@pytest.mark.parametrize("threads", [1, 2])
def test_dd_matmul_memory_at_oracle_size(monkeypatch, threads):
    # B's band map and the panels' work arrays of one n = 545 overlap
    # product, the grid-verify group's thermal one, stay within 10 MiB
    # beyond the product itself; whole-width slices of B alone take
    # 13.6 MiB
    eigensystems = {}
    sys_a = xp._mode_system(complex(-0.3), 1.0, 544, eigensystems)
    sys_b = xp._mode_system(complex(0.5), 1.0, 544, eigensystems)
    w = xp._thermal_weights(0.1, 544)
    a = xp.dd_mul(_transpose(sys_a[1]), (w[0][None, :], w[1][None, :]))
    b = sys_b[1]
    monkeypatch.setattr(xp, "_THREADS", threads)
    tracemalloc.start()
    try:
        product = xp.dd_matmul(a, b)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert product[0].shape == (545, 545)
    assert peak - current <= 10 * 2**20


@pytest.mark.parametrize("threads", [1, 2])
def test_overlap_memory_at_oracle_size(monkeypatch, threads):
    # the grid-verify group's thermal overlap at n = 545 is one product
    # written over its operand: 4.5 MiB of result and the product's work
    # arrays, with no room for a 4.5 MiB copy of either factor
    eigensystems = {}
    sys_a = xp._mode_system(complex(-0.3), 1.0, 544, eigensystems)
    sys_b = xp._mode_system(complex(0.5), 1.0, 544, eigensystems)
    w = xp._thermal_weights(0.1, 544)
    monkeypatch.setattr(xp, "_THREADS", threads)
    tracemalloc.start()
    try:
        re, im = xp._overlap(sys_a, sys_b, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert re[0].shape == (545, 545) and im is None
    assert peak <= 14 * 2**20


@pytest.mark.parametrize("threads", [1, 2])
def test_group_memory_at_oracle_size(monkeypatch, threads):
    # the grid-verify group at n = 545: its dict keeps the f = 1
    # systems and the thermal overlap, 13.7-14.2 MiB, through the
    # reversal call, whose f_B eigenvectors, 9.5 MiB, die before its
    # trace loop; holding them there peaks at 62.3-65.0 MiB
    eigensystems = {}
    monkeypatch.setattr(xp, "_THREADS", threads)
    tracemalloc.start()
    try:
        xp.s_free_x(-0.3, 0.5, 0.1, [math.pi], 544, eigensystems)
        tracemalloc.reset_peak()
        xp.s_reversal_x(-0.3, 0.5, 0.1, [(math.pi / 3, 2 * math.pi / 3)],
                        -0.5, 544, eigensystems)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 59 * 2**20


def test_dd_matmul_out_is_keyword_only():
    # perfbench's flop counter reads a third positional argument as a
    # slice count, so ``out`` cannot be passed by position
    params = inspect.signature(xp.dd_matmul).parameters
    assert list(params) == ["a", "b", "out"]
    assert params["out"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["out"].default is None
    ops = xp.dd(np.ones((2, 2))), xp.dd(np.ones((2, 2)))
    with pytest.raises(TypeError):
        xp.dd_matmul(*ops, ops[0])


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("word", [0, 1])
@pytest.mark.parametrize("operand", ["a", "b"])
def test_dd_matmul_rejects_non_finite(operand, word, value):
    rng = np.random.default_rng(29)
    ops = {"a": xp.dd(rng.standard_normal((5, 4))),
           "b": xp.dd(rng.standard_normal((4, 3)))}
    ops[operand][word][2, 1] = value
    with pytest.raises(ValueError, match=f"operand {operand} is not finite"):
        xp.dd_matmul(ops["a"], ops["b"])


def test_dd_add_f_matches_dd_add_bits():
    # dd_matmul adds each level sum of its slice products with this
    # shortcut
    rng = np.random.default_rng(17)
    n = 4000
    hi = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    x = xp.dd_add(xp.dd(hi), xp.dd(rng.standard_normal(n) * 1e-20))
    p = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    p[:1000] = -x[0][:1000]                          # exact cancellation
    p[1000:2000] = -x[0][1000:2000] * (1.0 + 2.0**-52)
    p[2000:2500] = 0.0
    got, want = xp._dd_add_f(x, p), xp.dd_add(x, xp.dd(p))
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_tridiag_eigh_dd_accuracy():
    n = 80
    diag = xp.dd(np.arange(n, dtype=float) * 1.0)
    off = xp.dd(np.sqrt(np.arange(1, n, dtype=float)) * 0.35)
    eigvals, vectors = xp.tridiag_eigh_dd(diag, off)
    assert xp.tridiag_residual(diag, off, eigvals, vectors) < 1e-27
    assert _gram_error(vectors) < 1e-29
    # spectrum matches float64 eigh to float64 accuracy
    t64 = (np.diag(xp.dd_to_float(diag))
           + np.diag(xp.dd_to_float(off), 1)
           + np.diag(xp.dd_to_float(off), -1))
    e64 = np.linalg.eigh(t64)[0]
    assert np.max(np.abs(e64 - xp.dd_to_float(eigvals))) < 1e-12 * n


def _gram_error(vectors):
    # V^T V - I in double-double: rounding the Gram matrix to float64
    # first would hide norm errors below 1.1e-16 on its diagonal
    n = vectors[0].shape[1]
    gram = xp.dd_matmul(_transpose(vectors), vectors)
    return np.max(np.abs(xp.dd_to_float(xp.dd_sub(gram, xp.dd(np.eye(n))))))


def _normalize_whole(v):
    norm2 = xp.dd_sum(xp.dd_mul(v, v), axis=0)
    inv = xp.dd_div(xp.dd(np.ones_like(norm2[0])), xp.dd_sqrt(norm2))
    return xp.dd_mul(v, (inv[0][None, :], inv[1][None, :]))


def _tridiag_eigh_dd_whole(diag_dd, off_dd):
    # tridiag_eigh_dd with every pass over whole columns, zeros included
    n = diag_dd[0].shape[0]
    t64 = np.diag(xp.dd_to_float(diag_dd))
    e64 = xp.dd_to_float(off_dd)
    t64 += np.diag(e64, 1) + np.diag(e64, -1)
    e0, v0 = np.linalg.eigh(t64)
    gap = e0[None, :] - e0[:, None]
    np.fill_diagonal(gap, np.inf)
    eigvals, v = xp.dd(e0), xp.dd(v0)
    panels = xp._panels(n)

    def normalize(cols):
        v[0][:, cols], v[1][:, cols] = _normalize_whole(
            (v[0][:, cols], v[1][:, cols]))

    xp._share(normalize, panels)
    for _ in range(2):
        c = np.empty((n, n))

        def project(cols):
            v_p = v[0][:, cols], v[1][:, cols]
            res = xp.dd_sub(xp._tridiag_times(diag_dd, off_dd, v_p),
                            xp.dd_mul((eigvals[0][None, cols],
                                       eigvals[1][None, cols]), v_p))
            c[:, cols] = v[0].T @ res[0]

        xp._share(project, panels)
        eigvals = xp._dd_add_f(eigvals, np.diag(c))
        with np.errstate(divide="ignore", invalid="ignore"):
            f = c / gap
        new = np.empty((n, n)), np.empty((n, n))

        def correct(cols):
            new[0][:, cols], new[1][:, cols] = _normalize_whole(xp._dd_add_f(
                (v[0][:, cols], v[1][:, cols]), v[0] @ f[:, cols]))

        xp._share(correct, panels)
        v = new
    return eigvals, v


@pytest.mark.parametrize("mag", [0.15, 0.5])
def test_tridiag_eigh_dd_at_oracle_size(monkeypatch, mag):
    # n = 545 as the oracle builds it: M + f J at |f lambda| = mag
    built = []
    build = xp.tridiag_eigh_dd

    def captured(diag, off):
        built.append((diag, off))
        return build(diag, off)

    monkeypatch.setattr(xp, "tridiag_eigh_dd", captured)
    eigvals, vectors, _ = xp._mode_system(complex(mag), 1.0, 544, {})
    (diag, off), = built
    assert xp.tridiag_residual(diag, off, eigvals, vectors) < 1e-27
    assert _gram_error(vectors) < 1e-29
    norm2 = mpmath.fsum(_mp((hi, lo)) ** 2 for hi, lo in
                        zip(vectors[0][:, 349], vectors[1][:, 349]))
    assert abs(norm2 - 1) < 1e-29
    # the passes over each panel's nonzero row band keep every bit
    whole_vals, whole_vectors = _tridiag_eigh_dd_whole(diag, off)
    assert _same_bits(eigvals, whole_vals)
    assert _same_bits(vectors, whole_vectors)


def test_tridiag_eigh_dd_rejects_close_eigenvalues():
    # Wilkinson's W21+: its top eigenvalues pair up 7e-14 apart
    diag = xp.dd(np.abs(10.0 - np.arange(21)))
    off = xp.dd(np.ones(20))
    with pytest.raises(ValueError, match="smallest seed gap 7.1"):
        xp.tridiag_eigh_dd(diag, off)


def test_group_cutoff_past_gate_raises_before_any_build(monkeypatch):
    monkeypatch.setattr(oracles, "FOCK_TOL", 1e-300)
    monkeypatch.setattr(xp, "tridiag_eigh_dd",
                        lambda *_: pytest.fail("eigensystem built"))
    monkeypatch.setattr(fock.np.linalg, "eigh",
                        lambda *_: pytest.fail("eigensystem built"))
    lm, ln, beta, t = -0.3, 0.5, 0.1, 10.0
    sched = ideal_echo_schedule(t)
    for method, closed, cutoff in (("extended", 1.9e-12 + 0j, 7267),
                                   ("float64", 0.5 + 0j, 7004)):
        points = [("free", {}, closed, t), ("reversal", {}, closed, sched)]
        with pytest.raises(ConfigError, match=f"cutoff of {cutoff}"):
            oracles._method_records(method, points, lm, ln, beta)


def test_s_free_x_matches_float64_easy_point():
    lm, ln, beta, t = 0.3, -0.2j, 1.0, 0.5
    (s64,), _ = fock.converged_s_free(lm, ln, beta, [t], 1e-12)
    sx, = xp.s_free_x(lm, ln, beta, [t],
                      fock.tail_bound_n_max(beta, (lm, ln), 1e-20))
    assert abs(sx - s64) < 5e-10


def test_s_free_x_matches_closed_form_hard_point():
    # strong decoherence: |S| ~ 7e-12, far below the float64 trace floor
    lm, ln, beta, t = 0.5, -0.3, 0.1, math.pi
    closed = s_mn([(1.0, lm, ln)], beta, t)
    n = fock.tail_bound_n_max(beta, (lm, ln), 0.25e-8 * abs(closed))
    sx, = xp.s_free_x(lm, ln, beta, [t], n)
    assert abs(sx - closed) / abs(closed) < 1e-10


def test_s_reversal_x_matches_closed_form_hard_point():
    lm, ln, beta = 0.5, -0.3, 0.1
    t_f = math.pi
    sched = ReversalSchedule(t_F=t_f, t_B=2 * t_f, f_B=-0.5)
    closed = reversal_exponent_k(lm, ln, 1.0, beta, sched).s_value()
    n = fock.tail_bound_n_max(beta, (lm, ln), 0.25e-8 * abs(closed))
    sx, = xp.s_reversal_x(lm, ln, beta, [(t_f, 2 * t_f)], -0.5, n)
    assert abs(sx - closed) / abs(closed) < 1e-10


def test_s_reversal_x_f1_additivity():
    lm, ln, beta = 0.3, -0.2j, 1.0
    n = fock.tail_bound_n_max(beta, (lm, ln), 1e-20)
    r, = xp.s_reversal_x(lm, ln, beta, [(0.5, 1.0)], 1.0, n)
    f, = xp.s_free_x(lm, ln, beta, [1.5], n)
    assert abs(r - f) < 1e-25


def test_multi_time_traces_equal_single_time_calls():
    lm, ln, beta, n = 0.3, -0.2j, 1.0, 60
    times = [0.5, 1.3, math.pi]
    pairs = [(t / 3.0, 2.0 * t / 3.0) for t in times]
    for s_free, s_reversal in ((xp.s_free_x, xp.s_reversal_x),
                               (fock.numeric_s_free, fock.numeric_s_reversal)):
        free = s_free(lm, ln, beta, times, n)
        assert free == [s_free(lm, ln, beta, [t], n)[0] for t in times]
        rev = s_reversal(lm, ln, beta, pairs, -0.5, n)
        assert rev == [s_reversal(lm, ln, beta, [p], -0.5, n)[0]
                       for p in pairs]


def test_group_builds_each_tridiagonal_once(monkeypatch):
    builds = []
    build = xp.tridiag_eigh_dd

    def counted(diag, off):
        builds.append(float(off[0][0]))  # |f lambda| * sqrt(1)
        return build(diag, off)

    monkeypatch.setattr(xp, "tridiag_eigh_dd", counted)
    # |f lambda| takes two values over the four reversal systems
    eigensystems = {}
    xp.s_reversal_x(0.3, -0.3, 1.0, [(0.5, 1.0), (1.0, 2.0)], -0.5, 40,
                    eigensystems)
    assert sorted(builds) == pytest.approx([0.15, 0.3])
    # a free trace at the same cutoff reuses them
    xp.s_free_x(0.3, -0.3, 1.0, [1.5], 40, eigensystems)
    assert len(builds) == 2


def _count_tridiag_builds(monkeypatch):
    builds = []
    build = xp.tridiag_eigh_dd

    def counted(diag, off):
        builds.append(float(off[0][0]))  # |f lambda| * sqrt(1)
        return build(diag, off)

    monkeypatch.setattr(xp, "tridiag_eigh_dd", counted)
    return builds


@pytest.mark.parametrize("f_b", [-0.5, -1.0, 1.0])
def test_group_keeps_only_shared_entries(monkeypatch, f_b):
    # the group's dict keeps the f = 1 systems and the thermal overlap;
    # a back-pulse system serves its reversal call alone
    builds = _count_tridiag_builds(monkeypatch)
    eigensystems = {}
    xp.s_free_x(0.3, -0.4, 1.0, [1.5], 40, eigensystems)
    xp.s_reversal_x(0.3, -0.4, 1.0, [(0.5, 1.0)], f_b, 40, eigensystems)
    systems = sorted(key[1] for key in eigensystems if len(key) == 3)
    assert systems == pytest.approx([0.3, 0.4])
    assert (0.3, -0.4, 1.0, 40) in eigensystems and len(eigensystems) == 3
    # f_B = +-1 finds the f = 1 systems, whichever call builds them
    builds.clear()
    xp.s_reversal_x(0.3, -0.4, 1.0, [(0.5, 1.0)], f_b, 40)
    back = [] if abs(f_b) == 1.0 else [0.15, 0.2]
    assert sorted(builds) == pytest.approx(sorted(back + [0.3, 0.4]))


def test_shared_lambda_overlaps_are_real():
    # G12 and G34 pair the back and forward systems of one lambda
    eigensystems = {}
    back = xp._mode_system(0.3 + 0.4j, -1.0 / 3.0, 30, eigensystems)
    fwd = xp._mode_system(0.3 + 0.4j, 1.0, 30, eigensystems)
    for sys_a, sys_b in ((back, fwd), (fwd, back)):
        _, im = xp._overlap(sys_a, sys_b)
        assert im is None


def _overlap_whole(sys_a, sys_b, weights=None):
    # _overlap with V_a^T diag(c w) formed whole, on the calling thread,
    # and each part multiplied by V_b on its own
    (_, v_a, u_a), (_, v_b, u_b) = sys_a, sys_b
    ratio = xp.cdd_mul(u_a, (u_b[0], xp.dd_neg(u_b[1])))
    if ratio[1][0] == 0:
        ratio = ratio[0], None
    c = xp._powers(ratio, v_a[0].shape[0])
    if weights is not None:
        c = xp.cdd_mul(c, (weights, None))
    return tuple(None if x is None else _dense_dd_matmul(
        xp.dd_mul(_transpose(v_a), (x[0][None, :], x[1][None, :])), v_b)
        for x in c)


@pytest.mark.parametrize("weighted", [False, True])
def test_overlap_equals_whole_scaling(monkeypatch, weighted):
    # V_a^T diag(c w), its real rows stacked over its imaginary ones and
    # formed on panels of rows, gives the bits of the whole parts'
    # products; 151 rows leave a partial last panel, and c is complex
    eigensystems = {}
    sys_a = xp._mode_system(0.3 + 0.4j, 1.0, 150, eigensystems)
    sys_b = xp._mode_system(-0.2j, 1.0, 150, eigensystems)
    weights = xp._thermal_weights(1.0, 150) if weighted else None
    want = _overlap_whole(sys_a, sys_b, weights)
    for got in _on_one_and_two_threads(monkeypatch, xp._overlap, sys_a,
                                       sys_b, weights):
        for part, want_part in zip(got, want, strict=True):
            assert _same_bits(part, want_part)


def test_s_reversal_x_non_collinear_complex_pair():
    lm, ln, beta, t_f, t_b = 0.3 + 0.4j, -0.2j, 1.0, 0.5, 1.0
    n = fock.tail_bound_n_max(beta, (lm, ln), 1e-20)
    (s64,), _ = fock.converged_s_reversal(lm, ln, beta, [(t_f, t_b)], -0.5,
                                          1e-12)
    sx, = xp.s_reversal_x(lm, ln, beta, [(t_f, t_b)], -0.5, n)
    assert abs(sx - s64) < 5e-10
    r, = xp.s_reversal_x(lm, ln, beta, [(t_f, t_b)], 1.0, n)
    f, = xp.s_free_x(lm, ln, beta, [t_f + t_b], n)
    assert abs(r - f) < 1e-25


def _count_dd_matmul(monkeypatch):
    calls = []
    matmul = xp.dd_matmul

    def counted(a, b, **out):
        calls.append(a[0].shape)
        return matmul(a, b, **out)

    monkeypatch.setattr(xp, "dd_matmul", counted)
    return calls


def test_dd_matmul_count_real_pair(monkeypatch):
    calls = _count_dd_matmul(monkeypatch)
    pairs = [(0.5, 1.0), (1.0, 2.0), (0.2, 0.4)]
    xp.s_reversal_x(0.3, -0.3, 1.0, pairs, -0.5, 30)
    # one product per overlap, all four real; per time, one per complex
    # x real product, its real and imaginary rows stacked
    assert len(calls) == 4 + 2 * len(pairs)
    assert calls[4:] == [(62, 31)] * (2 * len(pairs))
    calls.clear()
    xp.s_free_x(0.3, -0.3, 1.0, [0.5, 1.5], 30)
    assert len(calls) == 2


def test_dd_matmul_count_complex_pair(monkeypatch):
    calls = _count_dd_matmul(monkeypatch)
    pairs = [(0.5, 1.0), (1.0, 2.0), (0.2, 0.4)]
    xp.s_reversal_x(0.3, -0.2j, 1.0, pairs, -0.5, 30)
    # G12 and G34 stay real; G_theta and G41, whose c_j are powers of
    # +-i, take one each too, their real and imaginary rows stacked
    assert len(calls) == 4 + 2 * len(pairs)
    assert calls[:4] == [(31, 31), (62, 31), (31, 31), (62, 31)]


@pytest.mark.parametrize("ln, products", [(-0.3, 2 + 3), (-0.2j, 2 + 3)])
def test_group_forms_thermal_overlap_once(monkeypatch, ln, products):
    # s_free_x's first overlap is s_reversal_x's G_theta: one dict keeps
    # it for both calls, with the bits of separate calls
    calls = _count_dd_matmul(monkeypatch)
    pairs = [(0.5, 1.0), (1.0, 2.0)]
    eigensystems = {}
    free = xp.s_free_x(0.3, ln, 1.0, [1.5], 40, eigensystems)
    rev = xp.s_reversal_x(0.3, ln, 1.0, pairs, -0.5, 40, eigensystems)
    assert len(calls) == products + 2 * len(pairs)
    assert (0.3, ln, 1.0, 40) in eigensystems
    monkeypatch.undo()
    assert free == xp.s_free_x(0.3, ln, 1.0, [1.5], 40)
    assert rev == xp.s_reversal_x(0.3, ln, 1.0, pairs, -0.5, 40)


def test_share_takes_every_panel_once_on_two_threads(monkeypatch):
    monkeypatch.setattr(xp, "_THREADS", 2)
    # panels 0 and 1 can only pass the barrier on two threads at once
    barrier = threading.Barrier(2, timeout=10)
    taken = []

    def take(panel):
        if panel < 2:
            barrier.wait()
        taken.append((panel, threading.get_ident()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        xp._share(take, list(range(2000)))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(panel for panel, _ in taken) == list(range(2000))
    threads = dict(taken)
    assert threads[0] != threads[1]


@pytest.mark.parametrize("threads", [1, 2])
def test_share_raises_what_a_panel_raises(monkeypatch, threads):
    monkeypatch.setattr(xp, "_THREADS", threads)

    def fail(panel):
        if panel == 3:
            raise ValueError("panel 3")

    with pytest.raises(ValueError, match="panel 3"):
        xp._share(fail, list(range(6)))


def _on_one_and_two_threads(monkeypatch, func, *args):
    results = []
    for threads in (1, 2):
        monkeypatch.setattr(xp, "_THREADS", threads)
        results.append(func(*args))
    return results


def _same_bits(x, y):
    return all(np.array_equal(np.asarray(a).view(np.int64),
                              np.asarray(b).view(np.int64))
               for a, b in zip(x, y))


@pytest.mark.parametrize("m", [1, 65, 130])
@pytest.mark.parametrize("banded", [True, False])
def test_dd_matmul_bits_do_not_depend_on_threads(monkeypatch, m, banded):
    # 65 and 130 rows or columns leave a partial last panel
    rng = np.random.default_rng(37)
    k = 140
    for p in (1, 63, 65, 130):
        if banded:
            a = _banded(rng, m, k, 4.0, 30, ())
            b = _banded(rng, k, p, 4.0, 30, ())
        else:
            a = (rng.standard_normal((m, k)),
                 rng.standard_normal((m, k)) * 1e-18)
            b = (rng.standard_normal((k, p)),
                 rng.standard_normal((k, p)) * 1e-18)
        one, two = _on_one_and_two_threads(monkeypatch, xp.dd_matmul, a, b)
        assert _same_bits(one, two)
        assert _same_bits(one, _dense_dd_matmul(a, b))


def _assert_band_map_equals_whole(monkeypatch, b, delta):
    """_band_map of b on 1 and 2 threads against whole-width slicing.

    Its exponents equal those of B's columns, each chunk's cut slices
    embedded in zeros equal the whole slices, and each cut slice's
    column range is the nonzero range of the whole slice over the
    chunk's rows.  Returns the ranges.
    """
    k, p = b[0].shape
    whole, expo = _whole_slices(b, delta, axis=0)
    for got_expo, chunks in _on_one_and_two_threads(monkeypatch,
                                                    xp._band_map, b, delta):
        assert np.array_equal(got_expo, expo)
        assert sorted(chunks) == list(range(0, k, xp._PANEL))
        embedded = [np.zeros((k, p)) for _ in whole]
        ranges = []
        for r0, cut in chunks.items():
            rows = slice(r0, r0 + xp._PANEL)
            for x, w, (s, c0, c1) in zip(embedded, whole, cut, strict=True):
                want = xp._window((w[rows] != 0.0).any(axis=0))
                if want == (0, 0):  # no nonzero column
                    assert c0 == c1 and s.size == 0
                else:
                    assert (c0, c1) == want
                x[rows, c0:c1] = s
                ranges.append(want)
        assert _same_bits(embedded, whole)
    return ranges


@pytest.mark.parametrize("p", [1, 63, 65, 130])
def test_slice_columns_equals_whole_slicing(monkeypatch, p):
    # B's columns, sliced on their own ladders chunk by chunk of rows
    # (_band_map), equal the whole matrix's; the 64-row chunk 1 is zero,
    # and the last chunk is partial
    rng = np.random.default_rng(43)
    k, delta = 140, 20
    b = _banded(rng, k, p, 4.0, 30, (1,))
    ranges = _assert_band_map_equals_whole(monkeypatch, b, delta)
    assert (0, 0) in ranges
    if p > 63:
        # the band moves across the chunks
        assert any(0 < c0 or c1 < p for c0, c1 in ranges if c0 < c1)


def _threshold_operand(rng, m, k, delta):
    """m x k dd rows of largest |hi| 0.75 * 2**e, with e per row.

    For k > 1, columns 2 and k - 3 hold 2**e times +-2**(-_N_SLICES*delta
    - 1) and one ulp either side of it, and columns 0, 1, k - 2 and k - 1
    only entries below the slicing window's bound.  The last 6 rows are
    zero.
    """
    hi = np.zeros((m, k))
    if k > 1:
        middle = slice(k // 3, 2 * k // 3)
        hi[:, middle] = rng.uniform(-0.5, 0.5, (m, middle.stop - middle.start))
        edge = 2.0 ** (-xp._N_SLICES * delta - 1)
        near = np.array([edge, np.nextafter(edge, 0), np.nextafter(edge, 1)])
        near = np.concatenate([near, -near])
        hi[:, 2] = near[np.arange(m) % 6]
        hi[:, k - 3] = near[(np.arange(m) + 3) % 6]
        below = np.nextafter(edge / 2, 0)
        hi[:, [0, 1, k - 2, k - 1]] = below * rng.choice([-1.0, 0.0, 1.0],
                                                         (m, 4))
    hi[:, k // 2] = 0.75
    hi[-6:] = 0.0
    hi = np.ldexp(hi, rng.integers(-40, 40, (m, 1)))
    return hi, hi * rng.uniform(-1.0, 1.0, (m, k)) * 2.0**-60


@pytest.mark.parametrize("k", [1, 151, 545])
def test_windowed_slicing_equals_whole_at_threshold(monkeypatch, k):
    # the slicing window's bound depends on delta; entries at its edge
    # reach the last slice, entries outside it reach none
    delta = _delta(k)
    assert delta == {1: 25, 151: 21, 545: 20}[k]
    rng = np.random.default_rng(53)
    a = _threshold_operand(rng, 70, k, delta)
    b = tuple(x.T.copy() for x in _threshold_operand(rng, 70, k, delta))
    # the rows of A, as one panel
    expo = xp._exponents(a, axis=1)
    whole, whole_expo = _whole_slices(a, delta, axis=1)
    assert np.array_equal(expo, whole_expo)
    cut = xp._slice_window(a, expo, delta)
    embedded = [np.zeros_like(x) for x in whole]
    for x, (s, c0, c1) in zip(embedded, cut, strict=True):
        x[:, c0:c1] = s
    assert _same_bits(embedded, whole)
    if k > 1:
        # the last slice reaches both ends of the window
        assert cut[-1][1:] == (2, k - 2)
        assert np.any(whole[-1][:, 2]) and np.any(whole[-1][:, k - 3])
    # the columns of B, in chunks of rows; its last 6 columns are zero
    _assert_band_map_equals_whole(monkeypatch, b, delta)
    # the last row panel of A is all zero too
    _assert_equals_dense(a, b)


def test_stacked_product_equals_separate_products(monkeypatch):
    # the complex overlaps G_theta and G41, and per time s_reversal_x's
    # complex x real products, stack the real rows of G D over the
    # imaginary ones; 2 x 151 rows put both parts in one 64-row panel
    n = 151
    operands = []
    matmul = xp.dd_matmul

    def captured(a, b, **out):
        operand = tuple(x.copy() for x in a)
        product = matmul(a, b, **out)
        # the stacked operand is overwritten by its product
        operands.append((operand, b, tuple(x.copy() for x in product),
                         product[0] is a[0]))
        return product

    monkeypatch.setattr(xp, "dd_matmul", captured)
    monkeypatch.setattr(xp, "_THREADS", 2)
    xp.s_reversal_x(0.3, -0.2j, 1.0, [(0.5, 1.0)], -0.5, n - 1)
    monkeypatch.undo()
    # every product, the real overlaps' too, is written over its operand
    assert [op[3] for op in operands] == [True] * 6
    stacked = [op for op in operands if op[0][0].shape == (2 * n, n)]
    assert len(stacked) == 4
    for a, b, in_place, _ in stacked:
        whole = xp.dd_matmul(a, b)
        assert _same_bits(in_place, whole)
        for half in (slice(0, n), slice(n, 2 * n)):
            part = xp.dd_matmul((a[0][half], a[1][half]), b)
            assert _same_bits(part, (whole[0][half], whole[1][half]))


def _bilinear_whole(wa, wb, left, right):
    # _bilinear with wa o wb^T and its product by right formed whole
    w = xp.cdd_mul(wa, xp._cdd_map(np.transpose, wb))
    rows = xp.cdd_sum(xp.cdd_mul(w, xp._cdd_map(lambda x: x[None, :], right)),
                      axis=1)
    return xp.cdd_to_complex(xp.cdd_sum(xp.cdd_mul(rows, left), axis=0))


@pytest.mark.parametrize("complex_a, complex_b", [(False, False),
                                                  (True, False),
                                                  (False, True),
                                                  (True, True)])
def test_bilinear_equals_whole_matrix_product(monkeypatch, complex_a,
                                              complex_b):
    rng = np.random.default_rng(41)
    n = 130  # two full panels and a partial one

    def dd_array(*shape):
        return rng.standard_normal(shape), rng.standard_normal(shape) * 1e-17

    def banded(zero_rows, zero_cols):
        # a band that is zero in the chosen 64-row and 64-column blocks
        part = _banded(rng, n, n, 4.0, 30, zero_rows)
        for block in zero_cols:
            for x in part:
                x[:, 64 * block:64 * (block + 1)] = 0.0
        return part

    def factor(is_complex, blocks=None):
        if blocks is None:
            return dd_array(n, n), dd_array(n, n) if is_complex else None
        return banded(*blocks), banded(*blocks) if is_complex else None

    left, right = (dd_array(n), dd_array(n)), (dd_array(n), dd_array(n))
    # dense factors; then bands whose panels of rows 0-63 meet no
    # nonzero column of wa, and of rows 64-127 no nonzero row of wb
    for wa, wb in ((factor(complex_a), factor(complex_b)),
                   (factor(complex_a, ((0,), ())),
                    factor(complex_b, ((), (1,))))):
        want = _bilinear_whole(wa, wb, left, right)
        for got in _on_one_and_two_threads(monkeypatch, xp._bilinear, wa, wb,
                                           left, right):
            assert _same_bits((got.real, got.imag), (want.real, want.imag))


def test_tridiag_eigh_dd_bits_do_not_depend_on_threads(monkeypatch):
    n = 150
    diag = xp.dd(np.arange(n, dtype=float))
    off = xp.dd_mul(xp.dd_sqrt(xp.dd(np.arange(1.0, n))), xp.dd(0.35))
    (e1, v1), (e2, v2) = _on_one_and_two_threads(
        monkeypatch, xp.tridiag_eigh_dd, diag, off)
    assert _same_bits(e1, e2) and _same_bits(v1, v2)


def test_s_reversal_x_does_not_depend_on_threads(monkeypatch):
    pairs = [(0.5, 1.0), (1.3, 0.4)]
    one, two = _on_one_and_two_threads(monkeypatch, xp.s_reversal_x,
                                       0.3, -0.2j, 1.0, pairs, -0.5, 150)
    assert one == two


def test_traced_functions_run_on_the_calling_thread(monkeypatch):
    # a tracer keeps one span stack, so its spans must open and close on
    # the main thread while the panels run on two
    monkeypatch.setattr(xp, "_THREADS", 2)
    seen = []
    for name in ("s_free_x", "s_reversal_x", "tridiag_eigh_dd", "dd_matmul"):
        def traced(*args, _func=getattr(xp, name), _name=name, **kwargs):
            seen.append((_name, threading.current_thread()))
            return _func(*args, **kwargs)

        monkeypatch.setattr(xp, name, traced)
    xp.s_free_x(0.3, -0.2j, 1.0, [0.5], 140)
    xp.s_reversal_x(0.3, -0.2j, 1.0, [(0.5, 1.0)], -0.5, 140)
    assert {name for name, _ in seen} == {"s_free_x", "s_reversal_x",
                                          "tridiag_eigh_dd", "dd_matmul"}
    assert {thread for _, thread in seen} == {threading.main_thread()}

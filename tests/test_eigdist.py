import math
from fractions import Fraction

import pytest

from pairdeco import eigdist


def test_single_pair_table():
    t = eigdist.exact_counts(1)
    assert t.counts == {1: 2, 0: 1, -2: 1}
    assert t.total() == 4


def test_two_pair_table():
    t = eigdist.exact_counts(2)
    assert t.counts == {2: 4, 1: 4, 0: 1, -1: 4, -2: 2, -4: 1}
    assert t.total() == 16


def test_convolution_equals_multinomial():
    for n in (1, 2, 3, 7, 12):
        assert (eigdist.exact_counts(n).counts
                == eigdist.multinomial_counts(n).counts)


def test_budget_bounds():
    with pytest.raises(ValueError):
        eigdist.exact_counts(0)
    with pytest.raises(ValueError):
        eigdist.exact_counts(25)
    with pytest.raises(ValueError):
        eigdist.multinomial_counts(0)


def test_exact_moments():
    for n in (1, 2, 10, 20):
        table = eigdist.exact_counts(n)
        mean, var = eigdist.dist_moments(table)
        assert mean == 0
        assert var == Fraction(3 * n, 2)


def test_support_and_extreme_counts():
    for n in (3, 9, 15):
        t = eigdist.exact_counts(n)
        support = t.support()
        assert support[0] == -2 * n
        assert support[-1] == n
        assert t.counts[-2 * n] == 1
        assert t.counts[n] == 2**n


def test_gaussian_limit():
    # width of the eigenvalue sum over all N pairs and over one plane
    assert eigdist.sum_width(1e23) == pytest.approx(3.87e11, rel=1e-2)
    assert eigdist.sum_width(2.15e15) == pytest.approx(5.68e7, rel=1e-2)


def test_kolmogorov_non_increasing():
    distances = [eigdist.kolmogorov_distance(eigdist.exact_counts(n))
                 for n in (4, 8, 12, 16, 20)]
    assert all(b <= a for a, b in zip(distances, distances[1:]))
    assert distances[0] < 0.2


def test_envelope_limits():
    table = eigdist.exact_counts(6)
    assert eigdist.exact_envelope(table, 1.0, 0.0) == 1.0
    assert eigdist.gaussian_envelope(3.0, 1.0, 0.0) == 1.0
    # small-phase expansion agreement
    sigma = math.sqrt(1.5 * 6)
    rate, t = 1.0, 1e-3
    ex = abs(eigdist.exact_envelope(table, rate, t))
    ga = eigdist.gaussian_envelope(sigma, rate, t)
    assert ex == pytest.approx(ga, abs=1e-9)


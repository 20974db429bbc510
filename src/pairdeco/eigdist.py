"""Exact distribution of the summed interaction eigenvalues.

Each of N environment pairs contributes kappa in {1, 1, -2, 0}; the sum
X over a configuration runs over [-2N, N] with exact integer counts
alpha(X) out of 4^N configurations.  The table, its exact moments, its
width and the Gaussian-limit diagnostics all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

#: kappa value -> multiplicity for a single pair (two kappa=1 levels).
SINGLE_PAIR = {1: 2, 0: 1, -2: 1}

#: runtime budget; counts stay exact (big integers) at any N.
MAX_N = 24


@dataclass(frozen=True)
class EigCountTable:
    """Exact counts alpha(X) of eigenvalue sums over 4^N configurations."""

    N: int
    counts: dict

    def total(self):
        return sum(self.counts.values())

    def support(self):
        """Sorted X values with nonzero count."""
        return sorted(self.counts)


def exact_counts(n):
    """Counts by N-fold convolution of the single-pair table.

    Exact big-integer dynamic programming; O(N^2) table work.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"1 <= N <= {MAX_N} required")
    counts = dict(SINGLE_PAIR)
    for _ in range(n - 1):
        nxt = {}
        for x, c in counts.items():
            for dx, m in SINGLE_PAIR.items():
                key = x + dx
                nxt[key] = nxt.get(key, 0) + c * m
        counts = nxt
    return EigCountTable(N=n, counts=counts)


def multinomial_counts(n):
    """Same table by the closed multinomial sum (redundant cross-check).

    alpha(X) = sum over (n0, n1) with X = 3 n1 + 2 n0 - 2N of
    2^{n1} N!/(n0! n1! (N-n0-n1)!).
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"1 <= N <= {MAX_N} required")
    counts = {}
    for n1 in range(n + 1):
        for n0 in range(n - n1 + 1):
            x = 3 * n1 + 2 * n0 - 2 * n
            term = (2**n1 * math.factorial(n)
                    // (math.factorial(n0) * math.factorial(n1)
                        * math.factorial(n - n0 - n1)))
            counts[x] = counts.get(x, 0) + term
    return EigCountTable(N=n, counts=counts)


def dist_moments(table):
    """(mean, variance) as exact rationals; expect (0, 3N/2)."""
    total = 4**table.N
    mean = Fraction(sum(x * c for x, c in table.counts.items()), total)
    second = Fraction(sum(x * x * c for x, c in table.counts.items()), total)
    return mean, second - mean * mean


def sum_width(n):
    """Width sqrt(3n/2) of the eigenvalue sum over n pairs (n real)."""
    return math.sqrt(1.5 * n)


def normal_cdf(x, sigma):
    return 0.5 * (1.0 + math.erf(x / (sigma * math.sqrt(2.0))))


def kolmogorov_distance(table):
    """sup_x |F_exact(x) - Phi(x)| between step CDF and Gaussian CDF.

    Checks both sides of every jump of the step function.
    """
    sigma = sum_width(table.N)
    total = 4**table.N
    running = 0
    worst = 0.0
    for x in table.support():
        phi = normal_cdf(x, sigma)
        worst = max(worst, abs(running / total - phi))   # left limit
        running += table.counts[x]
        worst = max(worst, abs(running / total - phi))   # right value
    return worst


def exact_envelope(table, rate, t):
    """Characteristic function sum p(X) exp(i rate t X).

    ``rate`` is the angular phase accrual per unit X per second; for the
    free-evolution envelope it is 4 pi nu_D (kappa_m - kappa_n).
    """
    total = 4**table.N
    re = sum(c * math.cos(rate * t * x) for x, c in table.counts.items())
    im = sum(c * math.sin(rate * t * x) for x, c in table.counts.items())
    return complex(re / total, im / total)


def gaussian_envelope(sigma, rate, t):
    """Gaussian-limit counterpart |envelope| = exp(-(rate t sigma)^2/2)."""
    return math.exp(-0.5 * (rate * t * sigma) ** 2)

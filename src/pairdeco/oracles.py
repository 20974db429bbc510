"""Verification suites: closed forms against independent numerics.

Three suites, each emitting structured per-check records suitable for
JSON reporting:

* fock: closed decoherence functions (free and reversal) against the
  truncated-Fock traces, plus structural identities.
* eigdist: convolution counts against multinomial and brute-force
  enumeration, exact moments, central-limit diagnostics.
* ksum: discrete mode sums against the continuum kernels.

The fock grid runs per (lambda_m, lambda_n, beta) group and method.
Strong-decoherence points (|S| below ``EXTENDED_THRESHOLD``) run on
the double-double engine, where the float64 error floor, about 1e-15
absolute, would swamp the relative comparison; the rest run in
float64.  Every point passes at a relative error of at most
``FOCK_TOL``.  One method's points of a group share the cutoff
``fock.tail_bound_n_max`` gives for a truncation error of
0.25 FOCK_TOL |S| at their smallest |S|, and each kind is one trace
call over its times.
"""

from __future__ import annotations

import math
import sys
import time
import warnings
from fractions import Fraction

import numpy as np

from . import eigdist, fock, phonon, xprec
from .core import gypsum_config
from .decoherence import s_mn
from .magicecho import ideal_echo_schedule, reversal_exponent_k

#: relative gate of every fock point: |numeric - closed| <= FOCK_TOL |closed|
FOCK_TOL = 1e-8

#: float64 traces err by <= 1.3e-15 absolute on the grid: <= 1.3e-11
#: relative at |S| = 1e-4, 1/770 of FOCK_TOL
EXTENDED_THRESHOLD = 1e-4

#: documented verification grid (omega = 1 units); -0.2j has real part -0.0
GRID_LAMBDAS = (0.3, -0.3, 0.2j, complex(0.0, -0.2), 0.5)
GRID_BETAS = (0.1, 1.0, 5.0)
GRID_TIMES = (0.5, math.pi, 10.0)

QUICK_LAMBDAS = (0.3, complex(0.0, -0.2), 0.5)
QUICK_BETAS = (1.0, 5.0)
QUICK_TIMES = (0.5, math.pi)

#: modes along the pair axis in the ksum suite's discrete k-sums
KSUM_MODES = 100000


def _fmt_c(z):
    return [float(z.real), float(z.imag)]


def _point_record(kind, inputs, closed, numeric, n_used, method):
    rel = abs(numeric - closed) / abs(closed)
    return {
        "kind": kind,
        "inputs": inputs,
        "closed_form": _fmt_c(closed),
        "numeric": _fmt_c(numeric),
        "rel_err": float(rel),
        "n_max": int(n_used),
        "method": method,
        "passed": bool(rel <= FOCK_TOL),
    }


def _method_records(method, points, lm, ln, beta):
    """Records of one method's points of a (lambda_m, lambda_n, beta) group.

    ``points`` holds (kind, inputs, closed, timing) per point, in grid
    order.  They share one cutoff: the tail bound at the smallest target
    0.25 FOCK_TOL |closed|, the largest cutoff any of them needs (a
    larger cutoff only shrinks the truncation error).  Each kind is one
    trace call over its times, and the extended calls share one set of
    eigensystems.  A cutoff past the limit raises ConfigError before
    any eigensystem is built.
    """
    target = min(0.25 * FOCK_TOL * abs(closed) for _, _, closed, _ in points)
    n_max = fock.tail_bound_n_max(beta, (lm, ln), target)
    free = [t for kind, _, _, t in points if kind == "free"]
    scheds = [s for kind, _, _, s in points if kind == "reversal"]
    # every reversal point runs the ideal schedule: one f_B
    pairs = [(s.t_F, s.t_B) for s in scheds]
    values = {}
    if method == "float64":
        if free:
            values["free"], _ = fock.converged_s_free(lm, ln, beta, free,
                                                      target)
        if pairs:
            values["reversal"], _ = fock.converged_s_reversal(
                lm, ln, beta, pairs, scheds[0].f_B, target)
    else:
        eigensystems = {}
        if free:
            values["free"] = xprec.s_free_x(lm, ln, beta, free, n_max,
                                            eigensystems)
        if pairs:
            values["reversal"] = xprec.s_reversal_x(
                lm, ln, beta, pairs, scheds[0].f_B, n_max, eigensystems)
    numerics = {kind: iter(found) for kind, found in values.items()}
    return [_point_record(kind, inputs, closed, next(numerics[kind]), n_max,
                          method)
            for kind, inputs, closed, _ in points]


def fock_suite(quick=False):
    """Closed-form vs truncated-Fock agreement over the documented grid.

    Each grid time is the total evolution time; reversal points split it
    ideally (magicecho.ideal_echo_schedule: t_B = 2 t_F, f_B = -1/2).
    Unordered lambda pairs suffice: the conjugate-swap symmetry is
    asserted separately.

    Every trace runs at a thermal-tail cutoff with truncation error
    below 0.25 FOCK_TOL |closed|.  The points of one (lambda_m,
    lambda_n, beta) group split by method: a closed form of modulus at
    least EXTENDED_THRESHOLD runs the float64 trace, the others the
    double-double engine.  Each method's points run at one cutoff, the
    largest any of them needs, with one trace call per kind
    (_method_records).  Each record's ``n_max`` is the cutoff its
    trace ran at.  Records keep grid order: per time, the free point
    then the reversal.  Each group ends with one progress line on
    stderr: its index, its methods, its largest ``n_max`` and the
    seconds of its traces.
    """
    lambdas = QUICK_LAMBDAS if quick else GRID_LAMBDAS
    betas = QUICK_BETAS if quick else GRID_BETAS
    times = QUICK_TIMES if quick else GRID_TIMES
    groups = [(lm, ln, beta) for i, lm in enumerate(lambdas)
              for ln in lambdas[i:] for beta in betas]
    checks = []
    for index, (lm, ln, beta) in enumerate(groups, 1):
        parts, order = {}, []
        for t in times:
            inputs = {"lambda_m": _fmt_c(complex(lm)),
                      "lambda_n": _fmt_c(complex(ln)),
                      "omega": 1.0, "beta_omega": beta, "omega_t": t}
            sched = ideal_echo_schedule(t)
            for kind, closed, timing in (
                    ("free", s_mn([(1.0, lm, ln)], beta, t), t),
                    ("reversal", reversal_exponent_k(
                        lm, ln, 1.0, beta, sched).s_value(), sched)):
                method = ("extended" if abs(closed) < EXTENDED_THRESHOLD
                          else "float64")
                parts.setdefault(method, []).append((kind, inputs, closed,
                                                     timing))
                order.append(method)
        start = time.perf_counter()
        records = {m: iter(_method_records(m, part, lm, ln, beta))
                   for m, part in parts.items()}
        group = [next(records[method]) for method in order]
        checks += group
        methods = "+".join(sorted(parts))
        n_max = max(c["n_max"] for c in group)
        # progress goes to stderr, so the report stays deterministic
        print(f"oracle fock: group {index}/{len(groups)}, {methods}, "
              f"n_max {n_max}, {time.perf_counter() - start:.2f} s",
              file=sys.stderr)
    checks.extend(fock_structure_checks())
    return _report("fock", checks)


def fock_structure_checks():
    """Identity checks that need no closed-form comparison, at omega = 1."""
    checks = []
    beta = 1.0
    lambdas = (0.3, complex(0.0, -0.2), 0.5)
    # the identities hold at any cutoff
    n_max = fock.tail_bound_n_max(beta, lambdas, 1e-12)

    def record(name, value, bound):
        checks.append({"kind": name, "value": float(value),
                       "bound": float(bound),
                       "passed": bool(value <= bound)})

    # conjugate-swap symmetry of the free trace
    s_ab, = fock.numeric_s_free(lambdas[0], lambdas[1], beta, [1.3], n_max)
    s_ba, = fock.numeric_s_free(lambdas[1], lambdas[0], beta, [1.3], n_max)
    record("conjugate_symmetry", abs(s_ab - s_ba.conjugate()), 1e-12)

    # equal eigenvalues give a pure phase
    s_eq, = fock.numeric_s_free(lambdas[0], lambdas[0], beta, [2.0], n_max)
    record("pure_phase_equal_lambda", abs(abs(s_eq) - 1.0), 1e-10)

    # modulus bound
    record("modulus_bound", abs(s_ab) - 1.0, 1e-8)

    # f_B = 1 reversal equals free evolution over the total time
    pairs = [(0.4, 0.9), (1.0, 2.0)]
    reversal = fock.numeric_s_reversal(lambdas[0], lambdas[2], beta, pairs,
                                       1.0, n_max)
    free = fock.numeric_s_free(lambdas[0], lambdas[2], beta,
                               [t_f + t_b for t_f, t_b in pairs], n_max)
    for r1, r2 in zip(reversal, free, strict=True):
        record("reversal_additivity", abs(r1 - r2), 1e-12)

    # t_B = 0 degenerates to the free trace
    r3, = fock.numeric_s_reversal(lambdas[0], lambdas[2], beta, [(0.7, 0.0)],
                                  -0.5, n_max)
    r4, = fock.numeric_s_free(lambdas[0], lambdas[2], beta, [0.7], n_max)
    record("reversal_t_B_zero", abs(r3 - r4), 1e-12)

    # displaced-operator identity on interior blocks
    for f in (1.0, -0.5):
        for lam in lambdas:
            res = fock.displaced_identity_residual(lam, n_max, f)
            record("displaced_identity", res, 1e-12)
    return checks


def eigdist_suite():
    """Exact-count cross-checks and central-limit diagnostics."""
    checks = []

    def record(name, passed, **extra):
        entry = {"kind": name, "passed": bool(passed)}
        entry.update(extra)
        checks.append(entry)

    # N=2 against brute-force enumeration over 4^2 configurations
    kappas = (1, 1, -2, 0)
    brute = {}
    for k1 in kappas:
        for k2 in kappas:
            brute[k1 + k2] = brute.get(k1 + k2, 0) + 1
    record("enumeration_N2", eigdist.exact_counts(2).counts == brute)

    for n in (2, 3, 8):
        record("convolution_vs_multinomial",
               eigdist.exact_counts(n).counts
               == eigdist.multinomial_counts(n).counts, N=n)

    for n in (4, 8, 12, 16, 20):
        table = eigdist.exact_counts(n)
        mean, var = eigdist.dist_moments(table)
        record("exact_moments",
               mean == 0 and var == Fraction(3 * n, 2)
               and table.total() == 4**n, N=n)
        support = table.support()
        record("support_bounds",
               support[0] == -2 * n and support[-1] == n
               and table.counts[-2 * n] == 1
               and table.counts[n] == 2**n, N=n)

    distances = [eigdist.kolmogorov_distance(eigdist.exact_counts(n))
                 for n in (4, 8, 12, 16, 20)]
    record("kolmogorov_non_increasing",
           all(b <= a for a, b in zip(distances, distances[1:])),
           distances=[float(d) for d in distances])

    # Gaussian-envelope validity at desk scale: exact N=12 distribution
    # in the dephasing average vs the matched-sigma Gaussian
    cfg = gypsum_config()
    rates = phonon.rate_constants(cfg)
    table = eigdist.exact_counts(12)
    sigma = eigdist.sum_width(12)
    rate = 4.0 * math.pi * rates.nuD * 3.0
    tau_small = phonon.decay_time(rates.nuD, sigma)
    worst = max(
        abs(abs(eigdist.exact_envelope(table, rate, tt))
            - eigdist.gaussian_envelope(sigma, rate, tt))
        for tt in np.linspace(0.0, 2.0 * tau_small, 201)
    )
    record("gaussian_envelope_N12", worst < 0.05, max_deviation=float(worst))
    return _report("eigdist", checks)


def ksum_suite():
    """Discrete k-sums against the continuum kernels at gypsum scale, 2%.

    gamma is compared inside the continuum window (its closed form is
    the linear-in-t regime, which saturates once t exceeds the longest
    mode period).  epsilon and zeta are compared at 1 us where their
    closed forms remain valid.  At the lattice zeros x = a, 3a the
    closed zeta is a cancellation remainder orders of magnitude below
    the kernel scale, so those two points are measured relative to the
    x = 0 kernel magnitude.
    """
    cfg, n1 = gypsum_config(), KSUM_MODES
    checks = []

    def record(name, closed, numeric, rel, **extra):
        entry = {"kind": name, "closed_form": float(closed),
                 "numeric": float(numeric), "rel_err": float(rel),
                 "passed": bool(rel <= 0.02)}
        entry.update(extra)
        checks.append(entry)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t_window = 2e-10
        g_d, _, _ = phonon.discrete_kernel_sums(cfg, t_window, 0.0, n1)
        g_c, _ = phonon.closed_kernels(cfg, t_window)
        record("gamma_window", g_c, g_d, abs(g_d - g_c) / abs(g_c),
               t=t_window)

        t_long = 1e-6
        _, e_d, z_d0 = phonon.discrete_kernel_sums(cfg, t_long, 0.0, n1)
        _, e_c = phonon.closed_kernels(cfg, t_long)
        record("epsilon", e_c, e_d, abs(e_d - e_c) / abs(e_c), t=t_long)
        z_c0 = phonon.zeta_closed(cfg, 0.0, t_long)
        record("zeta_x0", z_c0, z_d0, abs(z_d0 - z_c0) / abs(z_c0), t=t_long)
        for mult in (1.0, 3.0):
            x = mult * cfg.a
            _, _, z_d = phonon.discrete_kernel_sums(cfg, t_long, x, n1)
            z_c = phonon.zeta_closed(cfg, x, t_long)
            record("zeta_lattice_zero", z_c, z_d,
                   abs(z_d - z_c) / abs(z_c0), t=t_long, x_over_a=mult,
                   scale=float(z_c0))

        # window consistency: refining the grid cannot worsen gamma
        g_d4, _, _ = phonon.discrete_kernel_sums(cfg, t_window, 0.0, 4 * n1)
        rel1 = abs(g_d - g_c) / abs(g_c)
        rel4 = abs(g_d4 - g_c) / abs(g_c)
        checks.append({"kind": "window_consistency",
                       "rel_err_N1": float(rel1),
                       "rel_err_4N1": float(rel4),
                       "passed": bool(rel4 <= rel1 * (1.0 + 1e-9))})
    return _report("ksum", checks)


def _report(suite, checks):
    failures = sum(1 for c in checks if not c["passed"])
    return {"suite": suite, "checks": checks, "failures": failures,
            "total": len(checks)}


def run_suites(which, quick):
    """Run the requested suites; returns a list of reports."""
    reports = []
    if which in ("fock", "all"):
        reports.append(fock_suite(quick=quick))
    if which in ("eigdist", "all"):
        reports.append(eigdist_suite())
    if which in ("ksum", "all"):
        reports.append(ksum_suite())
    if not reports:
        raise ValueError(f"unknown suite {which!r}")
    return reports

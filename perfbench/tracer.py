"""Spans around the calls into pairdeco's public functions.

The tracer replaces each traced function by a timing wrapper in every
pairdeco module namespace that holds it, so calls are caught where the
callers look the name up (``xprec.dd_matmul`` inside ``xprec``,
``s_mn`` imported by name into ``oracles``, ``parse_config`` into
``cli``).  Nothing under ``src/`` is edited; the program runs unchanged
apart from the wrappers.  A span's self time is its duration minus the
time of the traced spans it contains.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

#: module.function of every traced span -> the figures reported for it
SPANS = {
    "xprec.s_free_x": ("calls", "s", "self_s"),
    "xprec.s_reversal_x": ("calls", "s", "self_s"),
    "xprec.tridiag_eigh_dd": ("calls", "s", "self_s"),
    "xprec.dd_matmul": ("calls", "s", "self_s"),
    "fock.numeric_s_free": ("calls", "s"),
    "fock.numeric_s_reversal": ("calls", "s"),
    "fock.converged_s_free": ("calls", "s"),
    "fock.converged_s_reversal": ("calls", "s"),
    "phonon.rate_constants": ("calls", "s"),
    "phonon.free_sigma": ("calls", "s"),
    "magicecho.me_sigma": ("calls", "s"),
    "phonon.discrete_kernel_sums": ("calls", "s"),
    "core.gypsum_config": ("calls", "s"),
    "core.parse_config": ("s",),
    "cli.cmd_evolve": ("self_s",),
    "cli.cmd_sweep": ("self_s",),
    "decoherence.s_mn": ("calls", "s"),
    "magicecho.reversal_exponent_k": ("calls", "s"),
    "eigdist.exact_counts": ("calls", "s"),
    "oracles.fock_suite": ("s", "self_s"),
    "oracles.ksum_suite": ("s", "self_s"),
    "oracles.eigdist_suite": ("s", "self_s"),
}

_TRACES = ("fock.numeric_s_free", "fock.numeric_s_reversal")
_CONVERGED = ("fock.converged_s_free", "fock.converged_s_reversal")


class Tracer:
    """Per-span call counts, total and self time, plus work counters."""

    def __init__(self):
        self.stats = {}          # name -> [calls, total_s, child_s]
        self.stack = []          # child-time accumulators of open spans
        self.open = Counter()    # name -> open span count
        self.dd_flop = 0.0
        self.tridiagonals = []   # (n, |f lambda| hi, lo) per build
        self.traces_converging = 0
        self.missing = []

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pairdeco"
                                         or n.startswith("pairdeco."))]
        hooks = {"xprec.dd_matmul": self._count_flop,
                 "xprec.tridiag_eigh_dd": self._key_tridiagonal}
        for name in _TRACES:
            hooks[name] = self._count_trace
        for name in SPANS:
            module_name, func_name = name.split(".")
            module = sys.modules.get(f"pairdeco.{module_name}")
            original = getattr(module, func_name, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, hooks.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        return self

    def _wrap(self, name, func, hook):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, open_spans = self.stack, self.open

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            open_spans[name] += 1
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                open_spans[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[0]

        return wrapper

    def _count_flop(self, args, kwargs):
        """2 m k p flops per float64 slice product dd_matmul forms.

        dd_matmul(a, b, n_slices=6) multiplies slice i of A by slice j
        of B for i + j <= n_slices.
        """
        a, b = args[0], args[1]
        n = args[2] if len(args) > 2 else kwargs.get("n_slices", 6)
        products = sum(1 for i in range(n) for j in range(n) if i + j <= n)
        (m, k), p = a[0].shape, b[0].shape[1]
        self.dd_flop += 2.0 * m * k * p * products

    def _key_tridiagonal(self, args, kwargs):
        diag, off = args[0], args[1]
        n = diag[0].shape[0]
        mag = (float(off[0][0]), float(off[1][0])) if n > 1 else (0.0, 0.0)
        self.tridiagonals.append((n,) + mag)

    def _count_trace(self, args, kwargs):
        if any(self.open[name] for name in _CONVERGED):
            self.traces_converging += 1

    def summary(self):
        spans = {name: {"calls": c, "s": total, "self_s": total - child}
                 for name, (c, total, child) in self.stats.items()}
        builds = len(self.tridiagonals)
        converged = sum(spans[n]["calls"] for n in _CONVERGED if n in spans)
        return {
            "spans": spans,
            "missing": self.missing,
            "dd_matmul_gflop": self.dd_flop / 1e9,
            "eigensystems": builds,
            "distinct_tridiagonals": len(set(self.tridiagonals)),
            "distinct_offdiagonals": len({k[1:] for k in self.tridiagonals}),
            "traces_converging": self.traces_converging,
            "converged_points": converged,
        }

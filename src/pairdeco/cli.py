"""Command-line interface: constants, evolve, sweep, oracle, compare.

Everything is emitted as CSV (17 significant digits) or JSON; there is
no randomness anywhere, so identical inputs give byte-identical output.
Exit codes: 0 success, 1 usage/config error, 2 oracle failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys

import numpy as np

from . import magicecho, oracles, phonon
from .core import ConfigError, gypsum_config, parse_config

_LEVEL_TAGS = ("Tp", "T0", "Tm", "S")
#: rows evolve computes per call; it bounds the (rows, 4, 4) arrays, so
#: peak memory does not grow with the length of the grid
_EVOLVE_BLOCK_ROWS = 128


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _fmt(value):
    # + 0.0 turns -0.0 (nu0 at the magic angle) into 0
    return "{:.17g}".format(float(value) + 0.0)


def _format_rows(rows):
    """CSV lines of a 2-D float64 block, each value as %.17g; a column whose
    bits are the same on every row (-0.0 is not 0.0) is formatted once."""
    bits = rows.view(np.int64)
    same = (bits == bits[0]).all(axis=0)
    template = ",".join("%.17g" % value if fixed else "%.17g"
                        for value, fixed in zip(rows[0].tolist(), same))
    template += "\r\n"
    return "".join(template % tuple(row) for row in rows[:, ~same].tolist())


def _load_config(path):
    if path is None:
        return gypsum_config()
    try:
        with open(path) as handle:
            return parse_config(handle.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def _parse_grid(spec):
    """start:stop:steps -> ascending numpy grid (inclusive endpoints)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise _UsageError(f"grid {spec!r} must be start:stop:steps")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise _UsageError(f"grid {spec!r} has non-numeric parts") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise _UsageError(f"grid {spec!r} endpoints must be finite")
    if steps < 1:
        raise _UsageError("grid steps must be >= 1")
    if steps == 1:
        return np.array([start])
    if stop < start:
        raise _UsageError("grid stop must be >= start")
    if not math.isfinite(stop - start):
        raise _UsageError(f"grid {spec!r} span stop - start must be finite")
    try:
        return np.linspace(start, stop, steps)
    except MemoryError:
        raise _UsageError(f"grid {spec!r} is too large to allocate") from None


@contextlib.contextmanager
def _output(path):
    """The --out file, closed on exit and removed if the body raises (no
    partial output), or stdout when no path is given.  A path that cannot
    be opened is a ConfigError."""
    if not path:
        yield sys.stdout
        return
    try:
        out = open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    try:
        with out:
            yield out
    except BaseException:
        os.remove(path)
        raise


def cmd_constants(args):
    cfg = _load_config(args.config)
    rates = phonon.rate_constants(cfg)
    rows = [
        ("Omega0_radps", rates.Omega0),
        ("nu0_Hz", rates.nu0),
        ("nu0_hat_Hz", rates.nu0_hat),
        ("nuD_Hz", rates.nuD),
        ("tau_gamma_s", rates.tau_gamma),
        ("tau_gamma_min_s", rates.tau_gamma_min),
        ("tau_X_s", rates.tau_X),
        ("tau_X_hat_s", rates.tau_X_hat),
        ("tau_echo_s", rates.tau_echo),
        ("tau_echo_hat_s", rates.tau_echo_hat),
        ("sigma_X", rates.sigma_X),
        ("sigma_Xprime", rates.sigma_Xprime),
    ]
    with _output(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(["quantity", "value"])
        for name, value in rows:
            writer.writerow([name, _fmt(value)])
    return 0


def cmd_evolve(args):
    cfg = _load_config(args.config)
    t_grid = _parse_grid(args.grid)
    if np.any(np.diff(t_grid) <= 0) and len(t_grid) > 1:
        raise _UsageError("t grid must be strictly ascending")
    if t_grid[0] < 0:
        raise _UsageError("t grid must be non-negative")
    sigma0 = phonon.initial_after_pulse(cfg.omega0_larmor, cfg.T)
    evolve = phonon.free_sigma if args.mode == "free" else magicecho.me_sigma
    header = ["t_s"]
    for i in _LEVEL_TAGS:
        for j in _LEVEL_TAGS:
            header += [f"re_{i}_{j}", f"im_{i}_{j}"]

    def block(start):
        times = t_grid[start:start + _EVOLVE_BLOCK_ROWS]
        sigma = evolve(cfg, sigma0, times, exact_path=args.exact_path)
        parts = np.stack([sigma.real, sigma.imag], axis=-1)
        return _format_rows(
            np.column_stack([times, parts.reshape(len(times), 32)]))

    # a ConfigError holds at every time or, like a phase that leaves the
    # float range, first at the largest: the last block raises it before
    # a byte is written
    starts = range(0, len(t_grid), _EVOLVE_BLOCK_ROWS)
    last = block(starts[-1])
    with _output(args.out) as out:
        csv.writer(out).writerow(header)
        for start in starts[:-1]:
            out.write(block(start))
        out.write(last)
    return 0


def cmd_sweep(args):
    cfg = _load_config(args.config)
    n_grid = _parse_grid(args.n_grid)
    vs_grid = _parse_grid(args.vs_grid)

    def rates(n, vs):
        return phonon.rate_constants(gypsum_config(
            d=cfg.d, a=cfg.a, T=cfg.T, theta=cfg.theta, N=float(n),
            v_s=float(vs)))
    # tau_X = decay_time(nu_D(v_s), sigma_X(N)): each axis value gets its
    # checks at one cell of its row or column, the first row first
    nu_d = [rates(n_grid[0], vs).nuD for vs in vs_grid]
    sigma_x = [rates(n, vs_grid[0]).sigma_X for n in n_grid]
    magic = nu_d[0] == 0.0  # Omega0 = 0: every tau_X is inf
    tau = (lambda nu, sigma: math.inf) if magic else phonon.decay_time
    try:  # rounding is monotone, so two corners bound every cell
        in_range = magic or all(0.0 < tau(f(nu_d), f(sigma_x)) < math.inf
                                for f in (min, max))
    except ZeroDivisionError:
        in_range = False
    if not in_range:
        raise ConfigError("rate constants outside the float range")
    cells = [(_fmt(vs), nu) for vs, nu in zip(vs_grid, nu_d)]
    with _output(args.out) as out:
        out.write("N,v_s_mps,tau_X_s\r\n")
        for n, sigma in zip(n_grid, sigma_x):
            row = _fmt(n)
            out.write("".join(f"{row},{vs},{_fmt(tau(nu, sigma))}\r\n"
                              for vs, nu in cells))
    return 0


def cmd_oracle(args):
    # open the file first: a bad --out fails before minutes of traces
    with _output(args.out) as out:
        reports = oracles.run_suites(which=args.which, quick=args.quick)
        payload = {"reports": reports,
                   "failures": sum(r["failures"] for r in reports)}
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    return 2 if payload["failures"] else 0


def cmd_compare(args):
    cfg = _load_config(args.config)
    try:
        with open(args.data) as handle:
            records = magicecho.load_experiment_csv(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read data {args.data}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    report = magicecho.compare_experiment(records, cfg.v_s, cfg.N)
    with _output(args.out) as out:
        magicecho.write_comparison_csv(report, out)
    return 0


def build_parser():
    parser = _Parser(prog="pairdeco",
                     description="Spin-pair decoherence in a phonon bath")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--out", default=None,
                       help="output file path (default: stdout)")

    def common(p):
        p.add_argument("--config", default=None,
                       help="config file path (default: reference sample)")
        output(p)

    p = sub.add_parser("constants", help="characteristic rate table")
    common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("evolve", help="deviation-matrix trajectory CSV")
    common(p)
    p.add_argument("--mode", choices=("free", "me"), default="free")
    p.add_argument("--exact-path", action="store_true",
                   help="keep the slow kernels and quadratic phases")
    p.add_argument("--grid", required=True, metavar="START:STOP:STEPS",
                   help="time grid in seconds")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("sweep", help="tau_X over an (N, v_s) grid")
    common(p)
    p.add_argument("--n-grid", required=True, metavar="START:STOP:STEPS")
    p.add_argument("--vs-grid", required=True, metavar="START:STOP:STEPS")
    p.set_defaults(func=cmd_sweep)

    # every suite runs on the reference sample, so no --config
    p = sub.add_parser("oracle", help="verification suites, JSON report")
    output(p)
    p.add_argument("which", choices=("fock", "eigdist", "ksum", "all"))
    p.add_argument("--quick", action="store_true",
                   help="reduced grid for smoke testing")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="experimental decay-time comparison")
    common(p)
    p.add_argument("data", help="CSV with header nu_hat_khz,tau_exp_us")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Workload inputs and their output checks.

Each workload is a fixed list of CLI invocations that one pass runs,
every invocation in its own interpreter.  Inputs come from the seed
alone (``random.Random(seed)``), so a seed always gives the same files
and arguments.  The oracle workloads run the documented verification
grids, which do not depend on the seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

import reference

#: oracle grid (omega = 1 units), as documented by pairdeco
GRID_BETAS = (0.1, 1.0, 5.0)
GRID_TIMES = (0.5, math.pi, 10.0)
QUICK_LAMBDAS = (0.3, -0.2j, 0.5)
QUICK_BETAS = (1.0, 5.0)
QUICK_TIMES = (0.5, math.pi)
#: lambdas of the documented grid that grid-verify keeps: the pair whose
#: points need the largest double-double cutoff (n = 544 at |S| ~ 2e-12)
GRID_VERIFY_LAMBDAS = (-0.3, 0.5)
ORACLE_TOL = 1e-8

EVOLVE_ROWS = 10001
SWEEP_STEPS = 224
COMPARE_ROWS = 1000


#: per-command rate metric -> (invocation labels, rows or cells they write)
RATES = {
    "cli.evolve.rows_per_s": (("free", "me"), 2 * EVOLVE_ROWS),
    "cli.evolve_exact.rows_per_s": (("free-exact", "me-exact"),
                                    2 * EVOLVE_ROWS),
    "cli.sweep.cells_per_s": (("sweep",), SWEEP_STEPS**2),
}


@dataclass
class Invocation:
    label: str
    args: list
    oracle_lambdas: tuple = None


@dataclass
class Plan:
    """Invocations of one pass and the check of their outputs."""

    invocations: list
    check: object            # {label: text} -> {label: [problems]}
    files: dict = field(default_factory=dict)   # name -> text to write
    count_checks: object = lambda texts: 0      # {label: text} -> checks


def seeded_config(rng):
    """Sample geometry on which the default path is valid (G'(3) ~ 1)."""
    while True:
        cfg = {
            "d": rng.uniform(0.14e-9, 0.17e-9),
            "a": rng.uniform(0.7e-9, 0.9e-9),
            "v_s": rng.uniform(3000.0, 6000.0),
            "T": rng.uniform(250.0, 320.0),
            "N": 10.0 ** rng.uniform(21.0, 25.0),
            "theta": rng.uniform(0.0, 0.6),
            "omega0": reference.GAMMA_P * rng.uniform(0.5, 2.0),
        }
        if reference.gprime(cfg, 3.0) >= 1.0 - 1e-7:
            return cfg


def config_text(cfg):
    keys = (("d_m", "d"), ("a_m", "a"), ("v_s_mps", "v_s"), ("T_K", "T"),
            ("N", "N"), ("theta_rad", "theta"),
            ("omega0_larmor_radps", "omega0"))
    return "".join(f"{key} = {cfg[name]!r}\n" for key, name in keys)


def _grid(start, stop, steps):
    return f"{start!r}:{stop!r}:{steps}", np.linspace(start, stop, steps)


def _oracle_plan(lambdas, betas, times, quick):
    args = ["oracle", "all"] + (["--quick"] if quick else [])
    cut = None if quick else tuple((complex(x).real, complex(x).imag)
                                   for x in lambdas)

    def check(texts):
        return {"oracle": reference.check_oracle(
            json.loads(texts["oracle"]), lambdas, betas, times, ORACLE_TOL)}

    def count_checks(texts):
        return sum(r["total"] for r in json.loads(texts["oracle"])["reports"])

    return Plan([Invocation("oracle", args, cut)], check,
                count_checks=count_checks)


def _curves_plan(rng):
    """evolve four ways, then sweep, constants and compare, on one config."""
    cfg = seeded_config(rng)
    t_max = rng.uniform(2.0, 4.0) * reference.rates(cfg)["tau_X_s"]
    grids = {"free": _grid(0.0, t_max, EVOLVE_ROWS),
             "me": _grid(0.0, 2.0 * t_max, EVOLVE_ROWS)}
    n_lo = 10.0 ** rng.uniform(20.0, 22.0)
    n_spec, n_grid = _grid(n_lo, n_lo * 10.0 ** rng.uniform(2.0, 4.0),
                           SWEEP_STEPS)
    vs_lo = rng.uniform(2000.0, 3000.0)
    vs_spec, vs_grid = _grid(vs_lo, rng.uniform(5000.0, 8000.0), SWEEP_STEPS)
    records = [(rng.uniform(5.0, 60.0), rng.uniform(10.0, 500.0))
               for _ in range(COMPARE_ROWS)]
    measurements = "nu_hat_khz,tau_exp_us\n" + "".join(
        f"{nu!r},{tau!r}\n" for nu, tau in records)
    config = ["--config", "config.txt"]
    invocations = [
        Invocation(f"{mode}{suffix}",
                   ["evolve"] + config + extra
                   + ["--mode", mode, "--grid", grids[mode][0]])
        for suffix, extra in (("", []), ("-exact", ["--exact-path"]))
        for mode in ("free", "me")]
    invocations += [
        Invocation("sweep", ["sweep"] + config
                   + ["--n-grid", n_spec, "--vs-grid", vs_spec]),
        Invocation("constants", ["constants"] + config),
        Invocation("compare", ["compare"] + config + ["measurements.csv"]),
    ]

    def check(texts):
        out = {}
        for suffix, exact in (("", False), ("-exact", True)):
            for mode in ("free", "me"):
                out[mode + suffix] = reference.check_evolve(
                    texts[mode + suffix], cfg, grids[mode][1], mode, exact)
        out["me"] += reference.check_echo_halving(texts["free"], texts["me"])
        out["sweep"] = reference.check_sweep(texts["sweep"], cfg, n_grid,
                                             vs_grid)
        out["constants"] = reference.check_constants(texts["constants"], cfg)
        out["compare"] = reference.check_compare(texts["compare"], cfg,
                                                 records)
        return out

    return Plan(invocations, check, {"config.txt": config_text(cfg),
                                     "measurements.csv": measurements})


#: workload name -> why it is in the benchmark
WHY = {
    "grid-verify": "oracle all at tol 1e-8 on the documented grid cut to "
                   "lambda in {-0.3, 0.5}: xprec double-double traces up "
                   "to n = 544 do ~95% of the work",
    "smoke-verify": "oracle all --quick: float64 Fock traces, structure "
                    "checks, eigdist and ksum; bypasses xprec",
    "curves": "evolve free and me, 10001 rows each, on the default and "
              "the exact path, plus a 224 x 224 sweep, constants and "
              "compare: cli, phonon and magicecho do all the work",
}


def make(name, seed):
    rng = random.Random(f"{name}:{seed}")
    if name == "grid-verify":
        return _oracle_plan(GRID_VERIFY_LAMBDAS, GRID_BETAS, GRID_TIMES,
                            quick=False)
    if name == "smoke-verify":
        return _oracle_plan(QUICK_LAMBDAS, QUICK_BETAS, QUICK_TIMES,
                            quick=True)
    if name == "curves":
        return _curves_plan(rng)
    raise ValueError(f"unknown workload {name!r}")

"""Record one BENCH_<pr>.json: the benchmark against the parent commit,
the source size and Tier-1.

Usage: python3 scripts/bench_record.py PR [CHECKOUT]

Clones the parent commit (HEAD~1) of CHECKOUT (default: this
repository) into a temporary directory, removed afterwards.  Then runs
``perfbench/run.py`` RUNS times per workload that ``BENCHMARK.json``
declares (seed 1, the declared run length, untraced), each time on
CHECKOUT and on the parent in turn, alternating which goes first; then
the full-grid ``oracle fock`` RUNS times on one BLAS thread, paired the
same way; then the Tier-1 test suite inside CHECKOUT.  Writes
``BENCH_<PR>.json`` at the root of this repository with, per workload,
the first run's machine line, the median result line (see
``median_result``) and every run's result line as ``runs``; the line
count of ``src/`` as ``src_lines`` and its count of code lines as
``src_code_lines``; the full-grid oracle's median wall time as
``fock_full_s`` and every run's as ``fock_full_runs_s``; and the Tier-1
wall time and summary line.  The same figures of the parent, its
``commit``, ``workloads``, ``fock_full_s`` and ``fock_full_runs_s``,
go under ``parent``, so each file holds its own paired comparison.
"""

from __future__ import annotations

import ast
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 1
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
#: runs per workload and of the full-grid oracle: one run drifts by more
#: than the benchmark's bounds, so each figure is the median of these
RUNS = 3


def run_workload(checkout, command, name, seconds):
    """The machine line and result line of one untraced perfbench run."""
    args = command[1:] + ["--workload", name, "--seed", str(SEED),
                          "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run([sys.executable] + args, cwd=checkout,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench_record: {name} exited {proc.returncode}: "
                 f"{proc.stderr.strip()[-500:]}")
    return {"machine": json.loads(lines[-2])["machine"],
            "result": json.loads(lines[-1])}


def median_result(results):
    """One result line from the result lines of several runs of a workload.

    Each metric's value is the median of its runs; ``correct`` holds only
    if every run was correct, and ``attempted`` and ``failed`` are sums.
    """
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {name: {"unit": metric["unit"],
                               "value": statistics.median(
                                   r["metrics"][name]["value"]
                                   for r in results)}
                        for name, metric in results[0]["metrics"].items()}}


def src_lines(checkout):
    return sum(len(path.read_text().splitlines())
               for path in sorted((checkout / "src").rglob("*.py")))


def code_lines(source):
    """Lines of SOURCE that hold code: not blank, not only a comment and
    not part of a module, class or function docstring.

    ``tokenize`` gives the lines each token spans, so a line with code
    and a trailing comment counts and a multi-line string counts every
    line; ``ast`` names the docstrings, whose lines are then dropped.
    """
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skip:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def src_code_lines(checkout):
    return sum(code_lines(path.read_text())
               for path in sorted((checkout / "src").rglob("*.py")))


def checkout_env(checkout):
    """The environment with CHECKOUT's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
    return env


def fock_full(checkout):
    """Wall seconds of ``oracle fock`` on the full grid, one BLAS thread.

    The benchmark's grid-verify holds only part of the grid's float64
    points and double-double groups; this times all of them.
    """
    env = checkout_env(checkout)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "pairdeco.cli", "oracle",
                           "fock"], cwd=checkout, env=env,
                          capture_output=True, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"bench_record: oracle fock exited {proc.returncode}: "
                 f"{proc.stderr.strip()[-500:]}")
    return round(wall, 2)


def tier1(checkout):
    """Wall time, exit code and summary line of the Tier-1 test run."""
    env = checkout_env(checkout)
    start = time.monotonic()
    proc = subprocess.run([sys.executable] + TIER1, cwd=checkout, env=env,
                          capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 1), "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def git(checkout, *args):
    """The stripped output of one git command run in CHECKOUT."""
    proc = subprocess.run(["git", *args], cwd=checkout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_record: git {' '.join(args)}: "
                 f"{proc.stderr.strip()}")
    return proc.stdout.strip()


def measure(checkout, parent, spec):
    """Workload runs and full-grid oracle times of both commits, paired.

    Run i of each workload, and of the oracle, runs CHECKOUT first when
    i is even and PARENT first when it is odd.
    """
    got = {side: {"runs": {workload["name"]: []
                           for workload in spec["workloads"]},
                  "fock": []} for side in (checkout, parent)}
    pairs = [(checkout, parent) if i % 2 == 0 else (parent, checkout)
             for i in range(RUNS)]
    for i, pair in enumerate(pairs):
        for workload in spec["workloads"]:
            name = workload["name"]
            for side in pair:
                print(f"bench_record: {name}, run {i + 1}/{RUNS}, {side}",
                      file=sys.stderr)
                got[side]["runs"][name].append(run_workload(
                    side, spec["command"], name, spec["run_seconds"]))
    for pair in pairs:
        for side in pair:
            print(f"bench_record: full-grid oracle fock, {side}",
                  file=sys.stderr)
            got[side]["fock"].append(fock_full(side))
    return got


def summary(got):
    """The BENCH keys of one commit's runs, as ``measure`` gives them."""
    workloads = {}
    for name, runs in got["runs"].items():
        results = [run["result"] for run in runs]
        workloads[name] = {"machine": runs[0]["machine"],
                           "result": median_result(results),
                           "runs": results}
    return {"workloads": workloads, "fock_full_runs_s": got["fock"],
            "fock_full_s": statistics.median(got["fock"])}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2) or not argv[0].isdigit():
        sys.exit(__doc__.splitlines()[3])
    pr = int(argv[0])
    checkout = pathlib.Path(argv[1] if len(argv) > 1 else ROOT).resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    commit = git(checkout, "rev-parse", "HEAD")
    parent_commit = git(checkout, "rev-parse", "HEAD~1")
    with tempfile.TemporaryDirectory() as tmp:
        parent = pathlib.Path(tmp) / "parent"
        git(tmp, "clone", "--quiet", "--no-checkout", str(checkout),
            str(parent))
        git(parent, "checkout", "--quiet", parent_commit)
        got = measure(checkout, parent, spec)
    record = {"pr": pr, "commit": commit, "seed": SEED,
              "seconds": spec["run_seconds"], **summary(got[checkout]),
              "parent": {"commit": parent_commit, **summary(got[parent])},
              "src_lines": src_lines(checkout),
              "src_code_lines": src_code_lines(checkout)}
    print("bench_record: tier-1 tests", file=sys.stderr)
    record["tier1"] = tier1(checkout)
    out = ROOT / f"BENCH_{pr}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"bench_record: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

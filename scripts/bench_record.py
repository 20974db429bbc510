"""Record one BENCH_<pr>.json: the benchmark, the source size and Tier-1.

Usage: python3 scripts/bench_record.py PR [CHECKOUT]

Runs ``perfbench/run.py`` once per workload that ``BENCHMARK.json``
declares (seed 1, the declared run length, untraced), then the
full-grid ``oracle fock`` on one BLAS thread, then the Tier-1 test
suite, all inside CHECKOUT (default: this repository).  Writes
``BENCH_<PR>.json`` at the root of this repository with, per workload,
the run's machine line and result line, plus the line count of
``src/`` as ``src_lines`` and its count of code lines as
``src_code_lines``, the full-grid oracle's wall time as
``fock_full_s`` and the Tier-1 wall time and summary line.  A checkout
of an older commit is measured with the same script, so two files
differ only in the code they measured.
"""

from __future__ import annotations

import ast
import io
import json
import os
import pathlib
import subprocess
import sys
import time
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 1
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


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


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2) or not argv[0].isdigit():
        sys.exit(__doc__.splitlines()[2])
    pr = int(argv[0])
    checkout = pathlib.Path(argv[1] if len(argv) > 1 else ROOT).resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                            capture_output=True, text=True).stdout.strip()
    record = {"pr": pr, "commit": commit, "seed": SEED,
              "seconds": spec["run_seconds"], "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        print(f"bench_record: {name}", file=sys.stderr)
        record["workloads"][name] = run_workload(
            checkout, spec["command"], name, spec["run_seconds"])
    record["src_lines"] = src_lines(checkout)
    record["src_code_lines"] = src_code_lines(checkout)
    print("bench_record: full-grid oracle fock", file=sys.stderr)
    record["fock_full_s"] = fock_full(checkout)
    print("bench_record: tier-1 tests", file=sys.stderr)
    record["tier1"] = tier1(checkout)
    out = ROOT / f"BENCH_{pr}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"bench_record: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

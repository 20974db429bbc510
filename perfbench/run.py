"""Benchmark of the pairdeco command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; pairdeco is imported from its ``src/``.
A run first launches the interpreter several times only to import
pairdeco and load the config (set-up), then repeats whole passes of the
workload's CLI invocations, each in a fresh interpreter, as many as end
nearest to S seconds.  Every output is checked against ``reference``
right after its pass.  With ``--trace 1`` the run spends half its time
on untraced passes and then runs as many traced passes; it reports the
per-layer span figures and the tracing overhead.  The last line of
standard output is the JSON result; the line before it records the
machine.  Run records go to ``.perfbench-out/`` in the checkout.
"""

import os

#: BLAS threads, fixed for every interpreter the benchmark starts
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import SPANS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 5
INVOCATION_TIMEOUT_S = 150
E2E_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class LayoutError(Exception):
    """pairdeco cannot be imported from this checkout's src/."""


def launch(workdir, report, args, opts=()):
    """Run launch.py once; returns its report plus wall and set-up time."""
    cmd = [sys.executable, "-I", os.path.join(HERE, "launch.py"), report,
           *opts, "--", *args]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        err = f"timed out after {INVOCATION_TIMEOUT_S} s\n{err}"
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.monotonic() - start
    path = os.path.join(workdir, report)
    result = {"rc": proc.returncode, "wall": wall, "stderr": err[-2000:]}
    if os.path.exists(path):
        with open(path) as handle:
            data = json.load(handle)
        os.remove(path)
        result.update(setup=data["ready"] - start, module=data["module"],
                      maxrss_mib=data["maxrss_kib"] / 1024.0,
                      trace=data.get("trace"),
                      blas_threads=data.get("blas_threads"),
                      numpy=data.get("numpy"))
    if result["rc"] == 0 and "module" in result and not result[
            "module"].startswith(os.path.join(ROOT, "src") + os.sep):
        raise LayoutError(f"pairdeco imported from {result['module']}")
    return result


def run_pass(plan, workdir, trace):
    """One pass: every invocation once, then the check of all outputs."""
    results, texts = {}, {}
    for inv in plan.invocations:
        out = f"{inv.label}.out"
        if os.path.exists(os.path.join(workdir, out)):
            os.remove(os.path.join(workdir, out))
        opts = ["--trace"] if trace else []
        if inv.oracle_lambdas is not None:
            opts += ["--oracle-lambdas", json.dumps(inv.oracle_lambdas)]
        results[inv.label] = launch(workdir, "launch.json",
                                    inv.args + ["--out", out], opts)
        if results[inv.label]["rc"] == 0:
            with open(os.path.join(workdir, out)) as handle:
                texts[inv.label] = handle.read()
            os.remove(os.path.join(workdir, out))
    checks = 0
    if len(texts) == len(plan.invocations):
        try:
            problems = plan.check(texts)
            checks = plan.count_checks(texts)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = {label: [f"malformed output: {exc!r}"]
                        for label in texts}
    else:
        problems = {label: ([] if label in texts else
                            [f"exit {results[label]['rc']}: "
                             + results[label]["stderr"].strip()[-300:]])
                    for label in results}
        problems.update({label: ["not checked: another invocation failed"]
                         for label in texts})
    for label, res in results.items():
        res["problems"] = problems.get(label, [])
    return {"wall": sum(r["wall"] for r in results.values()),
            "checks": checks, "invocations": results}


def run_passes(plan, workdir, trace, seconds=None, count=None):
    """Whole passes: ``count`` of them, or as many as end nearest ``seconds``.

    Another pass starts only if the run, at the mean pass time so far, is
    expected to end closer to ``seconds`` with it than without it.
    """
    passes, start = [], time.monotonic()
    while True:
        passes.append(run_pass(plan, workdir, trace))
        elapsed = time.monotonic() - start
        if count is not None:
            if len(passes) >= count:
                return passes
        elif elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes


def machine_info(setup):
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": setup.get("numpy"),
            "blas": "unknown",
            "blas_threads": setup.get("blas_threads"),
            "blas_threads_env": BLAS_THREADS}
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["blas"] = " ".join(str(blas.get(k, "")) for k in (
            "name", "version", "openblas configuration")).strip()
    except (AttributeError, KeyError):
        pass
    return info


def end_to_end(passes, setups):
    """pass_s: the mean wall time of the run's passes.

    A mean over the whole run, not a minimum or a median of a few
    invocations: on a shared machine an invocation's speed varies by
    ~14% from one launch to the next, and only the total over the run's
    ~30 s of work averages that out.  It is the inverse of the run's
    throughput at a fixed pass size.
    """
    invocations = [r for p in passes for r in p["invocations"].values()]
    return {
        "pass_s": sum(r["wall"] for r in invocations) / len(passes),
        "setup_s": statistics.median([r["setup"] for r in setups + invocations
                                      if "setup" in r]),
        "peak_rss_mib": max((r.get("maxrss_mib", 0.0) for r in invocations),
                            default=0.0),
    }


def command_rates(passes):
    """Rows or cells per second of wall time for each command in RATES.

    From untraced passes; the wall time includes interpreter start, as a
    user's command does.  A command the workload does not run reads 0.
    """
    rates = {}
    for name, (labels, count) in workloads.RATES.items():
        walls = [sum(p["invocations"][label]["wall"] for label in labels)
                 for p in passes if all(lb in p["invocations"]
                                        for lb in labels)]
        unit = name.rsplit(".", 1)[1].replace("_per_", "/")
        rates[name] = (count * len(walls) / sum(walls) if walls else 0.0,
                       unit)
    return rates


def per_layer(passes, untraced, traced, checks):
    """Mean per-pass span figures of the traced passes, plus overheads."""
    n = len(passes)
    spans, gflop = {}, 0.0
    builds = distinct = offdiag = traces = converged = 0
    for p in passes:
        for res in p["invocations"].values():
            tr = res.get("trace") or {}
            for name, st in tr.get("spans", {}).items():
                acc = spans.setdefault(name, {"calls": 0, "s": 0.0,
                                              "self_s": 0.0})
                for key in acc:
                    acc[key] += st[key]
            gflop += tr.get("dd_matmul_gflop", 0.0)
            builds += tr.get("eigensystems", 0)
            distinct += tr.get("distinct_tridiagonals", 0)
            offdiag += tr.get("distinct_offdiagonals", 0)
            traces += tr.get("traces_converging", 0)
            converged += tr.get("converged_points", 0)
    metrics = {}
    for name, fields in SPANS.items():
        st = spans.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key in fields:
            unit = "count" if key == "calls" else "s"
            metrics[f"{name}.{key}"] = (st[key] / n, unit)
    mm_s = spans.get("xprec.dd_matmul", {}).get("s", 0.0)
    metrics["xprec.dd_matmul.gflop"] = (gflop / n, "GFLOP")
    metrics["xprec.dd_matmul.gflop_per_s"] = (
        gflop / mm_s if mm_s else 0.0, "GFLOP/s")
    metrics["xprec.eigensystems_per_distinct"] = (
        builds / distinct if distinct else 0.0, "ratio")
    metrics["xprec.eigensystems_per_offdiagonal"] = (
        builds / offdiag if offdiag else 0.0, "ratio")
    metrics["fock.traces_per_point"] = (
        traces / converged if converged else 0.0, "ratio")
    metrics["oracles.checks"] = (checks, "count")
    self_sum = sum(st["self_s"] for st in spans.values()) / n
    metrics["trace.pass_s"] = (traced["pass_s"], "s")
    metrics["trace.unspanned_s"] = (traced["pass_s"] - self_sum, "s")
    for key, unit in E2E_UNITS.items():
        metrics[f"overhead.{key}"] = (traced[key] - untraced[key], unit)
    return metrics


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pairdeco", "cli.py")):
        print(f"perfbench: no pairdeco sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    plan = workloads.make(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name, text in plan.files.items():
            with open(os.path.join(workdir, name), "w") as handle:
                handle.write(text)
        try:
            setups = [launch(workdir, "setup.json", [], ["--setup-only"])
                      for _ in range(SETUP_SAMPLES)]
            if any(s["rc"] != 0 for s in setups):
                raise LayoutError("set-up launch failed: "
                                  + setups[0]["stderr"].strip()[-500:])
            if args.trace:
                untraced = run_passes(plan, workdir, False,
                                      seconds=args.seconds / 2.0)
                traced = run_passes(plan, workdir, True, count=len(untraced))
            else:
                untraced = run_passes(plan, workdir, False,
                                      seconds=args.seconds)
                traced = []
        except LayoutError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_passes = untraced + traced
    invocations = [r for p in all_passes for r in p["invocations"].values()]
    failed = sum(1 for r in invocations if r["rc"] != 0 or r["problems"])
    correct = not any(r["problems"] for r in invocations)
    e2e = end_to_end(untraced, setups)
    if args.trace:
        layer = per_layer(traced, e2e, end_to_end(traced, setups),
                          untraced[0]["checks"])
        layer.update(command_rates(untraced))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in e2e.items()}
    result = {"correct": correct, "attempted": len(invocations),
              "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_info(setups[0]), "result": result,
              "passes": all_passes}
    with open(os.path.join(OUT, f"{tag}.json"), "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    print(json.dumps({"machine": record["machine"]}))
    problems = sorted({p for r in invocations for p in r["problems"]})
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    missing = sorted({name for r in invocations
                      for name in (r.get("trace") or {}).get("missing", [])})
    if missing:
        print("perfbench: traced functions not found: " + ", ".join(missing),
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

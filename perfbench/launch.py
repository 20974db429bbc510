"""One pairdeco CLI invocation in a fresh interpreter, with a JSON report.

    python3 -I perfbench/launch.py REPORT [--setup-only] [--trace]
        [--oracle-lambdas JSON] -- PAIRDECO_ARGS...

Imports pairdeco from ``src/`` of the checkout this file sits in, loads
the invocation's config (the reference sample when no ``--config`` is
given), and stamps the moment both are done on the system-wide monotonic
clock, so the parent can time set-up from the moment it spawned this
process.  It then runs ``pairdeco.cli.main`` on the arguments and writes
REPORT: the set-up stamp, the exit code, the peak resident set and, with
``--trace``, the span statistics.  ``--oracle-lambdas`` narrows the
oracle grid's lambda list for the invocation.
"""

import ctypes
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def peak_rss_kib():
    """High-water resident set of this process image, KiB.

    VmHWM belongs to the memory map made at exec, so unlike ru_maxrss it
    does not include the parent's resident set at fork time.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    split = argv.index("--")
    opts, args = argv[:split], argv[split + 1:]
    report_path = opts[0]
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

    import pairdeco.cli
    from pairdeco import core
    if "--config" in args:
        with open(args[args.index("--config") + 1]) as handle:
            core.parse_config(handle.read())
    else:
        core.gypsum_config()
    report = {"ready": time.monotonic(), "module": pairdeco.cli.__file__}

    if "--setup-only" in opts:
        import numpy
        report.update(rc=0, blas_threads=blas_threads(),
                      numpy=numpy.__version__)
    else:
        tracer = None
        if "--trace" in opts:
            from tracer import Tracer
            tracer = Tracer().install()
        if "--oracle-lambdas" in opts:
            from pairdeco import oracles
            pairs = json.loads(opts[opts.index("--oracle-lambdas") + 1])
            oracles.GRID_LAMBDAS = tuple(complex(re, im) if im else re
                                         for re, im in pairs)
        report["rc"] = pairdeco.cli.main(args)
        if tracer is not None:
            report["trace"] = tracer.summary()
    report["maxrss_kib"] = peak_rss_kib()
    with open(report_path, "w") as handle:
        json.dump(report, handle)
    return report["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

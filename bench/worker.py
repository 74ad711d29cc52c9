"""The measured process of one benchmark run.

Started by ``run.py`` once the inputs exist.  It imports satx from the
checkout's ``src``, parses the workload's configs (set-up), then runs
passes of the workload's commands for as long as the next pass is expected
to end within ``--seconds`` (at least one pass), and writes a JSON result
file: set-up seconds, every operation, peak RSS, the environment and, when
traced, every span.

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process; on Linux that clock is system-wide, so set-up time counts
interpreter start-up, as a CLI user pays it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from dataclasses import asdict
from time import perf_counter


def blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import platform

    import numpy
    import scipy

    build = numpy.__config__.CONFIG.get("Build Dependencies", {})
    blas = build.get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with open(args.manifest) as handle:
        manifest = json.load(handle)
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import satx.cli  # noqa: F401  (the entry point users run)

    if not os.path.abspath(satx.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"satx imported from {satx.cli.__file__}, not {src}")
    import workloads

    workload = workloads.WORKLOADS[manifest["workload"]](manifest,
                                                         args.workdir)
    workload.setup()
    setup_s = perf_counter() - args.t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        recorder = None
        if args.trace:
            import spans

            recorder = spans.Recorder()
            recorder.install()
        passes = []
        loops = []
        start = perf_counter()
        # stop before a pass that would end past the budget; at least one
        while not passes or (perf_counter() - start
                             + statistics.median(loops) <= args.seconds):
            begin = perf_counter()
            passes.append([asdict(op) for op in workload.run_pass(recorder)])
            loops.append(perf_counter() - begin)
        result.update(
            passes=passes,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            env=environment(),
            input_sizes=workload.input_sizes(),
            spans=recorder.spans if recorder else None,
        )
        if recorder:
            recorder.uninstall()
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

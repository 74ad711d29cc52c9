"""Print the time of one cost-kernel call, in µs, and of one problem
build, in ms, for each benchmark job.

    python3 tools/kernel_timing.py [ROUNDS]

Builds, from this checkout's ``src``, the problems of the presets
example1-4 and of the benchmark's ``dense_cloud`` job (its YAML comes
from ``bench/synth.py``), each 5 times in a row; a build
(``runner.build_problem``) includes the cloud's mirror search.  Then it
times ``TranscodingProblem.cost_and_gradient`` at each job's seed-0
start matrix in ROUNDS rounds (41 by default).  Each round calls every
job's kernel 20 times in turn, so a slow stretch of the host falls on
all jobs alike.  It prints one ``job  shape  directions x speakers  µs
build ms`` line per job: the median over the rounds of the mean call,
and the median of the builds.  Run it in two checkouts for a
before/after; pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) in
both.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import synth  # noqa: E402
from satx import optimizer, presets, runner  # noqa: E402
from satx.config import parse_config  # noqa: E402

CALLS = 20
BUILDS = 5


def jobs():
    """(name, job) of example1-4 and dense_cloud."""
    for name in ("example1", "example2", "example3", "example4"):
        yield name, presets.load_preset(name)
    yield "dense_cloud", parse_config(synth.dense_cloud_job(0, "full"))


def kernel_call(job):
    """The problem's ``cost_and_gradient`` bound to the seed-0 start, and
    the median seconds of BUILDS builds of the problem."""
    builds = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(BUILDS):
            start = time.perf_counter()
            problem = runner.build_problem(job)
            builds.append(time.perf_counter() - start)
        config = runner.optimization_config(job, seed=0)
    t0 = optimizer.initialize(config, problem.shape)
    problem.cost_and_gradient(t0)  # warm up
    return (problem, lambda: problem.cost_and_gradient(t0),
            statistics.median(builds))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    rounds = int(argv[0]) if argv else 41
    calls = {name: kernel_call(job) for name, job in jobs()}
    times = {name: [] for name in calls}
    for _ in range(rounds):
        for name, (_, call, _) in calls.items():
            start = time.perf_counter()
            for _ in range(CALLS):
                call()
            times[name].append((time.perf_counter() - start) / CALLS)
    for name, (problem, _, build) in calls.items():
        rows, cols = problem.shape
        print(f"{name:12s} {rows}x{cols:<3d} "
              f"{len(problem.encoding.cloud):5d} x "
              f"{len(problem.decoder.layout):<3d}"
              f"{1e6 * statistics.median(times[name]):8.1f} µs"
              f"{1e3 * build:8.2f} ms")


if __name__ == "__main__":
    main()

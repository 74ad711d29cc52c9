"""Time the benchmark's set-up in two checkouts, probe by probe, alternated.

    python3 tools/setup_ab.py CHECKOUT_A CHECKOUT_B [ROUNDS]

The benchmark's ``setup_s`` is the median of three probes run back to
back inside one run, so a pair of runs compares two moments of the
host.  This tool interleaves the probes instead.  It writes each
workload's seed-0 inputs once, with this checkout's ``bench/synth.py``
(full size, as the benchmark does), and compiles both checkouts' ``src``
and ``bench`` to bytecode, so that no probe compiles satx whatever
``PYTHONDONTWRITEBYTECODE`` says.  A probe is one run of the checkout's
own ``bench/worker.py --setup-only``, started in the checkout with BLAS
on one thread, exactly as ``bench/run.py`` starts it: its ``setup_s``
covers interpreter start, ``import satx.cli`` and parsing the workload's
configs.  After one untimed probe per checkout and workload (page
cache), each of ROUNDS rounds (40 by default, at least 40) probes every
workload once in each checkout, A first in even rounds and B first in
odd ones, so a slow stretch of the host falls on both.

It prints, per workload and checkout, the median, first and third
quartile of ``setup_s`` in seconds and each round's, and per workload
the number of rounds in which B read lower than A.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import synth  # noqa: E402

WORKLOADS = ("presets", "dense_cloud", "apply")
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
MIN_ROUNDS = 40


def probe(checkout, manifest, workdir):
    """``setup_s`` of one ``worker.py --setup-only`` run in ``checkout``."""
    result = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(checkout, "bench", "worker.py"),
           "--manifest", manifest, "--workdir", workdir, "--result", result,
           "--seconds", "0", "--trace", "0", "--setup-only",
           "--t0", repr(time.perf_counter())]
    run = subprocess.run(cmd, cwd=checkout, env=dict(os.environ, **BLAS_ENV),
                         capture_output=True, text=True)
    if run.returncode:
        raise SystemExit(f"{checkout}: worker exited {run.returncode}:\n"
                         f"{run.stdout[-2000:]}{run.stderr[-2000:]}")
    with open(result) as handle:
        return json.load(handle)["setup_s"]


def main(argv) -> None:
    if len(argv) not in (3, 4):
        raise SystemExit(__doc__)
    checkouts = [os.path.abspath(path) for path in argv[1:3]]
    rounds = int(argv[3]) if len(argv) == 4 else MIN_ROUNDS
    if rounds < MIN_ROUNDS:
        raise SystemExit(f"ROUNDS must be at least {MIN_ROUNDS}")
    for checkout in checkouts:
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        os.path.join(checkout, "src"),
                        os.path.join(checkout, "bench")], check=True)
    samples = {}  # (workload, side) -> [setup seconds, ...]
    with tempfile.TemporaryDirectory() as work:
        manifests, workdirs = {}, {}
        for name in WORKLOADS:
            inputs = os.path.join(work, name)
            manifests[name] = os.path.join(inputs, "manifest.json")
            manifest = synth.synthesize(name, 0, "full", inputs)
            with open(manifests[name], "w") as handle:
                json.dump(manifest, handle)
            for side in (0, 1):
                workdirs[name, side] = os.path.join(inputs, "AB"[side])
                os.mkdir(workdirs[name, side])
                probe(checkouts[side], manifests[name], workdirs[name, side])
        for round_ in range(rounds):
            for name in WORKLOADS:
                for side in (0, 1) if round_ % 2 == 0 else (1, 0):
                    samples.setdefault((name, side), []).append(probe(
                        checkouts[side], manifests[name], workdirs[name, side]))
    print(f"A = {checkouts[0]}")
    print(f"B = {checkouts[1]}")
    print(f"{rounds} rounds of setup_s, seconds: median (q1-q3); each "
          "round in order; rounds where B read lower")
    for name in WORKLOADS:
        for side in (0, 1):
            runs = samples[name, side]
            q1, _, q3 = statistics.quantiles(runs, n=4)
            print(f"{name:12s} {'AB'[side]} {statistics.median(runs):.4f} "
                  f"({q1:.4f}-{q3:.4f}); "
                  + " ".join(f"{seconds:.4f}" for seconds in runs))
        lower = sum(b < a for a, b in zip(samples[name, 0], samples[name, 1]))
        print(f"{name:12s} B lower in {lower} of {rounds}")


if __name__ == "__main__":
    main(sys.argv)

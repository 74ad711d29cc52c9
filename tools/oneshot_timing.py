"""Time fresh-process satx commands in two checkouts, alternated.

    python3 tools/oneshot_timing.py CHECKOUT_A CHECKOUT_B [ROUNDS]

Writes the benchmark's seed-0 ``apply`` inputs with this checkout's
``bench/synth.py``: the 11x36 matrix and the 20 s, 36-channel, 48 kHz
16-bit and 24-bit WAVs.  Then it runs these commands, each in a fresh
child process (``python3 -m satx.cli``) with satx imported from the
checkout's ``src`` and BLAS on one thread, as in the benchmark:

- ``apply`` of the matrix to each WAV;
- ``generate --preset exampleN --seed 0`` for example1-4.

An untimed first round writes each checkout's bytecode (as installing
a package does; ``PYTHONDONTWRITEBYTECODE`` is dropped for the children)
and reads the inputs into the page cache.  Then each of ROUNDS rounds
(5 by default, at least 5) runs every command once in each checkout, A
first in even rounds and B first in odd ones, so a slow stretch of the
host falls on both.  It prints one line per command
and checkout: the median wall seconds, the median, lowest and highest
peak RSS of the children in MiB (``ru_maxrss`` from ``os.wait4``), and
the wall seconds of each round in order.  That
peak covers the whole process, imports included, which the benchmark's
warm worker cannot show.  A child's ``ru_maxrss`` starts from its
parent's peak, so the inputs are written by a child of their own and
this process imports no numpy.  Linux only (``ru_maxrss`` in KiB).
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
SYNTHESIZE = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
              "import synth; print(json.dumps(synth.synthesize("
              "'apply', 0, 'full', sys.argv[2])))")
PRESETS = ("example1", "example2", "example3", "example4")
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
MIN_ROUNDS = 5


def commands(manifest, out_dir):
    """(name, satx arguments) of every timed command, writing into
    ``out_dir``."""
    for bits, wav in sorted(manifest["wavs"].items()):
        yield f"apply_pcm{bits}", [
            "apply", "--matrix", manifest["matrix"], "--in", wav,
            "--outfile", os.path.join(out_dir, f"out_pcm{bits}.wav")]
    for name in PRESETS:
        yield name, ["generate", "--preset", name, "--seed", "0",
                     "--out", os.path.join(out_dir, name)]


def run_child(checkout, args):
    """(wall seconds, peak RSS in MiB) of ``satx args`` in a new process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               **BLAS_ENV)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, "-m", "satx.cli", *args]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise SystemExit(f"{checkout}: satx {' '.join(args)} exited {code}")
    return seconds, usage.ru_maxrss / 1024


def main(argv) -> None:
    if len(argv) not in (3, 4):
        raise SystemExit(__doc__)
    checkouts = [os.path.abspath(path) for path in argv[1:3]]
    rounds = int(argv[3]) if len(argv) == 4 else MIN_ROUNDS
    if rounds < MIN_ROUNDS:
        raise SystemExit(f"ROUNDS must be at least {MIN_ROUNDS}")
    runs = {}  # (command, side) -> [(seconds, MiB), ...]
    with tempfile.TemporaryDirectory() as work:
        manifest = json.loads(subprocess.run(
            [sys.executable, "-c", SYNTHESIZE, os.path.join(ROOT, "bench"),
             os.path.join(work, "inputs")],
            capture_output=True, text=True, check=True).stdout)
        out_dirs = [os.path.join(work, side) for side in "AB"]
        for checkout, out_dir in zip(checkouts, out_dirs):
            os.mkdir(out_dir)
            for _, args in commands(manifest, out_dir):
                run_child(checkout, args)
        for round_ in range(rounds):
            for side in (0, 1) if round_ % 2 == 0 else (1, 0):
                for name, args in commands(manifest, out_dirs[side]):
                    runs.setdefault((name, side), []).append(
                        run_child(checkouts[side], args))
    print(f"A = {checkouts[0]}")
    print(f"B = {checkouts[1]}")
    print(f"{rounds} rounds, median wall s; peak RSS MiB median (min-max); "
          "wall s per round")
    for name in dict.fromkeys(name for name, _ in runs):
        for side in (0, 1):
            samples = runs[name, side]
            seconds = statistics.median(s for s, _ in samples)
            peaks = [mib for _, mib in samples]
            print(f"{name:12s} {'AB'[side]} {seconds:7.3f} s "
                  f"{statistics.median(peaks):6.1f} MiB "
                  f"({min(peaks):.1f}-{max(peaks):.1f}); "
                  + " ".join(f"{s:.3f}" for s, _ in samples))


if __name__ == "__main__":
    main(sys.argv)

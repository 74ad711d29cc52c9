"""Print a SHA-256 digest of every report file of the seed-0 run set.

    python3 tools/output_digest.py OUT_DIR

Runs, through ``satx.cli.main`` from this checkout's ``src``:

- ``generate --seed 0`` and ``evaluate`` of the presets example1-4;
- ``generate`` and ``compare --baseline reference`` of the benchmark's
  ``dense_cloud`` job at seed 0 (its YAML comes from ``bench/synth.py``).

Each job writes into its own directory under OUT_DIR; then one
``sha256  path`` line per file is printed, paths relative to OUT_DIR.
Run it in two checkouts and ``diff`` the outputs: a change that keeps
every matrix, log and table byte for byte prints the same lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import yaml  # noqa: E402

import synth  # noqa: E402
from satx.cli import main as satx_main  # noqa: E402

PRESETS = ("example1", "example2", "example3", "example4")


def run(argv):
    # wall times go to the console; keep stdout for the digests
    with contextlib.redirect_stdout(sys.stderr):
        code = satx_main(argv)
    if code != 0:
        raise SystemExit(f"satx {' '.join(argv)} exited {code}")


def run_set(out_dir):
    for name in PRESETS:
        job_dir = os.path.join(out_dir, name)
        run(["generate", "--preset", name, "--seed", "0", "--out", job_dir])
        run(["evaluate", "--preset", name, "--matrix",
             os.path.join(job_dir, f"{name}_transcoder.smx"),
             "--out", job_dir])
    job_dir = os.path.join(out_dir, "dense_cloud")
    os.makedirs(job_dir, exist_ok=True)
    config = os.path.join(job_dir, "dense_cloud.yaml")
    with open(config, "w") as handle:
        yaml.safe_dump(synth.dense_cloud_job(0, "full"), handle,
                       sort_keys=True)
    run(["generate", "--config", config, "--out", job_dir])
    run(["compare", "--config", config, "--matrix",
         os.path.join(job_dir, "dense_cloud_transcoder.smx"),
         "--baseline", "reference", "--out", job_dir])


def digests(out_dir):
    paths = sorted(
        os.path.relpath(os.path.join(base, name), out_dir)
        for base, _, files in os.walk(out_dir) for name in files
    )
    for path in paths:
        with open(os.path.join(out_dir, path), "rb") as handle:
            yield f"{hashlib.sha256(handle.read()).hexdigest()}  {path}"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit(__doc__)
    out_dir = argv[0]
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        raise SystemExit(f"{out_dir} is not empty; stale files would be digested")
    run_set(out_dir)
    for line in digests(out_dir):
        print(line)


if __name__ == "__main__":
    main()

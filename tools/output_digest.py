"""Print a SHA-256 digest of every report file of the seed-0 run set.

    python3 tools/output_digest.py OUT_DIR

Runs, through ``satx.cli.main`` from this checkout's ``src``:

- ``generate --seed 0`` and ``evaluate`` of the presets example1-4;
- ``generate`` of example3 (a bed input) at seed 0 once per other init
  kind: ``remap``, ``random``, ``reference``, and ``given`` starting
  from example3's own seed-0 ``.smx``;
- ``generate`` and ``compare --baseline reference`` of the benchmark's
  ``dense_cloud`` job at seed 0 (its YAML comes from ``bench/synth.py``);
- ``generate`` and ``evaluate`` of ``external``: a first-order encoding
  of a 40-direction Fibonacci cloud decoded by a 5x3 matrix to 5.0, both
  given as matrix files that it writes first;
- ``apply`` of the benchmark's seed-0 11x36 matrix to 1 s 16-bit and
  24-bit 36-channel WAVs, all three written by ``bench/synth.py``.

Each job writes into its own directory under OUT_DIR; then one
``sha256  path`` line per file is printed, paths relative to OUT_DIR.
Run it in two checkouts and ``diff`` the outputs: a change that keeps
every matrix, log and table byte for byte prints the same lines.

Standard error ends with a ``job iterations final_cost`` header and one
such line per generate, read from its ``_log.txt``: when rounding moves
the costs, the two checkouts' lines give the before/after table.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import synth  # noqa: E402
from satx import geometry, matfile  # noqa: E402
from satx.cli import main as satx_main  # noqa: E402
from satx.presets import preset_dict  # noqa: E402

PRESETS = ("example1", "example2", "example3", "example4")
# the preset itself covers remap_plus_noise
INIT_KINDS = ("remap", "random", "reference", "given")


def run(argv):
    # wall times go to the console; keep stdout for the digests
    with contextlib.redirect_stdout(sys.stderr):
        code = satx_main(argv)
    if code != 0:
        raise SystemExit(f"satx {' '.join(argv)} exited {code}")


def write_config(job):
    os.makedirs(job["name"], exist_ok=True)
    config = os.path.join(job["name"], f"{job['name']}.yaml")
    with open(config, "w") as handle:
        yaml.safe_dump(job, handle, sort_keys=True)
    return config


def external_job():
    """The ``external`` job, after writing its two matrix files."""
    os.makedirs("external", exist_ok=True)
    az, el = geometry.fibonacci_sphere(40)
    # W and the first-order channels, as SN3D ambisonics would give them
    encoding = np.column_stack((np.ones(40), geometry.unit_vectors(az, el)))
    decoder = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.5, 0.5, 0], [0, 0.5, 0.5]]
    paths = {}
    for kind, values in (("encoding", encoding),
                         ("decoder_to_speaker", decoder)):
        paths[kind] = os.path.join("external", f"{kind}.smx")
        matfile.export_matrix(matfile.matrix_file(values, kind), paths[kind])
    return {"name": "external",
            "input": {"format": "external", "matrix": paths["encoding"]},
            "output": {"format": "external",
                       "matrix": paths["decoder_to_speaker"], "layout": "5.0"},
            "cloud": {"kind": "fibonacci", "points": 40},
            "coefficients": {"energy": 5, "intensity_radial": 2,
                             "intensity_transverse": 1},
            "optimizer": {"seed": 0}}


def run_set():
    """Run every job into a directory of its name under the current one.

    Paths stay relative, so the given init's YAML holds the same bytes
    in every output directory.
    """
    for name in PRESETS:
        run(["generate", "--preset", name, "--seed", "0", "--out", name])
        run(["evaluate", "--preset", name, "--matrix",
             os.path.join(name, f"{name}_transcoder.smx"), "--out", name])
    for kind in INIT_KINDS:
        job = preset_dict("example3")
        job["name"] = f"example3_{kind}"
        job["optimizer"] = {"init": kind, "seed": 0}
        if kind == "given":
            job["optimizer"]["matrix"] = os.path.join(
                "example3", "example3_transcoder.smx")
        run(["generate", "--config", write_config(job), "--out", job["name"]])
    config = write_config(synth.dense_cloud_job(0, "full"))
    run(["generate", "--config", config, "--out", "dense_cloud"])
    run(["compare", "--config", config, "--matrix",
         os.path.join("dense_cloud", "dense_cloud_transcoder.smx"),
         "--baseline", "reference", "--out", "dense_cloud"])
    config = write_config(external_job())
    run(["generate", "--config", config, "--out", "external"])
    run(["evaluate", "--config", config, "--matrix",
         os.path.join("external", "external_transcoder.smx"),
         "--out", "external"])
    os.makedirs("apply", exist_ok=True)
    matrix = os.path.join("apply", "apply.smx")
    with open(matrix, "w") as handle:
        handle.write(synth.format_matrix_text(synth.apply_matrix(0)))
    for bits in synth.APPLY_BITS:
        wav = os.path.join("apply", f"pcm{bits}.wav")
        synth.write_pcm_wav(wav, 0, bits, synth.RATE)
        run(["apply", "--matrix", matrix, "--in", wav, "--outfile",
             os.path.join("apply", f"out_pcm{bits}.wav")])


def digests(out_dir):
    paths = sorted(
        os.path.relpath(os.path.join(base, name), out_dir)
        for base, _, files in os.walk(out_dir) for name in files
    )
    for path in paths:
        with open(os.path.join(out_dir, path), "rb") as handle:
            yield f"{hashlib.sha256(handle.read()).hexdigest()}  {path}"


def generate_summaries(out_dir):
    """``job iterations final_cost`` of every generate log under OUT_DIR."""
    for path in sorted(glob.glob(os.path.join(out_dir, "*", "*_log.txt"))):
        with open(path) as handle:
            lines = handle.read().splitlines()
        fields = dict(line.split(" ", 1) for line in lines if " " in line)
        final = lines[lines.index("final_cost_terms"):]
        total = next(line for line in final if line.startswith("total "))
        yield f"{fields['job']} {fields['iterations']} {total.split()[1]}"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit(__doc__)
    out_dir = argv[0]
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        raise SystemExit(f"{out_dir} is not empty; stale files would be digested")
    os.makedirs(out_dir, exist_ok=True)
    with contextlib.chdir(out_dir):
        run_set()
    print("job iterations final_cost", file=sys.stderr)
    for line in generate_summaries(out_dir):
        print(line, file=sys.stderr)
    for line in digests(out_dir):
        print(line)


if __name__ == "__main__":
    main()

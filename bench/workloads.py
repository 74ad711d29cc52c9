"""The benchmark workloads: the satx commands of one pass, and their checks.

Each workload runs its commands one after another through ``satx.cli.main``
(the entry point of the ``satx`` script), in one process, closed loop with
one client.  After each command, outside the timed region, the outputs are
checked; a command that exits non-zero or fails a check is a failed
operation.

presets      generate + evaluate for each shipped preset (example1-4)
dense_cloud  generate a 7.0.4 -> 5.0.2 job over 5 000 directions with all
             14 cost terms on, then compare it against the reference
apply        apply an 11x36 matrix to a 16-bit and a 24-bit 36-channel WAV
"""

from __future__ import annotations

import math
import os
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import numpy as np

import synth

# Final total cost reached at seed 0.  The seed only changes the starting
# noise (example1 starts from the reference and ignores it): at seeds 0-99
# (dense_cloud 0-39) no final cost of example3, example4 or dense_cloud lay
# more than 1e-7 above these values, so one value per job serves every seed.
RECORDED_FINAL_COST = {
    "example1": 0.2819284871140179,
    "example2": 0.07665442632215909,
    "example3": 0.6204039256286253,
    "example4": 0.037072423896663625,
    "dense_cloud": 0.5036601767779986,
    "dense_cloud@toy": 0.5037121587289194,
}
# A final cost this far above the record (relative) fails the generate:
# ten times the spread seen over seeds, yet small enough that stopping
# example3 at 100 of its ~140 iterations (1.2e-6 above) fails.  example2
# (coherent, badly conditioned) ends in one of several nearby local optima,
# from 8.9e-4 below to 7.3e-4 above its record over 90 seeds; its wider
# tolerance still fails a stall such as L-BFGS's 0.0773 (8.4e-3 above).
COST_TOLERANCE = 1e-6
COST_TOLERANCE_BY_JOB = {"example2": 3e-3}
# The logged final cost must match problem.cost() of the written matrix.
LOG_AGREEMENT = 1e-9

SUMMARY_ROWS = (
    "pressure", "velocity_radial", "velocity_transverse",
    "energy", "intensity_radial", "intensity_transverse",
    "asw_deg", "angular_error_deg", "level_db",
)
PRESETS = {"full": ("example1", "example2", "example3", "example4"),
           "toy": ("example3", "example4")}
APPLY_CHECK_FRAMES = 4096


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    """One CLI command: its wall time and whether it passed its checks."""

    command: str
    job: str
    seconds: float = 0.0
    error: Optional[str] = None
    final_cost: Optional[float] = None
    iterations: int = 0
    audio_seconds: float = 0.0
    command_id: Optional[int] = None  # root span id when traced


def run_command(op, argv, recorder):
    """Time ``satx.cli.main(argv)``; record a non-zero exit as a failure."""
    from satx import cli

    span = (recorder.command(op.command, job=op.job) if recorder
            else nullcontext())
    start = perf_counter()
    try:
        with span as root:
            if root is not None:
                op.command_id = root[0]
            code = cli.main(argv)
    except (Exception, SystemExit):
        op.seconds = perf_counter() - start
        op.error = "raised:\n" + traceback.format_exc()
        return False
    op.seconds = perf_counter() - start
    if code != 0:
        op.error = f"exit code {code}"
        return False
    return True


def _remove(*paths):
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def _check(op, check, *args):
    try:
        return check(*args)
    except CheckFailed as exc:
        op.error = str(exc)
    except Exception:
        op.error = "check raised:\n" + traceback.format_exc()
    return None


def read_log(log_path):
    """(final total cost, iterations) from a generate log."""
    with open(log_path) as handle:
        lines = handle.read().splitlines()
    iterations = [int(line.split()[1]) for line in lines
                  if line.startswith("iterations ")]
    try:
        start = lines.index("final_cost_terms")
    except ValueError:
        raise CheckFailed(f"{log_path}: no final_cost_terms section")
    totals = [float(line.split()[1]) for line in lines[start + 1:]
              if line.startswith("total ")]
    if not iterations or not totals:
        raise CheckFailed(f"{log_path}: no iteration count or final cost")
    return totals[0], iterations[0]


def check_generate(op, problem, out_dir, name, recorded):
    """Re-import the matrix, recompute its cost, check log and record."""
    from satx import matfile

    t = matfile.import_matrix(os.path.join(out_dir,
                                           f"{name}_transcoder.smx")).values()
    if t.shape != problem.shape:
        raise CheckFailed(f"{name}: matrix shape {t.shape}, "
                          f"expected {problem.shape}")
    if not np.isfinite(t).all():
        raise CheckFailed(f"{name}: matrix has non-finite entries")
    logged, op.iterations = read_log(os.path.join(out_dir,
                                                  f"{name}_log.txt"))
    actual = problem.cost(t)
    if not abs(logged - actual) <= LOG_AGREEMENT * max(1.0, abs(actual)):
        raise CheckFailed(f"{name}: log says final cost {logged!r}, "
                          f"matrix gives {actual!r}")
    tolerance = COST_TOLERANCE_BY_JOB.get(name, COST_TOLERANCE)
    if not logged <= recorded * (1.0 + tolerance):
        raise CheckFailed(f"{name}: final cost {logged!r} above recorded "
                          f"{recorded!r} by more than {tolerance:g}")
    return logged


def check_summary(path, keys):
    """Every row named in ``keys`` is present, with five finite values."""
    present = set()
    with open(path) as handle:
        for line in handle:
            if line.startswith("#") or not line.strip():
                continue
            fields = line.split()
            if not all(math.isfinite(float(x)) for x in fields[-5:]):
                raise CheckFailed(f"{path}: non-finite row {line.strip()!r}")
            present.add(tuple(fields[:-5]))
    missing = [k for k in keys if k not in present]
    if missing:
        raise CheckFailed(f"{path}: missing rows {missing}")


def problem_sizes(problem):
    directions = problem.encoding.entries.shape[0]
    speakers = len(problem.decoder.layout)
    return {"directions": directions, "speakers": speakers,
            "cells": directions * speakers,
            "params": int(math.prod(problem.shape))}


class Presets:
    """Paper-reproduction traffic: optimizer bookkeeping dominates."""

    def __init__(self, manifest, workdir):
        self.size = manifest["size"]
        self.seed = manifest["seed"]
        self.out = os.path.join(workdir, "out")
        self.jobs = {}
        self.problems = {}

    def setup(self):
        from satx import presets

        self.jobs = {n: presets.load_preset(n) for n in PRESETS[self.size]}

    def input_sizes(self):
        return {name: problem_sizes(self._problem(name)) for name in self.jobs}

    def _problem(self, name):
        from satx import runner

        if name not in self.problems:
            self.problems[name] = runner.build_problem(self.jobs[name])
        return self.problems[name]

    def run_pass(self, recorder):
        ops = []
        for name in self.jobs:
            smx = os.path.join(self.out, f"{name}_transcoder.smx")
            log = os.path.join(self.out, f"{name}_log.txt")
            summary = os.path.join(self.out, f"{name}_summary.dat")
            _remove(smx, log, summary)
            gen = Op("generate", name)
            if run_command(gen, ["generate", "--preset", name, "--out",
                                 self.out, "--seed", str(self.seed)],
                           recorder):
                gen.final_cost = _check(gen, check_generate, gen,
                                        self._problem(name), self.out, name,
                                        RECORDED_FINAL_COST[name])
            ev = Op("evaluate", name)
            if run_command(ev, ["evaluate", "--preset", name, "--matrix", smx,
                                "--out", self.out], recorder):
                _check(ev, check_summary, summary,
                       [(m,) for m in SUMMARY_ROWS])
            ops += [gen, ev]
        return ops


class DenseCloud:
    """Kernel, problem build and analysis dominate; the optimizer does not."""

    NAME = "dense_cloud"

    def __init__(self, manifest, workdir):
        self.size = manifest["size"]
        self.config = manifest["config"]
        self.out = os.path.join(workdir, "out")
        self.job = None
        self.problem = None

    def setup(self):
        from satx.config import load_config

        self.job = load_config(self.config)

    def _problem(self):
        from satx import runner

        if self.problem is None:
            self.problem = runner.build_problem(self.job)
        return self.problem

    def input_sizes(self):
        return problem_sizes(self._problem())

    def run_pass(self, recorder):
        name = self.NAME
        smx = os.path.join(self.out, f"{name}_transcoder.smx")
        log = os.path.join(self.out, f"{name}_log.txt")
        summary = os.path.join(self.out, "compare_summary.dat")
        _remove(smx, log, summary)
        gen = Op("generate", name)
        if run_command(gen, ["generate", "--config", self.config, "--out",
                             self.out], recorder):
            key = name if self.size == "full" else f"{name}@{self.size}"
            gen.final_cost = _check(gen, check_generate, gen,
                                    self._problem(), self.out, name,
                                    RECORDED_FINAL_COST[key])
        compare = Op("compare", name)
        if run_command(compare, ["compare", "--config", self.config,
                                 "--matrix", smx, "--baseline", "reference",
                                 "--out", self.out], recorder):
            _check(compare, check_summary, summary,
                   [(matrix, row)
                    for matrix in (f"{name}_transcoder", "reference")
                    for row in SUMMARY_ROWS])
        return [gen, compare]


def check_apply(manifest, bits, out_path, pass_index):
    """Frame/channel counts, and sampled blocks against float32(M @ x)."""
    from scipy.io import wavfile

    frames = manifest["frames"]
    seed = manifest["seed"]
    matrix = synth.apply_matrix(seed)
    rate, out = wavfile.read(out_path, mmap=True)
    try:
        if rate != synth.RATE or out.shape != (frames, synth.OUT_CHANNELS):
            raise CheckFailed(
                f"{out_path}: {rate} Hz {out.shape}, expected {synth.RATE} Hz "
                f"{(frames, synth.OUT_CHANNELS)}")
        if out.dtype != np.float32:
            raise CheckFailed(f"{out_path}: dtype {out.dtype}, "
                              "expected float32")
        chunks = -(-frames // synth.CHUNK_FRAMES)
        rng = np.random.default_rng([seed, bits, pass_index])
        for index in rng.choice(chunks, size=min(2, chunks), replace=False):
            x = synth.audio_chunk(seed, bits, int(index), frames)
            x = x[:APPLY_CHECK_FRAMES] / synth.full_scale(bits)
            first = int(index) * synth.CHUNK_FRAMES
            got = np.asarray(out[first:first + len(x)], dtype=np.float64)
            want = (x @ matrix.T).astype(np.float32).astype(np.float64)
            # float32 rounding of a float64 dot product, with headroom for
            # a different summation order
            eps = np.finfo(np.float32).eps
            bound = 2 * eps * (np.abs(x) @ np.abs(matrix).T)
            if (np.abs(got - want) > bound).any():
                raise CheckFailed(
                    f"{out_path}: chunk {index} differs from float32(M @ x) "
                    f"by {np.abs(got - want).max():.3g}")
    finally:
        del out  # drop the mapping before the file is removed


class Apply:
    """WAV read, mix and write; touches neither the cost nor the optimizer."""

    def __init__(self, manifest, workdir):
        self.manifest = manifest
        self.out = os.path.join(workdir, "out")
        self.passes = 0

    def setup(self):
        """Nothing to parse: the matrix and WAVs are read by the command."""

    def input_sizes(self):
        frames = self.manifest["frames"]
        return {"audio_seconds": frames / synth.RATE,
                "channels": synth.IN_CHANNELS,
                "matrix": [synth.OUT_CHANNELS, synth.IN_CHANNELS],
                "pcm_bits": list(synth.APPLY_BITS)}

    def run_pass(self, recorder):
        os.makedirs(self.out, exist_ok=True)
        ops = []
        for bits in synth.APPLY_BITS:
            out_path = os.path.join(self.out, f"out_pcm{bits}.wav")
            _remove(out_path)
            op = Op("apply", f"pcm{bits}")
            if run_command(op, ["apply", "--matrix", self.manifest["matrix"],
                                "--in", self.manifest["wavs"][str(bits)],
                                "--outfile", out_path], recorder):
                _check(op, check_apply, self.manifest, bits, out_path,
                       self.passes)
                op.audio_seconds = self.manifest["frames"] / synth.RATE
            _remove(out_path)
            ops.append(op)
        self.passes += 1
        return ops


WORKLOADS = {"presets": Presets, "dense_cloud": DenseCloud, "apply": Apply}

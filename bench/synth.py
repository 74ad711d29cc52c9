"""Seeded input synthesis for the benchmark workloads.

Everything the program under test receives is written here, before the
measured process starts: the ``dense_cloud`` job YAML, and for ``apply`` a
transcoding matrix in the satx text format plus a 16-bit and a 24-bit PCM
WAV file.  The same seed always gives the same bytes.

The writers are deliberately independent of satx (the RIFF header and the
matrix text are produced by hand), so the benchmark does not test the
program's readers against the program's own writers.  Audio is generated
in one-second chunks from a per-chunk random stream, so the correctness
check can regenerate any chunk without keeping the signal in memory.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import yaml

RATE = 48000
CHUNK_FRAMES = RATE  # one second; the unit of regeneration
IN_CHANNELS = 36
OUT_CHANNELS = 11
APPLY_BITS = (16, 24)
AUDIO_SECONDS = {"full": 20, "toy": 1}
AMPLITUDE = 0.25
MATRIX_SCALE = 0.1

# Fibonacci points on the whole sphere; the hemisphere filter keeps half.
# 5 000 directions keep a pass near 3.5 s, so one run holds about ten
# passes to take the median of; the cost kernel still dominates generate
# and the directions-squared mirror matrix still dominates peak RSS.
DENSE_POINTS = {"full": 10000, "toy": 1000}
DENSE_EVAL_POINTS = {"full": 9500, "toy": 900}

DENSE_COEFFICIENTS = {
    "pressure": 1,
    "velocity_radial": 1,
    "velocity_transverse": 0.5,
    "energy": 5,
    "intensity_radial": 2,
    "intensity_transverse": 1,
    "in_phase_linear": 0.1,
    "in_phase_quadratic": 10,
    "symmetry_linear": 0.1,
    "symmetry_quadratic": 2,
    "gain_cap_linear": 1,
    "gain_cap_quadratic": 1,
    "sparsity_linear": 0.001,
    "sparsity_quadratic": 0.01,
}


def dense_cloud_job(seed: int, size: str) -> dict:
    """7.0.4 VBAP bed to 5.0.2 speakers over a dense hemisphere, all terms on.

    The seed only moves the optimizer's starting noise, so the optimum (and
    the recorded final cost) is the same for every seed.
    """
    return {
        "name": "dense_cloud",
        "mode": "generate",
        "analysis": "incoherent",
        "input": {"format": "vbap", "layout": "7.0.4"},
        "output": {"format": "speakers", "layout": "5.0.2"},
        "cloud": {"kind": "fibonacci", "points": DENSE_POINTS[size],
                  "hemisphere": True},
        "evaluation_cloud": {"kind": "fibonacci",
                             "points": DENSE_EVAL_POINTS[size],
                             "hemisphere": True},
        "coefficients": dict(DENSE_COEFFICIENTS),
        "optimizer": {"init": "remap_plus_noise", "scale": 0.05,
                      "seed": seed},
    }


def apply_matrix(seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0])
    return rng.uniform(-MATRIX_SCALE, MATRIX_SCALE,
                       size=(OUT_CHANNELS, IN_CHANNELS))


def audio_frames(size: str) -> int:
    return AUDIO_SECONDS[size] * RATE


def full_scale(bits: int) -> int:
    return 1 << (bits - 1)


def audio_chunk(seed: int, bits: int, index: int, frames: int) -> np.ndarray:
    """Integer PCM samples of chunk ``index`` (CHUNK_FRAMES long, or shorter
    at the end of a ``frames``-long file)."""
    n = min(CHUNK_FRAMES, frames - index * CHUNK_FRAMES)
    rng = np.random.default_rng([seed, bits, index])
    x = rng.uniform(-AMPLITUDE, AMPLITUDE, size=(n, IN_CHANNELS))
    scale = full_scale(bits)
    return np.clip(np.round(x * scale), -scale, scale - 1).astype(np.int32)


def format_matrix_text(values: np.ndarray) -> str:
    rows, cols = values.shape
    lines = [
        "satx-matrix 1",
        "kind transcoding",
        f"rows {rows}",
        f"cols {cols}",
        "row_labels " + " ".join(f"out{i}" for i in range(rows)),
        "col_labels " + " ".join(f"in{j}" for j in range(cols)),
        "note benchmark input",
    ]
    lines += [" ".join(repr(float(x)) for x in row) for row in values]
    return "\n".join(lines) + "\n"


def _pcm_bytes(samples: np.ndarray, bits: int) -> bytes:
    if bits == 16:
        return samples.astype("<i2").tobytes()
    if bits == 24:
        wide = samples.astype("<i4").reshape(-1, 1).view(np.uint8)
        return wide[:, :3].tobytes()
    raise ValueError(f"unsupported PCM width {bits}")


def write_pcm_wav(path: str, seed: int, bits: int, frames: int) -> None:
    """Stream a PCM WAV (format tag 1) chunk by chunk."""
    block_align = IN_CHANNELS * bits // 8
    data_bytes = frames * block_align
    header = b"".join((
        b"RIFF", struct.pack("<I", 36 + data_bytes), b"WAVE",
        b"fmt ", struct.pack("<IHHIIHH", 16, 1, IN_CHANNELS, RATE,
                             RATE * block_align, block_align, bits),
        b"data", struct.pack("<I", data_bytes),
    ))
    with open(path, "wb") as handle:
        handle.write(header)
        for index in range(-(-frames // CHUNK_FRAMES)):
            handle.write(_pcm_bytes(audio_chunk(seed, bits, index, frames),
                                    bits))
        # on disk before the measured process starts, so its write-back
        # does not land inside a timed command
        handle.flush()
        os.fsync(handle.fileno())


def synthesize(workload: str, seed: int, size: str, workdir: str) -> dict:
    """Write the workload's inputs into ``workdir``; returns a manifest."""
    os.makedirs(workdir, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "size": size}
    if workload == "dense_cloud":
        path = os.path.join(workdir, "dense_cloud.yaml")
        with open(path, "w") as handle:
            yaml.safe_dump(dense_cloud_job(seed, size), handle, sort_keys=True)
        manifest["config"] = path
    elif workload == "apply":
        matrix_path = os.path.join(workdir, "apply_matrix.smx")
        with open(matrix_path, "w") as handle:
            handle.write(format_matrix_text(apply_matrix(seed)))
        frames = audio_frames(size)
        wavs = {}
        for bits in APPLY_BITS:
            wav = os.path.join(workdir, f"in_pcm{bits}.wav")
            write_pcm_wav(wav, seed, bits, frames)
            wavs[str(bits)] = wav
        manifest.update(matrix=matrix_path, wavs=wavs, frames=frames)
    return manifest

"""Fast self-check of the benchmark harness, at toy sizes.

    python3 -m pytest bench -q

Runs every workload with ``--size toy`` traced and untraced, and checks the
result line against BENCHMARK.json: every metric name present with its
unit, and no failed operation.  It is not part of the repository's tier-1
suite (pytest's ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.io import wavfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import synth  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def run_bench(cwd, *args):
    command = [sys.executable if c == "python3" else c
               for c in SPEC["command"]]
    return subprocess.run(command + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7",
                     "--seconds", "1", "--trace", str(trace),
                     "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    if not trace:
        assert "op_error_rate" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "apply", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("bits", synth.APPLY_BITS)
def test_pcm_writer_reads_back(tmp_path, bits):
    frames = synth.CHUNK_FRAMES + 100
    path = str(tmp_path / "x.wav")
    synth.write_pcm_wav(path, 3, bits, frames)
    rate, data = wavfile.read(path)
    assert rate == synth.RATE and data.shape == (frames, synth.IN_CHANNELS)
    tail = synth.audio_chunk(3, bits, 1, frames)
    shift = 32 - bits if data.dtype == np.int32 else 0
    np.testing.assert_array_equal(data[synth.CHUNK_FRAMES:] >> shift, tail)


def test_self_time_subtracts_direct_children():
    # root 0..10 s, child 1..4 s, grandchild 2..3 s
    tree = [[0, None, 0, "cli", 0.0, 10.0, {}],
            [1, 0, 0, "optimizer.optimize", 1.0, 4.0,
             {"optimizer.iterations": 2}],
            [2, 1, 0, "cost.kernel", 2.0, 3.0, {}]]
    assert spans.self_times(tree) == [7.0, 2.0, 1.0]
    totals = spans.layer_totals(tree)
    assert totals["optimizer.self_s"] == 2.0
    assert totals["cost.evals"] == 1
    assert totals["optimizer.iter_ms"] == 1500.0

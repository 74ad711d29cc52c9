import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import satx
from satx.config import parse_cloud
from satx.formats import _face_gains, vbap_matrix
from satx.geometry import PointCloud, SpeakerLayout, unit_vectors


def fresh_python(script: str, *args) -> str:
    """Standard output of ``script`` run with ``args`` in a fresh
    interpreter that imports satx from this checkout."""
    src = str(Path(satx.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def random_direction(rng, el_range=(-89.0, 89.0)) -> tuple:
    """(azimuth, elevation) of one uniform draw of each."""
    return float(rng.uniform(-180.0, 180.0)), float(rng.uniform(*el_range))


def cloud_of(**node) -> PointCloud:
    """The cloud of a config mapping, e.g. ``cloud_of(kind="ring", points=8)``."""
    return parse_cloud(node, "cloud")


def unit_vector(az, el) -> np.ndarray:
    return unit_vectors([az], [el])[0]


def direction_arrays(directions) -> tuple:
    """(azimuth, elevation) arrays of a sequence of (az, el) pairs."""
    az, el = np.array(directions, dtype=float).reshape(-1, 2).T
    return az, el


def random_directions(rng, n: int, el_range=(-89.0, 89.0)) -> tuple:
    """(azimuth, elevation) arrays of n ``random_direction`` draws."""
    return direction_arrays([random_direction(rng, el_range) for _ in range(n)])


def layout_of(*rows, pairs=()) -> SpeakerLayout:
    """The layout of (label, azimuth, elevation) rows."""
    labels, az, el = zip(*rows)
    return SpeakerLayout(labels, az, el, pairs)


def vbap_gains(layout, az, el) -> np.ndarray:
    """VBAP gains of one direction, energy-normalized (sum g^2 = 1)."""
    return vbap_matrix(layout, [az], [el])[0]


def vbip_gains(layout, az, el) -> np.ndarray:
    """Vector-base intensity panning: the energy vector aligns with (az, el)."""
    (face,), (q,) = _face_gains(layout, [az], [el])
    out = np.zeros(len(layout))
    out[face] = np.sqrt(q / q.sum())
    return out


def mirrored_cloud(rng, n_duos: int = 2, n_median: int = 1) -> PointCloud:
    """Cloud where every direction has a left-right mirror partner."""
    az, el = [], []
    for _ in range(n_duos):
        a = float(rng.uniform(10.0, 170.0))
        e = float(rng.uniform(-80.0, 80.0))
        az += [a, -a]
        el += [e, e]
    for _ in range(n_median):
        az.append(0.0)
        el.append(float(rng.uniform(-80.0, 80.0)))
    weights = rng.uniform(0.5, 2.0, len(az))
    return PointCloud(az, el, weights)


def paired_layout(rng) -> SpeakerLayout:
    """Three speakers: one mirrored pair plus one on the median plane."""
    az = float(rng.uniform(15.0, 165.0))
    el = float(rng.uniform(-60.0, 60.0))
    return layout_of(("a", az, el), ("b", -az, el),
                     ("c", 0.0, float(rng.uniform(-60.0, 60.0))),
                     pairs=((0, 1),))

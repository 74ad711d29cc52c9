import numpy as np
import pytest

from satx.config import parse_cloud
from satx.geometry import Direction, PointCloud, SpeakerLayout, unit_vectors


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def random_direction(rng, el_range=(-89.0, 89.0)) -> Direction:
    return Direction(
        float(rng.uniform(-180.0, 180.0)),
        float(rng.uniform(*el_range)),
    )


def cloud_of(**node) -> PointCloud:
    """The cloud of a config mapping, e.g. ``cloud_of(kind="ring", points=8)``."""
    return parse_cloud(node, "cloud")


def to_unit_vector(d: Direction) -> np.ndarray:
    return unit_vectors([d.azimuth], [d.elevation])[0]


def direction_arrays(directions) -> tuple:
    """(azimuth, elevation) arrays of a sequence of Directions."""
    return (np.array([d.azimuth for d in directions]),
            np.array([d.elevation for d in directions]))


def random_directions(rng, n: int, el_range=(-89.0, 89.0)) -> tuple:
    """(azimuth, elevation) arrays of n ``random_direction`` draws."""
    return direction_arrays([random_direction(rng, el_range) for _ in range(n)])


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
    return SpeakerLayout(
        (
            ("a", Direction(az, el)),
            ("b", Direction(-az, el)),
            ("c", Direction(0.0, float(rng.uniform(-60.0, 60.0)))),
        ),
        symmetry_pairs=((0, 1),),
    )

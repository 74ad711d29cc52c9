"""Directions, sampling clouds, loudspeaker layouts, and hull triangulation.

Conventions: azimuth in degrees, counterclockwise-positive seen from above
(0 = front, +90 = left), normalized to (-180, 180]; elevation in degrees,
positive up, in [-90, 90].  Unit vectors are (x front, y left, z up).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Sequence, Union

import numpy as np

from .errors import GeometryError

_EMBEDDED_DESIGN_SIZES = (56, 60)
_MIRROR_ROWS = 256


def _normalize_azimuth(az: float) -> float:
    a = math.fmod(float(az), 360.0)
    if a > 180.0:
        a -= 360.0
    elif a <= -180.0:
        a += 360.0
    return a


@dataclass(frozen=True)
class Direction:
    """A direction on the sphere, stored as azimuth/elevation in degrees."""

    azimuth: float
    elevation: float

    def __post_init__(self):
        el = float(self.elevation)
        if not (-90.0 <= el <= 90.0) or not math.isfinite(el):
            raise GeometryError(f"elevation {el} outside [-90, 90]")
        if not math.isfinite(self.azimuth):
            raise GeometryError(f"azimuth {self.azimuth} is not finite")
        object.__setattr__(self, "azimuth", _normalize_azimuth(self.azimuth))
        object.__setattr__(self, "elevation", el)

    def mirrored(self) -> "Direction":
        """Left-right mirror (azimuth sign flip)."""
        return Direction(-self.azimuth, self.elevation)


def to_unit_vector(d: Direction) -> np.ndarray:
    """Cartesian unit vector (x front, y left, z up) of a direction."""
    az = math.radians(d.azimuth)
    el = math.radians(d.elevation)
    return np.array(
        [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
    )


def from_unit_vector(v: Sequence[float]) -> Direction:
    """Inverse of :func:`to_unit_vector` (input need not be normalized)."""
    x, y, z = (float(c) for c in v)
    r = math.sqrt(x * x + y * y + z * z)
    if r == 0.0:
        raise GeometryError("zero vector has no direction")
    az = math.degrees(math.atan2(y, x))
    el = math.degrees(math.asin(max(-1.0, min(1.0, z / r))))
    return Direction(az, el)


def unit_vectors(directions: Sequence[Direction]) -> np.ndarray:
    """Stack unit vectors of several directions into an (n, 3) array."""
    return np.array([to_unit_vector(d) for d in directions]).reshape(-1, 3)


# ---------------------------------------------------------------------------
# Point clouds


@dataclass(frozen=True)
class PointCloud:
    """Sampled virtual-source directions with per-direction weights.

    Weights are rescaled at construction so that their mean is 1
    (sum equals the number of directions); relative weights are what
    matters downstream.
    """

    directions: tuple
    weights: np.ndarray = None

    def __post_init__(self):
        dirs = tuple(self.directions)
        if not dirs:
            raise GeometryError("point cloud needs at least one direction")
        if self.weights is None:
            w = np.ones(len(dirs))
        else:
            w = np.asarray(self.weights, dtype=float).copy()
        if w.shape != (len(dirs),):
            raise GeometryError("one weight per direction required")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise GeometryError("weights must be positive and finite")
        w *= len(dirs) / w.sum()
        w.flags.writeable = False
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.directions)

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """Read-only (L, 3) unit vectors, computed on first use."""
        vecs = unit_vectors(self.directions)
        vecs.flags.writeable = False
        return vecs


# Cloud specifications -------------------------------------------------------


@dataclass(frozen=True)
class TDesignSpec:
    """Embedded full-sphere design selected by point count (56 or 60)."""

    points: int


@dataclass(frozen=True)
class RingSpec:
    """n equally spaced points on the horizontal plane, starting at front."""

    points: int


@dataclass(frozen=True)
class FibonacciSpec:
    """Fibonacci spiral covering the full sphere; fallback for arbitrary n."""

    points: int


@dataclass(frozen=True)
class ExplicitSpec:
    directions: tuple
    weights: tuple = None


@dataclass(frozen=True)
class HemisphereSpec:
    """Restrict another cloud spec to elevation >= 0."""

    base: "CloudSpec"


@dataclass(frozen=True)
class MergeSpec:
    """Weighted union of sub-clouds; each part is (spec, relative_weight)."""

    parts: tuple


CloudSpec = Union[TDesignSpec, RingSpec, FibonacciSpec, ExplicitSpec,
                  HemisphereSpec, MergeSpec]


def _load_design(points: int) -> list:
    if points not in _EMBEDDED_DESIGN_SIZES:
        raise GeometryError(
            f"unknown t-design size {points}; embedded sizes: "
            f"{_EMBEDDED_DESIGN_SIZES}"
        )
    text = (
        resources.files("satx.data")
        .joinpath(f"tdesign_sphere_{points}.txt")
        .read_text()
    )
    dirs = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        az, el = line.split()
        dirs.append(Direction(float(az), float(el)))
    if len(dirs) != points:
        raise GeometryError(f"embedded design table corrupt for n={points}")
    return dirs


def fibonacci_sphere(n: int) -> list:
    """Deterministic Fibonacci spiral point set (n directions, full sphere)."""
    if n < 1:
        raise GeometryError("fibonacci cloud needs n >= 1")
    golden = math.pi * (3.0 - math.sqrt(5.0))
    dirs = []
    for k in range(n):
        z = 1.0 - (2.0 * k + 1.0) / n
        az = math.degrees(k * golden)
        el = math.degrees(math.asin(max(-1.0, min(1.0, z))))
        dirs.append(Direction(az, el))
    return dirs


def sample_cloud(spec: CloudSpec) -> PointCloud:
    """Realize a cloud specification; weights come out with mean 1."""
    dirs, weights = _sample(spec)
    return PointCloud(tuple(dirs), np.asarray(weights, dtype=float))


def _sample(spec: CloudSpec):
    if isinstance(spec, TDesignSpec):
        dirs = _load_design(spec.points)
        return dirs, [1.0] * len(dirs)
    if isinstance(spec, RingSpec):
        if spec.points < 1:
            raise GeometryError("ring needs at least one point")
        dirs = [Direction(360.0 * k / spec.points, 0.0) for k in range(spec.points)]
        return dirs, [1.0] * len(dirs)
    if isinstance(spec, FibonacciSpec):
        dirs = fibonacci_sphere(spec.points)
        return dirs, [1.0] * len(dirs)
    if isinstance(spec, ExplicitSpec):
        dirs = list(spec.directions)
        if not dirs:
            raise GeometryError("explicit cloud is empty")
        w = list(spec.weights) if spec.weights is not None else [1.0] * len(dirs)
        return dirs, w
    if isinstance(spec, HemisphereSpec):
        dirs, w = _sample(spec.base)
        kept = [(d, x) for d, x in zip(dirs, w) if d.elevation >= 0.0]
        if not kept:
            raise GeometryError("hemisphere filter removed every direction")
        return [d for d, _ in kept], [x for _, x in kept]
    if isinstance(spec, MergeSpec):
        if not spec.parts:
            raise GeometryError("empty merge")
        dirs, weights = [], []
        for sub, rel in spec.parts:
            rel = float(rel)
            if rel <= 0:
                raise GeometryError("merge weights must be positive")
            sub_dirs, sub_w = _sample(sub)
            mean = sum(sub_w) / len(sub_w)
            dirs.extend(sub_dirs)
            weights.extend(rel * x / mean for x in sub_w)
        return dirs, weights
    raise GeometryError(f"unknown cloud spec {spec!r}")


def mirror_indices(vecs: np.ndarray, tol_deg: float = 0.1) -> np.ndarray:
    """Index of each unit vector's left-right mirror partner, or -1 if absent.

    ``vecs`` is (n, 3), a cloud's ``vectors``.  Median-plane directions are
    their own partner.  Used by the symmetry cost term to compare mirrored
    source directions.
    """
    mirrored = vecs * np.array([1.0, -1.0, 1.0])
    cos_tol = math.cos(math.radians(tol_deg))
    out = np.empty(len(vecs), dtype=int)
    # row chunks keep the dot products at _MIRROR_ROWS x L, not L x L
    for start in range(0, len(vecs), _MIRROR_ROWS):
        dots = mirrored[start:start + _MIRROR_ROWS] @ vecs.T
        best = np.argmax(dots, axis=1)
        close = dots[np.arange(len(best)), best] >= cos_tol
        out[start:start + len(best)] = np.where(close, best, -1)
    return out


# ---------------------------------------------------------------------------
# Loudspeaker layouts


@dataclass(frozen=True)
class SpeakerLayout:
    """Named loudspeaker directions plus optional left-right symmetry pairs."""

    speakers: tuple  # of (label, Direction)
    symmetry_pairs: tuple = field(default=())

    def __post_init__(self):
        spk = tuple((str(label), d) for label, d in self.speakers)
        if not spk:
            raise GeometryError("layout needs at least one speaker")
        labels = [label for label, _ in spk]
        if len(set(labels)) != len(labels):
            raise GeometryError("speaker labels must be unique")
        for label in labels:
            if not label or any(c.isspace() for c in label):
                raise GeometryError(f"bad speaker label {label!r}")
        vecs = unit_vectors([d for _, d in spk])
        dots = vecs @ vecs.T
        np.fill_diagonal(dots, -1.0)
        if dots.max() > math.cos(math.radians(0.1)):
            i, j = np.unravel_index(np.argmax(dots), dots.shape)
            raise GeometryError(
                f"speakers {labels[i]!r} and {labels[j]!r} closer than 0.1 deg"
            )
        pairs = tuple((int(p), int(q)) for p, q in self.symmetry_pairs)
        seen = set()
        for p, q in pairs:
            if p == q or not (0 <= p < len(spk)) or not (0 <= q < len(spk)):
                raise GeometryError(f"bad symmetry pair ({p}, {q})")
            if p in seen or q in seen:
                raise GeometryError("speaker appears in more than one pair")
            seen.update((p, q))
        object.__setattr__(self, "speakers", spk)
        object.__setattr__(self, "symmetry_pairs", pairs)

    def __len__(self) -> int:
        return len(self.speakers)

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.speakers)

    @property
    def directions(self) -> tuple:
        return tuple(d for _, d in self.speakers)

    def unit_vectors(self) -> np.ndarray:
        return unit_vectors(self.directions)

    def with_detected_pairs(self, tol_deg: float = 1.0) -> "SpeakerLayout":
        return SpeakerLayout(self.speakers, detect_symmetry_pairs(self, tol_deg))


def layout_from_directions(directions: Sequence[Direction], prefix: str = "V") -> SpeakerLayout:
    """Wrap anonymous directions (e.g. a virtual layout) as a layout."""
    return SpeakerLayout(
        tuple((f"{prefix}{i}", d) for i, d in enumerate(directions))
    )


def detect_symmetry_pairs(layout: SpeakerLayout, tol_deg: float = 1.0) -> tuple:
    """Left-right mirrored speaker index pairs.

    A pair (p, q) satisfies azimuth_p ~ -azimuth_q and equal elevations
    within tol; median-plane speakers stay unpaired.  Candidates are ranked
    by mismatch so the result is independent of speaker ordering.
    """
    if tol_deg < 0:
        raise GeometryError("tolerance must be >= 0")
    dirs = layout.directions
    n = len(dirs)

    def on_median(d: Direction) -> bool:
        return min(abs(d.azimuth), abs(180.0 - abs(d.azimuth))) <= tol_deg

    candidates = []
    for i in range(n):
        if on_median(dirs[i]):
            continue
        for j in range(i + 1, n):
            if on_median(dirs[j]):
                continue
            az_err = abs(_normalize_azimuth(dirs[i].azimuth + dirs[j].azimuth))
            el_err = abs(dirs[i].elevation - dirs[j].elevation)
            if az_err <= tol_deg and el_err <= tol_deg:
                candidates.append((max(az_err, el_err), i, j))
    pairs = []
    used = set()
    for _, i, j in sorted(candidates):
        if i in used or j in used:
            continue
        used.update((i, j))
        pairs.append((i, j))
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# Hull triangulation for amplitude panning

_FLAT_ELEVATION_DEG = 0.5


def is_horizontal_layout(layout: SpeakerLayout) -> bool:
    return all(abs(d.elevation) <= _FLAT_ELEVATION_DEG for d in layout.directions)


def triangulate_hull(layout: SpeakerLayout):
    """Convex-hull faces of the speaker unit vectors, for panning.

    3D layouts return outward-oriented vertex triplets covering every hull
    face exactly once.  Layouts with all elevations within 0.5 deg of the
    horizon use the 2D path instead and return adjacent azimuth pairs.
    """
    if is_horizontal_layout(layout):
        n = len(layout)
        if n < 2:
            raise GeometryError("2D panning needs at least two speakers")
        order = sorted(range(n), key=lambda i: layout.directions[i].azimuth)
        pairs = []
        for k in range(n):
            a, b = order[k], order[(k + 1) % n]
            pair = (a, b) if a < b else (b, a)
            if pair not in pairs:
                pairs.append(pair)
        return pairs

    vecs = layout.unit_vectors()
    if len(layout) < 4:
        raise GeometryError(
            "3D hull needs at least 4 speakers; add virtual fill speakers "
            "to cover the missing region"
        )
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(vecs)
    except QhullError as exc:
        raise GeometryError(
            "degenerate layout (speaker directions lie in a single plane); "
            "virtual fill speakers are required"
        ) from exc
    if hull.volume < 1e-9:
        raise GeometryError(
            "degenerate layout (hull has no volume); virtual fill speakers "
            "are required"
        )
    centroid = vecs.mean(axis=0)
    triangles = []
    for simplex, eq in zip(hull.simplices, hull.equations):
        a, b, c = (int(i) for i in simplex)
        normal = eq[:3]
        face = np.cross(vecs[b] - vecs[a], vecs[c] - vecs[a])
        if np.dot(face, normal) < 0:
            b, c = c, b
        # outward = away from the hull centroid
        if np.dot(normal, vecs[a] - centroid) < 0:  # pragma: no cover
            b, c = c, b
        triangles.append((a, b, c))
    return triangles


def spherical_triangle_solid_angle(u1, u2, u3) -> float:
    """Signed solid angle of a spherical triangle (Van Oosterom-Strackee)."""
    triple = float(np.dot(u1, np.cross(u2, u3)))
    denom = (
        1.0
        + float(np.dot(u1, u2))
        + float(np.dot(u2, u3))
        + float(np.dot(u3, u1))
    )
    return 2.0 * math.atan2(triple, denom)


# ---------------------------------------------------------------------------
# Named layouts

_NAMED_LAYOUTS = {
    "5.0": (
        ("C", 0.0, 0.0),
        ("L", 30.0, 0.0),
        ("R", -30.0, 0.0),
        ("Ls", 110.0, 0.0),
        ("Rs", -110.0, 0.0),
    ),
    "5.0.2": (
        ("C", 0.0, 0.0),
        ("L", 30.0, 0.0),
        ("R", -30.0, 0.0),
        ("Ls", 110.0, 0.0),
        ("Rs", -110.0, 0.0),
        ("Tl", 90.0, 45.0),
        ("Tr", -90.0, 45.0),
    ),
    "7.0.4": (
        ("C", 0.0, 0.0),
        ("L", 30.0, 0.0),
        ("R", -30.0, 0.0),
        ("Ls", 90.0, 0.0),
        ("Rs", -90.0, 0.0),
        ("Lb", 135.0, 0.0),
        ("Rb", -135.0, 0.0),
        ("Tfl", 45.0, 45.0),
        ("Tfr", -45.0, 45.0),
        ("Tbl", 135.0, 45.0),
        ("Tbr", -135.0, 45.0),
    ),
    "3.0.1": (
        ("L", 10.0, 0.0),
        ("R", -45.0, 0.0),
        ("S", 180.0, 0.0),
        ("T", 0.0, 80.0),
    ),
    # equal-spread five-speaker ring, snapped to a 5-degree grid so the
    # 72-point horizontal cloud samples every speaker direction exactly
    "5.0_regular": (
        ("C", 0.0, 0.0),
        ("L", 70.0, 0.0),
        ("R", -70.0, 0.0),
        ("Ls", 145.0, 0.0),
        ("Rs", -145.0, 0.0),
    ),
    "octahedron": (
        ("F", 0.0, 0.0),
        ("B", 180.0, 0.0),
        ("L", 90.0, 0.0),
        ("R", -90.0, 0.0),
        ("U", 0.0, 90.0),
        ("D", 0.0, -90.0),
    ),
}


def named_layout(name: str, pair_tol_deg: float = 1.0) -> SpeakerLayout:
    """Built-in layout by name, with symmetry pairs detected."""
    if name not in _NAMED_LAYOUTS:
        raise GeometryError(
            f"unknown layout {name!r}; built-ins: {sorted(_NAMED_LAYOUTS)}"
        )
    speakers = tuple(
        (label, Direction(az, el)) for label, az, el in _NAMED_LAYOUTS[name]
    )
    return SpeakerLayout(speakers).with_detected_pairs(pair_tol_deg)

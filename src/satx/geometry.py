"""Sets of directions: sampling clouds, loudspeaker layouts, hull faces.

Conventions: azimuth in degrees, counterclockwise-positive seen from above
(0 = front, +90 = left), normalized to (-180, 180]; elevation in degrees,
positive up, in [-90, 90].  Unit vectors are (x front, y left, z up).

Every set of directions (a sampling cloud, a layout's speakers) is a pair
of degree arrays, ``azimuth`` and ``elevation``, checked and normalized by
``checked_angles``.  ``PointCloud`` adds weights and ``SpeakerLayout``
labels and symmetry pairs; both provide the unit ``vectors``.  The cloud
generators ``tdesign`` and ``fibonacci_sphere`` return the pair;
``config.parse_cloud`` reads a cloud from its config mapping and samples
it into a ``PointCloud``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import GeometryError

_EMBEDDED_DESIGN_SIZES = (56, 60)


def _normalize_azimuth(az):
    """Azimuths (a number or an array) wrapped into (-180, 180]."""
    a = np.fmod(np.asarray(az, dtype=float), 360.0)
    a = np.where(a > 180.0, a - 360.0, a)
    return np.where(a <= -180.0, a + 360.0, a)


def _unmatched(name: str, x, az) -> None:
    if len(x) != len(az):
        raise GeometryError(f"{len(x)} {name}s for {len(az)} azimuths; "
                            f"index {min(len(x), len(az))} is unmatched")


def checked_angles(azimuth, elevation, what: str = "directions"):
    """(azimuth, elevation) as float arrays, the azimuths normalized.

    A non-finite angle or an elevation outside [-90, 90] is rejected with
    the field ``what[i]`` of the first bad direction.
    """
    az = np.array(azimuth, dtype=float).reshape(-1)
    el = np.array(elevation, dtype=float).reshape(-1)
    _unmatched("elevation", el, az)
    if not len(az):
        raise GeometryError(f"no {what} given")
    bad = ~np.isfinite(az) | ~(np.abs(el) <= 90.0)
    if bad.any():
        i = int(np.argmax(bad))
        reason = (f"azimuth {az[i]} is not finite" if not np.isfinite(az[i])
                  else f"elevation {el[i]} outside [-90, 90]")
        raise GeometryError(reason, f"{what}[{i}]")
    return _normalize_azimuth(az), el


def unit_vectors(azimuth, elevation) -> np.ndarray:
    """(n, 3) unit vectors (x front, y left, z up) of degree arrays."""
    az = np.radians(np.asarray(azimuth, dtype=float))
    el = np.radians(np.asarray(elevation, dtype=float))
    cos_el = np.cos(el)
    return np.column_stack((cos_el * np.cos(az), cos_el * np.sin(az),
                            np.sin(el)))


def from_unit_vectors(v):
    """(azimuth, elevation) arrays of (n, 3) vectors, not necessarily unit."""
    v = np.asarray(v, dtype=float).reshape(-1, 3)
    r = np.linalg.norm(v, axis=1)
    if not r.all():
        raise GeometryError("zero vector has no direction")
    az = np.degrees(np.arctan2(v[:, 1], v[:, 0]))
    el = np.degrees(np.arcsin(np.clip(v[:, 2] / r, -1.0, 1.0)))
    return _normalize_azimuth(az), el


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Directions:
    """``len`` and unit ``vectors`` of a set's azimuth and elevation arrays."""

    def __len__(self) -> int:
        return len(self.azimuth)

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """Read-only (n, 3) unit vectors, computed on first use."""
        return _read_only(unit_vectors(self.azimuth, self.elevation))


# ---------------------------------------------------------------------------
# Point clouds


@dataclass(frozen=True, eq=False)
class PointCloud(_Directions):
    """Sampled virtual-source directions with per-direction weights.

    ``azimuth``, ``elevation`` and ``weights`` are read-only arrays of one
    entry per direction; azimuths are normalized at construction.  Weights
    are rescaled so that their mean is 1 (sum equals the number of
    directions); relative weights are what matters downstream.  A cloud
    compares and hashes by identity.
    """

    azimuth: np.ndarray
    elevation: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        az, el = checked_angles(self.azimuth, self.elevation)
        w = (np.ones(len(az)) if self.weights is None
             else np.array(self.weights, dtype=float).reshape(-1))
        _unmatched("weight", w, az)
        bad = ~(np.isfinite(w) & (w > 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise GeometryError(f"direction {i}: weight {w[i]} is not "
                                "positive and finite")
        w *= len(az) / w.sum()
        object.__setattr__(self, "azimuth", _read_only(az))
        object.__setattr__(self, "elevation", _read_only(el))
        object.__setattr__(self, "weights", _read_only(w))


def tdesign(points: int):
    """(azimuth, elevation) of an embedded design of 56 or 60 points."""
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
    rows = [[float(x) for x in line.split()] for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    if len(rows) != points or any(len(row) != 2 for row in rows):
        raise GeometryError(f"embedded design table corrupt for n={points}")
    az, el = np.array(rows).T
    return az, el


def fibonacci_sphere(n: int):
    """(azimuth, elevation) of a deterministic Fibonacci spiral of n points.

    The elevations take ``math.asin`` point by point: ``np.arcsin`` rounds
    differently on some inputs, and the clouds must keep their bits.
    """
    if n < 1:
        raise GeometryError("fibonacci cloud needs n >= 1")
    golden = math.pi * (3.0 - math.sqrt(5.0))
    k = np.arange(n)
    z = np.clip(1.0 - (2.0 * k + 1.0) / n, -1.0, 1.0)
    el = np.degrees([math.asin(x) for x in z.tolist()])
    return np.degrees(k * golden), el


def mirror_indices(vecs: np.ndarray, tol_deg: float = 0.1) -> np.ndarray:
    """Index of each unit vector's left-right mirror partner, or -1 if absent.

    ``vecs`` is (n, 3), a cloud's ``vectors``.  Median-plane directions are
    their own partner.  Used by the symmetry cost term to compare mirrored
    source directions.

    The partner is the direction of the largest dot product with the
    mirrored vector, if that is at least cos(tol_deg); the first index
    wins a tie.  Such a partner lies within the chord 2 sin(tol_deg / 2)
    of the mirrored vector, and mirroring keeps x, so with the directions
    sorted by x only those within that chord of a direction's own x are
    candidates: O(n log n) for a cloud spread over x.
    """
    mirrored = vecs * np.array([1.0, -1.0, 1.0])
    cos_tol = math.cos(math.radians(tol_deg))
    # the margin covers the rounding of unit vectors and of their dots
    reach = 2.0 * math.sin(math.radians(tol_deg) / 2.0) + 1e-9
    x = vecs[:, 0]
    order = np.argsort(x, kind="stable")
    lo = np.searchsorted(x[order], x - reach, side="left")
    counts = np.searchsorted(x[order], x + reach, side="right") - lo
    # each direction's window holds the direction itself, so none is empty
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(vecs)), counts)
    cand = order[np.arange(counts.sum()) + np.repeat(lo - starts, counts)]
    dots = np.einsum("ij,ij->i", mirrored[owner], vecs[cand])
    best = np.maximum.reduceat(dots, starts)
    first = np.minimum.reduceat(
        np.where(dots == best[owner], cand, len(vecs)), starts)
    return np.where(best >= cos_tol, first, -1)


# ---------------------------------------------------------------------------
# Loudspeaker layouts


@dataclass(frozen=True, eq=False)
class SpeakerLayout(_Directions):
    """Named loudspeaker directions plus optional left-right symmetry pairs.

    ``labels`` is a tuple of one label per speaker; ``azimuth`` and
    ``elevation`` are read-only arrays, as on a ``PointCloud``.
    ``symmetry_pairs`` are speaker index pairs, kept sorted; a bad one is
    rejected with the field ``pairs[i]`` of its position in the given
    sequence.  A layout compares and hashes by identity, and keeps its
    panning faces (``panning_bases``) once computed.
    """

    labels: tuple
    azimuth: np.ndarray
    elevation: np.ndarray
    symmetry_pairs: tuple = field(default=())

    def __post_init__(self):
        labels = tuple(str(label) for label in self.labels)
        az, el = checked_angles(self.azimuth, self.elevation, "speakers")
        _unmatched("label", labels, az)
        if len(set(labels)) != len(labels):
            raise GeometryError("speaker labels must be unique")
        for label in labels:
            if not label or any(c.isspace() for c in label):
                raise GeometryError(f"bad speaker label {label!r}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "azimuth", _read_only(az))
        object.__setattr__(self, "elevation", _read_only(el))
        dots = self.vectors @ self.vectors.T
        np.fill_diagonal(dots, -1.0)
        if dots.max() > math.cos(math.radians(0.1)):
            i, j = np.unravel_index(np.argmax(dots), dots.shape)
            raise GeometryError(
                f"speakers {labels[i]!r} and {labels[j]!r} closer than 0.1 deg"
            )
        pairs = tuple((int(p), int(q)) for p, q in self.symmetry_pairs)
        seen = set()
        for i, (p, q) in enumerate(pairs):
            if not (0 <= p < len(labels) and 0 <= q < len(labels)):
                raise GeometryError(f"({p}, {q}) are not speaker indices",
                                    f"pairs[{i}]")
            pair = f"({labels[p]}, {labels[q]})"
            if p == q:
                raise GeometryError(f"{pair} pairs a speaker with itself",
                                    f"pairs[{i}]")
            if p in seen or q in seen:
                raise GeometryError(
                    f"{pair}: {labels[p if p in seen else q]} is already "
                    "in a pair", f"pairs[{i}]")
            seen.update((p, q))
        object.__setattr__(self, "symmetry_pairs", tuple(sorted(pairs)))

    @functools.cached_property
    def panning_bases(self):
        """Solvable panning faces (F x k) and their stacked inverse bases
        (F x k x k), computed on first use.

        k is 2 for horizontal layouts (adjacent azimuth pairs) and 3
        otherwise (hull triangles); faces coplanar with the origin are
        dropped.
        """
        faces = np.array(triangulate_hull(self))
        k = faces.shape[1]
        bases = self.vectors[faces, :k].transpose(0, 2, 1)  # speaker columns
        solvable = np.abs(np.linalg.det(bases)) >= 1e-12
        if not solvable.any():
            raise GeometryError(
                "every panning face is coplanar with the origin")
        return (_read_only(faces[solvable]),
                _read_only(np.linalg.inv(bases[solvable])))


def layout_with_pairs(labels, azimuth, elevation,
                      tol_deg: float = 1.0) -> SpeakerLayout:
    """A layout with its symmetry pairs detected from the angles first, so
    it is constructed and checked once; bad angles fail in the check."""
    az = _normalize_azimuth(np.asarray(azimuth, dtype=float).reshape(-1))
    el = np.asarray(elevation, dtype=float).reshape(-1)
    pairs = detect_symmetry_pairs(az, el, tol_deg) if len(az) == len(el) else ()
    return SpeakerLayout(labels, az, el, pairs)


def layout_from_cloud(cloud: PointCloud) -> SpeakerLayout:
    """A virtual layout of speakers V0, V1, ... at a cloud's directions."""
    return SpeakerLayout(tuple(f"V{i}" for i in range(len(cloud))),
                         cloud.azimuth, cloud.elevation)


def detect_symmetry_pairs(az, el, tol_deg: float = 1.0) -> tuple:
    """Left-right mirrored index pairs of speakers at normalized angles.

    A pair (p, q) satisfies azimuth_p ~ -azimuth_q and equal elevations
    within tol; median-plane speakers stay unpaired.  Candidates are ranked
    by mismatch so the result is independent of speaker ordering.
    """
    if tol_deg < 0:
        raise GeometryError("tolerance must be >= 0")
    off_median = np.minimum(np.abs(az), np.abs(180.0 - np.abs(az))) > tol_deg
    az_err = np.abs(_normalize_azimuth(az[:, None] + az[None, :]))
    el_err = np.abs(el[:, None] - el[None, :])
    close = ((az_err <= tol_deg) & (el_err <= tol_deg)
             & off_median[:, None] & off_median[None, :])
    i, j = np.nonzero(np.triu(close, 1))
    err = np.maximum(az_err, el_err)[i, j]
    pairs = []
    used = set()
    for _, p, q in sorted(zip(err.tolist(), i.tolist(), j.tolist())):
        if p in used or q in used:
            continue
        used.update((p, q))
        pairs.append((p, q))
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# Hull triangulation for amplitude panning

_FLAT_ELEVATION_DEG = 0.5


def is_horizontal_layout(layout: SpeakerLayout) -> bool:
    return bool(np.all(np.abs(layout.elevation) <= _FLAT_ELEVATION_DEG))


def triangulate_hull(layout: SpeakerLayout):
    """Convex-hull faces of the speaker unit vectors, for panning.

    3D layouts return outward-oriented vertex triplets covering every hull
    face exactly once: qhull's, which a layout with the angles of a
    built-in 3D layout takes from ``_QHULL_FACES`` without loading
    ``scipy.spatial``.  Layouts with all elevations within 0.5 deg of the
    horizon use the 2D path instead and return adjacent azimuth pairs.
    """
    if is_horizontal_layout(layout):
        n = len(layout)
        if n < 2:
            raise GeometryError("2D panning needs at least two speakers")
        order = np.argsort(layout.azimuth, kind="stable").tolist()
        pairs = []
        for k in range(n):
            a, b = order[k], order[(k + 1) % n]
            pair = (a, b) if a < b else (b, a)
            if pair not in pairs:
                pairs.append(pair)
        return pairs

    frozen = _frozen_faces().get(_angles_key(layout))
    if frozen is not None:
        return list(frozen)
    return _qhull_triangles(layout)


def _qhull_triangles(layout: SpeakerLayout):
    """qhull's faces of a 3D layout, oriented outward, in qhull's order."""
    vecs = layout.vectors
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


# qhull's faces of the built-in 3D layouts, in its order and orientation,
# as triangulate_hull returns them from scipy.spatial
_QHULL_FACES = {
    "5.0.2": ((6, 0, 5), (1, 3, 5), (1, 5, 0), (2, 6, 4), (2, 0, 6),
              (6, 5, 3), (6, 3, 4), (2, 4, 3), (2, 3, 1), (2, 1, 0)),
    "7.0.4": ((6, 4, 10), (9, 3, 5), (9, 7, 3), (8, 0, 7), (8, 10, 4),
              (1, 7, 0), (1, 3, 7), (2, 0, 8), (2, 8, 4), (9, 5, 6),
              (9, 6, 10), (8, 9, 10), (8, 7, 9), (2, 1, 0), (2, 5, 3),
              (2, 6, 5), (2, 4, 6), (2, 3, 1)),
    "3.0.1": ((1, 2, 0), (3, 0, 2), (3, 2, 1), (3, 1, 0)),
    "octahedron": ((5, 3, 1), (5, 0, 3), (4, 1, 3), (4, 3, 0), (2, 0, 5),
                   (2, 5, 1), (2, 4, 0), (2, 1, 4)),
}


def _angles_key(layout: SpeakerLayout) -> tuple:
    return tuple(layout.azimuth.tolist()), tuple(layout.elevation.tolist())


@functools.cache
def _frozen_faces() -> dict:
    """``_QHULL_FACES`` keyed by each layout's normalized angles, so any
    layout with those speakers in that order gets them, whatever its
    labels."""
    return {_angles_key(named_layout(name)): faces
            for name, faces in _QHULL_FACES.items()}


def named_layout(name: str, pair_tol_deg: float = 1.0) -> SpeakerLayout:
    """Built-in layout by name, with symmetry pairs detected."""
    if name not in _NAMED_LAYOUTS:
        raise GeometryError(
            f"unknown layout {name!r}; built-ins: {sorted(_NAMED_LAYOUTS)}"
        )
    labels, az, el = zip(*_NAMED_LAYOUTS[name])
    return layout_with_pairs(labels, az, el, pair_tol_deg)

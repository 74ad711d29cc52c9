"""Per-direction physical and psychoacoustic quantities of a decoding.

Everything is derived from the speaker matrix: the per-direction gains
each loudspeaker receives when reproducing a unit virtual source.  The
coherent quantities (pressure, velocity vector) describe summed-amplitude
behaviour; the incoherent ones (energy, energy vector) describe
summed-power behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, check_matrix
from .geometry import PointCloud, SpeakerLayout

COHERENT = "coherent"
INCOHERENT = "incoherent"

PRESSURE_GUARD = 1e-9
ENERGY_GUARD = 1e-18

METRIC_COLUMNS = (
    "azimuth", "elevation", "weight",
    "pressure", "velocity_radial", "velocity_transverse",
    "energy", "intensity_radial", "intensity_transverse",
    "asw_deg", "angular_error_deg", "level_db",
)


@dataclass(frozen=True, eq=False)
class SpeakerMatrix:
    """Loudspeaker gains for each sampled direction (L x P).

    ``entries`` is a read-only copy; the matrix compares and hashes by
    identity.
    """

    entries: np.ndarray
    cloud: PointCloud
    layout: SpeakerLayout

    def __post_init__(self):
        object.__setattr__(self, "entries", check_matrix(
            self.entries, (len(self.cloud), len(self.layout)),
            "speaker matrix (directions x speakers)"))


def speaker_matrix(g, t, d_spk) -> SpeakerMatrix:
    """Chain the encoding, transcoding, and decoding matrices (L x P).

    Row l holds the loudspeaker gains produced by a unit virtual source at
    cloud direction l.
    """
    gm = g.entries
    tm = np.asarray(t, dtype=float)
    dm = d_spk.entries
    if gm.shape[1] != tm.shape[1]:
        raise DimensionError(
            f"encoding has {gm.shape[1]} channels but transcoder consumes "
            f"{tm.shape[1]}"
        )
    if dm.shape[1] != tm.shape[0]:
        raise DimensionError(
            f"decoder consumes {dm.shape[1]} channels but transcoder "
            f"produces {tm.shape[0]}"
        )
    return SpeakerMatrix(gm @ tm.T @ dm.T, g.cloud, d_spk.layout)


def guard_pressure(p: np.ndarray) -> np.ndarray:
    """Clamp pressure magnitudes away from zero, keeping the sign.

    The sign of +-0.0 resolves to +1 so the guard never returns zero.
    """
    return np.copysign(np.maximum(np.abs(p), PRESSURE_GUARD), p)


def guard_energy(e: np.ndarray) -> np.ndarray:
    return np.maximum(e, ENERGY_GUARD)


def direction_vector(xt: np.ndarray, g: np.ndarray, u: np.ndarray,
                     v_t: np.ndarray):
    """Radial and transverse parts of a per-direction vector, speaker-major.

    ``xt`` holds per-speaker weights as a (P x L) array, speakers by
    directions: the gains s for the coherent velocity vector, their
    squares s*s for the incoherent energy vector.  ``g`` is the guarded
    magnitude, the speaker sum of ``xt`` (pressure or energy) kept away
    from zero.  ``u`` are the (P x 3) speaker unit vectors and ``v_t``
    the direction unit vectors as the rows of a (3 x L) array.  Returns
    the radial part r = vec . v (an L-array) and the transverse part
    vec - r v (3 x L) of vec = (Uᵀ xt) / g.  The cost kernel and the
    analysis both call it, so these physics exist once.
    """
    vec = (u.T @ xt) / g
    radial = np.add.reduce(vec * v_t, axis=0)
    return radial, vec - radial * v_t


def coherent_metrics(s: SpeakerMatrix):
    """Pressure and radial/transverse velocity per direction."""
    xt = s.entries.T
    pressure = np.add.reduce(xt, axis=0)
    radial, perp = direction_vector(
        xt, guard_pressure(pressure), s.layout.vectors, s.cloud.vectors.T,
    )
    return pressure, radial, np.linalg.norm(perp, axis=0)


def incoherent_metrics(s: SpeakerMatrix):
    """Energy and radial/transverse energy-vector components per direction."""
    xt = s.entries.T**2
    energy = np.add.reduce(xt, axis=0)
    radial, perp = direction_vector(
        xt, guard_energy(energy), s.layout.vectors, s.cloud.vectors.T,
    )
    return energy, radial, np.linalg.norm(perp, axis=0)


def perceptual_metrics(radial, transverse, magnitude, mode: str):
    """Source width, angular error, and level from vector components.

    ``magnitude`` is the energy in incoherent mode and the pressure in
    coherent mode; the level follows the same convention (10 log10 E or
    20 log10 |P|).
    """
    radial = np.asarray(radial, dtype=float)
    transverse = np.asarray(transverse, dtype=float)
    vec_norm = np.sqrt(radial**2 + transverse**2)
    asw = 0.75 * np.degrees(np.arccos(np.clip(vec_norm, -1.0, 1.0)))
    err = np.degrees(np.arctan2(transverse, radial))
    mag = np.asarray(magnitude, dtype=float)
    if mode == INCOHERENT:
        level = 10.0 * np.log10(guard_energy(mag))
    elif mode == COHERENT:
        level = 20.0 * np.log10(np.maximum(np.abs(mag), PRESSURE_GUARD))
    else:
        raise DimensionError(f"unknown analysis mode {mode!r}")
    return asw, err, level


@dataclass(frozen=True)
class DirectionMetrics:
    """All per-direction quantities for one speaker matrix."""

    cloud: PointCloud
    pressure: np.ndarray
    velocity_radial: np.ndarray
    velocity_transverse: np.ndarray
    energy: np.ndarray
    intensity_radial: np.ndarray
    intensity_transverse: np.ndarray
    asw_deg: np.ndarray
    angular_error_deg: np.ndarray
    level_db: np.ndarray
    mode: str

    def column(self, name: str) -> np.ndarray:
        if name in ("azimuth", "elevation"):
            return getattr(self.cloud, name)
        if name == "weight":
            return self.cloud.weights
        return getattr(self, name)

    def table(self) -> np.ndarray:
        return np.column_stack([self.column(c) for c in METRIC_COLUMNS])


def direction_metrics(s: SpeakerMatrix, mode: str = INCOHERENT) -> DirectionMetrics:
    """Compute every metric; width/error/level use the requested mode."""
    pressure, vr, vt = coherent_metrics(s)
    energy, ir, it = incoherent_metrics(s)
    if mode == COHERENT:
        asw, err, level = perceptual_metrics(vr, vt, pressure, mode)
    else:
        asw, err, level = perceptual_metrics(ir, it, energy, mode)
    return DirectionMetrics(
        cloud=s.cloud,
        pressure=pressure,
        velocity_radial=vr,
        velocity_transverse=vt,
        energy=energy,
        intensity_radial=ir,
        intensity_transverse=it,
        asw_deg=asw,
        angular_error_deg=err,
        level_db=level,
        mode=mode,
    )


def summarize(values, weights=None) -> dict:
    """Five-number box-plot summary with Tukey whiskers.

    Quantiles use linear interpolation; whiskers sit on the most extreme
    points within 1.5 IQR of the quartiles.  Weights are carried along in
    reports but do not enter the quantiles.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise DimensionError("cannot summarize an empty series")
    q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    return {
        "median": float(median),
        "q1": float(q1),
        "q3": float(q3),
        "whisker_low": float(values[values >= lo_fence].min()),
        "whisker_high": float(values[values <= hi_fence].max()),
    }

"""Input/output format characterization matrices.

Builds the encoding matrix (how sampled virtual sources map into the
input format's channels) and the decoding-to-speaker matrix (how the
output format's channels map onto a real or virtual loudspeaker layout),
plus channel-remapping baseline transcoders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry
from .errors import (CoverageError, DimensionError, GeometryError,
                     check_integer, check_matrix)
from .geometry import PointCloud, SpeakerLayout

SN3D = "SN3D"
N3D = "N3D"


# ---------------------------------------------------------------------------
# Real spherical harmonics (ACN channel ordering)


def sh_matrix(azimuth, elevation, order: int,
              normalization: str = SN3D) -> np.ndarray:
    """Real spherical harmonics evaluated at each direction (degree arrays).

    Returns an (L, (order+1)**2) matrix in ACN channel order
    (index n*(n+1)+m).  SN3D and N3D normalizations are supported; the
    degree-0 channel is 1 under both.  No Condon-Shortley phase.
    """
    if order < 0 or order > 9:
        raise DimensionError(f"ambisonics order {order} outside [0, 9]")
    if normalization not in (SN3D, N3D):
        raise DimensionError(f"unknown normalization {normalization!r}")
    from scipy.special import lpmv

    az = np.radians(np.asarray(azimuth, dtype=float))
    sin_el = np.sin(np.radians(np.asarray(elevation, dtype=float)))
    out = np.empty((len(az), (order + 1) ** 2))
    for n in range(order + 1):
        for m in range(n + 1):
            # strip the Condon-Shortley phase baked into lpmv
            leg = (-1.0) ** m * lpmv(m, n, sin_el)
            norm = math.sqrt(
                (2.0 if m > 0 else 1.0)
                * math.factorial(n - m)
                / math.factorial(n + m)
            )
            if normalization == N3D:
                norm *= math.sqrt(2 * n + 1)
            out[:, n * (n + 1) + m] = norm * leg * np.cos(m * az)
            if m > 0:
                out[:, n * (n + 1) - m] = norm * leg * np.sin(m * az)
    return out


def acn_labels(order: int) -> tuple:
    return tuple(f"ACN{i}" for i in range((order + 1) ** 2))


# ---------------------------------------------------------------------------
# Amplitude / intensity panning


def _face_gains(layout: SpeakerLayout, azimuth, elevation):
    """Panning face and clipped raw gains of every direction (L x k each).

    Every direction is solved against every face at once and takes the
    first face (lowest index) whose gains are nonnegative; the gains solve
    v = sum g * u.  Raises CoverageError for the first uncovered direction.
    """
    faces, inverses = layout.panning_bases
    k = faces.shape[1]
    v = geometry.unit_vectors(azimuth, elevation)[:, :k]
    flat = np.zeros(len(v), dtype=bool)
    if k == 2:
        norm = np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]
        flat = norm[:, 0] < 1e-12
        v = v / np.where(flat[:, None], 1.0, norm)
    g = (inverses @ v[:, None, :, None])[..., 0]  # L x F x k
    accepted = (g.min(axis=2) >= -1e-9) & ~flat[:, None]
    covered = accepted.any(axis=1)
    if not covered.all():
        first = int(np.argmin(covered))
        az = float(np.asarray(azimuth, dtype=float)[first])
        el = float(np.asarray(elevation, dtype=float)[first])
        if flat[first]:
            raise CoverageError(
                f"direction az={az:.2f} el={el:.2f} has no horizontal "
                "component; 2D layout cannot pan it"
            )
        raise _uncovered(layout, az, el, v[first], faces, g[first])
    pick = accepted.argmax(axis=1)
    return faces[pick], np.clip(g[np.arange(len(v)), pick], 0.0, None)


def _uncovered(layout, az, el, v, faces, g) -> CoverageError:
    """The error naming (az, el) and its nearest covered direction.

    That is the least-bad face's clipped resultant or, when all of that
    face's gains are negative, the speaker nearest to the direction.
    """
    best = int(np.argmax(g.min(axis=1)))
    gains = np.clip(g[best], 0.0, None)
    u = layout.vectors.copy()
    u[:, len(v):] = 0.0  # 2D layouts pan in the horizontal plane
    if gains.any():
        (near_az,), (near_el,) = geometry.from_unit_vectors(
            u[faces[best]].T @ gains)
    else:
        i = int(np.argmax(u[:, :len(v)] @ v))
        near_az, near_el = layout.azimuth[i], layout.elevation[i]
    return CoverageError(
        f"direction az={az:.3f} el={el:.3f} is outside the panning hull; "
        f"nearest covered direction is az={near_az:.3f} el={near_el:.3f}"
    )


def vbap_matrix(layout: SpeakerLayout, azimuth, elevation) -> np.ndarray:
    """VBAP gains, one energy-normalized row (sum g^2 = 1) per direction."""
    faces, gains = _face_gains(layout, azimuth, elevation)
    out = np.zeros((len(faces), len(layout)))
    np.put_along_axis(out, faces, gains, axis=1)
    return out / np.sqrt(out[:, None, :] @ out[:, :, None])[:, 0]


# ---------------------------------------------------------------------------
# Format specifications


@dataclass(frozen=True)
class AmbisonicsSpec:
    """Scene-based format: real spherical harmonics, ACN ordering."""

    order: int
    normalization: str = SN3D

    def __post_init__(self):
        if not 0 <= check_integer(self.order, "order") <= 9:
            raise DimensionError(f"{self.order} outside [0, 9]", "order")
        if self.normalization not in (SN3D, N3D):
            raise DimensionError(
                f"{self.normalization!r} is not {SN3D} or {N3D}",
                "normalization",
            )

    @property
    def channels(self) -> int:
        return (self.order + 1) ** 2


@dataclass(frozen=True)
class VbapSpec:
    """Channel bed produced by VBAP panning over a layout."""

    layout: SpeakerLayout


@dataclass(frozen=True)
class ObjectsSpec:
    """Each sampled direction is its own input channel."""


@dataclass(frozen=True)
class ExternalSpec:
    """A loaded ``MatrixFile``: an encoding, or a decoder to speakers."""

    matrix: object


FormatSpec = object  # any of the four spec classes above


# ---------------------------------------------------------------------------
# Encoding and decoding matrices


@dataclass(frozen=True, eq=False)
class EncodingMatrix:
    """How sampled virtual sources are encoded into the input format (L x M).

    ``entries`` is a read-only copy; the matrix compares and hashes by
    identity.
    """

    entries: np.ndarray
    cloud: PointCloud
    channel_labels: tuple

    def __post_init__(self):
        labels = tuple(self.channel_labels)
        object.__setattr__(self, "entries", check_matrix(
            self.entries, (len(self.cloud), len(labels)),
            "encoding matrix (directions x input channels)"))
        object.__setattr__(self, "channel_labels", labels)

    @property
    def shape(self):
        return self.entries.shape


@dataclass(frozen=True, eq=False)
class DecoderToSpeaker:
    """How output-format channels feed the loudspeaker layout (P x N).

    ``entries`` is a read-only copy; the matrix compares and hashes by
    identity.
    """

    entries: np.ndarray
    layout: SpeakerLayout
    channel_labels: tuple

    def __post_init__(self):
        labels = tuple(self.channel_labels)
        object.__setattr__(self, "entries", check_matrix(
            self.entries, (len(self.layout), len(labels)),
            "decoder (speakers x output channels)"))
        object.__setattr__(self, "channel_labels", labels)

    @property
    def shape(self):
        return self.entries.shape


def ambisonics_encode(cloud: PointCloud, order: int,
                      normalization: str = SN3D) -> EncodingMatrix:
    """Encode every cloud direction into ambisonics channels."""
    y = sh_matrix(cloud.azimuth, cloud.elevation, order, normalization)
    return EncodingMatrix(y, cloud, acn_labels(order))


def build_encoding_matrix(spec: FormatSpec, cloud: PointCloud) -> EncodingMatrix:
    """Encoding matrix of the input format sampled on a cloud."""
    if isinstance(spec, AmbisonicsSpec):
        return ambisonics_encode(cloud, spec.order, spec.normalization)
    if isinstance(spec, VbapSpec):
        gains = vbap_matrix(spec.layout, cloud.azimuth, cloud.elevation)
        return EncodingMatrix(gains, cloud, spec.layout.labels)
    if isinstance(spec, ObjectsSpec):
        n = len(cloud)
        return EncodingMatrix(
            np.eye(n), cloud, tuple(f"obj{i}" for i in range(n))
        )
    if isinstance(spec, ExternalSpec):
        return EncodingMatrix(spec.matrix.values(), cloud,
                              spec.matrix.col_labels)
    raise DimensionError(f"unsupported input format spec {spec!r}")


_PINV_CUTOFF = 1e-8
# the null-space component from which a channel counts as lost
_NULL_COMPONENT = 1e-6


def lost_channels(entries: np.ndarray, labels) -> tuple:
    """Rank of ``entries`` (rows by channels) and the channels it loses.

    Singular values up to ``_PINV_CUTOFF`` times the largest count as
    zero, as in the pseudo-inverse decoders.  A channel is lost when its
    unit vector has a component in the null space, so that some signal
    on it maps to nothing.  At full column rank no channel is lost.
    """
    rows, cols = entries.shape
    _, sv, vt = np.linalg.svd(entries, full_matrices=rows < cols)
    rank = int((sv > _PINV_CUTOFF * sv.max(initial=0.0)).sum())
    weight = np.linalg.norm(vt[rank:], axis=0)
    return rank, tuple(label for label, x in zip(labels, weight)
                       if x > _NULL_COMPONENT)


def build_decoder_to_speaker(spec: FormatSpec, layout: SpeakerLayout) -> DecoderToSpeaker:
    """Decoding-to-speaker matrix of the output format over a layout.

    Speaker-format outputs (plain decoding) get the identity; ambisonics
    outputs get the SVD pseudo-inverse decoder over the (virtual) layout.
    """
    if isinstance(spec, VbapSpec) or spec is None:
        # speaker-format output: channels are the speakers themselves
        return identity_decoder(layout)
    if isinstance(spec, AmbisonicsSpec):
        y = sh_matrix(layout.azimuth, layout.elevation, spec.order,
                      spec.normalization)
        d = np.linalg.pinv(y.T, rcond=_PINV_CUTOFF)
        return DecoderToSpeaker(d, layout, acn_labels(spec.order))
    if isinstance(spec, ExternalSpec):
        return DecoderToSpeaker(spec.matrix.values(), layout,
                                spec.matrix.col_labels)
    raise DimensionError(f"unsupported output format spec {spec!r}")


def identity_decoder(layout: SpeakerLayout) -> DecoderToSpeaker:
    return DecoderToSpeaker(np.eye(len(layout)), layout, layout.labels)


# ---------------------------------------------------------------------------
# Channel-remapping baselines


def remap_baseline(azimuth, elevation, output: FormatSpec,
                   layout: Optional[SpeakerLayout] = None) -> np.ndarray:
    """Direct per-channel remapping transcoder (N x M).

    Column m encodes input channel m's direction (degree arrays) into the
    output format: an ambisonics row, or panning gains over the output
    layout.
    """
    if isinstance(output, AmbisonicsSpec):
        return sh_matrix(azimuth, elevation, output.order,
                         output.normalization).T
    if isinstance(output, VbapSpec):
        layout = output.layout
    if layout is None:
        raise DimensionError(f"cannot encode a direction in format {output!r}")
    return vbap_matrix(layout, azimuth, elevation).T


def panned_reference_decoder(input_spec: AmbisonicsSpec,
                             virtual_layout: SpeakerLayout,
                             output_layout: SpeakerLayout) -> np.ndarray:
    """Reference decoder: pseudo-inverse to a virtual layout, then VBAP.

    Decodes the scene to a dense virtual layout and remaps every virtual
    speaker onto the real layout with amplitude panning.  Serves as the
    built-in comparison decoder for scene-format inputs, where direct
    per-channel remapping is not defined.
    """
    virt = build_decoder_to_speaker(input_spec, virtual_layout)
    remap = vbap_matrix(output_layout, virtual_layout.azimuth,
                        virtual_layout.elevation).T  # P x J
    return remap @ virt.entries

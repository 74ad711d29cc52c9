"""The psychoacoustic cost function and its gradient.

Fourteen terms are summed with nonnegative prefactors: six primary terms
(squared deviations of pressure, radial/transverse velocity, energy, and
radial/transverse energy-vector components from their ideal values), plus
soft penalties for out-of-phase gains, left-right asymmetry, gain caps on
the transcoder entries, and non-sparse speaker rows.

The symmetry penalty compares each direction's speaker gains against the
pair-swapped gains at the left-right mirrored direction; directions whose
mirror is absent from the cloud do not contribute.  On the median plane
the comparison collapses to the same direction's own paired speakers.

Denominator guards keep every term finite at silent directions; step and
absolute-value kinks use the conventions sign(0) = 0 and step' = 0, so
gradients are piecewise smooth.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import geometry
from .analysis import (
    ENERGY_GUARD,
    PRESSURE_GUARD,
    SpeakerMatrix,
    TranscodingMatrix,
    direction_vector,
    guard_energy,
    guard_pressure,
)
from .errors import DimensionError, check_number
from .formats import DecoderToSpeaker, EncodingMatrix

TERM_NAMES = (
    "pressure",
    "velocity_radial",
    "velocity_transverse",
    "energy",
    "intensity_radial",
    "intensity_transverse",
    "in_phase_linear",
    "in_phase_quadratic",
    "symmetry_linear",
    "symmetry_quadratic",
    "gain_cap_linear",
    "gain_cap_quadratic",
    "sparsity_linear",
    "sparsity_quadratic",
)

PRIMARY_TERMS = TERM_NAMES[:6]


@dataclass(frozen=True)
class CostCoefficients:
    """Prefactors of the cost terms, all nonnegative.

    ``max_boost_db`` sets the gain-cap threshold: transcoder entries above
    10**(max_boost_db/20) are penalized by the gain-cap terms.
    """

    pressure: float = 0.0
    velocity_radial: float = 0.0
    velocity_transverse: float = 0.0
    energy: float = 0.0
    intensity_radial: float = 0.0
    intensity_transverse: float = 0.0
    in_phase_linear: float = 0.0
    in_phase_quadratic: float = 0.0
    symmetry_linear: float = 0.0
    symmetry_quadratic: float = 0.0
    gain_cap_linear: float = 0.0
    gain_cap_quadratic: float = 0.0
    sparsity_linear: float = 0.0
    sparsity_quadratic: float = 0.0
    max_boost_db: float = 3.0

    def __post_init__(self):
        for f in fields(self):
            minimum = None if f.name == "max_boost_db" else 0
            object.__setattr__(self, f.name, check_number(
                getattr(self, f.name), f.name, minimum))

    @property
    def max_gain(self) -> float:
        return 10.0 ** (self.max_boost_db / 20.0)

    def has_primary_term(self) -> bool:
        return any(getattr(self, name) > 0 for name in PRIMARY_TERMS)


@dataclass(frozen=True)
class CostBreakdown:
    """Raw value of every cost term plus the coefficient-weighted total."""

    terms: dict
    total: float

    def __getitem__(self, name: str) -> float:
        return self.terms[name]

    def as_text(self) -> str:
        lines = [f"{name} {self.terms[name]:.17g}" for name in TERM_NAMES]
        lines.append(f"total {self.total:.17g}")
        return "\n".join(lines) + "\n"


class _ProblemGeometry:
    """Static per-(cloud, layout) arrays shared by cost and gradient."""

    def __init__(self, cloud, layout, pairs, coeffs: CostCoefficients):
        if (coeffs.symmetry_linear or coeffs.symmetry_quadratic) and not pairs:
            warnings.warn(
                "symmetry coefficients set but the layout has no symmetry "
                "pairs; the symmetry terms are zero",
                stacklevel=3,
            )
        self.v = cloud.unit_vectors()  # (L, 3)
        self.u = layout.unit_vectors()  # (P, 3)
        self.w = cloud.weights / len(cloud)  # premultiplied 1/L
        self.udotv = self.v @ self.u.T  # (L, P)
        mirror = geometry.mirror_indices(cloud.directions)
        self.rows = np.nonzero(mirror >= 0)[0]
        self.mu = mirror[self.rows]
        self.pa = np.array([p for p, _ in pairs], dtype=int)
        self.pb = np.array([q for _, q in pairs], dtype=int)


def _evaluate(s, t, geo: _ProblemGeometry, coeffs: CostCoefficients,
              want_gradient: bool):
    """All 14 term values, and optionally (dC/dS, dC/dT_direct)."""
    s = np.asarray(s, dtype=float)
    w, u, v = geo.w, geo.u, geo.v
    p_raw, pg, vr, vt = direction_vector(s, u, v, guard_pressure)
    e_raw, eg, ir, it = direction_vector(s * s, u, v, guard_energy)
    abs_pg = np.abs(pg)
    vt2 = (vt * vt).sum(axis=1)
    it2 = (it * it).sum(axis=1)

    s_neg = np.minimum(s, 0.0)
    m1_neg = -s_neg.sum(axis=1)
    e_neg = (s_neg * s_neg).sum(axis=1)
    phi_lin = m1_neg / abs_pg
    phi_quad = e_neg / eg

    l1 = np.abs(s).sum(axis=1)
    l2 = np.sqrt(e_raw)
    sp_lin = (l1 - l2) / abs_pg
    sp_quad = (l1 * l1 - e_raw) / eg

    have_pairs = geo.pa.size > 0 and geo.rows.size > 0
    delta_lin = np.zeros(len(s))
    delta_quad = np.zeros(len(s))
    if have_pairs:
        rows, mu = geo.rows, geo.mu
        dmat = s[rows][:, geo.pa] - s[mu][:, geo.pb]
        delta_lin[rows] = np.abs(dmat).sum(axis=1) / abs_pg[rows]
        delta_quad[rows] = (dmat * dmat).sum(axis=1) / eg[rows]

    if t is not None:
        t = np.asarray(t, dtype=float)
        nm = t.size
        cap_mask = t > coeffs.max_gain
        sig_lin = (t * cap_mask).sum() / nm
        sig_quad = (t * t * cap_mask).sum() / nm
    else:
        sig_lin = sig_quad = 0.0

    terms = {
        "pressure": float((w * (1.0 - p_raw) ** 2).sum()),
        "velocity_radial": float((w * (1.0 - vr) ** 2).sum()),
        "velocity_transverse": float((w * vt2).sum()),
        "energy": float((w * (1.0 - e_raw) ** 2).sum()),
        "intensity_radial": float((w * (1.0 - ir) ** 2).sum()),
        "intensity_transverse": float((w * it2).sum()),
        "in_phase_linear": float((w * phi_lin**2).sum()),
        "in_phase_quadratic": float((w * phi_quad**2).sum()),
        "symmetry_linear": float((w * delta_lin**2).sum()),
        "symmetry_quadratic": float((w * delta_quad**2).sum()),
        "gain_cap_linear": float(sig_lin**2),
        "gain_cap_quadratic": float(sig_quad**2),
        "sparsity_linear": float((w * sp_lin**2).sum()),
        "sparsity_quadratic": float((w * sp_quad**2).sum()),
    }
    if not want_gradient:
        return terms, None, None

    c = coeffs
    ds = np.zeros_like(s)
    dt = np.zeros_like(t) if t is not None else None
    g_p = (np.abs(p_raw) > PRESSURE_GUARD).astype(float)
    g_e = (e_raw > ENERGY_GUARD).astype(float)
    sgn_pg = np.sign(pg)

    if c.pressure:
        ds += (c.pressure * 2.0 * w * (p_raw - 1.0))[:, None]
    if c.velocity_radial:
        a = c.velocity_radial * 2.0 * w * (vr - 1.0) / pg
        ds += a[:, None] * (geo.udotv - (vr * g_p)[:, None])
    if c.velocity_transverse:
        b = c.velocity_transverse * 2.0 * w / pg
        ds += b[:, None] * (vt @ u.T - (vt2 * g_p)[:, None])
    if c.energy:
        ds += (c.energy * 4.0 * w * (e_raw - 1.0))[:, None] * s
    if c.intensity_radial:
        a = c.intensity_radial * 4.0 * w * (ir - 1.0) / eg
        ds += a[:, None] * s * (geo.udotv - (ir * g_e)[:, None])
    if c.intensity_transverse:
        b = c.intensity_transverse * 4.0 * w / eg
        ds += b[:, None] * s * (it @ u.T - (it2 * g_e)[:, None])
    if c.in_phase_linear:
        a = c.in_phase_linear * 2.0 * w * phi_lin
        dphi = (
            -(s < 0).astype(float) / abs_pg[:, None]
            - (m1_neg * sgn_pg * g_p / pg**2)[:, None]
        )
        ds += a[:, None] * dphi
    if c.in_phase_quadratic:
        a = c.in_phase_quadratic * 2.0 * w * phi_quad
        dphi = 2.0 * s_neg / eg[:, None] - (2.0 * e_neg * g_e / eg**2)[:, None] * s
        ds += a[:, None] * dphi
    if have_pairs and (c.symmetry_linear or c.symmetry_quadratic):
        rows, mu = geo.rows, geo.mu
        if c.symmetry_linear:
            a = (c.symmetry_linear * 2.0 * w * delta_lin)[rows]
            sgn_d = np.sign(dmat)
            scale = (a / abs_pg[rows])[:, None] * sgn_d
            np.add.at(ds, (rows[:, None], geo.pa[None, :]), scale)
            np.add.at(ds, (mu[:, None], geo.pb[None, :]), -scale)
            den = a * (-delta_lin[rows] * sgn_pg[rows] * g_p[rows] / abs_pg[rows])
            ds[rows] += den[:, None]
        if c.symmetry_quadratic:
            a = (c.symmetry_quadratic * 2.0 * w * delta_quad)[rows]
            scale = (a / eg[rows])[:, None] * 2.0 * dmat
            np.add.at(ds, (rows[:, None], geo.pa[None, :]), scale)
            np.add.at(ds, (mu[:, None], geo.pb[None, :]), -scale)
            den = a * (-delta_quad[rows] * 2.0 * g_e[rows] / eg[rows])
            ds[rows] += den[:, None] * s[rows]
    if c.sparsity_linear:
        a = c.sparsity_linear * 2.0 * w * sp_lin
        dl2 = s / np.maximum(l2, 1e-300)[:, None]
        dsp = (np.sign(s) - dl2) / abs_pg[:, None] - (
            sp_lin * sgn_pg * g_p / abs_pg
        )[:, None]
        ds += a[:, None] * dsp
    if c.sparsity_quadratic:
        a = c.sparsity_quadratic * 2.0 * w * sp_quad
        dsp = (2.0 * l1[:, None] * np.sign(s) - 2.0 * s) / eg[:, None] - (
            sp_quad * 2.0 * g_e / eg
        )[:, None] * s
        ds += a[:, None] * dsp
    if t is not None and c.gain_cap_linear:
        dt += c.gain_cap_linear * 2.0 * sig_lin * cap_mask / t.size
    if t is not None and c.gain_cap_quadratic:
        dt += c.gain_cap_quadratic * 2.0 * sig_quad * 2.0 * t * cap_mask / t.size
    return terms, ds, dt


def _weighted_total(terms: dict, coeffs: CostCoefficients) -> float:
    return float(sum(getattr(coeffs, k) * terms[k] for k in TERM_NAMES))


def cost_terms(s: SpeakerMatrix, gains=None, pairs=None,
               coeffs: CostCoefficients = None) -> CostBreakdown:
    """Evaluate every cost term for a speaker matrix.

    ``gains`` is the matrix whose entries the gain-cap terms inspect (the
    transcoder, which equals the decoding matrix in plain decoding).
    """
    coeffs = coeffs if coeffs is not None else CostCoefficients()
    if pairs is None:
        pairs = s.layout.symmetry_pairs
    geo = _ProblemGeometry(s.cloud, s.layout, pairs, coeffs)
    g = None if gains is None else np.asarray(gains, dtype=float)
    terms, _, _ = _evaluate(s.entries, g, geo, coeffs, want_gradient=False)
    return CostBreakdown(terms, _weighted_total(terms, coeffs))


@dataclass
class TranscodingProblem:
    """Everything the optimizer needs: formats, cloud, layout, prefactors.

    ``input_channel_directions`` enables remap-style initialization when
    the input format has per-channel directions (speaker beds, objects).
    """

    encoding: EncodingMatrix
    decoder: DecoderToSpeaker
    coeffs: CostCoefficients
    pairs: Optional[tuple] = None
    input_channel_directions: Optional[tuple] = None
    output_spec: object = None

    def __post_init__(self):
        if self.pairs is None:
            self.pairs = self.decoder.layout.symmetry_pairs
        self._geo = _ProblemGeometry(
            self.encoding.cloud, self.decoder.layout, self.pairs, self.coeffs
        )

    @property
    def n_inputs(self) -> int:
        return self.encoding.entries.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.decoder.entries.shape[1]

    @property
    def shape(self):
        """Shape of the transcoding matrix being optimized."""
        return (self.n_outputs, self.n_inputs)

    def _check(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if t.shape != self.shape:
            raise DimensionError(
                f"transcoder shape {t.shape} does not match problem "
                f"shape {self.shape}"
            )
        return t

    def speaker_gains(self, t) -> np.ndarray:
        t = self._check(t)
        return self.encoding.entries @ t.T @ self.decoder.entries.T

    def breakdown(self, t) -> CostBreakdown:
        t = self._check(t)
        terms, _, _ = _evaluate(
            self.speaker_gains(t), t, self._geo, self.coeffs, False
        )
        return CostBreakdown(terms, _weighted_total(terms, self.coeffs))

    def cost(self, t) -> float:
        return self.breakdown(t).total

    def cost_and_gradient(self, t):
        t = self._check(t)
        s = self.speaker_gains(t)
        terms, ds, dt = _evaluate(s, t, self._geo, self.coeffs, True)
        grad = self.decoder.entries.T @ ds.T @ self.encoding.entries
        if dt is not None:
            grad = grad + dt
        return _weighted_total(terms, self.coeffs), grad

    def transcoding_matrix(self, t) -> TranscodingMatrix:
        t = self._check(t)
        return TranscodingMatrix(
            t, self.encoding.channel_labels, self.decoder.channel_labels
        )


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

The kernel works speaker-major.  The speaker gains arrive as an (L, P)
C-ordered array, L directions by P speakers, and P is small (4 to 66 in
the presets).  So every elementwise product, the gradient dC/dS among
them, runs on the (P, L) transpose: a per-direction factor is then a row
vector broadcast along the long last axis, not L short inner loops.  The
per-cell arithmetic is the row-major kernel's, operation for operation,
so the results keep their bits.  Sums over the speakers go through
``analysis.speaker_sum``, which reproduces numpy's row sum exactly: a
reduction over axis 0 for fewer than eight speakers (numpy adds such a
row left to right), and the row sum of a direction-major copy otherwise
(numpy adds a longer row with eight interleaved accumulators).  The
matrix products keep their row-major operands: a BLAS call on a
transposed operand may round differently.

On the optimizer's hot path a term whose coefficient is 0 is not
computed, nor is any intermediate that only such terms use; 0 times a
finite term adds +0.0 to the total, so skipping it keeps the total's
bits.  ``breakdown`` and ``cost_terms`` pass ``every_term=True`` and get
all fourteen values.
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
    speaker_sum,
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
    """Static per-(cloud, layout) arrays shared by cost and gradient;
    the symmetry warnings name the caller ``stacklevel`` frames up."""

    def __init__(self, cloud, layout, pairs, coeffs: CostCoefficients,
                 stacklevel: int = 3):
        symmetry = coeffs.symmetry_linear or coeffs.symmetry_quadratic
        if symmetry and not pairs:
            warnings.warn(
                "symmetry coefficients set but the layout has no symmetry "
                "pairs; the symmetry terms are zero",
                stacklevel=stacklevel,
            )
        self.v = cloud.vectors  # (L, 3)
        self.u = layout.vectors  # (P, 3)
        self.w = cloud.weights / len(cloud)  # premultiplied 1/L
        self.udotv_t = (self.v @ self.u.T).T.copy()  # (P, L)
        mirror = geometry.mirror_indices(cloud.vectors)
        self.rows = np.nonzero(mirror >= 0)[0]
        self.mu = mirror[self.rows]
        if symmetry and 2 * len(self.rows) < len(cloud):
            warnings.warn(
                f"symmetry coefficients set but only {len(self.rows)} of "
                f"{len(cloud)} cloud directions have a left-right mirror "
                "partner; the symmetry terms see only those",
                stacklevel=stacklevel,
            )
        self.pa = np.array([p for p, _ in pairs], dtype=int)
        self.pb = np.array([q for _, q in pairs], dtype=int)


# the terms each shared intermediate of _evaluate serves
_COHERENT = {"pressure", "velocity_radial", "velocity_transverse",
             "in_phase_linear", "symmetry_linear", "sparsity_linear"}
_INCOHERENT = {"energy", "intensity_radial", "intensity_transverse",
               "in_phase_quadratic", "symmetry_quadratic",
               "sparsity_linear", "sparsity_quadratic"}
_IN_PHASE = {"in_phase_linear", "in_phase_quadratic"}
_SYMMETRY = {"symmetry_linear", "symmetry_quadratic"}
_GAIN_CAP = {"gain_cap_linear", "gain_cap_quadratic"}
_SPARSITY = {"sparsity_linear", "sparsity_quadratic"}


def _evaluate(s, t, geo: _ProblemGeometry, coeffs: CostCoefficients,
              want_gradient: bool, every_term: bool = False):
    """Term values, and optionally (dC/dS as P x L, dC/dT_direct).

    Only the terms with a nonzero coefficient are computed, together with
    the intermediates they use; ``every_term`` computes all 14.
    """
    s = np.ascontiguousarray(s, dtype=float)
    st = s.T.copy()  # (P, L)
    on = set(TERM_NAMES) if every_term else {
        k for k in TERM_NAMES if getattr(coeffs, k)}
    w, u, v = geo.w, geo.u, geo.v
    terms = {}
    if on & _COHERENT:
        p_raw = speaker_sum(st)
        pg = guard_pressure(p_raw)
        abs_pg = np.abs(pg)
        if "pressure" in on:
            terms["pressure"] = float((w * (1.0 - p_raw) ** 2).sum())
        if on & {"velocity_radial", "velocity_transverse"}:
            vr, vt = direction_vector(s, pg, u, v)
            vt_t = vt.T.copy()
            vt2 = speaker_sum(vt_t * vt_t)
            if "velocity_radial" in on:
                terms["velocity_radial"] = float((w * (1.0 - vr) ** 2).sum())
            if "velocity_transverse" in on:
                terms["velocity_transverse"] = float((w * vt2).sum())
    if on & _INCOHERENT:
        e_raw = speaker_sum(st * st)
        eg = guard_energy(e_raw)
        if "energy" in on:
            terms["energy"] = float((w * (1.0 - e_raw) ** 2).sum())
        if on & {"intensity_radial", "intensity_transverse"}:
            ir, it = direction_vector(s * s, eg, u, v)
            it_t = it.T.copy()
            it2 = speaker_sum(it_t * it_t)
            if "intensity_radial" in on:
                terms["intensity_radial"] = float((w * (1.0 - ir) ** 2).sum())
            if "intensity_transverse" in on:
                terms["intensity_transverse"] = float((w * it2).sum())
    if on & _IN_PHASE:
        s_neg = np.minimum(st, 0.0)
        if "in_phase_linear" in on:
            m1_neg = -speaker_sum(s_neg)
            phi_lin = m1_neg / abs_pg
            terms["in_phase_linear"] = float((w * phi_lin**2).sum())
        if "in_phase_quadratic" in on:
            e_neg = speaker_sum(s_neg * s_neg)
            phi_quad = e_neg / eg
            terms["in_phase_quadratic"] = float((w * phi_quad**2).sum())

    have_pairs = geo.pa.size > 0 and geo.rows.size > 0
    if on & _SYMMETRY:
        delta_lin = np.zeros(len(s))
        delta_quad = np.zeros(len(s))
        if have_pairs:
            rows, mu = geo.rows, geo.mu
            dmat = st[geo.pa][:, rows] - st[geo.pb][:, mu]  # (pairs, rows)
            if "symmetry_linear" in on:
                delta_lin[rows] = speaker_sum(np.abs(dmat)) / abs_pg[rows]
            if "symmetry_quadratic" in on:
                delta_quad[rows] = speaker_sum(dmat * dmat) / eg[rows]
        if "symmetry_linear" in on:
            terms["symmetry_linear"] = float((w * delta_lin**2).sum())
        if "symmetry_quadratic" in on:
            terms["symmetry_quadratic"] = float((w * delta_quad**2).sum())

    if t is not None:
        t = np.asarray(t, dtype=float)
    sig_lin = sig_quad = 0.0
    if t is not None and on & _GAIN_CAP:
        nm = t.size
        cap_mask = t > coeffs.max_gain
        sig_lin = (t * cap_mask).sum() / nm
        sig_quad = (t * t * cap_mask).sum() / nm
    if "gain_cap_linear" in on:
        terms["gain_cap_linear"] = float(sig_lin**2)
    if "gain_cap_quadratic" in on:
        terms["gain_cap_quadratic"] = float(sig_quad**2)

    if on & _SPARSITY:
        l1 = speaker_sum(np.abs(st))
        l2 = np.sqrt(e_raw)
        if "sparsity_linear" in on:
            sp_lin = (l1 - l2) / abs_pg
            terms["sparsity_linear"] = float((w * sp_lin**2).sum())
        if "sparsity_quadratic" in on:
            sp_quad = (l1 * l1 - e_raw) / eg
            terms["sparsity_quadratic"] = float((w * sp_quad**2).sum())
    if not want_gradient:
        return terms, None, None

    c = coeffs
    ds = np.zeros_like(st)
    dt = np.zeros_like(t) if t is not None else None
    if on & _COHERENT:
        g_p = (np.abs(p_raw) > PRESSURE_GUARD).astype(float)
        sgn_pg = np.sign(pg)
    if on & _INCOHERENT:
        g_e = (e_raw > ENERGY_GUARD).astype(float)

    if c.pressure:
        ds += c.pressure * 2.0 * w * (p_raw - 1.0)
    if c.velocity_radial:
        a = c.velocity_radial * 2.0 * w * (vr - 1.0) / pg
        ds += a * (geo.udotv_t - vr * g_p)
    if c.velocity_transverse:
        b = c.velocity_transverse * 2.0 * w / pg
        ds += b * ((vt @ u.T).T.copy() - vt2 * g_p)
    if c.energy:
        ds += c.energy * 4.0 * w * (e_raw - 1.0) * st
    if c.intensity_radial:
        a = c.intensity_radial * 4.0 * w * (ir - 1.0) / eg
        ds += a * st * (geo.udotv_t - ir * g_e)
    if c.intensity_transverse:
        b = c.intensity_transverse * 4.0 * w / eg
        ds += b * st * ((it @ u.T).T.copy() - it2 * g_e)
    if c.in_phase_linear:
        a = c.in_phase_linear * 2.0 * w * phi_lin
        dphi = (
            -(st < 0).astype(float) / abs_pg
            - m1_neg * sgn_pg * g_p / pg**2
        )
        ds += a * dphi
    if c.in_phase_quadratic:
        a = c.in_phase_quadratic * 2.0 * w * phi_quad
        dphi = 2.0 * s_neg / eg - 2.0 * e_neg * g_e / eg**2 * st
        ds += a * dphi
    if have_pairs and (c.symmetry_linear or c.symmetry_quadratic):
        rows, mu = geo.rows, geo.mu
        if c.symmetry_linear:
            a = (c.symmetry_linear * 2.0 * w * delta_lin)[rows]
            sgn_d = np.sign(dmat)
            scale = a / abs_pg[rows] * sgn_d
            np.add.at(ds, (geo.pa[:, None], rows[None, :]), scale)
            np.add.at(ds, (geo.pb[:, None], mu[None, :]), -scale)
            den = a * (-delta_lin[rows] * sgn_pg[rows] * g_p[rows] / abs_pg[rows])
            ds[:, rows] += den
        if c.symmetry_quadratic:
            a = (c.symmetry_quadratic * 2.0 * w * delta_quad)[rows]
            scale = a / eg[rows] * 2.0 * dmat
            np.add.at(ds, (geo.pa[:, None], rows[None, :]), scale)
            np.add.at(ds, (geo.pb[:, None], mu[None, :]), -scale)
            den = a * (-delta_quad[rows] * 2.0 * g_e[rows] / eg[rows])
            ds[:, rows] += den * st[:, rows]
    if c.sparsity_linear or c.sparsity_quadratic:
        sgn_s = np.sign(st)
    if c.sparsity_linear:
        a = c.sparsity_linear * 2.0 * w * sp_lin
        dl2 = st / np.maximum(l2, 1e-300)
        dsp = (sgn_s - dl2) / abs_pg - sp_lin * sgn_pg * g_p / abs_pg
        ds += a * dsp
    if c.sparsity_quadratic:
        a = c.sparsity_quadratic * 2.0 * w * sp_quad
        dsp = (2.0 * l1 * sgn_s - 2.0 * st) / eg - (
            sp_quad * 2.0 * g_e / eg
        ) * st
        ds += a * dsp
    if t is not None and c.gain_cap_linear:
        dt += c.gain_cap_linear * 2.0 * sig_lin * cap_mask / t.size
    if t is not None and c.gain_cap_quadratic:
        dt += c.gain_cap_quadratic * 2.0 * sig_quad * 2.0 * t * cap_mask / t.size
    return terms, ds, dt


def _weighted_total(terms: dict, coeffs: CostCoefficients) -> float:
    """Coefficient-weighted sum in term order; an absent term adds 0.0."""
    return float(sum(getattr(coeffs, k) * terms[k]
                     for k in TERM_NAMES if k in terms))


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
    terms, _, _ = _evaluate(s.entries, g, geo, coeffs, want_gradient=False,
                            every_term=True)
    return CostBreakdown(terms, _weighted_total(terms, coeffs))


@dataclass
class TranscodingProblem:
    """Everything the optimizer needs: formats, cloud, layout, prefactors."""

    encoding: EncodingMatrix
    decoder: DecoderToSpeaker
    coeffs: CostCoefficients
    pairs: Optional[tuple] = None

    def __post_init__(self):
        if self.pairs is None:
            self.pairs = self.decoder.layout.symmetry_pairs
        # warnings name the caller of the dataclass-generated __init__
        self._geo = _ProblemGeometry(
            self.encoding.cloud, self.decoder.layout, self.pairs, self.coeffs,
            stacklevel=4,
        )
        # speaker outputs decode through the identity: skip both products
        d = self.decoder.entries
        self._identity_decoder = (d.shape[0] == d.shape[1]
                                  and np.array_equal(d, np.eye(len(d))))

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
        s = self.encoding.entries @ t.T
        return s if self._identity_decoder else s @ self.decoder.entries.T

    def breakdown(self, t) -> CostBreakdown:
        t = self._check(t)
        terms, _, _ = _evaluate(
            self.speaker_gains(t), t, self._geo, self.coeffs, False,
            every_term=True,
        )
        return CostBreakdown(terms, _weighted_total(terms, self.coeffs))

    def cost(self, t) -> float:
        return self.breakdown(t).total

    def cost_and_gradient(self, t):
        t = self._check(t)
        s = self.speaker_gains(t)
        terms, ds, dt = _evaluate(s, t, self._geo, self.coeffs, True)
        if not self._identity_decoder:
            ds = self.decoder.entries.T @ ds
        grad = ds @ self.encoding.entries
        if dt is not None:
            grad = grad + dt
        return _weighted_total(terms, self.coeffs), grad

    def transcoding_matrix(self, t) -> TranscodingMatrix:
        t = self._check(t)
        return TranscodingMatrix(
            t, self.encoding.channel_labels, self.decoder.channel_labels
        )


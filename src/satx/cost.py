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
row left to right), and the row sum of direction-major values otherwise
(numpy adds a longer row with eight interleaved accumulators).  The
kernel forms the values it sums in the layout the sum reads, so neither
sum copies.  The matrix products keep their row-major operands: a BLAS
call on a transposed operand may round differently, so with fewer than
eight speakers the squared gains are formed in both layouts.

Whatever depends on the problem alone is built once, into the plan
(``_Plan``) that ``TranscodingProblem`` keeps beside its geometry: the
terms to compute, the gradient prefactor arrays, the symmetry
prefactors and cell indices cut to the mirrored directions, and the
(coefficient, name) pairs of the weighted total.  On the optimizer's
hot path a term whose coefficient is 0 is not computed, nor is any
intermediate that only such terms use; 0 times a finite term adds +0.0
to the total, so skipping it keeps the total's bits.  ``breakdown`` and
``cost_terms`` use a plan of all fourteen terms.  Each term but the gain
caps sums an L-array; the arrays fill the rows of one buffer, and one
reduction sums every row as the array's own sum would.
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


# the terms each shared intermediate of the kernel serves
_COHERENT = {"pressure", "velocity_radial", "velocity_transverse",
             "in_phase_linear", "symmetry_linear", "sparsity_linear"}
_INCOHERENT = {"energy", "intensity_radial", "intensity_transverse",
               "in_phase_quadratic", "symmetry_quadratic",
               "sparsity_linear", "sparsity_quadratic"}
_IN_PHASE = {"in_phase_linear", "in_phase_quadratic"}
_SYMMETRY = {"symmetry_linear", "symmetry_quadratic"}
_GAIN_CAP = {"gain_cap_linear", "gain_cap_quadratic"}
_SPARSITY = {"sparsity_linear", "sparsity_quadratic"}
# terms of the squared gains: d(s*s)/ds = 2s doubles their prefactor
_FOURFOLD = {"energy", "intensity_radial", "intensity_transverse"}


class _Plan:
    """The kernel's per-problem constants for one set of coefficients.

    ``on`` holds the terms to compute: all of them, or those with a
    nonzero coefficient.  ``weights`` are the (coefficient, name) pairs
    of the weighted total, and ``row_of`` gives each of those terms but
    the gain caps its row of the buffer that one reduction sums.
    ``pre`` maps each active term but the gain
    caps to its gradient prefactor ``(c * 2.0) * w``, or ``(c * 4.0) * w``
    for the terms of s*s: the product Python forms first in
    ``c * 2.0 * w * x``, so a gradient built on it keeps its bits.  The
    symmetry prefactors are cut to the mirrored ``rows``, a slice when
    every direction has its mirror; ``cells`` are the flat (P x L)
    indices of the paired speakers at those rows and at their mirrors.
    ``wide`` says that speaker sums read direction-major arrays, as
    ``analysis.speaker_sum`` adds eight or more speakers.
    """

    def __init__(self, geo: _ProblemGeometry, coeffs: CostCoefficients,
                 every_term: bool = False):
        active = [k for k in TERM_NAMES if getattr(coeffs, k)]
        self.geo, self.coeffs = geo, coeffs
        self.on = frozenset(TERM_NAMES if every_term else active)
        self.weights = tuple((getattr(coeffs, k), k) for k in TERM_NAMES
                             if k in self.on)
        self.row_of = {k: i for i, k in enumerate(
            k for k in TERM_NAMES if k in self.on and k not in _GAIN_CAP)}
        self.wide = len(geo.u) >= 8
        n_dirs = len(geo.w)
        self.have_pairs = geo.pa.size > 0 and geo.rows.size > 0
        self.rows = slice(None) if geo.rows.size == n_dirs else geo.rows
        self.cells = (geo.pa[:, None] * n_dirs + geo.rows,
                      geo.pb[:, None] * n_dirs + geo.mu)
        self.pre = {k: (getattr(coeffs, k) * (4.0 if k in _FOURFOLD else 2.0))
                    * geo.w for k in active if k not in _GAIN_CAP}
        for k in _SYMMETRY & self.pre.keys():
            self.pre[k] = self.pre[k][self.rows]

    def spread(self, x: np.ndarray) -> np.ndarray:
        """The mirrored rows' values ``x`` as an L-array, zero elsewhere."""
        if isinstance(self.rows, slice):
            return x
        out = np.zeros(len(self.geo.w))
        out[self.rows] = x
        return out

    def scatter(self, ds: np.ndarray, scale: np.ndarray) -> None:
        """Add ``scale`` to ds at the paired cells, subtract it at their
        mirrors, cell by cell in order: mirrors may repeat a cell."""
        flat = ds.reshape(-1)
        cells_a, cells_b = self.cells
        np.add.at(flat, cells_a, scale)
        np.subtract.at(flat, cells_b, scale)

    def total(self, terms: dict) -> float:
        """Coefficient-weighted sum in term order."""
        return float(sum(c * terms[k] for c, k in self.weights))


def _evaluate(s, t, geo: _ProblemGeometry, coeffs: CostCoefficients,
              want_gradient: bool, every_term: bool = False):
    """``_kernel`` under a plan built for this call; ``every_term``
    computes all 14 terms, else only those with a nonzero coefficient."""
    return _kernel(s, t, _Plan(geo, coeffs, every_term), want_gradient)


def _kernel(s, t, plan: _Plan, want_gradient: bool):
    """Term values, and optionally (dC/dS as P x L, dC/dT_direct).

    Only the terms of ``plan.on`` are computed, together with the
    intermediates they use.
    """
    geo, on, pre = plan.geo, plan.on, plan.pre
    s = np.ascontiguousarray(s, dtype=float)
    st = s.T.copy()  # (P, L)
    # the values speaker_sum adds, in the layout it reads without a copy
    sm = s.T if plan.wide else st
    w, u, v = geo.w, geo.u, geo.v
    # each term is the sum of an L-array, w times its row of ``parts``
    parts = np.empty((len(plan.row_of), len(w)))

    def part(name, x):
        np.multiply(w, x, out=parts[plan.row_of[name]])

    if on & _COHERENT:
        p_raw = speaker_sum(sm)
        pg = guard_pressure(p_raw)
        abs_pg = np.abs(pg)
        if "pressure" in on:
            part("pressure", (1.0 - p_raw) ** 2)
        if on & {"velocity_radial", "velocity_transverse"}:
            vr, vt = direction_vector(s, pg, u, v)
            vt_t = vt.T.copy()
            vt2 = speaker_sum(vt_t * vt_t)
            if "velocity_radial" in on:
                part("velocity_radial", (1.0 - vr) ** 2)
            if "velocity_transverse" in on:
                part("velocity_transverse", vt2)
    if on & _INCOHERENT:
        sq = sm * sm
        e_raw = speaker_sum(sq)
        eg = guard_energy(e_raw)
        if "energy" in on:
            part("energy", (1.0 - e_raw) ** 2)
        if on & {"intensity_radial", "intensity_transverse"}:
            # direction_vector's product needs s*s direction-major
            ir, it = direction_vector(sq.T if plan.wide else s * s, eg, u, v)
            it_t = it.T.copy()
            it2 = speaker_sum(it_t * it_t)
            if "intensity_radial" in on:
                part("intensity_radial", (1.0 - ir) ** 2)
            if "intensity_transverse" in on:
                part("intensity_transverse", it2)
    if on & _IN_PHASE:
        s_neg = np.minimum(sm, 0.0)
        if "in_phase_linear" in on:
            m1_neg = -speaker_sum(s_neg)
            phi_lin = m1_neg / abs_pg
            part("in_phase_linear", phi_lin**2)
        if "in_phase_quadratic" in on:
            e_neg = speaker_sum(s_neg * s_neg)
            phi_quad = e_neg / eg
            part("in_phase_quadratic", phi_quad**2)

    if on & _SYMMETRY:
        delta_lin = delta_quad = np.zeros(len(s))
        if plan.have_pairs:
            rows = plan.rows
            cells_a, cells_b = plan.cells
            dmat = st.take(cells_a) - st.take(cells_b)  # (pairs, rows)
            if "symmetry_linear" in on:
                abs_pg_r = abs_pg[rows]
                dl_r = speaker_sum(np.abs(dmat)) / abs_pg_r
                delta_lin = plan.spread(dl_r)
            if "symmetry_quadratic" in on:
                eg_r = eg[rows]
                dq_r = speaker_sum(dmat * dmat) / eg_r
                delta_quad = plan.spread(dq_r)
        if "symmetry_linear" in on:
            part("symmetry_linear", delta_lin**2)
        if "symmetry_quadratic" in on:
            part("symmetry_quadratic", delta_quad**2)

    if on & _SPARSITY:
        l1 = speaker_sum(np.abs(sm))
        l2 = np.sqrt(e_raw)
        if "sparsity_linear" in on:
            sp_lin = (l1 - l2) / abs_pg
            part("sparsity_linear", sp_lin**2)
        if "sparsity_quadratic" in on:
            sp_quad = (l1 * l1 - e_raw) / eg
            part("sparsity_quadratic", sp_quad**2)

    # one reduction sums every row, each as its own sum would
    terms = dict(zip(plan.row_of, np.add.reduce(parts, axis=1).tolist()))
    sig_lin = sig_quad = 0.0
    if t is not None and on & _GAIN_CAP:
        nm = t.size
        cap_mask = t > plan.coeffs.max_gain
        sig_lin = (t * cap_mask).sum() / nm
        sig_quad = (t * t * cap_mask).sum() / nm
    if "gain_cap_linear" in on:
        terms["gain_cap_linear"] = float(sig_lin**2)
    if "gain_cap_quadratic" in on:
        terms["gain_cap_quadratic"] = float(sig_quad**2)
    if not want_gradient:
        return terms, None, None

    c = plan.coeffs
    ds = np.zeros(st.shape)
    dt = np.zeros(t.shape) if t is not None else None
    if on & _COHERENT:
        g_p = (np.abs(p_raw) > PRESSURE_GUARD).astype(float)
        sgn_pg = np.sign(pg)
    if on & _INCOHERENT:
        g_e = (e_raw > ENERGY_GUARD).astype(float)

    if "pressure" in pre:
        ds += pre["pressure"] * (p_raw - 1.0)
    if "velocity_radial" in pre:
        a = pre["velocity_radial"] * (vr - 1.0) / pg
        ds += a * (geo.udotv_t - vr * g_p)
    if "velocity_transverse" in pre:
        b = pre["velocity_transverse"] / pg
        ds += b * ((vt @ u.T).T.copy() - vt2 * g_p)
    if "energy" in pre:
        ds += pre["energy"] * (e_raw - 1.0) * st
    if "intensity_radial" in pre:
        a = pre["intensity_radial"] * (ir - 1.0) / eg
        ds += a * st * (geo.udotv_t - ir * g_e)
    if "intensity_transverse" in pre:
        b = pre["intensity_transverse"] / eg
        ds += b * st * ((it @ u.T).T.copy() - it2 * g_e)
    if "in_phase_linear" in pre:
        a = pre["in_phase_linear"] * phi_lin
        dphi = (
            -(st < 0).astype(float) / abs_pg
            - m1_neg * sgn_pg * g_p / pg**2
        )
        ds += a * dphi
    if "in_phase_quadratic" in pre:
        a = pre["in_phase_quadratic"] * phi_quad
        dphi = 2.0 * s_neg / eg - 2.0 * e_neg * g_e / eg**2 * st
        ds += a * dphi
    if plan.have_pairs:
        if "symmetry_linear" in pre:
            a = pre["symmetry_linear"] * dl_r
            plan.scatter(ds, a / abs_pg_r * np.sign(dmat))
            ds[:, rows] += a * (
                -dl_r * sgn_pg[rows] * g_p[rows] / abs_pg_r)
        if "symmetry_quadratic" in pre:
            a = pre["symmetry_quadratic"] * dq_r
            plan.scatter(ds, a / eg_r * 2.0 * dmat)
            den = a * (-dq_r * 2.0 * g_e[rows] / eg_r)
            ds[:, rows] += den * st[:, rows]
    if pre.keys() & _SPARSITY:
        sgn_s = np.sign(st)
    if "sparsity_linear" in pre:
        a = pre["sparsity_linear"] * sp_lin
        dl2 = st / np.maximum(l2, 1e-300)
        dsp = (sgn_s - dl2) / abs_pg - sp_lin * sgn_pg * g_p / abs_pg
        ds += a * dsp
    if "sparsity_quadratic" in pre:
        a = pre["sparsity_quadratic"] * sp_quad
        dsp = (2.0 * l1 * sgn_s - 2.0 * st) / eg - (
            sp_quad * 2.0 * g_e / eg
        ) * st
        ds += a * dsp
    if t is not None and c.gain_cap_linear:
        dt += c.gain_cap_linear * 2.0 * sig_lin * cap_mask / t.size
    if t is not None and c.gain_cap_quadratic:
        dt += c.gain_cap_quadratic * 2.0 * sig_quad * 2.0 * t * cap_mask / t.size
    return terms, ds, dt


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
    plan = _Plan(geo, coeffs, every_term=True)
    g = None if gains is None else np.asarray(gains, dtype=float)
    terms, _, _ = _kernel(s.entries, g, plan, want_gradient=False)
    return CostBreakdown(terms, plan.total(terms))


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
        self._plans = {}

    def _plan(self, every_term: bool = False) -> _Plan:
        """The kernel plan of the current coefficients, built once."""
        plan = self._plans.get(every_term)
        if plan is None or plan.coeffs is not self.coeffs:
            plan = _Plan(self._geo, self.coeffs, every_term)
            self._plans[every_term] = plan
        return plan

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

    def _gains(self, t: np.ndarray) -> np.ndarray:
        s = self.encoding.entries @ t.T
        return s if self._identity_decoder else s @ self.decoder.entries.T

    def speaker_gains(self, t) -> np.ndarray:
        return self._gains(self._check(t))

    def breakdown(self, t) -> CostBreakdown:
        t = self._check(t)
        plan = self._plan(every_term=True)
        terms, _, _ = _kernel(self._gains(t), t, plan, False)
        return CostBreakdown(terms, plan.total(terms))

    def cost(self, t) -> float:
        return self.breakdown(t).total

    def cost_and_gradient(self, t):
        t = self._check(t)
        plan = self._plan()
        terms, ds, dt = _kernel(self._gains(t), t, plan, True)
        if not self._identity_decoder:
            ds = self.decoder.entries.T @ ds
        grad = ds @ self.encoding.entries
        grad += dt
        return plan.total(terms), grad

    def transcoding_matrix(self, t) -> TranscodingMatrix:
        t = self._check(t)
        return TranscodingMatrix(
            t, self.encoding.channel_labels, self.decoder.channel_labels
        )


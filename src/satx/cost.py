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

The kernel works speaker-major.  ``TranscodingProblem`` forms the speaker
gains as a (P, L) C-ordered array, P speakers by L directions:
Sᵀ = (D T) Eᵀ from a C-ordered copy of Eᵀ, or T Eᵀ for an identity
decoder.  P is small (4 to 66 in the presets), so every sum over the
speakers is a reduction over axis 0 and every per-direction quantity is
an L-vector broadcast along the long last axis.  The per-direction
vectors come from ``analysis.direction_vector``, the helper the analysis
calls too.  The gradient is folded: each term adds into a few
per-direction factors, and

    dC/dS = a + S∘(b + U Wi) + U Wv + n∘[S<0] + q∘min(S, 0) + g∘sign(S)

plus the symmetry terms' scatter at the paired cells.  Here a, b, n, q
and g are L-vectors, Wv and Wi are the 3 × L factors of the velocity and
energy vectors, and U is the P × 3 matrix of speaker unit vectors.  With
U bordered by a column of ones, two products of inner size 4 give
U Wv + a and U Wi + b.  The sums run in another order than the row-major
kernel that ``tests/test_cost.py`` keeps as an oracle, and the gradient
is factored, so the two agree within a bound derived from the float64
rounding of the summands, not bit for bit.

Whatever depends on the problem alone is built once, when the
``TranscodingProblem`` is constructed, into its geometry and two plans
(``_Plan``): the terms to compute, the gradient prefactor arrays, the
symmetry prefactors and cell indices cut to the mirrored directions, and
the (coefficient, name) pairs of the weighted total.  On the optimizer's
hot path a term whose coefficient is 0 is not computed, nor is any
intermediate that only such terms use; 0 times a finite term adds +0.0
to the total, and every term is computed the same way whichever others
are on, so the hot total keeps the bits of ``breakdown``, which uses a
plan of all fourteen terms.  Each term but the gain caps sums an
L-array; the arrays fill the rows of one buffer, and one reduction sums
every row as the array's own sum would.

The kernel writes into buffers the problem owns (``_Workspace``),
allocated at its first evaluation and shared by both plans: the gains
and every other (P, L) array, the (3, L) arrays of the direction
vectors, the factors, the term rows and each named L-array.  A warm
evaluation then allocates only short temporaries of at most L floats,
so its speed does not rest on the heap's history: glibc serves larger
blocks from fresh mmaps, which fault in every page, unless an earlier
free happened to raise its mmap threshold.  Only the destinations
differ from plain expressions, not the operations or their order, so
the bits are the same.  A problem is therefore evaluated by one thread
at a time; what an evaluation returns is the caller's own.
"""

from __future__ import annotations

import functools
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import geometry
from .analysis import (
    ENERGY_GUARD,
    PRESSURE_GUARD,
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


def _caller_stacklevel() -> int:
    """The ``stacklevel`` with which a warning from the calling function
    names the first frame outside satx and ``dataclasses``: a problem built
    directly, or through ``dataclasses.replace``, warns at its builder (a
    problem's generated ``__init__`` runs in ``satx.cost``'s globals)."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get(
            "__name__", "").partition(".")[0] in ("satx", "dataclasses"):
        frame, level = frame.f_back, level + 1
    return level


class _ProblemGeometry:
    """Static per-(cloud, layout) arrays shared by cost and gradient; the
    symmetry pairs are the layout's.  The symmetry warnings name the
    first caller outside satx."""

    def __init__(self, cloud, layout, coeffs: CostCoefficients):
        pairs = layout.symmetry_pairs
        symmetry = coeffs.symmetry_linear or coeffs.symmetry_quadratic
        if symmetry and not pairs:
            warnings.warn(
                "symmetry coefficients set but the layout has no symmetry "
                "pairs; the symmetry terms are zero",
                stacklevel=_caller_stacklevel(),
            )
        self.v_t = np.ascontiguousarray(cloud.vectors.T)  # (3, L)
        self.u = layout.vectors  # (P, 3)
        # U bordered by ones: [U | 1] @ [W; x] is U W plus the row x
        self.u1 = np.hstack((self.u, np.ones((len(self.u), 1))))
        self.w = cloud.weights / len(cloud)  # premultiplied 1/L
        mirror = geometry.mirror_indices(cloud.vectors)
        self.rows = np.nonzero(mirror >= 0)[0]
        self.mu = mirror[self.rows]
        if symmetry and 2 * len(self.rows) < len(cloud):
            warnings.warn(
                f"symmetry coefficients set but only {len(self.rows)} of "
                f"{len(cloud)} cloud directions have a left-right mirror "
                "partner; the symmetry terms see only those",
                stacklevel=_caller_stacklevel(),
            )
        self.pa = np.array([p for p, _ in pairs], dtype=int)
        self.pb = np.array([q for _, q in pairs], dtype=int)


# the terms each shared intermediate of the kernel serves
_COHERENT = {"pressure", "velocity_radial", "velocity_transverse",
             "in_phase_linear", "symmetry_linear", "sparsity_linear"}
_INCOHERENT = {"energy", "intensity_radial", "intensity_transverse",
               "in_phase_quadratic", "symmetry_quadratic",
               "sparsity_linear", "sparsity_quadratic"}
_VELOCITY = {"velocity_radial", "velocity_transverse"}
_INTENSITY = {"intensity_radial", "intensity_transverse"}
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
    ``pre`` maps each active term but the gain caps to its gradient
    prefactor ``(c * 2.0) * w``, or ``(c * 4.0) * w`` for the terms of
    s*s.  The symmetry prefactors are cut to the mirrored ``rows``, a
    slice when every direction has its mirror; ``cells`` are the flat
    (P x L) indices of the paired speakers at those rows and at their
    mirrors.
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
        n_dirs = len(geo.w)
        self.have_pairs = geo.pa.size > 0 and geo.rows.size > 0
        self.rows = slice(None) if geo.rows.size == n_dirs else geo.rows
        self.cells = (geo.pa[:, None] * n_dirs + geo.rows,
                      geo.pb[:, None] * n_dirs + geo.mu)
        self.pre = {k: (getattr(coeffs, k) * (4.0 if k in _FOURFOLD else 2.0))
                    * geo.w for k in active if k not in _GAIN_CAP}
        for k in _SYMMETRY & self.pre.keys():
            self.pre[k] = self.pre[k][self.rows]

    def spread(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The mirrored rows' values ``x`` as an L-array, zero elsewhere:
        ``x`` itself when every direction is mirrored, else ``out``."""
        if isinstance(self.rows, slice):
            return x
        out.fill(0.0)
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


# the kernel's named per-direction arrays, each an L-array of the workspace
_ROWS = ("p_raw", "pg", "abs_pg", "vt2", "e_raw", "eg", "it2", "m1_neg",
         "phi_lin", "e_neg", "phi_quad", "delta_lin", "delta_quad", "l1",
         "l2", "sp_lin", "sp_quad", "sgn_pg", "k", "n", "q", "g")


class _Workspace:
    """The kernel's work buffers for P speakers and L directions.

    The kernel writes its intermediates into these with ``out=``, so a
    warm evaluation allocates only expression temporaries of L floats or
    fewer, whatever the heap's history: the speaker gains ``st``, their
    squares ``sq`` and negative part ``neg``, the scratch ``tmp`` and
    ``mask``, the gradient ``ds`` and its incoherent part ``sb`` (P x L);
    the factors ``f`` (8 x L) and the term rows ``parts``, one per term
    but the gain caps; the ``velocity`` and ``energy`` vectors, each the
    ``out`` of ``direction_vector``; and one L-array per name of
    ``_ROWS``.
    """

    def __init__(self, n_speakers: int, n_dirs: int):
        shape = (n_speakers, n_dirs)
        self.st, self.sq, self.neg, self.tmp, self.ds, self.sb = (
            np.empty(shape) for _ in range(6))
        self.mask = np.empty(shape, dtype=bool)
        self.f = np.empty((8, n_dirs))
        self.parts = np.empty((len(TERM_NAMES) - len(_GAIN_CAP), n_dirs))
        self.velocity, self.energy = (
            (np.empty((3, n_dirs)), np.empty((3, n_dirs)), np.empty(n_dirs))
            for _ in range(2))
        self.__dict__.update(zip(_ROWS, np.empty((len(_ROWS), n_dirs))))


def _kernel(st, t, plan: _Plan, want_gradient: bool,
            ws: _Workspace = None):
    """Term values, and optionally (dC/dS as P x L, dC/dT_direct).

    ``st`` holds the speaker gains speaker-major (P x L, C order).  Only
    the terms of ``plan.on`` are computed, together with the
    intermediates they use.  The intermediates, dC/dS among them, are
    written into ``ws``, a fresh workspace if none is given.
    """
    geo, on, pre = plan.geo, plan.on, plan.pre
    w, u, v_t = geo.w, geo.u, geo.v_t
    ws = _Workspace(*st.shape) if ws is None else ws
    # each term is the sum of an L-array, w times its row of ``parts``
    parts = ws.parts[:len(plan.row_of)]

    def part(name, x):
        np.multiply(w, x, out=parts[plan.row_of[name]])

    if on & _COHERENT:
        p_raw = np.add.reduce(st, axis=0, out=ws.p_raw)
        pg = guard_pressure(p_raw, out=ws.pg)
        abs_pg = np.abs(pg, out=ws.abs_pg)
        if "pressure" in on:
            part("pressure", (1.0 - p_raw) ** 2)
        if on & _VELOCITY:
            vr, vt = direction_vector(st, pg, u, v_t, ws.velocity)
            vt2 = np.add.reduce(np.multiply(vt, vt, out=ws.velocity[1]),
                                axis=0, out=ws.vt2)
            if "velocity_radial" in on:
                part("velocity_radial", (1.0 - vr) ** 2)
            if "velocity_transverse" in on:
                part("velocity_transverse", vt2)
    if on & _INCOHERENT:
        sq = np.multiply(st, st, out=ws.sq)
        e_raw = np.add.reduce(sq, axis=0, out=ws.e_raw)
        eg = guard_energy(e_raw, out=ws.eg)
        if "energy" in on:
            part("energy", (1.0 - e_raw) ** 2)
        if on & _INTENSITY:
            ir, it = direction_vector(sq, eg, u, v_t, ws.energy)
            it2 = np.add.reduce(np.multiply(it, it, out=ws.energy[1]),
                                axis=0, out=ws.it2)
            if "intensity_radial" in on:
                part("intensity_radial", (1.0 - ir) ** 2)
            if "intensity_transverse" in on:
                part("intensity_transverse", it2)
    if on & _IN_PHASE:
        s_neg = np.minimum(st, 0.0, out=ws.neg)
        if "in_phase_linear" in on:
            m1_neg = np.negative(np.add.reduce(s_neg, axis=0),
                                 out=ws.m1_neg)
            phi_lin = np.divide(m1_neg, abs_pg, out=ws.phi_lin)
            part("in_phase_linear", phi_lin**2)
        if "in_phase_quadratic" in on:
            e_neg = np.add.reduce(np.multiply(s_neg, s_neg, out=ws.tmp),
                                  axis=0, out=ws.e_neg)
            phi_quad = np.divide(e_neg, eg, out=ws.phi_quad)
            part("in_phase_quadratic", phi_quad**2)

    if on & _SYMMETRY:
        delta_lin = delta_quad = np.zeros(len(w))
        if plan.have_pairs:
            rows = plan.rows
            cells_a, cells_b = plan.cells
            dmat = st.take(cells_a) - st.take(cells_b)  # (pairs, rows)
            if "symmetry_linear" in on:
                abs_pg_r = abs_pg[rows]
                dl_r = np.add.reduce(np.abs(dmat), axis=0) / abs_pg_r
                delta_lin = plan.spread(dl_r, ws.delta_lin)
            if "symmetry_quadratic" in on:
                eg_r = eg[rows]
                dq_r = np.add.reduce(dmat * dmat, axis=0) / eg_r
                delta_quad = plan.spread(dq_r, ws.delta_quad)
        if "symmetry_linear" in on:
            part("symmetry_linear", delta_lin**2)
        if "symmetry_quadratic" in on:
            part("symmetry_quadratic", delta_quad**2)

    if on & _SPARSITY:
        l1 = np.add.reduce(np.abs(st, out=ws.tmp), axis=0, out=ws.l1)
        l2 = np.sqrt(e_raw, out=ws.l2)
        if "sparsity_linear" in on:
            sp_lin = np.divide(l1 - l2, abs_pg, out=ws.sp_lin)
            part("sparsity_linear", sp_lin**2)
        if "sparsity_quadratic" in on:
            sp_quad = np.divide(l1 * l1 - e_raw, eg, out=ws.sp_quad)
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
    dt = np.zeros(t.shape) if t is not None else None
    # the per-direction factors: rows Wv, a (the first four), Wi, b
    f = ws.f
    f.fill(0.0)
    wv, a, wi, b = f[:3], f[3], f[4:7], f[7]
    # (3 x L) scratch: the velocity vector's, free once the terms are in
    three = ws.velocity[1]
    n = q = g = scale = None
    if on & _COHERENT:
        g_p = np.abs(p_raw) > PRESSURE_GUARD
        sgn_pg = np.sign(pg, out=ws.sgn_pg)
    if on & _INCOHERENT:
        g_e = e_raw > ENERGY_GUARD

    if "pressure" in pre:
        a += pre["pressure"] * (p_raw - 1.0)
    if "velocity_radial" in pre:
        k = np.divide(pre["velocity_radial"] * (vr - 1.0), pg, out=ws.k)
        wv += np.multiply(k, v_t, out=three)
        a -= k * vr * g_p
    if "velocity_transverse" in pre:
        k = np.divide(pre["velocity_transverse"], pg, out=ws.k)
        wv += np.multiply(k, vt, out=three)
        a -= k * vt2 * g_p
    if "energy" in pre:
        b += pre["energy"] * (e_raw - 1.0)
    if "intensity_radial" in pre:
        k = np.divide(pre["intensity_radial"] * (ir - 1.0), eg, out=ws.k)
        wi += np.multiply(k, v_t, out=three)
        b -= k * ir * g_e
    if "intensity_transverse" in pre:
        k = np.divide(pre["intensity_transverse"], eg, out=ws.k)
        wi += np.multiply(k, it, out=three)
        b -= k * it2 * g_e
    if "in_phase_linear" in pre:
        k = np.multiply(pre["in_phase_linear"], phi_lin, out=ws.k)
        n = np.divide(-k, abs_pg, out=ws.n)
        a -= k * m1_neg * sgn_pg * g_p / pg**2
    if "in_phase_quadratic" in pre:
        k = np.multiply(pre["in_phase_quadratic"], phi_quad, out=ws.k)
        q = np.divide(2.0 * k, eg, out=ws.q)
        b -= q * e_neg * g_e / eg
    if plan.have_pairs and "symmetry_linear" in pre:
        k = pre["symmetry_linear"] * dl_r / abs_pg_r
        scale = k * np.sign(dmat)
        a[rows] -= k * dl_r * sgn_pg[rows] * g_p[rows]
    if plan.have_pairs and "symmetry_quadratic" in pre:
        k = pre["symmetry_quadratic"] * dq_r * 2.0 / eg_r
        scale = k * dmat if scale is None else scale + k * dmat
        b[rows] -= k * dq_r * g_e[rows]
    if "sparsity_linear" in pre:
        g = np.divide(pre["sparsity_linear"] * sp_lin, abs_pg, out=ws.g)
        b -= g / np.maximum(l2, 1e-300)
        a -= g * sp_lin * sgn_pg * g_p
    if "sparsity_quadratic" in pre:
        k = np.divide(pre["sparsity_quadratic"] * sp_quad * 2.0, eg,
                      out=ws.k)
        if g is None:
            g = np.multiply(k, l1, out=ws.g)
        else:
            g += k * l1
        b -= k * (1.0 + sp_quad * g_e)

    # the coherent terms add into Wv and a, the incoherent ones into Wi and b
    if pre.keys() & _COHERENT:
        ds = np.matmul(geo.u1, f[:4], out=ws.ds)
    else:
        ds = ws.ds
        ds.fill(0.0)
    if pre.keys() & _INCOHERENT:
        sb = np.matmul(geo.u1, f[4:], out=ws.sb)
        sb *= st
        ds += sb
    if n is not None:
        ds += np.multiply(n, np.less(st, 0.0, out=ws.mask), out=ws.tmp)
    if q is not None:
        ds += np.multiply(q, s_neg, out=ws.tmp)
    if g is not None:
        ds += np.multiply(g, np.sign(st, out=ws.tmp), out=ws.tmp)
    if scale is not None:
        plan.scatter(ds, scale)
    if t is not None and c.gain_cap_linear:
        dt += c.gain_cap_linear * 2.0 * sig_lin * cap_mask / t.size
    if t is not None and c.gain_cap_quadratic:
        dt += c.gain_cap_quadratic * 2.0 * sig_quad * 2.0 * t * cap_mask / t.size
    return terms, ds, dt


@dataclass(frozen=True, eq=False)
class TranscodingProblem:
    """Everything the optimizer needs: formats, cloud, layout, prefactors.

    A problem is fixed once built.  Its geometry (with the decoder
    layout's symmetry pairs), Eᵀ and kernel plans are derived from the
    three fields at construction, and assigning any attribute raises
    ``dataclasses.FrozenInstanceError``.  For other coefficients, build
    ``dataclasses.replace(problem, coeffs=...)``.  ``shape`` is that of
    the transcoding matrix being optimized, (N, M).

    The problem owns the kernel's work buffers (``_Workspace``), allocated
    on the first evaluation and shared by both plans.  So ``breakdown``,
    ``cost`` and ``cost_and_gradient`` are not reentrant: one thread at a
    time evaluates a problem.  What they return is the caller's own.
    """

    encoding: EncodingMatrix
    decoder: DecoderToSpeaker
    coeffs: CostCoefficients

    def __post_init__(self):
        geo = _ProblemGeometry(self.encoding.cloud, self.decoder.layout,
                               self.coeffs)
        d = self.decoder.entries
        derived = {
            "shape": (d.shape[1], self.encoding.entries.shape[1]),
            "_geo": geo,
            # speaker outputs decode through the identity: skip both products
            "_identity_decoder": (d.shape[0] == d.shape[1]
                                  and np.array_equal(d, np.eye(len(d)))),
            "_et": np.ascontiguousarray(self.encoding.entries.T),  # (M, L)
            # the optimizer's terms, and all fourteen for ``breakdown``
            "_hot": _Plan(geo, self.coeffs),
            "_every": _Plan(geo, self.coeffs, every_term=True),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def _check(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if t.shape != self.shape:
            raise DimensionError(
                f"transcoder shape {t.shape} does not match problem "
                f"shape {self.shape}"
            )
        return t

    @functools.cached_property
    def _ws(self) -> _Workspace:
        return _Workspace(len(self._geo.u), len(self._geo.w))

    def _gains_t(self, t: np.ndarray) -> np.ndarray:
        """The speaker gains speaker-major, Sᵀ = (D T) Eᵀ (P x L), written
        into the workspace."""
        dt = t if self._identity_decoder else self.decoder.entries @ t
        return np.matmul(dt, self._et, out=self._ws.st)

    def breakdown(self, t) -> CostBreakdown:
        t = self._check(t)
        terms, _, _ = _kernel(self._gains_t(t), t, self._every, False,
                              self._ws)
        return CostBreakdown(terms, self._every.total(terms))

    def cost(self, t) -> float:
        return self.breakdown(t).total

    def cost_and_gradient(self, t):
        t = self._check(t)
        terms, ds, dt = _kernel(self._gains_t(t), t, self._hot, True,
                                self._ws)
        if not self._identity_decoder:
            ds = self.decoder.entries.T @ ds
        grad = ds @ self.encoding.entries
        grad += dt
        return self._hot.total(terms), grad

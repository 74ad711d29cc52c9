import contextlib
import dataclasses
import warnings

import numpy as np
import pytest

from satx import presets, runner
from satx.analysis import (
    ENERGY_GUARD,
    PRESSURE_GUARD,
    SpeakerMatrix,
    direction_metrics,
    guard_energy,
    guard_pressure,
)
from satx.config import parse_config
from satx.cost import (
    TERM_NAMES,
    CostBreakdown,
    CostCoefficients,
    TranscodingProblem,
    _kernel,
    _Plan,
    _ProblemGeometry,
)
from satx.errors import ConfigError
from satx.formats import (
    DecoderToSpeaker,
    EncodingMatrix,
    ObjectsSpec,
    VbapSpec,
    build_encoding_matrix,
    identity_decoder,
)
from satx.geometry import (
    PointCloud,
    named_layout,
)

from conftest import cloud_of, layout_of, mirrored_cloud, paired_layout

ALL_ONES = CostCoefficients(**{name: 1.0 for name in TERM_NAMES})

# hand-value cases use single-pair-free layouts on purpose
pytestmark = pytest.mark.filterwarnings(
    "ignore:symmetry coefficients set but the layout has no symmetry"
)


def _evaluate(s, t, geo, coeffs, want_gradient, every_term=False):
    """The kernel on direction-major gains ``s`` (L x P) under a fresh
    plan: all 14 terms, or those with a nonzero coefficient."""
    plan = _Plan(geo, coeffs, every_term)
    return _kernel(np.ascontiguousarray(s.T), t, plan, want_gradient)


def cost_terms(s: SpeakerMatrix, coeffs: CostCoefficients) -> CostBreakdown:
    """Every cost term of a speaker matrix, through a plan of all 14;
    the gain caps, which inspect the transcoder, read 0."""
    geo = _ProblemGeometry(s.cloud, s.layout, coeffs)
    plan = _Plan(geo, coeffs, every_term=True)
    terms, _, _ = _kernel(np.ascontiguousarray(s.entries.T), None, plan,
                          False)
    return CostBreakdown(terms, plan.total(terms))


def random_problem(seed, n_dirs=5, n_spk=3, n_in=2, n_out=3, coeffs=None):
    """Small dense instance whose cloud is closed under mirroring."""
    rng = np.random.default_rng(seed)
    layout = paired_layout(rng)
    cloud = mirrored_cloud(rng, n_duos=(n_dirs - 1) // 2, n_median=1)
    g = EncodingMatrix(
        rng.normal(size=(len(cloud), n_in)),
        cloud,
        tuple(f"i{k}" for k in range(n_in)),
    )
    d = DecoderToSpeaker(
        rng.normal(size=(len(layout), n_out)),
        layout,
        tuple(f"o{k}" for k in range(n_out)),
    )
    if coeffs is None:
        values = rng.uniform(0.1, 3.0, len(TERM_NAMES))
        coeffs = CostCoefficients(**dict(zip(TERM_NAMES, values)))
    problem = TranscodingProblem(g, d, coeffs)
    t = rng.normal(size=(n_out, n_in))
    return problem, t


def finite_difference(problem, t):
    fd = np.zeros_like(t)
    for i in range(t.shape[0]):
        for j in range(t.shape[1]):
            h = 1e-6 * max(1.0, abs(t[i, j]))
            tp, tm = t.copy(), t.copy()
            tp[i, j] += h
            tm[i, j] -= h
            fd[i, j] = (problem.cost(tp) - problem.cost(tm)) / (2 * h)
    return fd


def one_hot_matched_problem(coeffs):
    """Objects on the speaker directions, identity decoder."""
    layout = named_layout("octahedron")
    cloud = PointCloud(layout.azimuth, layout.elevation)
    g = build_encoding_matrix(ObjectsSpec(), cloud)
    return TranscodingProblem(g, identity_decoder(layout), coeffs)


class TestTermValues:
    def test_ideal_one_hot_zeroes_psychoacoustic_terms(self):
        problem = one_hot_matched_problem(ALL_ONES)
        breakdown = problem.breakdown(np.eye(6))
        for name in TERM_NAMES:
            assert breakdown[name] == pytest.approx(0.0, abs=1e-15), name

    def test_opposed_pair_hand_values(self):
        layout = layout_of(("a", 90, 0), ("b", -90, 0))
        cloud = PointCloud([0.0], [0.0])
        s = SpeakerMatrix(np.array([[0.5, 0.5]]), cloud, layout)
        b = cost_terms(s, coeffs=ALL_ONES)
        assert b["pressure"] == pytest.approx(0.0, abs=1e-15)
        assert b["velocity_radial"] == pytest.approx(1.0)
        assert b["velocity_transverse"] == pytest.approx(0.0, abs=1e-15)
        assert b["energy"] == pytest.approx(0.25)
        assert b["intensity_radial"] == pytest.approx(1.0)
        assert b["intensity_transverse"] == pytest.approx(0.0, abs=1e-15)

    def test_out_of_phase_quadratic_value(self):
        layout = layout_of(("a", 30, 0), ("b", -30, 0))
        cloud = PointCloud([0.0], [0.0])
        s = SpeakerMatrix(np.array([[0.8, -0.2]]), cloud, layout)
        b = cost_terms(s, coeffs=ALL_ONES)
        phi = 0.04 / 0.68
        assert b["in_phase_quadratic"] == pytest.approx(phi**2, rel=1e-12)
        assert b["in_phase_quadratic"] == pytest.approx(0.003460, abs=5e-7)

    def test_total_is_weighted_sum(self, rng):
        problem, t = random_problem(3)
        b = problem.breakdown(t)
        manual = sum(
            getattr(problem.coeffs, name) * b[name] for name in TERM_NAMES
        )
        assert b.total == pytest.approx(manual, abs=1e-12)

    def test_total_linear_in_prefactors(self):
        problem, t = random_problem(4)
        base = problem.cost(t)
        doubled = CostCoefficients(
            **{n: 2 * getattr(problem.coeffs, n) for n in TERM_NAMES},
            max_boost_db=problem.coeffs.max_boost_db,
        )
        scaled = dataclasses.replace(problem, coeffs=doubled)
        assert scaled.cost(t) == pytest.approx(2 * base, rel=1e-12)

    def test_symmetry_zero_for_symmetric_decoding(self, rng):
        layout = paired_layout(rng)
        cloud = mirrored_cloud(rng, n_duos=2, n_median=1)
        from satx.geometry import mirror_indices

        mu = mirror_indices(cloud.vectors)
        s = rng.normal(size=(len(cloud), 3))
        # enforce s[mirror(l), (b,a,c)] == s[l, (a,b,c)]
        for ell in range(len(cloud)):
            m = mu[ell]
            s[m, 0], s[m, 1], s[m, 2] = s[ell, 1], s[ell, 0], s[ell, 2]
            if m == ell:
                s[ell, 1] = s[ell, 0]
        sm = SpeakerMatrix(s, cloud, layout)
        b = cost_terms(sm, coeffs=ALL_ONES)
        assert b["symmetry_linear"] == pytest.approx(0.0, abs=1e-15)
        assert b["symmetry_quadratic"] == pytest.approx(0.0, abs=1e-15)

    def test_gain_cap_inactive_below_threshold(self, rng):
        problem, t = random_problem(5)
        d_max = problem.coeffs.max_gain
        assert d_max == pytest.approx(10 ** (3 / 20))
        t_small = np.clip(t, None, d_max - 1e-6)
        b = problem.breakdown(t_small)
        assert b["gain_cap_linear"] == 0.0
        assert b["gain_cap_quadratic"] == 0.0
        t_big = t_small.copy()
        t_big[0, 0] = d_max + 0.5
        b = problem.breakdown(t_big)
        assert b["gain_cap_linear"] > 0
        assert b["gain_cap_quadratic"] > 0

    def test_sparsity_zero_iff_one_nonzero_per_row(self):
        layout = layout_of(("a", 45, 0), ("b", -45, 0))
        cloud = PointCloud([10.0, -10.0], [0.0, 0.0])
        one_hot = SpeakerMatrix(np.array([[0.7, 0.0], [0.0, 1.3]]), cloud, layout)
        spread = SpeakerMatrix(np.array([[0.7, 0.1], [0.0, 1.3]]), cloud, layout)
        assert cost_terms(one_hot, coeffs=ALL_ONES)["sparsity_linear"] == 0.0
        assert cost_terms(spread, coeffs=ALL_ONES)["sparsity_linear"] > 0.0

    def test_direction_relabeling_invariance(self, rng):
        problem, t = random_problem(6)
        b0 = problem.breakdown(t)
        perm = rng.permutation(len(problem.encoding.cloud))
        cloud = problem.encoding.cloud
        cloud_p = PointCloud(
            cloud.azimuth[perm], cloud.elevation[perm], cloud.weights[perm]
        )
        g_p = EncodingMatrix(
            problem.encoding.entries[perm], cloud_p, problem.encoding.channel_labels
        )
        shuffled = TranscodingProblem(g_p, problem.decoder, problem.coeffs)
        b1 = shuffled.breakdown(t)
        for name in TERM_NAMES:
            assert b1[name] == pytest.approx(b0[name], rel=1e-10, abs=1e-13), name

    def test_primary_terms_match_direction_metrics(self):
        # each primary term is the weighted mean squared residual of the
        # per-direction metric that analysis reports
        problem, t = random_problem(8, n_dirs=9)
        cloud = problem.encoding.cloud
        s = SpeakerMatrix(
            problem.speaker_gains(t), cloud, problem.decoder.layout
        )
        b = cost_terms(s, coeffs=ALL_ONES)
        m = direction_metrics(s)

        def mean_square(r):
            return float(np.sum(cloud.weights * r**2)) / len(cloud)

        expected = {
            "pressure": mean_square(1.0 - m.pressure),
            "velocity_radial": mean_square(1.0 - m.velocity_radial),
            "velocity_transverse": mean_square(m.velocity_transverse),
            "energy": mean_square(1.0 - m.energy),
            "intensity_radial": mean_square(1.0 - m.intensity_radial),
            "intensity_transverse": mean_square(m.intensity_transverse),
        }
        for name, value in expected.items():
            assert b[name] == pytest.approx(value, rel=1e-12, abs=0), name

    def test_missing_pairs_warns_and_zeroes_term(self):
        layout = named_layout("3.0.1")  # no symmetric pairs
        cloud = PointCloud(layout.azimuth, layout.elevation)
        g = build_encoding_matrix(ObjectsSpec(), cloud)
        coeffs = CostCoefficients(energy=1.0, symmetry_quadratic=2.0)
        with pytest.warns(UserWarning, match="symmetry") as record:
            problem = TranscodingProblem(g, identity_decoder(layout), coeffs)
        assert record[0].filename == __file__
        b = problem.breakdown(np.eye(4))
        assert b["symmetry_quadratic"] == 0.0
        with pytest.warns(UserWarning, match="symmetry"):
            b = cost_terms(SpeakerMatrix(g.entries, cloud, layout),
                           coeffs=coeffs)
        assert b["symmetry_quadratic"] == 0.0

    def test_sparse_mirror_coverage_warns(self):
        layout = named_layout("5.0.2")
        cloud = cloud_of(kind="fibonacci", points=1000, hemisphere=True)
        g = build_encoding_matrix(VbapSpec(named_layout("7.0.4")), cloud)
        coeffs = CostCoefficients(energy=1.0, symmetry_linear=0.1)
        match = (r"only \d+ of 500 cloud directions have a left-right "
                 "mirror partner")
        with pytest.warns(UserWarning, match=match) as record:
            problem = TranscodingProblem(g, identity_decoder(layout), coeffs)
        assert record[0].filename == __file__
        gains = problem.speaker_gains(np.ones(problem.shape))
        with pytest.warns(UserWarning, match=match):
            cost_terms(SpeakerMatrix(gains, cloud, layout), coeffs=coeffs)
        # example1's t-design pairs every direction with its mirror
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runner.build_problem(presets.load_preset("example1"))

    def test_breakdown_text_block(self):
        problem, t = random_problem(7)
        text = problem.breakdown(t).as_text()
        lines = text.strip().split("\n")
        assert len(lines) == len(TERM_NAMES) + 1
        assert lines[-1].startswith("total ")


class TestGradient:
    def test_matches_finite_differences(self):
        worst = 0.0
        for seed in range(25):
            problem, t = random_problem(seed)
            _, grad = problem.cost_and_gradient(t)
            fd = finite_difference(problem, t)
            rel = np.abs(grad - fd) / np.maximum(
                np.maximum(np.abs(grad), np.abs(fd)), 1e-6
            )
            worst = max(worst, rel.max())
        assert worst < 1e-5

    @pytest.mark.parametrize("name", TERM_NAMES)
    def test_each_term_matches_finite_differences_on_a_wide_problem(
            self, name):
        # 11 speakers, a full decoder, and a cloud in which 3 of 12
        # directions have no mirror partner, so the symmetry terms see
        # only some rows
        rng = np.random.default_rng(2027)
        layout = named_layout("7.0.4")
        paired = mirrored_cloud(rng, n_duos=4, n_median=1)
        az = np.concatenate([paired.azimuth, rng.uniform(100.0, 170.0, 3)])
        el = np.concatenate([paired.elevation, rng.uniform(5.0, 60.0, 3)])
        cloud = PointCloud(az, el, rng.uniform(0.5, 2.0, len(az)))
        g = EncodingMatrix(0.5 * rng.normal(size=(len(cloud), 3)), cloud,
                           ("i0", "i1", "i2"))
        d = DecoderToSpeaker(0.3 * rng.normal(size=(len(layout), 4)),
                             layout, ("o0", "o1", "o2", "o3"))
        coeffs = CostCoefficients(**{name: 1.0}, max_boost_db=-6.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            problem = TranscodingProblem(g, d, coeffs)
        assert len(layout) >= 8 and not problem._identity_decoder
        assert 0 < len(problem._geo.rows) < len(cloud)
        t = rng.normal(size=problem.shape)
        value, grad = problem.cost_and_gradient(t)
        assert value > 0.0
        fd = finite_difference(problem, t)
        np.testing.assert_allclose(grad, fd, rtol=1e-5,
                                   atol=1e-6 * np.abs(fd).max())

    def test_zero_at_exact_optimum(self):
        coeffs = CostCoefficients(
            energy=5, intensity_radial=2, intensity_transverse=1,
            in_phase_quadratic=10, symmetry_quadratic=2,
        )
        problem = one_hot_matched_problem(coeffs)
        _, grad = problem.cost_and_gradient(np.eye(6))
        assert np.abs(grad).max() < 1e-8

    def test_all_zero_coefficients_give_zero_gradient(self):
        problem, t = random_problem(11, coeffs=CostCoefficients())
        value, grad = problem.cost_and_gradient(t)
        assert problem.cost(t) == value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_gain_cap_gradient_through_transcoder(self):
        problem, t = random_problem(
            13,
            coeffs=CostCoefficients(energy=1.0, gain_cap_quadratic=3.0),
        )
        t = np.abs(t) + problem.coeffs.max_gain  # everything above cap
        _, grad = problem.cost_and_gradient(t)
        fd = finite_difference(problem, t)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(Exception, match="must be >= 0"):
            CostCoefficients(energy=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["energy", "max_boost_db"])
    def test_non_finite_coefficient_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            CostCoefficients(**{name: value})

    @pytest.mark.parametrize("value, reason", [
        ("1.5", "expected a number"),
        (True, "expected a number"),
        (None, "expected a number"),
        ([1.0], "expected a number"),
        pytest.param(10**400, "must be finite", id="10**400"),
    ])
    @pytest.mark.parametrize("name", ["energy", "max_boost_db"])
    def test_non_number_coefficient_rejected(self, name, value, reason):
        with pytest.raises(ConfigError, match=f"{name} {reason}"):
            CostCoefficients(**{name: value})


# ---------------------------------------------------------------------------
# The speaker-major kernel against the row-major one it replaced.  The two
# sum in other orders, so they agree within a rounding bound, not bit
# for bit.


def _reference_direction_vector(x, u, v, guard):
    magnitude = x.sum(axis=1)
    g = guard(magnitude)
    vec = (x @ u) / g[:, None]
    radial = np.einsum("lk,lk->l", vec, v)
    return magnitude, g, radial, vec - radial[:, None] * v


def _reference_evaluate(s, t, geo, coeffs, want_gradient):
    """The row-major (L x P) kernel: all 14 terms, dC/dS as L x P."""
    s = np.asarray(s, dtype=float)
    w, u, v = geo.w, geo.u, geo.v_t.T
    udotv = v @ u.T
    p_raw, pg, vr, vt = _reference_direction_vector(s, u, v, guard_pressure)
    e_raw, eg, ir, it = _reference_direction_vector(s * s, u, v, guard_energy)
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
        ds += a[:, None] * (udotv - (vr * g_p)[:, None])
    if c.velocity_transverse:
        b = c.velocity_transverse * 2.0 * w / pg
        ds += b[:, None] * (vt @ u.T - (vt2 * g_p)[:, None])
    if c.energy:
        ds += (c.energy * 4.0 * w * (e_raw - 1.0))[:, None] * s
    if c.intensity_radial:
        a = c.intensity_radial * 4.0 * w * (ir - 1.0) / eg
        ds += a[:, None] * s * (udotv - (ir * g_e)[:, None])
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


def _job(name, input_layout, output_layout, cloud):
    return parse_config({
        "name": name, "mode": "generate", "analysis": "incoherent",
        "input": {"format": "vbap", "layout": input_layout},
        "output": {"format": "speakers", "layout": output_layout},
        "cloud": cloud, "coefficients": {"energy": 1.0},
    })


ORACLE_JOBS = {
    **{name: presets.load_preset(name) for name in presets.PRESET_NAMES},
    # 2 000 directions, three symmetry pairs on the output
    "vbap_704_502": _job("vbap_704_502", "7.0.4", "5.0.2", {
        "kind": "fibonacci", "points": 4000, "hemisphere": True}),
    # 2D panning on both sides
    "flat": _job("flat", "5.0", "5.0_regular", {"kind": "ring", "points": 90}),
}


def _coefficient_sets(problem, rng):
    sets = {
        "job": problem.coeffs,
        # every term on, gain caps binding above 0.1
        "all": CostCoefficients(**dict(zip(
            TERM_NAMES, rng.uniform(0.1, 3.0, len(TERM_NAMES)))),
            max_boost_db=-20.0),
        "none": CostCoefficients(),
    }
    for k in range(4):
        chosen = rng.choice(TERM_NAMES, size=int(rng.integers(1, 8)),
                            replace=False)
        sets[f"subset{k}"] = CostCoefficients(
            **{str(name): float(rng.uniform(0.01, 5.0)) for name in chosen},
            max_boost_db=float(rng.uniform(-20.0, 6.0)))
    # each term alone, so no other term's gradient can hide a wrong one
    for name in TERM_NAMES:
        sets[name] = CostCoefficients(**{name: 1.0}, max_boost_db=-20.0)
    return sets


def _weighted_total(terms, coeffs):
    """Coefficient-weighted sum in term order; an absent term adds 0.0."""
    return float(sum(getattr(coeffs, k) * terms[k]
                     for k in TERM_NAMES if k in terms))


# unit roundoff of float64
ROUNDOFF = 2.0**-53
# rounding errors of size (P + 1) u kappa that one kernel's value of a
# term or gradient cell may carry per unit of its magnitude bound
CHAIN = 32


def _rounding_bound(s, geo, coeffs):
    """How far two float64 evaluations of the cost of the gains ``s``
    (L x P) may differ: per term, and per cell of dC/dS (L x P).

    Both kernels evaluate the same expressions of the same gains.  They
    differ only in the order of the sums (over the P speakers, the three
    vector components, the terms adding into one gradient cell, the L
    directions) and in how the gradient is factored.  To first order in
    u = 2**-53, a sum of n addends is within (n - 1) u times the sum of
    their magnitudes of the exact sum in any order, and a product or a
    quotient adds a relative error u to those of its operands.

    Per direction, let sigma1 = sum |s| and kappa = max(1, sigma1/|pg|).
    The speaker sums (pressure, l1, m1_neg, each component of U^T s) are
    within P u sigma1 of exact, and those of squares (energy, e_neg,
    U^T s*s) within P u e.  So the guarded pressure pg has a relative
    error of at most P u kappa and the guarded energy eg one of P u.
    Call (P + 1) u kappa a unit; as P + 1 >= 2, a sum of n addends adds
    at most (n - 1) / 2 units.  Every quantity of a kernel is then within
    CHAIN units times its magnitude bound M: its expression with every
    difference made a sum and every operand replaced by a bound on its
    magnitude, from |vec| <= sigma1/|pg|, |ivec| <= e/eg <= 1,
    |r| <= |vec|, |vec - r v| <= 2 |vec|, m1_neg <= sigma1, e_neg <= e
    and |sign| <= 1.  The longest chain is a transverse term's share of
    a.  vec carries 2 units (the speaker sum and the quotient), r 3,
    vec - r v 5 and its squared norm 12; the factor pre/pg and two
    products add 3, and the sums into a, through [U | 1] and into the
    cell (at most 8, 4 and 6 addends) add 7.5: about 23 units in all,
    so CHAIN = 32.
    The two kernels differ by at most twice one kernel's error.  A term
    sums L directions of w times a squared quantity: twice its relative
    error, plus L u for the sum.  The symmetry scatter lands direction
    l's contribution on the cells of l and of its mirror, so its bound
    is scattered the same way.
    """
    n_dirs, n_spk = s.shape
    w = geo.w
    a_s = np.abs(s)
    sigma1 = a_s.sum(axis=1)
    e = (s * s).sum(axis=1)
    ip = 1.0 / np.abs(guard_pressure(s.sum(axis=1)))
    ie = 1.0 / guard_energy(e)
    kappa = np.maximum(1.0, sigma1 * ip)
    mv, mi = sigma1 * ip, e * ie  # |vec| and |ivec|
    sp_lin = (sigma1 + np.sqrt(e)) * ip
    sp_quad = (sigma1**2 + e) * ie
    # per term: the value's per-direction magnitude, and the gradient
    # cell's, as a part alike for every speaker plus a part times |s|
    zero = np.zeros(n_dirs)
    parts = {
        "pressure": ((1 + sigma1) ** 2, 1 + sigma1, zero),
        "velocity_radial": ((1 + mv) ** 2, (1 + mv) ** 2 * ip, zero),
        "velocity_transverse": (4 * mv**2, (2 * mv + 4 * mv**2) * ip, zero),
        "energy": ((1 + e) ** 2, zero, 1 + e),
        "intensity_radial": ((1 + mi) ** 2, zero, (1 + mi) ** 2 * ie),
        "intensity_transverse": (4 * mi**2, zero, (2 * mi + 4 * mi**2) * ie),
        "in_phase_linear": (mv**2, mv * (ip + sigma1 * ip**2), zero),
        "in_phase_quadratic": (mi**2, zero, 2 * mi * (1 + mi) * ie),
        "sparsity_linear": (sp_lin**2, sp_lin * (1 + sp_lin) * ip,
                            sp_lin * ip / np.maximum(np.sqrt(e), 1e-300)),
        "sparsity_quadratic": (sp_quad**2, 2 * sp_quad * sigma1 * ie,
                               2 * sp_quad * (1 + sp_quad) * ie),
    }
    cell = np.zeros((n_dirs, n_spk))
    d1 = d2 = zero
    if geo.pa.size and geo.rows.size:
        rows, mu = geo.rows, geo.mu
        dmat = s[rows][:, geo.pa] - s[mu][:, geo.pb]
        d1, d2 = zero.copy(), zero.copy()
        d1[rows] = np.abs(dmat).sum(axis=1) * ip[rows]
        d2[rows] = (dmat * dmat).sum(axis=1) * ie[rows]
        for name, scatter in (
                ("symmetry_linear", (d1 * ip)[rows, None]
                 * np.ones_like(dmat)),
                ("symmetry_quadratic", (2 * d2 * ie)[rows, None]
                 * np.abs(dmat))):
            c = getattr(coeffs, name)
            scale = (c * 2.0 * w * kappa)[rows, None] * scatter
            np.add.at(cell, (rows[:, None], geo.pa[None, :]), scale)
            np.add.at(cell, (mu[:, None], geo.pb[None, :]), scale)
    parts["symmetry_linear"] = (d1**2, d1 * d1 * ip, zero)
    parts["symmetry_quadratic"] = (d2**2, zero, 2 * d2 * d2 * ie)
    terms = {}
    for name, (value, alike, per_gain) in parts.items():
        c = getattr(coeffs, name) * (
            4.0 if name in ("energy", "intensity_radial",
                            "intensity_transverse") else 2.0)
        cell += (c * w * kappa)[:, None] * (alike[:, None]
                                            + per_gain[:, None] * a_s)
        chain = CHAIN * (n_spk + 1) * kappa
        terms[name] = 2 * ROUNDOFF * float(
            np.sum(w * value * (2 * chain + n_dirs)))
    return terms, 2 * CHAIN * (n_spk + 1) * ROUNDOFF * cell


def _assert_within(x, ref, bound, label):
    """|x - ref| <= bound, cell by cell."""
    excess = np.abs(np.asarray(x) - np.asarray(ref)) - np.asarray(bound)
    assert np.all(excess <= 0.0), (label, float(excess.max()))


def _assert_matches_reference(problem, s, t, coeffs, label):
    """Terms, total, dC/dS and dC/dT of the kernel within the rounding
    bound of the row-major oracle; the gain caps and dC/dT_direct, whose
    arithmetic the two share, exactly."""
    geo = problem._geo
    ref_terms, ref_ds, ref_dt = _reference_evaluate(s, t, geo, coeffs, True)
    term_bound, ds_bound = _rounding_bound(s, geo, coeffs)
    terms, _, _ = _evaluate(s, t, geo, coeffs, False, every_term=True)
    for name in TERM_NAMES:
        if name.startswith("gain_cap"):
            assert terms[name] == ref_terms[name], (label, name)
        else:
            _assert_within(terms[name], ref_terms[name], term_bound[name],
                           (label, name))
    hot, ds, dt = _evaluate(s, t, geo, coeffs, True)
    assert set(hot) == {k for k in TERM_NAMES if getattr(coeffs, k)}
    assert all(hot[k] == terms[k] for k in hot), label
    ref_total = _weighted_total(ref_terms, coeffs)
    total_bound = sum(getattr(coeffs, k) * term_bound[k]
                      for k in term_bound) + 16 * ROUNDOFF * abs(ref_total)
    _assert_within(_weighted_total(hot, coeffs), ref_total, total_bound,
                   label)
    _assert_within(ds.T, ref_ds, ds_bound, label)
    assert (dt is None) == (ref_dt is None) and (
        dt is None or (dt == ref_dt).all()), label
    # through D and E: the bound carried by |D|^T and |E|, plus each
    # product's own rounding, (P + L) u of its magnitudes
    d, e = problem.decoder.entries, problem.encoding.entries
    value, grad = dataclasses.replace(
        problem, coeffs=coeffs).cost_and_gradient(t)
    assert value == _weighted_total(hot, coeffs), label
    ref_grad = d.T @ ref_ds.T @ e + ref_dt
    n_sum = 2 * (s.shape[0] + s.shape[1] + 1) * ROUNDOFF
    grad_bound = (np.abs(d).T @ (ds_bound.T + n_sum * np.abs(ref_ds.T))
                  @ np.abs(e) + n_sum * np.abs(ref_grad))
    _assert_within(grad, ref_grad, grad_bound, label)


@pytest.fixture(scope="module")
def oracle_problems():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return {name: runner.build_problem(job)
                for name, job in ORACLE_JOBS.items()}


@pytest.mark.parametrize("name", sorted(ORACLE_JOBS))
def test_kernel_matches_row_major_reference_bitwise(name, oracle_problems):
    # bitwise where the two kernels share their arithmetic (the gain caps,
    # dC/dT_direct, the hot total against cost_and_gradient); within
    # _rounding_bound elsewhere
    problem = oracle_problems[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    matrices = [np.zeros(problem.shape)] + [
        rng.normal(size=problem.shape) * scale for scale in (1e-3, 0.1, 1.0, 3.0)
    ]
    # only 6 of this cloud's 2 000 directions have a mirror partner, so
    # every problem built with symmetry terms warns
    sparse = (pytest.warns(UserWarning, match="6 of 2000")
              if name == "vbap_704_502" else contextlib.nullcontext())
    with sparse:
        for label, coeffs in _coefficient_sets(problem, rng).items():
            for t in matrices:
                s = problem.speaker_gains(t)
                if label == "all" and t.max() > 1.0:
                    assert _reference_evaluate(
                        s, t, problem._geo, coeffs, False)[0][
                            "gain_cap_quadratic"] > 0.0
                _assert_matches_reference(problem, s, t, coeffs, label)


@pytest.mark.parametrize("name", sorted(ORACLE_JOBS))
def test_hot_total_equals_cost(name, oracle_problems):
    problem = oracle_problems[name]
    rng = np.random.default_rng(5)
    for t in (np.zeros(problem.shape), rng.normal(size=problem.shape)):
        assert problem.cost_and_gradient(t)[0] == problem.cost(t)


@pytest.mark.parametrize("name", ["example1", "vbap_704_502"])
def test_identity_decoder_skips_its_products_exactly(name, oracle_problems):
    # speaker outputs: value and gradient equal the explicit products
    # through D, up to the sign of zero (== holds for -0.0 and +0.0)
    problem = oracle_problems[name]
    assert problem._identity_decoder
    assert not oracle_problems["example2"]._identity_decoder
    d, e = problem.decoder.entries, problem.encoding.entries
    et = np.ascontiguousarray(e.T)  # as the problem keeps it
    rng = np.random.default_rng(7)
    for t in (np.zeros(problem.shape), rng.normal(size=problem.shape)):
        st = d @ t @ et
        assert (problem.speaker_gains(t) == st.T).all()
        terms, ds, dt = _kernel(st, t, problem._hot, True)
        value, grad = problem.cost_and_gradient(t)
        assert value == _weighted_total(terms, problem.coeffs)
        assert (grad == d.T @ ds @ e + dt).all()


def test_repeated_mirror_cells_match_reference_bitwise():
    # 30 and 30.05 degrees share their mirror partner at -30, so the
    # symmetry scatter sees a repeated cell; 60 degrees up has no partner
    layout = named_layout("5.0")
    cloud = PointCloud([30, 30.05, -30, 0, 110, -110, 60],
                       [0, 0, 0, 0, 0, 0, 10])
    problem = TranscodingProblem(build_encoding_matrix(ObjectsSpec(), cloud),
                                 identity_decoder(layout), ALL_ONES)
    mirrors = problem._geo.mu.tolist()
    assert len(set(mirrors)) < len(mirrors)
    rng = np.random.default_rng(11)
    for t in (np.zeros(problem.shape), rng.normal(size=problem.shape)):
        s = problem.speaker_gains(t)
        for name in ("all ones", "symmetry_linear", "symmetry_quadratic"):
            coeffs = ALL_ONES if name == "all ones" else CostCoefficients(
                **{name: 1.0})
            _assert_matches_reference(problem, s, t, coeffs, name)


def test_plan_built_once_and_follows_the_coefficients():
    # both plans exist once the problem is built and are never rebuilt;
    # other coefficients make another problem, costed like a fresh one
    problem, t = random_problem(3)
    hot, every = problem._hot, problem._every
    assert hot.coeffs is every.coeffs is problem.coeffs
    problem.cost_and_gradient(t)
    problem.breakdown(t)
    assert problem._hot is hot and problem._every is every
    coeffs = CostCoefficients(energy=2.0, symmetry_linear=0.5)
    replaced = dataclasses.replace(problem, coeffs=coeffs)
    fresh = TranscodingProblem(problem.encoding, problem.decoder, coeffs)
    assert replaced._hot.coeffs is coeffs
    value, grad = replaced.cost_and_gradient(t)
    fresh_value, fresh_grad = fresh.cost_and_gradient(t)
    assert value == fresh_value and (grad == fresh_grad).all()
    assert replaced.breakdown(t) == fresh.breakdown(t)
    assert problem.cost_and_gradient(t)[0] != value


def test_formats_are_fixed_once_the_problem_is_built():
    # example3's problem given example4's encoding kept example3's cloud
    # geometry, and its first cost evaluation failed on the shapes
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p3, p4 = (runner.build_problem(presets.load_preset(name))
                  for name in ("example3", "example4"))
    t = np.random.default_rng(3).normal(size=p3.shape)
    before = p3.cost_and_gradient(t)
    for name, value in (("encoding", p4.encoding), ("decoder", p4.decoder),
                        ("coeffs", p4.coeffs)):
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"'{name}'"):
            setattr(p3, name, value)
    assert issubclass(dataclasses.FrozenInstanceError, AttributeError)
    assert p3.encoding is not p4.encoding and p3.decoder is not p4.decoder
    assert p3.coeffs is not p4.coeffs
    value, grad = p3.cost_and_gradient(t)
    assert value == before[0] and (grad == before[1]).all()

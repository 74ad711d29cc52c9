import warnings

import numpy as np
import pytest

from satx import (
    ConfigError,
    CostCoefficients,
    Direction,
    ObjectsSpec,
    PointCloud,
    SpeakerLayout,
    TranscodingProblem,
    VbapSpec,
    build_encoding_matrix,
    cost_terms,
    direction_metrics,
    named_layout,
)
from satx.analysis import SpeakerMatrix
from satx.cost import TERM_NAMES
from satx.formats import DecoderToSpeaker, EncodingMatrix, identity_decoder

from conftest import mirrored_cloud, paired_layout

ALL_ONES = CostCoefficients(**{name: 1.0 for name in TERM_NAMES})

# hand-value cases use single-pair-free layouts on purpose
pytestmark = pytest.mark.filterwarnings(
    "ignore:symmetry coefficients set but the layout has no symmetry"
)


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
    layout = named_layout("octahedron").with_detected_pairs()
    cloud = PointCloud(layout.directions)
    g = build_encoding_matrix(ObjectsSpec(), cloud)
    return TranscodingProblem(g, identity_decoder(layout), coeffs)


class TestTermValues:
    def test_ideal_one_hot_zeroes_psychoacoustic_terms(self):
        problem = one_hot_matched_problem(ALL_ONES)
        breakdown = problem.breakdown(np.eye(6))
        for name in TERM_NAMES:
            assert breakdown[name] == pytest.approx(0.0, abs=1e-15), name

    def test_opposed_pair_hand_values(self):
        layout = SpeakerLayout(
            (("a", Direction(90, 0)), ("b", Direction(-90, 0)))
        )
        cloud = PointCloud((Direction(0, 0),))
        s = SpeakerMatrix(np.array([[0.5, 0.5]]), cloud, layout)
        b = cost_terms(s, coeffs=ALL_ONES)
        assert b["pressure"] == pytest.approx(0.0, abs=1e-15)
        assert b["velocity_radial"] == pytest.approx(1.0)
        assert b["velocity_transverse"] == pytest.approx(0.0, abs=1e-15)
        assert b["energy"] == pytest.approx(0.25)
        assert b["intensity_radial"] == pytest.approx(1.0)
        assert b["intensity_transverse"] == pytest.approx(0.0, abs=1e-15)

    def test_out_of_phase_quadratic_value(self):
        layout = SpeakerLayout(
            (("a", Direction(30, 0)), ("b", Direction(-30, 0)))
        )
        cloud = PointCloud((Direction(0, 0),))
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
        scaled = TranscodingProblem(
            problem.encoding, problem.decoder, doubled, problem.pairs
        )
        assert scaled.cost(t) == pytest.approx(2 * base, rel=1e-12)

    def test_symmetry_zero_for_symmetric_decoding(self, rng):
        layout = paired_layout(rng)
        cloud = mirrored_cloud(rng, n_duos=2, n_median=1)
        from satx.geometry import mirror_indices

        mu = mirror_indices(cloud.directions)
        s = rng.normal(size=(len(cloud), 3))
        # enforce s[mirror(l), (b,a,c)] == s[l, (a,b,c)]
        for ell in range(len(cloud)):
            m = mu[ell]
            s[m, 0], s[m, 1], s[m, 2] = s[ell, 1], s[ell, 0], s[ell, 2]
            if m == ell:
                s[ell, 1] = s[ell, 0]
        sm = SpeakerMatrix(s, cloud, layout)
        b = cost_terms(sm, pairs=layout.symmetry_pairs, coeffs=ALL_ONES)
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
        layout = SpeakerLayout(
            (("a", Direction(45, 0)), ("b", Direction(-45, 0)))
        )
        cloud = PointCloud((Direction(10, 0), Direction(-10, 0)))
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
            tuple(cloud.directions[i] for i in perm), cloud.weights[perm]
        )
        g_p = EncodingMatrix(
            problem.encoding.entries[perm], cloud_p, problem.encoding.channel_labels
        )
        shuffled = TranscodingProblem(
            g_p, problem.decoder, problem.coeffs, problem.pairs
        )
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
        cloud = PointCloud(layout.directions)
        g = build_encoding_matrix(ObjectsSpec(), cloud)
        with pytest.warns(UserWarning, match="symmetry"):
            problem = TranscodingProblem(
                g,
                identity_decoder(layout),
                CostCoefficients(energy=1.0, symmetry_quadratic=2.0),
            )
        b = problem.breakdown(np.eye(4))
        assert b["symmetry_quadratic"] == 0.0

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

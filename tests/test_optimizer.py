import warnings

import numpy as np
import pytest
import scipy.optimize

from satx.cost import CostCoefficients, TranscodingProblem
from satx.errors import ConfigError
from satx.formats import (
    AmbisonicsSpec,
    ObjectsSpec,
    VbapSpec,
    build_encoding_matrix,
    identity_decoder,
    remap_baseline,
    sh_matrix,
)
from satx.geometry import (
    PointCloud,
    RingSpec,
    named_layout,
    sample_cloud,
)
from satx.optimizer import (
    OptimizationConfig,
    bfgs_update,
    identity_hessian,
    initialize,
    line_search,
    optimize,
)

INCOHERENT_SET = CostCoefficients(
    energy=5, intensity_radial=2, intensity_transverse=1,
    in_phase_quadratic=10, symmetry_quadratic=2,
)


def matched_objects_problem(layout_name="octahedron"):
    layout = named_layout(layout_name)
    cloud = PointCloud(layout.azimuth, layout.elevation)
    g = build_encoding_matrix(ObjectsSpec(), cloud)
    return TranscodingProblem(
        g,
        identity_decoder(layout),
        INCOHERENT_SET,
        input_channel_directions=(cloud.azimuth, cloud.elevation),
        output_spec=VbapSpec(layout),
    )


def bed_problem(seed=0):
    """Small 5.0-bed to 3-speaker decoding problem for fast runs."""
    src = named_layout("5.0")
    dst = named_layout("5.0_regular")
    cloud = sample_cloud(RingSpec(24))
    g = build_encoding_matrix(VbapSpec(src), cloud)
    return TranscodingProblem(
        g,
        identity_decoder(dst),
        INCOHERENT_SET,
        input_channel_directions=(src.azimuth, src.elevation),
        output_spec=VbapSpec(dst),
    )


class TestConfig:
    @pytest.mark.parametrize("name, value", [
        ("gradient_tolerance", float("nan")),
        ("gradient_tolerance", float("inf")),
        ("gradient_tolerance", 0.0),
        ("cost_tolerance", float("nan")),
        ("cost_tolerance", float("inf")),
        ("scale", float("nan")),
        ("scale", float("inf")),
        ("max_iterations", 0),
        ("max_iterations", 2.5),
        ("max_iterations", float("nan")),
        ("max_iterations", True),
        ("restarts", 0),
        ("log_every", -1),
        ("seed", -1),
        ("matrix", np.array([[1.0, np.nan]])),
        ("gradient_tolerance", "x"),
        ("gradient_tolerance", None),
        ("cost_tolerance", True),
        ("scale", "0.1"),
        ("scale", True),
        ("max_iterations", "10"),
        ("seed", None),
        ("init", "bogus"),
        ("init", 3),
    ])
    def test_bad_setting_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            OptimizationConfig(**{name: value})

    @pytest.mark.parametrize("init", ["remap", "given", "reference"])
    def test_scale_rejected_where_no_noise_is_added(self, init):
        with pytest.raises(ConfigError, match="scale is only read by"):
            OptimizationConfig(init=init, scale=0.1)


class TestBfgsUpdate:
    N = 50

    @pytest.mark.parametrize("start", ["reset", "curved"])
    def test_textbook_formula_in_place(self, start):
        rng = np.random.default_rng(4)
        n = self.N
        h = identity_hessian(n)
        if start == "curved":
            a = rng.normal(size=(n, n))
            h[...] = a @ a.T + n * np.eye(n)
        b = rng.normal(size=(n, n))
        s = rng.normal(size=n)
        y = (b @ b.T + np.eye(n)) @ s
        assert y @ s > 0
        rho = 1.0 / (y @ s)
        v = np.eye(n) - rho * np.outer(y, s)
        expected = v.T @ h @ v + rho * np.outer(s, s)

        updated = bfgs_update(h, s, y)
        assert updated is h
        assert h.flags.f_contiguous
        error = np.linalg.norm(h - expected) / np.linalg.norm(expected)
        assert error <= 1e-12


def _quadratic():
    a = np.array([[3.0, 0.5, 0.1], [0.5, 2.0, -0.3], [0.1, -0.3, 0.7]])
    b = np.array([1.0, -2.0, 0.5])
    return (lambda x: 0.5 * x @ a @ x - b @ x), (lambda x: a @ x - b)


def _kink():
    return (lambda x: float(np.abs(x).sum())), np.sign


def _linear():
    return (lambda x: -float(x.sum())), (lambda x: -np.ones_like(x))


def _rosen():
    return scipy.optimize.rosen, scipy.optimize.rosen_der


def _scaled(step):
    return lambda g: -step * g / np.abs(g).sum()


LINE_SEARCH_CASES = {
    # name: (function and gradient, start, direction from the gradient, c2);
    # c2 = 0.1 makes the search double the step before it brackets one
    "quadratic": (_quadratic, [0.3, 0.2, -1.0], lambda g: -g, 0.9),
    "quadratic_doubling": (_quadratic, [0.3, 0.2, -1.0], _scaled(0.01), 0.1),
    "rosen_a": (_rosen, [-1.2, 1.0], lambda g: -g, 0.9),
    "rosen_b": (_rosen, [0.5, -0.4, 1.3], lambda g: -g, 0.9),
    "rosen_c": (_rosen, [-1.2, 1.0], _scaled(1e-4), 0.1),
    "rosen_d": (_rosen, [0.9, 0.8], _scaled(0.3), 0.1),
    "kink_zoom_fails": (_kink, [1.0], lambda g: -3.0 * g, 0.9),
    "linear_maxiter": (_linear, [0.0, 0.0], lambda g: -g, 0.9),
    "ascent": (_quadratic, [0.3, 0.2, -1.0], lambda g: g, 0.9),
}


def _bits(value):
    return None if value is None else np.asarray(value, dtype=float).tobytes()


def _same_steps_as_scipy(f, fprime, x, p, c2=0.9):
    """Run both searches from ``x`` along ``p``; check every returned bit
    and call count, and return ours."""
    kwargs = dict(gfk=fprime(x), old_fval=f(x), c1=1e-4, c2=c2, maxiter=40)
    ours = line_search(f, fprime, x, p, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        theirs = scipy.optimize.line_search(f, fprime, x, p, **kwargs)
    assert ours[1:3] == theirs[1:3]  # value and gradient calls
    for i in (0, 3, 4, 5):  # alpha, f_new, old_fval, gradient at alpha
        assert _bits(ours[i]) == _bits(theirs[i])
    return ours


class TestLineSearch:
    """The strong-Wolfe search takes the same steps as scipy's."""

    @pytest.mark.parametrize("case", LINE_SEARCH_CASES)
    def test_equals_scipy(self, case):
        make, start, direction_of, c2 = LINE_SEARCH_CASES[case]
        f, fprime = make()
        x = np.array(start)
        alpha, _, _, f_new, f0, g_new = _same_steps_as_scipy(
            f, fprime, x, direction_of(fprime(x)), c2)
        if case in ("kink_zoom_fails", "ascent"):
            assert alpha is None and f_new is None
        elif case == "linear_maxiter":
            assert alpha == 2.0 ** 40 and g_new is None
        else:
            assert f_new < f0

    def test_equals_scipy_on_the_cost(self, rng):
        problem = matched_objects_problem()

        def f(x):
            return problem.cost_and_gradient(x.reshape(problem.shape))[0]

        def fprime(x):
            return problem.cost_and_gradient(x.reshape(problem.shape))[1].ravel()

        for _ in range(5):
            x = rng.uniform(-1, 1, problem.shape).ravel()
            _same_steps_as_scipy(f, fprime, x, -fprime(x))


class TestInitialize:
    def test_given_identity(self):
        problem = matched_objects_problem()
        t0 = initialize(
            OptimizationConfig(init="given", matrix=np.eye(6)), problem
        )
        np.testing.assert_array_equal(t0, np.eye(6))

    def test_given_shape_checked(self):
        problem = matched_objects_problem()
        with pytest.raises(Exception, match="shape"):
            initialize(
                OptimizationConfig(init="given", matrix=np.eye(5)), problem
            )

    def test_random_deterministic(self):
        problem = matched_objects_problem()
        cfg = OptimizationConfig(init="random", seed=7)
        a = initialize(cfg, problem)
        b = initialize(cfg, problem)
        np.testing.assert_array_equal(a, b)
        assert np.abs(a).max() <= 0.5

    def test_remap_for_bed_to_scene(self):
        layout = named_layout("7.0.4")
        cloud = sample_cloud(RingSpec(12))
        g = build_encoding_matrix(VbapSpec(layout), cloud)
        from satx.geometry import layout_from_cloud, FibonacciSpec
        from satx.formats import build_decoder_to_speaker

        virt = sample_cloud(FibonacciSpec(40))
        decoder = build_decoder_to_speaker(
            AmbisonicsSpec(5), layout_from_cloud(virt)
        )
        problem = TranscodingProblem(
            g,
            decoder,
            CostCoefficients(pressure=1),
            input_channel_directions=(layout.azimuth, layout.elevation),
            output_spec=AmbisonicsSpec(5),
        )
        t0 = initialize(OptimizationConfig(init="remap"), problem)
        assert t0.shape == (36, 11)
        np.testing.assert_allclose(
            t0, sh_matrix(layout.azimuth, layout.elevation, 5).T, atol=1e-15
        )

    def test_remap_with_array_channel_directions(self):
        # one (2, M) array: its truth value is ambiguous, so the init
        # switch must test it against None
        problem = matched_objects_problem()
        problem.input_channel_directions = np.array(
            problem.input_channel_directions)
        t0 = initialize(OptimizationConfig(init="remap"), problem)
        np.testing.assert_allclose(t0, np.eye(6), atol=1e-9)
        noisy = initialize(OptimizationConfig(seed=0), problem)
        assert 0 < np.abs(noisy - t0).max() <= 0.05

    def test_remap_without_channel_directions(self):
        problem = matched_objects_problem()
        problem.input_channel_directions = None
        with pytest.raises(ConfigError, match="channel directions"):
            initialize(OptimizationConfig(init="remap"), problem)

    def test_default_picks_remap_noise_when_possible(self):
        problem = matched_objects_problem()
        t0 = initialize(OptimizationConfig(seed=3), problem)
        assert np.abs(t0 - np.eye(6)).max() <= 0.05


class TestOptimize:
    def test_trivial_recovery(self):
        problem = matched_objects_problem()
        report = optimize(problem, OptimizationConfig(seed=0))
        assert report.converged
        assert report.final_cost < 1e-6
        assert report.final_cost <= report.initial_cost

    def test_bit_identical_reruns(self):
        problem = bed_problem()
        cfg = OptimizationConfig(seed=42)
        a = optimize(problem, cfg)
        b = optimize(problem, cfg)
        np.testing.assert_array_equal(
            a.final_matrix.entries, b.final_matrix.entries
        )
        assert a.iterations == b.iterations

    def test_run_counters_deterministic(self):
        problem = bed_problem()
        cfg = OptimizationConfig(seed=42)
        a, b = optimize(problem, cfg), optimize(problem, cfg)

        def counters(report):
            return (report.iterations, report.evaluations,
                    report.line_search_fallbacks, report.hessian_resets)

        assert counters(a) == counters(b)
        assert a.evaluations >= a.iterations >= 1

    def test_final_never_exceeds_initial_even_unconverged(self):
        problem = bed_problem()
        report = optimize(
            problem, OptimizationConfig(seed=1, max_iterations=3)
        )
        assert not report.converged
        assert report.final_cost <= report.initial_cost

    def test_needs_a_primary_coefficient(self):
        layout = named_layout("octahedron")
        cloud = PointCloud(layout.azimuth, layout.elevation)
        g = build_encoding_matrix(ObjectsSpec(), cloud)
        problem = TranscodingProblem(
            g,
            identity_decoder(layout),
            CostCoefficients(in_phase_quadratic=10),
        )
        with pytest.raises(ConfigError, match="primary"):
            optimize(problem, OptimizationConfig())

    def test_progress_lines(self):
        problem = bed_problem()
        report = optimize(
            problem, OptimizationConfig(seed=0, log_every=10, max_iterations=25)
        )
        assert report.progress_lines
        iteration, cost, gnorm = report.progress_lines[0].split()
        assert iteration == "0"
        float(cost), float(gnorm)

    def test_input_permutation_equivariance(self):
        problem = bed_problem()
        perm = np.array([3, 0, 4, 1, 2])
        g = problem.encoding
        from satx.formats import EncodingMatrix

        g_p = EncodingMatrix(
            g.entries[:, perm],
            g.cloud,
            tuple(g.channel_labels[i] for i in perm),
        )
        problem_p = TranscodingProblem(
            g_p,
            problem.decoder,
            problem.coeffs,
            problem.pairs,
            input_channel_directions=tuple(
                a[perm] for a in problem.input_channel_directions
            ),
            output_spec=problem.output_spec,
        )
        cfg = OptimizationConfig(init="remap", max_iterations=200)
        t = optimize(problem, cfg).final_matrix.entries
        t_p = optimize(problem_p, cfg).final_matrix.entries
        np.testing.assert_allclose(t_p, t[:, perm], atol=1e-6)

    def test_restarts_pick_lowest(self):
        problem = bed_problem()
        single = optimize(
            problem,
            OptimizationConfig(init="random", seed=5, max_iterations=120),
        )
        multi = optimize(
            problem,
            OptimizationConfig(
                init="random", seed=5, restarts=3, max_iterations=120
            ),
        )
        assert multi.final_cost <= single.final_cost + 1e-15

    def test_transverse_weight_monotonicity(self):
        achieved = []
        for c_it in (0.25, 1.0, 4.0, 16.0):
            problem = bed_problem()
            problem.coeffs = CostCoefficients(
                energy=5, intensity_radial=2, intensity_transverse=c_it,
                in_phase_quadratic=10, symmetry_quadratic=2,
            )
            report = optimize(problem, OptimizationConfig(seed=9))
            achieved.append(report.final_breakdown["intensity_transverse"])
        assert all(b <= a + 1e-9 for a, b in zip(achieved, achieved[1:]))

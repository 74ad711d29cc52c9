import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from satx import presets, runner
from satx.config import parse_config
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
from satx.geometry import PointCloud, named_layout
from satx.matfile import export_matrix, matrix_file
from satx.optimizer import (
    OptimizationConfig,
    bfgs_update,
    identity_hessian,
    initialize,
    line_search,
    optimize,
)

from conftest import cloud_of

INCOHERENT_SET = CostCoefficients(
    energy=5, intensity_radial=2, intensity_transverse=1,
    in_phase_quadratic=10, symmetry_quadratic=2,
)


def matched_objects_problem(layout_name="octahedron"):
    layout = named_layout(layout_name)
    cloud = PointCloud(layout.azimuth, layout.elevation)
    g = build_encoding_matrix(ObjectsSpec(), cloud)
    return TranscodingProblem(g, identity_decoder(layout), INCOHERENT_SET)


def matched_objects_remap(layout_name="octahedron"):
    """Remap start of ``matched_objects_problem``: objects at the speakers."""
    layout = named_layout(layout_name)
    return remap_baseline(layout.azimuth, layout.elevation, VbapSpec(layout))


def matched_objects_job(**optimizer):
    """``matched_objects_problem`` on the octahedron as a job."""
    return parse_config({
        "name": "matched",
        "input": {"format": "objects"},
        "output": {"format": "speakers", "layout": "octahedron"},
        "cloud": {"kind": "layout", "layout": "octahedron"},
        "coefficients": {"energy": 1},
        "optimizer": optimizer,
    })


def bed_problem(seed=0):
    """Small 5.0-bed to 3-speaker decoding problem for fast runs."""
    src = named_layout("5.0")
    dst = named_layout("5.0_regular")
    cloud = cloud_of(kind="ring", points=24)
    g = build_encoding_matrix(VbapSpec(src), cloud)
    return TranscodingProblem(g, identity_decoder(dst), INCOHERENT_SET)


def bed_remap():
    """Remap start of ``bed_problem``."""
    src = named_layout("5.0")
    return remap_baseline(src.azimuth, src.elevation,
                          VbapSpec(named_layout("5.0_regular")))


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

    def test_matrix_rejected_by_random_init(self):
        with pytest.raises(ConfigError,
                           match="matrix is not read by the random init"):
            OptimizationConfig(init="random", matrix=np.ones((2, 2)))
        OptimizationConfig(matrix=np.ones((2, 2)))  # default init reads it


def _full(h):
    """The symmetric matrix whose upper triangle ``h`` holds."""
    return np.triu(h) + np.triu(h, 1).T


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
        g_new = rng.normal(size=n)
        hg = h @ (g_new - y)
        h[np.tril_indices(n, -1)] = np.nan  # the lower triangle is not read

        _, updated = bfgs_update(h, s, y, g_new, hg)
        assert updated
        assert h.flags.f_contiguous
        error = (np.linalg.norm(np.triu(h) - np.triu(expected))
                 / np.linalg.norm(np.triu(expected)))
        assert error <= 1e-12

    def test_carried_product_equals_full_product(self):
        # steps of a quadratic with Hessian a; steps 0 and 3 have no
        # curvature, so step 0 leaves H = I and step 1 is the scaled one
        rng = np.random.default_rng(5)
        n = self.N
        b = rng.normal(size=(n, n))
        a = b @ b.T + np.eye(n)
        h = identity_hessian(n)
        g = rng.normal(size=n)
        hg, first = g, True
        for step in range(6):
            s = rng.normal(size=n)
            y = a @ s
            if step in (0, 3):
                y -= (y @ s) / (s @ s) * s
            g_new = g + y
            hg, updated = bfgs_update(h, s, y, g_new, hg, first)
            assert updated == (step not in (0, 3))
            if step == 0:
                np.testing.assert_array_equal(h, np.eye(n))
            if step == 1:  # the textbook update of (y.s / y.y) I
                rho = 1.0 / (y @ s)
                v = np.eye(n) - rho * np.outer(y, s)
                start = (y @ s) / (y @ y) * np.eye(n)
                textbook = v.T @ start @ v + rho * np.outer(s, s)
                np.testing.assert_allclose(np.triu(h), np.triu(textbook),
                                           rtol=0, atol=1e-12)
            first = first and not updated
            expected = _full(h) @ g_new
            error = np.linalg.norm(hg - expected) / np.linalg.norm(expected)
            assert error <= 1e-12, step
            g = g_new

    @pytest.mark.parametrize("scale_s, scale_y", [(0, 0), (-20, 7), (30, -9)])
    def test_curvature_guard_kink(self, scale_s, scale_y):
        # y.s at the threshold 1e-12 |y| |s| and one ulp either side: the
        # guard decides as the np.linalg.norm form does.  s = 2^a e0 and
        # y = 2^b (t e0 + e1), so y.s = 2^(a+b) t and |y| |s| = 2^(a+b)
        # exactly while t^2 vanishes beside 1.
        n = self.N
        kink = 1e-12
        for t in (np.nextafter(kink, 0.0), kink, np.nextafter(kink, 1.0)):
            s = np.zeros(n)
            s[0] = 2.0 ** scale_s
            y = np.zeros(n)
            y[:2] = t * 2.0 ** scale_y, 2.0 ** scale_y
            g_new = np.ones(n)
            reference = y @ s > 1e-12 * np.linalg.norm(y) * np.linalg.norm(s)
            _, updated = bfgs_update(identity_hessian(n), s, y, g_new,
                                     g_new - y, True)
            assert updated == reference == (t > kink), t

    def test_curvature_threshold_equals_norm_form(self):
        rng = np.random.default_rng(8)
        for n in (1, 7, 396):
            for _ in range(200):
                y, s = rng.normal(size=(2, n)) * 10.0 ** rng.uniform(
                    -150, 150, size=(2, 1))
                ours = 1e-12 * math.sqrt(y @ y) * math.sqrt(s @ s)
                assert ours == 1e-12 * np.linalg.norm(y) * np.linalg.norm(s)

    def test_c_ordered_hessian_rejected(self):
        # BLAS would update a copy and the carried product would be wrong
        n = self.N
        h = np.eye(n)
        g = np.ones(n)
        with pytest.raises(ValueError, match="Fortran-ordered"):
            bfgs_update(h, g, g, g, g)
        np.testing.assert_array_equal(h, np.eye(n))


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
        t0 = initialize(
            OptimizationConfig(init="given", matrix=np.eye(6)), (6, 6)
        )
        np.testing.assert_array_equal(t0, np.eye(6))

    def test_given_shape_checked(self):
        with pytest.raises(Exception, match="shape"):
            initialize(
                OptimizationConfig(init="given", matrix=np.eye(5)), (6, 6)
            )

    def test_random_deterministic(self):
        cfg = OptimizationConfig(init="random", seed=7)
        a = initialize(cfg, (6, 6))
        b = initialize(cfg, (6, 6))
        np.testing.assert_array_equal(a, b)
        assert np.abs(a).max() <= 0.5

    def test_remap_for_bed_to_scene(self):
        layout = named_layout("7.0.4")
        cloud = cloud_of(kind="ring", points=12)
        g = build_encoding_matrix(VbapSpec(layout), cloud)
        from satx.geometry import layout_from_cloud
        from satx.formats import build_decoder_to_speaker

        virt = cloud_of(kind="fibonacci", points=40)
        decoder = build_decoder_to_speaker(
            AmbisonicsSpec(5), layout_from_cloud(virt)
        )
        problem = TranscodingProblem(g, decoder, CostCoefficients(pressure=1))
        remap = remap_baseline(layout.azimuth, layout.elevation,
                               AmbisonicsSpec(5))
        t0 = initialize(OptimizationConfig(init="remap", matrix=remap),
                        problem.shape)
        assert t0.shape == (36, 11)
        np.testing.assert_allclose(
            t0, sh_matrix(layout.azimuth, layout.elevation, 5).T, atol=1e-15
        )

    def test_remap_with_array_channel_directions(self, monkeypatch):
        # one (2, M) array: its truth value is ambiguous, so the init
        # switch must test it against None
        job = matched_objects_job(init="remap")
        directions = np.array(runner.input_channel_directions(job))
        monkeypatch.setattr(runner, "input_channel_directions",
                            lambda job: directions)
        t0 = initialize(runner.optimization_config(job), (6, 6))
        np.testing.assert_allclose(t0, np.eye(6), atol=1e-9)
        job = matched_objects_job(seed=0)
        noisy = initialize(runner.optimization_config(job), (6, 6))
        assert 0 < np.abs(noisy - t0).max() <= 0.05

    def test_remap_without_channel_directions(self):
        job = presets.load_preset("example1")  # an ambisonics input
        job.optimizer = OptimizationConfig(init="remap")
        with pytest.raises(ConfigError, match="channel directions"):
            runner.optimization_config(job)

    def test_objects_input_samples_the_cloud_once_per_use(self, monkeypatch):
        # the job holds the sampled cloud: the problem and the remap start
        # read it, and no cloud is built after load; the scene reference's
        # virtual layout is sampled once per process
        job = presets.load_preset("example4")
        assert isinstance(job.input_spec, ObjectsSpec)
        scene = presets.load_preset("example1")
        runner.reference_transcoder(scene)
        built = []
        post_init = PointCloud.__post_init__
        monkeypatch.setattr(PointCloud, "__post_init__",
                            lambda cloud: built.append(1) or post_init(cloud))
        problem = runner.build_problem(job)
        assert problem.encoding.cloud is job.cloud
        assert runner.input_channel_directions(job)[0] is job.cloud.azimuth
        assert runner.optimization_config(job, 0).matrix is not None
        assert runner.evaluation_chain(job)[0].cloud is job.eval_cloud
        runner.reference_transcoder(scene)
        assert built == []

    def test_default_picks_remap_noise_when_possible(self):
        job = matched_objects_job(seed=3)
        t0 = initialize(runner.optimization_config(job), (6, 6))
        assert np.abs(t0 - np.eye(6)).max() <= 0.05

    def test_matrix_required_except_for_random(self):
        for kind in ("remap", "remap_plus_noise", "given", "reference"):
            with pytest.raises(ConfigError, match="matrix is required"):
                initialize(OptimizationConfig(init=kind), (6, 6))
        np.testing.assert_array_equal(
            initialize(OptimizationConfig(init="random", scale=0.0), (6, 6)),
            np.zeros((6, 6)))

# SHA-256 of the seed-0 start matrix per preset and init kind (None is the
# default), recorded before the runner took over the start matrix; None
# marks an init the input format has no start matrix for
START_DIGESTS = [
    ("example1", None,
     "4aa601f3be626bff0a3c134cb98c34ab095ff3e2b354446848b7c1a6e29cb5e1"),
    ("example1", "remap", None),
    ("example1", "remap_plus_noise", None),
    ("example1", "random",
     "4aa601f3be626bff0a3c134cb98c34ab095ff3e2b354446848b7c1a6e29cb5e1"),
    ("example1", "given",
     "08fcacb922d9256d1e26863a28e6db7c3fe114309dad4566f30bf7ef0c23b175"),
    ("example1", "reference",
     "3884727178f1fabb58c6a4780d1cae38cd679cf857233f1dbb6b076e7746fbc5"),
    ("example2", None,
     "f5105b626e1351078e9be8c8c9bda3d87ffe937c270db728285cbca8e710db79"),
    ("example2", "remap",
     "764dd5f76dbe0cfce69a2ade6a76a43a28b8bad74dfe1c5e118c4747f2844445"),
    ("example2", "remap_plus_noise",
     "f5105b626e1351078e9be8c8c9bda3d87ffe937c270db728285cbca8e710db79"),
    ("example2", "random",
     "4aa601f3be626bff0a3c134cb98c34ab095ff3e2b354446848b7c1a6e29cb5e1"),
    ("example2", "given",
     "08fcacb922d9256d1e26863a28e6db7c3fe114309dad4566f30bf7ef0c23b175"),
    ("example2", "reference",
     "764dd5f76dbe0cfce69a2ade6a76a43a28b8bad74dfe1c5e118c4747f2844445"),
    ("example3", None,
     "63e2fbfc37220e672374c251cbb7abc9f2df941f6adc52ae8000d4a9a4a8d864"),
    ("example3", "remap",
     "7bd369b5ef79fda7ce7fd8e7493378cc6653c36f00b480b2053e38c4957e9fc3"),
    ("example3", "remap_plus_noise",
     "63e2fbfc37220e672374c251cbb7abc9f2df941f6adc52ae8000d4a9a4a8d864"),
    ("example3", "random",
     "b1ba8062f65924a647f28df7f729b31bc9f7fd0740d9f56fedc3e91e3df0f258"),
    ("example3", "given",
     "5ed9f2e0ba6b45ef2ca619d19706e4f2dcf6b78c9426ad31dab1ce98e1cfa7dc"),
    ("example3", "reference",
     "7bd369b5ef79fda7ce7fd8e7493378cc6653c36f00b480b2053e38c4957e9fc3"),
    ("example4", None,
     "3fe3888e54d989c5b943f88472973566d15b68be379e5f254936be13bef1d324"),
    ("example4", "remap",
     "15fcc2255ed04880662f9d60287d19864c89a3df9d5781f9b7a523186aa47692"),
    ("example4", "remap_plus_noise",
     "3fe3888e54d989c5b943f88472973566d15b68be379e5f254936be13bef1d324"),
    ("example4", "random",
     "679c7271601e22f9c2a58d8f5819241b3f82cb2e5a63d5799cc880a941f986fd"),
    ("example4", "given",
     "225ee69690459f42f4c64cad34e5dd18f92edf4152b3841547374480454b3f5c"),
    ("example4", "reference",
     "15fcc2255ed04880662f9d60287d19864c89a3df9d5781f9b7a523186aa47692"),
]
PRESET_SHAPES = {"example1": (11, 36), "example2": (36, 11),
                 "example3": (4, 7), "example4": (5, 72)}


@pytest.mark.parametrize("name, kind, digest", START_DIGESTS)
def test_start_matrix_digests(name, kind, digest, tmp_path):
    shape = PRESET_SHAPES[name]
    job = presets.load_preset(name)
    job.optimizer = replace(job.optimizer, init=kind, scale=None)
    if kind == "given":
        job.init_matrix = str(tmp_path / "t0.smx")
        export_matrix(matrix_file(np.arange(float(np.prod(shape)))
                                  .reshape(shape) / 100), job.init_matrix)
    if digest is None:
        with pytest.raises(ConfigError, match="channel directions"):
            runner.optimization_config(job, 0)
        return
    t0 = initialize(runner.optimization_config(job, 0), shape)
    assert hashlib.sha256(t0.tobytes()).hexdigest() == digest


class TestOptimize:
    def test_trivial_recovery(self):
        problem = matched_objects_problem()
        report = optimize(
            problem, OptimizationConfig(seed=0, matrix=matched_objects_remap())
        )
        assert report.converged
        assert report.final_cost < 1e-6
        assert report.final_cost <= report.initial_cost

    def test_bit_identical_reruns(self):
        problem = bed_problem()
        cfg = OptimizationConfig(seed=42, matrix=bed_remap())
        a = optimize(problem, cfg)
        b = optimize(problem, cfg)
        np.testing.assert_array_equal(
            a.final_matrix, b.final_matrix
        )
        assert a.iterations == b.iterations

    def test_run_counters_deterministic(self):
        problem = bed_problem()
        cfg = OptimizationConfig(seed=42, matrix=bed_remap())
        a, b = optimize(problem, cfg), optimize(problem, cfg)

        def counters(report):
            return (report.iterations, report.evaluations,
                    report.line_search_fallbacks, report.hessian_resets)

        assert counters(a) == counters(b)
        assert a.evaluations >= a.iterations >= 1

    def test_final_never_exceeds_initial_even_unconverged(self):
        problem = bed_problem()
        report = optimize(
            problem,
            OptimizationConfig(seed=1, max_iterations=3, matrix=bed_remap()),
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
            problem, OptimizationConfig(seed=0, log_every=10, max_iterations=25,
                                        matrix=bed_remap())
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
        problem_p = TranscodingProblem(g_p, problem.decoder, problem.coeffs)
        cfg = OptimizationConfig(init="remap", max_iterations=200,
                                 matrix=bed_remap())
        t = optimize(problem, cfg).final_matrix
        cfg_p = replace(cfg, matrix=bed_remap()[:, perm])
        t_p = optimize(problem_p, cfg_p).final_matrix
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
            problem = replace(bed_problem(), coeffs=CostCoefficients(
                energy=5, intensity_radial=2, intensity_transverse=c_it,
                in_phase_quadratic=10, symmetry_quadratic=2,
            ))
            report = optimize(problem,
                              OptimizationConfig(seed=9, matrix=bed_remap()))
            achieved.append(report.final_breakdown["intensity_transverse"])
        assert all(b <= a + 1e-9 for a, b in zip(achieved, achieved[1:]))

"""Acceptance suite: one test per criterion, printing a line per check.

Criteria 3-6 run the shipped presets end to end (optimization plus
evaluation against the built-in baselines); the wall-time envelopes are
20x the reference timings.  Criterion 6's continuity clause is expected
red: near a speaker the converged optimum's far-speaker gain grows like
the square root of the angular offset, so its value one 5-degree grid
step away is at least 0.218 for every possible five-speaker ring, above
the 0.2 bound (feasible only if the radial:transverse intensity weights
were >= 2.8 instead of the configured 2.0).
"""

import time
import warnings

import numpy as np
import pytest
import yaml

from satx import presets, runner
from satx.analysis import (
    SpeakerMatrix,
    coherent_metrics,
    incoherent_metrics,
    perceptual_metrics,
)
from satx.cost import CostCoefficients, TranscodingProblem
from satx.formats import (
    ObjectsSpec,
    VbapSpec,
    build_encoding_matrix,
    identity_decoder,
    remap_baseline,
    sh_matrix,
    vbap_matrix,
)
from satx.geometry import PointCloud, fibonacci_sphere, named_layout
from satx.optimizer import OptimizationConfig, optimize

from conftest import random_directions, vbap_gains, vbip_gains
from test_cost import finite_difference, random_problem

EXAMPLE1_COEFFS = CostCoefficients(
    energy=5, intensity_radial=2, intensity_transverse=1,
    in_phase_quadratic=10, symmetry_quadratic=2,
)

REFERENCE_SECONDS = {
    "example1": 14.6,
    "example2": 4.3,
    "example3": 1.0,
    "example4": 3.9,
}
WALL_FACTOR = 20.0


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


@pytest.fixture(scope="module")
def preset_runs():
    """Optimize all four presets once; reused across criteria."""
    runs = {}
    for name in presets.PRESET_NAMES:
        job = presets.load_preset(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            problem = runner.build_problem(job)
            rep = optimize(problem, runner.optimization_config(job))
            reference = runner.reference_transcoder(job)
        runs[name] = (job, problem, rep, reference)
    return runs


def summaries_for(job, matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return runner.summaries(runner.evaluate_matrix(job, matrix))


def kink_distance(problem, t):
    """Distance of the instance from any step/abs kink of the cost."""
    s = problem.speaker_gains(t)
    distances = [np.abs(s).min()]
    p = s.sum(axis=1)
    e = (s * s).sum(axis=1)
    distances.append(np.abs(p).min())
    distances.append(np.abs(e).min())
    geo = problem._geo
    if geo.pa.size and geo.rows.size:
        dmat = s[geo.rows][:, geo.pa] - s[geo.mu][:, geo.pb]
        distances.append(np.abs(dmat).min())
    distances.append(np.abs(t - problem.coeffs.max_gain).min())
    return min(float(d) for d in distances)


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    used = 0
    for seed in range(100):
        problem, t = random_problem(seed)
        if kink_distance(problem, t) < 1e-4:
            continue
        used += 1
        _, grad = problem.cost_and_gradient(t)
        fd = finite_difference(problem, t)
        rel = np.abs(grad - fd) / np.maximum(
            np.maximum(np.abs(grad), np.abs(fd)), 1e-6
        )
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    assert used >= 90
    assert worst < 1e-5
    assert elapsed < 10.0
    report(
        f"1: PASS gradient vs central differences on {used} instances, "
        f"worst relative error {worst:.2e}, {elapsed:.1f} s"
    )


def test_criterion_2_trivial_recovery():
    start = time.perf_counter()
    layout = named_layout("7.0.4")
    cloud = PointCloud(layout.azimuth, layout.elevation)
    problem = TranscodingProblem(
        build_encoding_matrix(ObjectsSpec(), cloud),
        identity_decoder(layout),
        EXAMPLE1_COEFFS,
    )
    rep = optimize(
        problem,
        OptimizationConfig(
            seed=0,
            matrix=remap_baseline(cloud.azimuth, cloud.elevation,
                                  VbapSpec(layout)),
            gradient_tolerance=1e-13,
            cost_tolerance=1e-24,
            max_iterations=20000,
        ),
    )
    elapsed = time.perf_counter() - start
    t = rep.final_matrix
    off = np.abs(t - np.eye(len(layout))).max()
    assert rep.final_cost < 1e-6
    assert off < 1e-3
    assert t.min() > -1e-3
    assert elapsed < 30.0
    report(
        f"2: PASS trivial recovery, cost {rep.final_cost:.2e}, "
        f"max off-target {off:.2e}, {elapsed:.1f} s"
    )


def test_criterion_3_example1_reproduction(preset_runs):
    job, problem, rep, reference = preset_runs["example1"]
    assert rep.converged
    optimized = summaries_for(job, rep.final_matrix)
    ref = summaries_for(job, reference)
    med_level = optimized["level_db"]["median"]
    med_err = optimized["angular_error_deg"]["median"]
    med_asw = optimized["asw_deg"]["median"]
    assert abs(med_level) <= 1.0
    assert med_err < 10.0
    assert med_asw <= ref["asw_deg"]["median"]
    assert rep.wall_time_seconds <= WALL_FACTOR * REFERENCE_SECONDS["example1"]
    report(
        "3: PASS scene decoding: median level "
        f"{med_level:+.3f} dB, median width {med_asw:.1f} deg "
        f"(reference {ref['asw_deg']['median']:.1f}), median error "
        f"{med_err:.1f} deg, {rep.wall_time_seconds:.1f} s"
    )


def test_criterion_4_example2_build_up_correction(preset_runs):
    job, problem, rep, reference = preset_runs["example2"]
    optimized = summaries_for(job, rep.final_matrix)
    base = summaries_for(job, reference)
    assert abs(optimized["level_db"]["median"]) < abs(base["level_db"]["median"])
    assert abs(base["angular_error_deg"]["median"]) < 1e-6
    assert rep.wall_time_seconds <= WALL_FACTOR * REFERENCE_SECONDS["example2"]
    report(
        "4: PASS bed-to-scene: median pressure "
        f"{optimized['level_db']['median']:+.3f} dB vs direct encoding "
        f"{base['level_db']['median']:+.3f} dB; direct-encoding median "
        f"error {base['angular_error_deg']['median']:.2e} deg, "
        f"{rep.wall_time_seconds:.1f} s"
    )


def test_criterion_5_example3_dominance(preset_runs):
    job, problem, rep, reference = preset_runs["example3"]
    optimized = summaries_for(job, rep.final_matrix)
    base = summaries_for(job, reference)
    assert abs(optimized["level_db"]["median"]) < abs(base["level_db"]["median"])
    assert optimized["asw_deg"]["median"] < base["asw_deg"]["median"]
    assert (
        optimized["angular_error_deg"]["median"]
        < base["angular_error_deg"]["median"]
    )
    assert rep.wall_time_seconds <= WALL_FACTOR * REFERENCE_SECONDS["example3"]
    report(
        "5: PASS irregular decoding beats remapping on |level| "
        f"({abs(optimized['level_db']['median']):.2f} vs "
        f"{abs(base['level_db']['median']):.2f} dB), width "
        f"({optimized['asw_deg']['median']:.1f} vs {base['asw_deg']['median']:.1f} "
        f"deg), error ({optimized['angular_error_deg']['median']:.1f} vs "
        f"{base['angular_error_deg']['median']:.1f} deg), "
        f"{rep.wall_time_seconds:.1f} s"
    )


@pytest.fixture(scope="module")
def example4_curves(preset_runs):
    job, problem, rep, _ = preset_runs["example4"]
    layout = job.output_layout
    cloud = job.cloud
    gains = rep.final_matrix.T  # one row of 5 gains per direction
    vbap = vbap_matrix(layout, cloud.azimuth, cloud.elevation)
    vbip = np.array([vbip_gains(layout, az, el)
                     for az, el in zip(cloud.azimuth, cloud.elevation)])
    return job, rep, layout, cloud, gains, vbap, vbip


def test_criterion_6_panning_one_hot_at_speakers(example4_curves):
    job, rep, layout, cloud, gains, vbap, _ = example4_curves
    at_speaker = np.isin(cloud.azimuth, layout.azimuth)
    errs = np.abs(gains - vbap).max(axis=1)[at_speaker]
    assert len(errs) == len(layout)
    assert max(errs) < 0.05
    assert rep.wall_time_seconds <= WALL_FACTOR * REFERENCE_SECONDS["example4"]
    report(
        f"6a: PASS one-hot at the five speaker azimuths, worst deviation "
        f"{max(errs):.3f}, optimization {rep.wall_time_seconds:.1f} s"
    )


def test_criterion_6_panning_continuity(example4_curves):
    _, _, _, _, gains, _, _ = example4_curves
    wrapped = np.vstack([gains, gains[:1]])
    step = float(np.abs(np.diff(wrapped, axis=0)).max())
    outcome = "PASS" if step < 0.2 else "FAIL"
    report(
        f"6b: {outcome} adjacent-direction gain change {step:.3f} "
        "(bound 0.2; the converged optimum takes off from each speaker "
        "like sqrt(offset), see the module docstring)"
    )
    assert step < 0.2


def test_criterion_6_panning_envelope(example4_curves):
    _, _, _, _, gains, vbap, vbip = example4_curves
    lo = np.minimum(vbap, vbip) - 0.05
    hi = np.maximum(vbap, vbip) + 0.05
    inside = np.all((gains >= lo) & (gains <= hi), axis=1)
    fraction = float(inside.mean())
    assert fraction >= 0.9
    report(
        f"6c: PASS {100 * fraction:.0f}% of directions inside the "
        "VBAP/VBIP gain envelope (+-0.05)"
    )


def test_criterion_7_format_properties(rng):
    az, el = fibonacci_sphere(10000)
    y = sh_matrix(az, el, 5, "N3D")
    gram_err = float(np.abs(y.T @ y / len(az) - np.eye(36)).max())
    assert gram_err < 1e-3

    layout = named_layout("octahedron")
    worst_norm = 0.0
    for _ in range(1000):
        g = vbap_gains(layout, float(rng.uniform(-180, 180)),
                       float(np.degrees(np.arcsin(rng.uniform(-1, 1)))))
        worst_norm = max(worst_norm, abs(float((g**2).sum()) - 1.0))
    assert worst_norm < 1e-12

    for lay_name in ("octahedron", "7.0.4"):
        lay = named_layout(lay_name)
        for i, d in enumerate(zip(lay.azimuth, lay.elevation)):
            g = vbap_gains(lay, *d)
            expected = np.zeros(len(lay))
            expected[i] = 1.0
            np.testing.assert_allclose(g, expected, atol=1e-9)
    report(
        f"7: PASS harmonic Gram error {gram_err:.2e}, panning energy "
        f"norm error {worst_norm:.2e}, one-hot at speakers"
    )


def test_criterion_8_metric_units_and_invariance(rng):
    asw, err, _ = perceptual_metrics([0.5], [0.0], [1.0], "incoherent")
    assert abs(asw[0] - 45.0) < 1e-9
    _, err45, _ = perceptual_metrics([0.4], [0.4], [1.0], "incoherent")
    assert abs(err45[0] - 45.0) < 1e-9

    from scipy.spatial.transform import Rotation

    from satx.geometry import SpeakerLayout, from_unit_vectors

    worst = 0.0
    for k in range(100):
        local = np.random.default_rng(k)
        n_dirs, n_spk = 5, 4
        cloud = PointCloud(*random_directions(local, n_dirs, (-85, 85)))
        layout = SpeakerLayout([f"s{i}" for i in range(n_spk)],
                               *random_directions(local, n_spk, (-85, 85)))
        s = SpeakerMatrix(local.normal(size=(n_dirs, n_spk)), cloud, layout)
        rot = Rotation.random(random_state=k)
        cloud_r = PointCloud(*from_unit_vectors(rot.apply(cloud.vectors.copy())))
        layout_r = SpeakerLayout(layout.labels,
                                 *from_unit_vectors(rot.apply(layout.vectors.copy())))
        s_r = SpeakerMatrix(s.entries, cloud_r, layout_r)
        s_k = SpeakerMatrix(2.5 * s.entries, cloud, layout)
        for f in (coherent_metrics, incoherent_metrics):
            for a, b in zip(f(s), f(s_r)):
                worst = max(worst, float(np.abs(a - b).max()))
        p, vr, vt = coherent_metrics(s)
        pk, vrk, vtk = coherent_metrics(s_k)
        worst = max(worst, float(np.abs(pk - 2.5 * p).max()))
        worst = max(worst, float(np.abs(vrk - vr).max()))
        e, ir, it = incoherent_metrics(s)
        ek, irk, itk = incoherent_metrics(s_k)
        worst = max(worst, float(np.abs(ek - 2.5**2 * e).max()))
        worst = max(worst, float(np.abs(irk - ir).max()))
    assert worst < 1e-9
    report(
        f"8: PASS width/error unit checks and scale/rotation invariance, "
        f"worst deviation {worst:.2e}"
    )


def test_criterion_9_io_round_trips(tmp_path, rng):
    from scipy.io import wavfile

    from satx.audio import apply_matrix_to_audio
    from satx.cli import main
    from satx.matfile import export_matrix, import_matrix, matrix_file

    values = rng.standard_normal((12, 7))
    path = tmp_path / "m.smx"
    export_matrix(matrix_file(values), path)
    np.testing.assert_array_equal(import_matrix(path).values(), values)

    wav_in = tmp_path / "in.wav"
    data = rng.uniform(-1, 1, (512, 4)).astype(np.float32)
    wavfile.write(wav_in, 48000, data)
    wav_out = tmp_path / "out.wav"
    apply_matrix_to_audio(np.eye(4), wav_in, wav_out)
    np.testing.assert_array_equal(wavfile.read(wav_out)[1], data)

    job = {
        "name": "det",
        "mode": "generate",
        "input": {"format": "objects"},
        "output": {"format": "speakers",
                   "layout": [["A", 0, 0], ["B", 120, 0], ["C", -120, 0]]},
        "cloud": {"kind": "ring", "points": 9},
        "coefficients": {"energy": 5, "intensity_radial": 2,
                         "intensity_transverse": 1},
        "optimizer": {"seed": 11, "max_iterations": 300},
    }
    cfg = tmp_path / "det.yaml"
    cfg.write_text(yaml.safe_dump(job))
    outs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(
            (out / "det_transcoder.smx").read_bytes()
            + (out / "det_log.txt").read_bytes()
        )
    assert outs[0] == outs[1]
    report(
        "9: PASS matrix round-trip bit-exact, identity audio reproduction "
        "sample-exact, fixed-seed reruns byte-identical"
    )

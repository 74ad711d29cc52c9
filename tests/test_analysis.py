import numpy as np
import pytest

from satx.analysis import (
    COHERENT,
    INCOHERENT,
    METRIC_COLUMNS,
    SpeakerMatrix,
    coherent_metrics,
    direction_metrics,
    incoherent_metrics,
    perceptual_metrics,
    speaker_matrix,
    summarize,
)
from satx.errors import DimensionError
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
    SpeakerLayout,
    layout_from_cloud,
    named_layout,
)

from conftest import cloud_of, layout_of, random_directions


def single_direction_setup(speaker_azimuths, gains, source_az=0.0):
    """One source direction, horizontal speakers, given row of gains."""
    layout = layout_of(*((f"s{i}", az, 0)
                         for i, az in enumerate(speaker_azimuths)))
    cloud = PointCloud([source_az], [0.0])
    return SpeakerMatrix(np.array([gains], dtype=float), cloud, layout)


class TestSpeakerMatrix:
    def test_scalar_chain(self):
        cloud = PointCloud([0.0], [0.0])
        layout = layout_of(("s", 0, 0))
        g = EncodingMatrix(np.array([[1.0]]), cloud, ("in",))
        d = DecoderToSpeaker(np.array([[1.0]]), layout, ("out",))
        s = speaker_matrix(g, np.array([[1.0]]), d)
        np.testing.assert_array_equal(s.entries, [[1.0]])

    def test_identity_chain_passes_through(self):
        cloud = cloud_of(kind="ring", points=6)
        layout = named_layout("5.0")
        g = build_encoding_matrix(VbapSpec(layout), cloud)
        s = speaker_matrix(g, np.eye(5), identity_decoder(layout))
        np.testing.assert_allclose(s.entries, g.entries, atol=1e-15)

    def test_reference_shapes(self, rng):
        cloud = cloud_of(kind="fibonacci", points=54)
        layout = layout_from_cloud(cloud_of(kind="fibonacci", points=66))
        g = EncodingMatrix(rng.normal(size=(54, 11)), cloud,
                           tuple(f"i{k}" for k in range(11)))
        d = DecoderToSpeaker(rng.normal(size=(66, 36)), layout,
                             tuple(f"o{k}" for k in range(36)))
        s = speaker_matrix(g, rng.normal(size=(36, 11)), d)
        assert s.entries.shape == (54, 66)

    def test_dimension_mismatch(self, rng):
        cloud = cloud_of(kind="ring", points=4)
        layout = named_layout("5.0")
        g = EncodingMatrix(rng.normal(size=(4, 3)), cloud, ("a", "b", "c"))
        d = identity_decoder(layout)
        with pytest.raises(DimensionError):
            speaker_matrix(g, np.eye(4), d)

    def test_matrices_compare_and_hash_by_identity(self):
        cloud = cloud_of(kind="ring", points=2)
        layout = layout_of(("a", 30, 0), ("b", -30, 0))
        for make in (lambda: EncodingMatrix(np.eye(2), cloud, ("a", "b")),
                     lambda: DecoderToSpeaker(np.eye(2), layout, ("a", "b")),
                     lambda: SpeakerMatrix(np.eye(2), cloud, layout)):
            a, b = make(), make()
            assert a == a and a != b
            assert len({a, b, a}) == 2


class TestCoherentMetrics:
    def test_single_speaker_at_source(self):
        s = single_direction_setup([0.0], [1.0])
        p, vr, vt = coherent_metrics(s)
        assert p[0] == pytest.approx(1.0)
        assert vr[0] == pytest.approx(1.0)
        assert vt[0] == pytest.approx(0.0, abs=1e-15)

    def test_opposed_pair_cancels_velocity(self):
        s = single_direction_setup([90.0, -90.0], [0.5, 0.5])
        p, vr, vt = coherent_metrics(s)
        assert p[0] == pytest.approx(1.0)
        assert vr[0] == pytest.approx(0.0, abs=1e-15)
        assert vt[0] == pytest.approx(0.0, abs=1e-15)

    def test_quarter_pair(self):
        s = single_direction_setup([45.0, -45.0], [0.5, 0.5])
        p, vr, vt = coherent_metrics(s)
        assert p[0] == pytest.approx(1.0)
        assert vr[0] == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
        assert vt[0] == pytest.approx(0.0, abs=1e-12)


class TestIncoherentMetrics:
    def test_one_hot(self):
        s = single_direction_setup([0.0], [1.0])
        e, ir, it = incoherent_metrics(s)
        assert e[0] == pytest.approx(1.0)
        assert ir[0] == pytest.approx(1.0)
        assert it[0] == pytest.approx(0.0, abs=1e-15)

    def test_opposed_pair(self):
        s = single_direction_setup([90.0, -90.0], [0.5, 0.5])
        e, ir, it = incoherent_metrics(s)
        assert e[0] == pytest.approx(0.5)
        assert ir[0] == pytest.approx(0.0, abs=1e-15)
        assert it[0] == pytest.approx(0.0, abs=1e-15)

    def test_quarter_pair_unit_energy(self):
        g = 1 / np.sqrt(2)
        s = single_direction_setup([45.0, -45.0], [g, g])
        e, ir, it = incoherent_metrics(s)
        assert e[0] == pytest.approx(1.0)
        assert ir[0] == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
        assert it[0] == pytest.approx(0.0, abs=1e-12)


class TestPerceptualMetrics:
    def test_perfect_localization(self):
        asw, err, level = perceptual_metrics([1.0], [0.0], [1.0], INCOHERENT)
        assert asw[0] == pytest.approx(0.0, abs=1e-9)
        assert err[0] == pytest.approx(0.0, abs=1e-12)
        assert level[0] == pytest.approx(0.0, abs=1e-12)

    def test_half_magnitude_gives_45_degrees(self):
        asw, err, _ = perceptual_metrics([0.5], [0.0], [1.0], INCOHERENT)
        assert asw[0] == pytest.approx(45.0, abs=1e-9)
        assert err[0] == pytest.approx(0.0, abs=1e-12)

    def test_equal_components_give_45_error(self):
        _, err, _ = perceptual_metrics([0.3], [0.3], [1.0], INCOHERENT)
        assert err[0] == pytest.approx(45.0, abs=1e-12)

    def test_rear_pointing_vector_maps_beyond_90(self):
        _, err, _ = perceptual_metrics([-0.5], [0.1], [1.0], INCOHERENT)
        assert 90.0 < err[0] <= 180.0

    def test_level_modes(self):
        _, _, level = perceptual_metrics([1.0], [0.0], [0.25], INCOHERENT)
        assert level[0] == pytest.approx(10 * np.log10(0.25))
        _, _, level = perceptual_metrics([1.0], [0.0], [-0.5], COHERENT)
        assert level[0] == pytest.approx(20 * np.log10(0.5))

    def test_asw_monotone_in_magnitude(self):
        mags = np.linspace(0, 1, 50)
        asw, _, _ = perceptual_metrics(mags, np.zeros(50), np.ones(50), INCOHERENT)
        assert (np.diff(asw) <= 1e-12).all()

    def test_asw_range(self, rng):
        radial = rng.uniform(-1, 1, 200)
        transverse = rng.uniform(0, 1, 200)
        norm = np.sqrt(radial**2 + transverse**2)
        radial, transverse = radial / np.maximum(norm, 1), transverse / np.maximum(norm, 1)
        asw, err, _ = perceptual_metrics(radial, transverse, np.ones(200), INCOHERENT)
        assert (asw >= 0).all() and (asw <= 135 + 1e-9).all()
        assert (err >= 0).all() and (err <= 180).all()


class TestInvariances:
    def random_speaker_matrix(self, rng, n_dirs=6, n_spk=4):
        cloud = PointCloud(*random_directions(rng, n_dirs, (-85, 85)),
                           rng.uniform(0.5, 2, n_dirs))
        layout = SpeakerLayout([f"s{i}" for i in range(n_spk)],
                               *random_directions(rng, n_spk, (-85, 85)))
        return SpeakerMatrix(rng.normal(size=(n_dirs, n_spk)), cloud, layout)

    def test_scale_covariance(self, rng):
        s = self.random_speaker_matrix(rng)
        p0, vr0, vt0 = coherent_metrics(s)
        e0, ir0, it0 = incoherent_metrics(s)
        for k in (2.0, 0.5, -3.0):
            scaled = SpeakerMatrix(k * s.entries, s.cloud, s.layout)
            p, vr, vt = coherent_metrics(scaled)
            e, ir, it = incoherent_metrics(scaled)
            np.testing.assert_allclose(p, k * p0, rtol=1e-12)
            np.testing.assert_allclose(e, k**2 * e0, rtol=1e-12)
            np.testing.assert_allclose(vr, vr0, rtol=1e-10)
            np.testing.assert_allclose(vt, vt0, rtol=1e-10, atol=1e-14)
            np.testing.assert_allclose(ir, ir0, rtol=1e-10)
            np.testing.assert_allclose(it, it0, rtol=1e-10, atol=1e-14)

    def test_pythagorean_identity(self, rng):
        for _ in range(20):
            s = self.random_speaker_matrix(rng)
            _, vr, vt = coherent_metrics(s)
            m = s.entries
            from satx.analysis import guard_pressure

            vel = (m @ s.layout.vectors) / guard_pressure(m.sum(1))[:, None]
            np.testing.assert_allclose(
                vr**2 + vt**2, (vel**2).sum(1), atol=1e-12
            )

    def test_rotation_equivariance(self, rng):
        from scipy.spatial.transform import Rotation

        from satx.geometry import from_unit_vectors

        for _ in range(5):
            s = self.random_speaker_matrix(rng)
            rot = Rotation.random(random_state=int(rng.integers(1 << 30)))
            cloud_r = PointCloud(
                *from_unit_vectors(rot.apply(s.cloud.vectors.copy())),
                s.cloud.weights,
            )
            layout_r = SpeakerLayout(
                s.layout.labels,
                *from_unit_vectors(rot.apply(s.layout.vectors.copy())),
            )
            rotated = SpeakerMatrix(s.entries, cloud_r, layout_r)
            for f in (coherent_metrics, incoherent_metrics):
                for a, b in zip(f(s), f(rotated)):
                    np.testing.assert_allclose(a, b, atol=1e-9)


class TestDirectionMetrics:
    def test_table_columns(self):
        cloud = cloud_of(kind="ring", points=5)
        layout = named_layout("5.0")
        g = build_encoding_matrix(ObjectsSpec(), cloud)
        s = speaker_matrix(g, np.eye(5), identity_decoder(layout))
        metrics = direction_metrics(s, INCOHERENT)
        table = metrics.table()
        assert table.shape == (5, len(METRIC_COLUMNS))
        assert METRIC_COLUMNS[0] == "azimuth"
        assert METRIC_COLUMNS[-1] == "level_db"


class TestSummarize:
    def test_constant_series(self):
        s = summarize([1.0, 1.0, 1.0])
        assert all(v == 1.0 for v in s.values())

    def test_five_points(self):
        s = summarize([1, 2, 3, 4, 5])
        assert s == {
            "median": 3.0,
            "q1": 2.0,
            "q3": 4.0,
            "whisker_low": 1.0,
            "whisker_high": 5.0,
        }

    def test_outlier_excluded_from_whisker(self):
        s = summarize([1, 2, 3, 4, 100])
        assert s["whisker_high"] == 4.0
        assert s["q3"] == 4.0

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            summarize([])

    def test_weights_accepted_but_unapplied(self):
        values = [1, 2, 3, 4, 5]
        assert summarize(values, weights=[9, 1, 1, 1, 1]) == summarize(values)

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from satx import (
    Direction,
    ExplicitSpec,
    GeometryError,
    HemisphereSpec,
    MergeSpec,
    PointCloud,
    RingSpec,
    SpeakerLayout,
    TDesignSpec,
    detect_symmetry_pairs,
    named_layout,
    sample_cloud,
    to_unit_vector,
    triangulate_hull,
)
from satx import geometry
from satx.geometry import (
    FibonacciSpec,
    from_unit_vector,
    layout_from_directions,
    mirror_indices,
    spherical_triangle_solid_angle,
    unit_vectors,
)


class TestDirection:
    def test_front_left_zenith_axes(self):
        np.testing.assert_allclose(
            to_unit_vector(Direction(0, 0)), [1, 0, 0], atol=1e-15
        )
        np.testing.assert_allclose(
            to_unit_vector(Direction(90, 0)), [0, 1, 0], atol=1e-15
        )
        np.testing.assert_allclose(
            to_unit_vector(Direction(0, 90)), [0, 0, 1], atol=1e-15
        )

    def test_azimuth_normalized_to_half_open_range(self):
        assert Direction(270, 0).azimuth == -90
        assert Direction(540, 0).azimuth == 180
        assert Direction(-180, 0).azimuth == 180
        assert Direction(180, 0).azimuth == 180

    def test_elevation_range_enforced(self):
        with pytest.raises(GeometryError):
            Direction(0, 91)
        with pytest.raises(GeometryError):
            Direction(0, float("nan"))

    @given(
        az=st.floats(-180, 180, exclude_min=True),
        el=st.floats(-89.9, 89.9),
    )
    def test_round_trip(self, az, el):
        d = Direction(az, el)
        back = from_unit_vector(to_unit_vector(d))
        assert abs(back.azimuth - d.azimuth) < 1e-9
        assert abs(back.elevation - d.elevation) < 1e-9

    def test_unit_norm(self, rng):
        for _ in range(50):
            d = Direction(rng.uniform(-180, 180), rng.uniform(-90, 90))
            assert abs(np.linalg.norm(to_unit_vector(d)) - 1.0) < 1e-12


class TestClouds:
    def test_ring_of_four(self):
        cloud = sample_cloud(RingSpec(4))
        assert [d.azimuth for d in cloud.directions] == [0, 90, 180, -90]
        assert all(d.elevation == 0 for d in cloud.directions)
        np.testing.assert_allclose(cloud.weights, 1.0)

    def test_embedded_design_first_moment(self):
        cloud = sample_cloud(TDesignSpec(56))
        assert len(cloud) == 56
        moment = cloud.vectors.sum(axis=0)
        assert np.abs(moment).max() < 1e-9

    def test_hemisphere_halves_of_designs(self):
        assert len(sample_cloud(HemisphereSpec(TDesignSpec(56)))) == 28
        assert len(sample_cloud(HemisphereSpec(TDesignSpec(60)))) == 30

    def test_unknown_design_size(self):
        with pytest.raises(GeometryError, match="unknown t-design"):
            sample_cloud(TDesignSpec(57))

    def test_merge_weight_ratio(self):
        merged = sample_cloud(
            MergeSpec((
                (HemisphereSpec(TDesignSpec(56)), 6.0),
                (RingSpec(15), 3.0),
                (ExplicitSpec(named_layout("7.0.4").directions), 1.0),
            ))
        )
        assert len(merged) == 54
        w = merged.weights
        assert abs(w[0] / w[-1] - 6.0) < 1e-12
        assert abs(w[28] / w[-1] - 3.0) < 1e-12

    def test_empty_merge_rejected(self):
        with pytest.raises(GeometryError):
            sample_cloud(MergeSpec(()))

    @pytest.mark.parametrize(
        "spec",
        [
            TDesignSpec(56),
            TDesignSpec(60),
            RingSpec(15),
            FibonacciSpec(101),
            HemisphereSpec(FibonacciSpec(312)),
            MergeSpec(((RingSpec(8), 2.0), (FibonacciSpec(13), 5.0))),
        ],
    )
    def test_weights_normalized_to_mean_one(self, spec):
        cloud = sample_cloud(spec)
        assert abs(cloud.weights.sum() - len(cloud)) < 1e-12

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(GeometryError):
            PointCloud((Direction(0, 0),), np.array([0.0]))

    def test_mirror_indices_on_ring(self):
        cloud = sample_cloud(RingSpec(8))
        idx = mirror_indices(cloud.vectors)
        for i, d in enumerate(cloud.directions):
            partner = cloud.directions[idx[i]]
            assert partner.azimuth == pytest.approx(d.mirrored().azimuth, abs=1e-9)

    def test_mirror_indices_cover_embedded_designs(self):
        for n in (56, 60):
            cloud = sample_cloud(TDesignSpec(n))
            assert (mirror_indices(cloud.vectors) >= 0).all()

    def test_mirror_indices_absent(self):
        idx = mirror_indices(unit_vectors((Direction(25, 10), Direction(80, -5))))
        assert list(idx) == [-1, -1]

    @pytest.mark.parametrize("rows", [7, 256])
    def test_mirror_indices_chunked_equals_one_shot(self, rows, monkeypatch):
        # duplicates (first index wins a tie), median-plane points on the
        # ring, and more directions than one chunk of rows
        spec = MergeSpec((
            (TDesignSpec(60), 1.0), (TDesignSpec(60), 1.0), (RingSpec(8), 1.0),
            (FibonacciSpec(700), 1.0), (HemisphereSpec(TDesignSpec(56)), 1.0),
        ))
        dirs = sample_cloud(spec).directions
        vecs = unit_vectors(dirs)
        dots = (vecs * [1.0, -1.0, 1.0]) @ vecs.T
        best = np.argmax(dots, axis=1)
        close = dots[np.arange(len(dirs)), best] >= math.cos(math.radians(0.1))
        one_shot = np.where(close, best, -1)
        monkeypatch.setattr(geometry, "_MIRROR_ROWS", rows)
        got = mirror_indices(vecs)
        np.testing.assert_array_equal(got, one_shot)
        assert got[60] == got[0] < 60 and (got >= 0).sum() > 100


class TestSymmetryPairs:
    def test_seven_oh_four_pairs(self):
        layout = named_layout("7.0.4")
        pairs = {
            frozenset((layout.labels[p], layout.labels[q]))
            for p, q in layout.symmetry_pairs
        }
        assert pairs == {
            frozenset(("L", "R")),
            frozenset(("Ls", "Rs")),
            frozenset(("Lb", "Rb")),
            frozenset(("Tfl", "Tfr")),
            frozenset(("Tbl", "Tbr")),
        }

    def test_irregular_layout_has_no_pairs(self):
        assert detect_symmetry_pairs(named_layout("3.0.1"), 1.0) == ()

    def test_single_speaker(self):
        layout = SpeakerLayout((("C", Direction(0, 0)),))
        assert detect_symmetry_pairs(layout, 1.0) == ()

    def test_invariant_under_reordering(self, rng):
        base = named_layout("7.0.4")
        order = rng.permutation(len(base))
        shuffled = SpeakerLayout(tuple(base.speakers[i] for i in order))

        def label_pairs(layout):
            return {
                frozenset((layout.labels[p], layout.labels[q]))
                for p, q in detect_symmetry_pairs(layout, 1.0)
            }

        assert label_pairs(base) == label_pairs(shuffled)

    def test_speaker_in_at_most_one_pair(self):
        layout = named_layout("7.0.4")
        seen = [i for pair in layout.symmetry_pairs for i in pair]
        assert len(seen) == len(set(seen))


class TestHull:
    def test_octahedron(self):
        faces = triangulate_hull(named_layout("octahedron"))
        assert len(faces) == 8
        assert all(len(f) == 3 for f in faces)

    def test_horizontal_ring_gives_adjacent_pairs(self):
        pairs = triangulate_hull(named_layout("5.0"))
        assert len(pairs) == 5
        assert all(len(p) == 2 for p in pairs)

    def test_every_speaker_used_and_faces_on_hull(self):
        layout = named_layout("7.0.4")
        faces = triangulate_hull(layout)
        used = {i for f in faces for i in f}
        assert used == set(range(len(layout)))
        # brute-force support check: all other vertices behind each face
        vecs = layout.unit_vectors()
        for a, b, c in faces:
            normal = np.cross(vecs[b] - vecs[a], vecs[c] - vecs[a])
            offsets = (vecs - vecs[a]) @ normal
            assert offsets.max() <= 1e-9

    def test_outward_orientation_and_solid_angle_sum(self):
        layout = named_layout("octahedron")
        vecs = layout.unit_vectors()
        total = 0.0
        for a, b, c in triangulate_hull(layout):
            omega = spherical_triangle_solid_angle(vecs[a], vecs[b], vecs[c])
            assert omega > 0  # outward orientation
            total += omega
        assert abs(total - 4 * math.pi) < 1e-6

    def test_solid_angle_sum_random_full_sphere_layout(self):
        cloud = sample_cloud(FibonacciSpec(14))
        layout = layout_from_directions(cloud.directions)
        vecs = layout.unit_vectors()
        total = sum(
            spherical_triangle_solid_angle(vecs[a], vecs[b], vecs[c])
            for a, b, c in triangulate_hull(layout)
        )
        assert abs(total - 4 * math.pi) < 1e-6

    def test_degenerate_plane_layout_reports_fill_speakers(self):
        # four speakers in the median (y = 0) plane
        speakers = tuple(
            (f"s{i}", d)
            for i, d in enumerate(
                (
                    Direction(0, 0),
                    Direction(0, 50),
                    Direction(180, 20),
                    Direction(180, -40),
                )
            )
        )
        with pytest.raises(GeometryError, match="virtual fill"):
            triangulate_hull(SpeakerLayout(speakers))

    def test_three_speakers_not_enough_for_3d(self):
        speakers = (
            ("a", Direction(0, 45)),
            ("b", Direction(120, 45)),
            ("c", Direction(-120, 45)),
        )
        with pytest.raises(GeometryError):
            triangulate_hull(SpeakerLayout(speakers))

    def test_stereo_pair_2d(self):
        layout = SpeakerLayout(
            (("L", Direction(30, 0)), ("R", Direction(-30, 0)))
        )
        assert triangulate_hull(layout) == [(0, 1)]


class TestLayout:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(GeometryError):
            SpeakerLayout((("L", Direction(0, 0)), ("L", Direction(10, 0))))

    def test_coincident_speakers_rejected(self):
        with pytest.raises(GeometryError, match="closer than"):
            SpeakerLayout(
                (("a", Direction(0, 0)), ("b", Direction(0.05, 0)))
            )

    def test_named_layout_unknown(self):
        with pytest.raises(GeometryError, match="unknown layout"):
            named_layout("9.1.6")

    def test_unit_vectors_shape(self):
        layout = named_layout("5.0.2")
        assert layout.unit_vectors().shape == (7, 3)
        assert unit_vectors(layout.directions).shape == (7, 3)

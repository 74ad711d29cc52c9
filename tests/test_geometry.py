import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from satx import geometry, runner
from satx.errors import ConfigError, GeometryError
from satx.geometry import (
    PointCloud,
    SpeakerLayout,
    detect_symmetry_pairs,
    from_unit_vectors,
    layout_from_cloud,
    mirror_indices,
    named_layout,
    triangulate_hull,
    unit_vectors,
)
from satx.presets import load_preset

from conftest import cloud_of, layout_of, unit_vector


def part(weight, **cloud):
    """One merge part of a cloud mapping."""
    return {"weight": weight, "cloud": cloud}


def spherical_triangle_solid_angle(u1, u2, u3) -> float:
    """Signed solid angle of a spherical triangle (Van Oosterom-Strackee)."""
    triple = float(np.dot(u1, np.cross(u2, u3)))
    denom = (
        1.0
        + float(np.dot(u1, u2))
        + float(np.dot(u2, u3))
        + float(np.dot(u3, u1))
    )
    return 2.0 * math.atan2(triple, denom)


def ring_layout(az, el):
    """A layout of speakers s0, s1, ... at the given angles."""
    return SpeakerLayout([f"s{i}" for i in range(len(az))], az, el)


class TestDirection:
    """Both sets of directions, clouds and layouts, check angles alike."""

    def test_front_left_zenith_axes(self):
        np.testing.assert_allclose(
            unit_vectors([0, 90, 0], [0, 0, 90]), np.eye(3), atol=1e-15
        )

    def test_azimuth_normalized_to_half_open_range(self):
        for make in (PointCloud, ring_layout):
            directions = make([270, 540, -180, 180], [0, 10, 20, 30])
            assert directions.azimuth.tolist() == [-90, 180, 180, 180]

    def test_elevation_range_enforced(self):
        for make in (PointCloud, ring_layout):
            for el in (91.0, float("nan")):
                with pytest.raises(GeometryError) as info:
                    make([0, 10], [0, el])
                assert info.value.field.endswith("[1]")
                assert info.value.reason == f"elevation {el} outside [-90, 90]"

    @given(
        az=st.floats(-180, 180, exclude_min=True),
        el=st.floats(-89.9, 89.9),
    )
    def test_round_trip(self, az, el):
        (back_az,), (back_el,) = from_unit_vectors(unit_vector(az, el))
        assert abs(back_az - az) < 1e-9
        assert abs(back_el - el) < 1e-9

    def test_unit_norm(self, rng):
        cloud = PointCloud(rng.uniform(-180, 180, 50), rng.uniform(-90, 90, 50))
        np.testing.assert_allclose(np.linalg.norm(cloud.vectors, axis=1), 1.0,
                                   rtol=0, atol=1e-12)


class TestClouds:
    def test_ring_of_four(self):
        cloud = cloud_of(kind="ring", points=4)
        assert cloud.azimuth.tolist() == [0, 90, 180, -90]
        assert (cloud.elevation == 0).all()
        np.testing.assert_allclose(cloud.weights, 1.0)

    def test_embedded_design_first_moment(self):
        cloud = cloud_of(kind="tdesign", points=56)
        assert len(cloud) == 56
        moment = cloud.vectors.sum(axis=0)
        assert np.abs(moment).max() < 1e-9

    def test_hemisphere_halves_of_designs(self):
        assert len(cloud_of(kind="tdesign", points=56, hemisphere=True)) == 28
        assert len(cloud_of(kind="tdesign", points=60, hemisphere=True)) == 30

    def test_unknown_design_size(self):
        with pytest.raises(ConfigError, match="unknown t-design"):
            cloud_of(kind="tdesign", points=57)
        with pytest.raises(GeometryError, match="unknown t-design"):
            geometry.tdesign(57)

    def test_merge_weight_ratio(self):
        merged = cloud_of(kind="merge", parts=[
            part(6, kind="tdesign", points=56, hemisphere=True),
            part(3, kind="ring", points=15),
            part(1, kind="layout", layout="7.0.4"),
        ])
        assert len(merged) == 54
        w = merged.weights
        assert abs(w[0] / w[-1] - 6.0) < 1e-12
        assert abs(w[28] / w[-1] - 3.0) < 1e-12

    def test_empty_merge_rejected(self):
        with pytest.raises(ConfigError, match="parts"):
            cloud_of(kind="merge", parts=[])

    @pytest.mark.parametrize(
        "spec",
        [
            dict(kind="tdesign", points=56),
            dict(kind="tdesign", points=60),
            dict(kind="ring", points=15),
            dict(kind="fibonacci", points=101),
            dict(kind="fibonacci", points=312, hemisphere=True),
            dict(kind="merge", parts=[part(2.0, kind="ring", points=8),
                                      part(5.0, kind="fibonacci", points=13)]),
        ],
    )
    def test_weights_normalized_to_mean_one(self, spec):
        cloud = cloud_of(**spec)
        assert abs(cloud.weights.sum() - len(cloud)) < 1e-12

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(GeometryError):
            PointCloud([0.0], [0.0], np.array([0.0]))

    @pytest.mark.parametrize("azimuth, elevation, weights, index", [
        ([0, 10, float("nan")], [0, 0, 0], None, r"directions\[2\]"),
        ([0, 10, 20], [0, 90.5, 0], None, r"directions\[1\]"),
        ([0, 10, 20], [0, 0, 0], [1, 0, 1], "direction 1"),
        ([0, 10, 20], [0, 0], None, "index 2"),
        ([0, 10, 20], [0, 0, 0], [1, 1, 1, 1], "index 3"),
    ])
    def test_invalid_cloud_names_the_index(self, azimuth, elevation,
                                           weights, index):
        with pytest.raises(GeometryError, match=index):
            PointCloud(azimuth, elevation, weights)

    def test_cloud_arrays_read_only_and_normalized(self):
        cloud = PointCloud([270.0, -180.0], [0.0, 10.0], [1.0, 3.0])
        assert cloud.azimuth.tolist() == [-90.0, 180.0]
        assert cloud.weights.tolist() == [0.5, 1.5]
        for a in (cloud.azimuth, cloud.elevation, cloud.weights,
                  cloud.vectors):
            assert not a.flags.writeable
        assert not hasattr(cloud, "directions")

    # SHA-256 of the float64 bytes, recorded with the per-Direction clouds
    # these arrays replaced; they change if the Fibonacci elevations take
    # np.arcsin or a merge mean takes a pairwise np.sum
    PINNED = {
        "fibonacci": (
            dict(kind="fibonacci", points=10000, hemisphere=True), {
                "azimuth": "c32095937b6e5f693c5ac2f0901be829abbe6e17b1cd55ee2bfa30dd781d59ab",
                "elevation": "ed90cceeebbff51c1891d32f34a8cf00b10f056daeb5b7c47ffbde385487dfa7",
                "vectors": "f0a2fd632654505afc68a64e1cc24e7e1f229278dc034eebc1fafe777ecfd6aa",
            }),
        "reference_virtual": (
            runner._REFERENCE_VIRTUAL, {
                "azimuth": "ff96636a27fe090e84992035962775a56a7156bffb14ca1c3f713180dac41aa1",
                "elevation": "59fc0b625e66aeee0b20357dcbb7af2eb5d37f6f16b432455436013b34d7c236",
                "vectors": "014202469b34641039ba4f561e6c0ef178babde48eb942d5bd29f60b94d0c074",
            }),
        "nested_merge": (
            dict(kind="merge", parts=[
                part(0.7, kind="merge", parts=[
                    part(0.1, kind="fibonacci", points=100),
                    part(0.3, kind="ring", points=7),
                ]),
                part(0.2, kind="tdesign", points=56, hemisphere=True),
            ]), {
                "azimuth": "55f851da3c3a2beb80d4bd0b7218fb9f448b0cf2603802a515506e4ba09837da",
                "elevation": "031756a68885bf5ee2ac68ac8037455a47f49fac33b2eb4073908152b96bd881",
                "weights": "8906e11a297e84d77d2d93d0df7ce0c208590b3c3bad4b48135414b507f541cb",
            }),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_cloud_bits_pinned(self, name):
        node, digests = self.PINNED[name]
        cloud = cloud_of(**node)
        for attr, digest in digests.items():
            data = np.ascontiguousarray(getattr(cloud, attr), dtype=np.float64)
            assert hashlib.sha256(data.tobytes()).hexdigest() == digest, attr

    def test_mirror_indices_on_ring(self):
        cloud = cloud_of(kind="ring", points=8)
        idx = mirror_indices(cloud.vectors)
        for i, az in enumerate(cloud.azimuth):
            assert cloud.azimuth[idx[i]] == pytest.approx(
                float(geometry._normalize_azimuth(-az)), abs=1e-9)

    def test_mirror_indices_cover_embedded_designs(self):
        for n in (56, 60):
            cloud = cloud_of(kind="tdesign", points=n)
            assert (mirror_indices(cloud.vectors) >= 0).all()

    def test_mirror_indices_absent(self):
        idx = mirror_indices(unit_vectors([25, 80], [10, -5]))
        assert list(idx) == [-1, -1]

    @pytest.mark.parametrize("rows", [7, 256])
    def test_mirror_indices_chunked_equals_one_shot(self, rows):
        # duplicates (first index wins a tie), median-plane points on the
        # ring, and partners 0.09 and 0.11 degrees off the mirror: the sorted
        # search, in one shot, against the rule itself, the argmax over all
        # L x L dot products taken `rows` rows at a time
        az, el = np.array([[25.0, 10.0], [-25.0, 10.09], [140.0, -20.0],
                           [-140.0, -20.11]]).T
        vecs = np.vstack([cloud_of(kind="merge", parts=[
            part(1, kind="tdesign", points=60),
            part(1, kind="tdesign", points=60),
            part(1, kind="ring", points=8),
            part(1, kind="fibonacci", points=700),
            part(1, kind="tdesign", points=56, hemisphere=True),
        ]).vectors, unit_vectors(az, el)])
        chunked = []
        for start in range(0, len(vecs), rows):
            dots = (vecs[start:start + rows] * [1.0, -1.0, 1.0]) @ vecs.T
            best = np.argmax(dots, axis=1)
            close = (dots[np.arange(len(dots)), best]
                     >= math.cos(math.radians(0.1)))
            chunked.append(np.where(close, best, -1))
        got = mirror_indices(vecs)
        np.testing.assert_array_equal(got, np.concatenate(chunked))
        assert got[60] == got[0] < 60 and (got >= 0).sum() > 100
        n = len(vecs) - 4
        assert got[n:].tolist() == [n + 1, n, -1, -1]

    @pytest.mark.parametrize("name, node, digest", [
        ("example1", None, "5c91fd7fa898e7755657ae2ebb0e5fb7"
                           "b8a9fa4bffd0359648ed705fbedea874"),
        ("example2", None, "b7b2371d1081893055fe373cd1ad6e28"
                           "0a8234527132b520ebd3b32190be828d"),
        ("example3", None, "39d72ef87f1280bc41a3aaac8c87dd53"
                           "b98f3a7c6e22ffc3cc3a84994dba7e31"),
        ("example4", None, "7df761a40620eeb9e0934f6bd9992b01"
                           "ea68153c266d2eb67f7a3361b887b66d"),
        ("dense", {"points": 10000}, "46aa57ff2f7bcfca547a211f2d96649a"
                                     "78de7a2487e4b7fdebcbd4047174c8c0"),
        ("dense_evaluation", {"points": 9500},
         "f16931a45b54d6e6b445bcc3d734a493fbf24c0a43830ae4ce0df7388c2f4f70"),
    ])
    def test_mirror_partners_pinned(self, name, node, digest):
        # the partners of the preset clouds and of the benchmark's dense
        # hemispheres (cloud and evaluation cloud), as the one-shot argmax
        # over every dot product found them
        cloud = (load_preset(name).cloud if node is None else
                 cloud_of(kind="fibonacci", hemisphere=True, **node))
        got = np.asarray(mirror_indices(cloud.vectors), dtype=np.int64)
        assert hashlib.sha256(got.tobytes()).hexdigest() == digest


def test_cloud_compares_and_hashes_by_identity():
    a = PointCloud([0, 10], [0, 0])
    b = PointCloud([0, 10], [0, 0])
    assert a == a and a != b  # comparing the arrays would raise
    assert {a: 1, b: 2}[b] == 2  # hashing them would raise


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
        layout = named_layout("3.0.1")
        assert detect_symmetry_pairs(layout.azimuth, layout.elevation,
                                     1.0) == ()

    def test_single_speaker(self):
        layout = layout_of(("C", 0, 0))
        assert detect_symmetry_pairs(layout.azimuth, layout.elevation,
                                     1.0) == ()

    def test_invariant_under_reordering(self, rng):
        base = named_layout("7.0.4")
        order = rng.permutation(len(base))
        shuffled = SpeakerLayout([base.labels[i] for i in order],
                                 base.azimuth[order], base.elevation[order])

        def label_pairs(layout):
            return {
                frozenset((layout.labels[p], layout.labels[q]))
                for p, q in detect_symmetry_pairs(layout.azimuth,
                                                  layout.elevation, 1.0)
            }

        assert label_pairs(base) == label_pairs(shuffled)

    def test_speaker_in_at_most_one_pair(self):
        layout = named_layout("7.0.4")
        seen = [i for pair in layout.symmetry_pairs for i in pair]
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize("pairs, field, reason", [
        (((2, 1), (0, 0)), "pairs[1]", "(L, L) pairs a speaker with itself"),
        (((0, 1), (2, 0)), "pairs[1]", "(C, L): L is already in a pair"),
        (((0, 3),), "pairs[0]", "(0, 3) are not speaker indices"),
    ])
    def test_bad_pair_named_by_position_and_labels(self, pairs, field,
                                                   reason):
        with pytest.raises(GeometryError) as info:
            layout_of(("L", 30, 0), ("R", -30, 0), ("C", 0, 0), pairs=pairs)
        assert (info.value.field, info.value.reason) == (field, reason)

    def test_pairs_kept_sorted(self):
        layout = named_layout("5.0")
        assert SpeakerLayout(layout.labels, layout.azimuth, layout.elevation,
                             ((3, 4), (2, 1))).symmetry_pairs == ((2, 1), (3, 4))


class TestHull:
    def test_octahedron(self):
        faces = triangulate_hull(named_layout("octahedron"))
        assert len(faces) == 8
        assert all(len(f) == 3 for f in faces)

    @pytest.mark.parametrize("name", sorted(geometry._QHULL_FACES))
    def test_frozen_faces_are_qhulls(self, name):
        layout = named_layout(name)
        faces = list(geometry._QHULL_FACES[name])
        assert geometry._qhull_triangles(layout) == faces
        assert triangulate_hull(layout) == faces

    def test_frozen_faces_keyed_on_normalized_angles(self, monkeypatch):
        # other labels and azimuths a turn away still match the built-in;
        # the same speakers in another order go through qhull
        qhull = geometry._qhull_triangles
        calls = []

        def counting(layout):
            calls.append(layout)
            return qhull(layout)

        monkeypatch.setattr(geometry, "_qhull_triangles", counting)
        built_in = named_layout("5.0.2")
        turned = ring_layout(built_in.azimuth + 360.0, built_in.elevation)
        assert triangulate_hull(turned) == list(geometry._QHULL_FACES["5.0.2"])
        assert calls == []
        order = [6, 0, 1, 2, 3, 4, 5]
        reordered = ring_layout(built_in.azimuth[order],
                                built_in.elevation[order])
        triangulate_hull(reordered)
        assert calls == [reordered]

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
        vecs = layout.vectors
        for a, b, c in faces:
            normal = np.cross(vecs[b] - vecs[a], vecs[c] - vecs[a])
            offsets = (vecs - vecs[a]) @ normal
            assert offsets.max() <= 1e-9

    def test_outward_orientation_and_solid_angle_sum(self):
        layout = named_layout("octahedron")
        vecs = layout.vectors
        total = 0.0
        for a, b, c in triangulate_hull(layout):
            omega = spherical_triangle_solid_angle(vecs[a], vecs[b], vecs[c])
            assert omega > 0  # outward orientation
            total += omega
        assert abs(total - 4 * math.pi) < 1e-6

    def test_solid_angle_sum_random_full_sphere_layout(self):
        cloud = cloud_of(kind="fibonacci", points=14)
        layout = layout_from_cloud(cloud)
        vecs = layout.vectors
        total = sum(
            spherical_triangle_solid_angle(vecs[a], vecs[b], vecs[c])
            for a, b, c in triangulate_hull(layout)
        )
        assert abs(total - 4 * math.pi) < 1e-6

    def test_degenerate_plane_layout_reports_fill_speakers(self):
        # four speakers in the median (y = 0) plane
        layout = ring_layout([0, 0, 180, 180], [0, 50, 20, -40])
        with pytest.raises(GeometryError, match="virtual fill"):
            triangulate_hull(layout)

    def test_three_speakers_not_enough_for_3d(self):
        layout = ring_layout([0, 120, -120], [45, 45, 45])
        with pytest.raises(GeometryError):
            triangulate_hull(layout)

    def test_stereo_pair_2d(self):
        layout = layout_of(("L", 30, 0), ("R", -30, 0))
        assert triangulate_hull(layout) == [(0, 1)]


class TestLayout:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(GeometryError):
            layout_of(("L", 0, 0), ("L", 10, 0))

    def test_coincident_speakers_rejected(self):
        with pytest.raises(GeometryError, match="closer than"):
            layout_of(("a", 0, 0), ("b", 0.05, 0))

    def test_named_layout_constructs_once(self, monkeypatch):
        # the pairs are detected from the angles, then the layout is built
        calls = []
        post_init = SpeakerLayout.__post_init__

        def counting(layout):
            calls.append(layout)
            post_init(layout)

        checks = []
        checked_angles = geometry.checked_angles

        def counting_check(*args):
            checks.append(args)
            return checked_angles(*args)

        monkeypatch.setattr(SpeakerLayout, "__post_init__", counting)
        monkeypatch.setattr(geometry, "checked_angles", counting_check)
        layout = named_layout("7.0.4")
        assert len(calls) == 1 and len(checks) == 1
        assert len(layout.symmetry_pairs) == 5

    def test_layout_with_pairs_rejects_bad_angles_by_field(self):
        with pytest.raises(GeometryError, match=r"speakers\[1\] elevation"):
            geometry.layout_with_pairs(["L", "R"], [30, -30], [0, 95])
        with pytest.raises(GeometryError, match="1 elevations for 2"):
            geometry.layout_with_pairs(["L", "R"], [30, -30], [0])

    def test_panning_bases_computed_once_per_layout(self, monkeypatch):
        from satx.formats import vbap_matrix

        calls = []
        triangulate = geometry.triangulate_hull

        def counting(layout):
            calls.append(layout)
            return triangulate(layout)

        monkeypatch.setattr(geometry, "triangulate_hull", counting)
        layout = named_layout("7.0.4")
        first = vbap_matrix(layout, [0.0, 30.0], [0.0, 20.0])
        second = vbap_matrix(layout, [0.0, 30.0], [0.0, 20.0])
        np.testing.assert_array_equal(first, second)
        assert calls == [layout]

    def test_dropped_layout_is_freed(self):
        from satx.formats import vbap_matrix

        layout = named_layout("7.0.4")
        vbap_matrix(layout, [0.0], [0.0])
        ref = weakref.ref(layout)
        del layout
        gc.collect()
        assert ref() is None

    def test_named_layout_unknown(self):
        with pytest.raises(GeometryError, match="unknown layout"):
            named_layout("9.1.6")

    def test_unit_vectors_shape(self):
        layout = named_layout("5.0.2")
        assert layout.vectors.shape == (7, 3)
        assert unit_vectors(layout.azimuth, layout.elevation).shape == (7, 3)

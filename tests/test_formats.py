import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

from satx.errors import CoverageError, DimensionError, GeometryError
from satx.formats import (
    AmbisonicsSpec,
    ExternalSpec,
    ObjectsSpec,
    VbapSpec,
    ambisonics_encode,
    build_decoder_to_speaker,
    build_encoding_matrix,
    lost_channels,
    remap_baseline,
    sh_matrix,
    vbap_matrix,
)
from satx.geometry import (
    PointCloud,
    fibonacci_sphere,
    from_unit_vectors,
    layout_from_cloud,
    named_layout,
    triangulate_hull,
)

from conftest import (
    cloud_of,
    direction_arrays,
    layout_of,
    random_direction,
    random_directions,
    unit_vector,
    vbap_gains,
    vbip_gains,
)


def complex_sh_oracle(order, azimuth, elevation):
    """N3D real spherical harmonics built from scipy's complex ones."""
    zen = np.radians(90.0 - np.asarray(elevation))
    azi = np.radians(azimuth)
    out = np.empty((len(azi), (order + 1) ** 2))
    for n in range(order + 1):
        for m in range(-n, n + 1):
            c = sph_harm_y(n, abs(m), zen, azi)
            if m == 0:
                col = c.real
            elif m > 0:
                col = math.sqrt(2) * (-1) ** m * c.real
            else:
                col = math.sqrt(2) * (-1) ** abs(m) * c.imag
            out[:, n * (n + 1) + m] = math.sqrt(4 * math.pi) * col
    return out


def per_direction_gains(layout, faces, d, intensity=False):
    """VBAP (or VBIP) gains of one direction, solving one face at a time.

    The first of the hull faces (lowest index) whose gains are all
    >= -1e-9 wins.
    """
    k = len(faces[0])
    v = unit_vector(*d)[:k]
    if k == 2:
        v = v / np.linalg.norm(v)
    for face in faces:
        base = layout.vectors[list(face), :k].T
        if abs(np.linalg.det(base)) < 1e-12:
            continue
        g = np.linalg.inv(base) @ v
        if g.min() >= -1e-9:
            g = np.clip(g, 0.0, None)
            out = np.zeros(len(layout))
            if intensity:
                out[list(face)] = np.sqrt(g / g.sum())
                return out
            out[list(face)] = g
            return out / np.linalg.norm(out)
    raise CoverageError(f"no face accepts {d}")


class TestSphericalHarmonics:
    def test_order_zero_is_ones(self):
        cloud = cloud_of(kind="fibonacci", points=17)
        enc = ambisonics_encode(cloud, 0)
        np.testing.assert_array_equal(enc.entries, np.ones((17, 1)))

    def test_order_one_front(self):
        row = sh_matrix([0.0], [0.0], 1)[0]
        np.testing.assert_allclose(row, [1, 0, 0, 1], atol=1e-15)

    def test_order_one_sn3d_formulas(self, rng):
        for _ in range(20):
            az_deg, el_deg = random_direction(rng)
            az, el = math.radians(az_deg), math.radians(el_deg)
            expected = [
                1.0,
                math.cos(el) * math.sin(az),
                math.sin(el),
                math.cos(el) * math.cos(az),
            ]
            np.testing.assert_allclose(
                sh_matrix([az_deg], [el_deg], 1)[0], expected,
                atol=1e-14
            )

    def test_order_five_row_width(self):
        row = sh_matrix([33.0], [12.0], 5)
        assert row.shape == (1, 36)

    def test_acn_indexing_consistent_across_orders(self, rng):
        # channel n(n+1)+m is the same function regardless of max order
        az, el = random_directions(rng, 6)
        low = sh_matrix(az, el, 2)
        high = sh_matrix(az, el, 5)
        np.testing.assert_allclose(high[:, :9], low, atol=1e-14)

    def test_against_complex_oracle(self, rng):
        az, el = random_directions(rng, 12)
        ours = sh_matrix(az, el, 5, "N3D")
        oracle = complex_sh_oracle(5, az, el)
        np.testing.assert_allclose(ours, oracle, atol=1e-11)

    def test_n3d_gram_identity(self):
        az, el = fibonacci_sphere(10000)
        y = sh_matrix(az, el, 5, "N3D")
        gram = y.T @ y / len(az)
        assert np.abs(gram - np.eye(36)).max() < 1e-3

    def test_order_range(self):
        with pytest.raises(DimensionError):
            sh_matrix([0.0], [0.0], 10)
        with pytest.raises(DimensionError):
            AmbisonicsSpec(-1)


class TestVbap:
    def test_one_hot_at_speakers(self):
        layout = named_layout("7.0.4")
        for i, d in enumerate(zip(layout.azimuth, layout.elevation)):
            g = vbap_gains(layout, *d)
            expected = np.zeros(len(layout))
            expected[i] = 1.0
            np.testing.assert_allclose(g, expected, atol=1e-9)

    def test_symmetric_pair(self):
        layout = layout_of(("a", 45, 0), ("b", -45, 0))
        g = vbap_gains(layout, 0, 0)
        np.testing.assert_allclose(g, [math.sqrt(0.5)] * 2, atol=1e-12)

    def test_energy_normalized_everywhere(self, rng):
        layout = named_layout("octahedron")
        for _ in range(300):
            g = vbap_gains(layout, *random_direction(rng, (-90, 90)))
            assert abs((g**2).sum() - 1.0) < 1e-12
            assert (g >= 0).all()
            assert (g > 0).sum() <= 3

    def test_velocity_direction_exact(self, rng):
        layout = named_layout("octahedron")
        u = layout.vectors
        for _ in range(50):
            d = random_direction(rng)
            g = vbap_gains(layout, *d)
            resultant = g @ u
            resultant /= np.linalg.norm(resultant)
            np.testing.assert_allclose(
                resultant, unit_vector(*d), atol=1e-12
            )

    def test_edge_continuity(self):
        layout = named_layout("octahedron")
        # sweep across the +x/+y edge of the octahedron
        eps = 0.05
        a = vbap_gains(layout, 45, eps)
        b = vbap_gains(layout, 45, -eps)
        assert np.abs(a - b).max() < 0.02
        on_edge = vbap_gains(layout, 45, 0)
        assert np.abs(on_edge - a).max() < 0.02
        assert (on_edge > 1e-6).sum() == 2

    def test_edge_shared_by_adjacent_triangles(self):
        # solving either face adjacent to an edge direction must agree
        layout = named_layout("octahedron")
        faces, inverses = layout.panning_bases
        v = np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0])
        solutions = []
        for face, inverse in zip(faces, inverses):
            g = inverse @ v
            if g.min() >= -1e-9:
                full = np.zeros(len(layout))
                full[face] = g
                solutions.append(full / np.linalg.norm(full))
        assert len(solutions) == 2  # the two faces sharing the edge
        np.testing.assert_allclose(solutions[0], solutions[1], atol=1e-9)

    @pytest.mark.parametrize("name", ["octahedron", "7.0.4", "5.0", "3.0.1"])
    def test_batch_equals_per_direction_reference(self, name, rng):
        layout = named_layout(name)
        u = layout.vectors
        faces = triangulate_hull(layout)
        edges = [
            (a, b) for face in faces
            for a, b in zip(face, face[1:] + face[:1])
        ]
        dirs = [random_direction(rng, (-90, 90)) for _ in range(300)]
        dirs += list(zip(layout.azimuth, layout.elevation))
        mids = [u[a] + u[b] for a, b in edges
                if np.linalg.norm(u[a] + u[b]) > 1e-9]
        dirs += list(zip(*from_unit_vectors(mids)))
        covered = []
        for d in dirs:
            try:
                per_direction_gains(layout, faces, d)
            except CoverageError:
                with pytest.raises(CoverageError):
                    vbap_gains(layout, *d)
                continue
            covered.append(d)
            np.testing.assert_array_equal(
                vbip_gains(layout, *d),
                per_direction_gains(layout, faces, d, intensity=True),
            )
        assert len(covered) > 150
        expected = np.array(
            [per_direction_gains(layout, faces, d) for d in covered]
        )
        got = vbap_matrix(layout, *direction_arrays(covered))
        np.testing.assert_array_equal(got > 0, expected > 0)
        np.testing.assert_array_equal(got, expected)

    def test_batch_names_its_first_uncovered_direction(self):
        layout = named_layout("7.0.4")
        outside1, outside2 = (10, -40), (-60, -70)
        with pytest.raises(CoverageError) as single:
            vbap_gains(layout, *outside1)
        with pytest.raises(CoverageError) as batch:
            vbap_matrix(layout, *direction_arrays(
                [(0, 30), outside1, outside2]))
        assert str(batch.value) == str(single.value)
        assert "az=10.000 el=-40.000" in str(batch.value)

    def test_direction_behind_a_narrow_2d_layout(self):
        # every gain of the one face is negative, so the clipped resultant
        # is the zero vector; the nearest speaker is reported instead
        layout = layout_of(("L", 30, 0), ("R", -30, 0))
        with pytest.raises(CoverageError, match=(
            r"az=170\.000 el=0\.000 is outside the panning hull; nearest "
            r"covered direction is az=30\.000 el=0\.000"
        )):
            vbap_matrix(layout, [0.0, 170.0], [0.0, 0.0])

    def test_layout_without_a_solvable_face(self):
        layout = layout_of(("F", 0, 0), ("B", 180, 0))
        with pytest.raises(GeometryError, match="coplanar with the origin"):
            vbap_gains(layout, 0, 0)

    def test_continuity_dense_sweep(self):
        layout = named_layout("7.0.4")
        prev = None
        for az in np.arange(-180.0, 180.0, 0.1):
            g = vbap_gains(layout, float(az), 20.0)
            if prev is not None:
                assert np.abs(g - prev).max() < 0.02
            prev = g

    def test_outside_hull_reports_nearest(self):
        layout = named_layout("7.0.4")
        with pytest.raises(CoverageError, match="nearest covered"):
            vbap_gains(layout, 0, -40)

    def test_vbip_aligns_energy_vector(self, rng):
        layout = named_layout("octahedron")
        u = layout.vectors
        for _ in range(50):
            d = random_direction(rng)
            g = vbip_gains(layout, *d)
            assert abs((g**2).sum() - 1.0) < 1e-12
            resultant = (g**2) @ u
            resultant /= np.linalg.norm(resultant)
            np.testing.assert_allclose(
                resultant, unit_vector(*d), atol=1e-12
            )


class TestEncodingMatrix:
    def test_objects_identity(self):
        cloud = cloud_of(kind="ring", points=72)
        enc = build_encoding_matrix(ObjectsSpec(), cloud)
        assert enc.shape == (72, 72)
        np.testing.assert_array_equal(enc.entries, np.eye(72))

    def test_vbap_bed_shape(self):
        cloud = cloud_of(kind="merge", parts=[
            {"weight": 6, "cloud": {"kind": "tdesign", "points": 56,
                                    "hemisphere": True}},
            {"weight": 3, "cloud": {"kind": "ring", "points": 15}},
            {"weight": 1, "cloud": {"kind": "layout", "layout": "7.0.4"}},
        ])
        enc = build_encoding_matrix(VbapSpec(named_layout("7.0.4")), cloud)
        assert enc.shape == (54, 11)
        np.testing.assert_allclose((enc.entries**2).sum(axis=1), 1.0, atol=1e-12)

    def test_ambisonics_shape(self):
        cloud = cloud_of(kind="tdesign", points=56)
        enc = build_encoding_matrix(AmbisonicsSpec(5), cloud)
        assert enc.shape == (56, 36)
        assert enc.channel_labels[:3] == ("ACN0", "ACN1", "ACN2")

    def test_external_matrix_input(self, tmp_path, rng):
        from satx.matfile import export_matrix, import_matrix, matrix_file

        cloud = cloud_of(kind="ring", points=6)
        values = rng.normal(size=(6, 4))
        path = tmp_path / "enc.smx"
        export_matrix(matrix_file(values, kind="encoding"), path)
        spec = ExternalSpec(import_matrix(path))
        enc = build_encoding_matrix(spec, cloud)
        np.testing.assert_array_equal(enc.entries, values)
        assert enc.channel_labels == ("c0", "c1", "c2", "c3")

        bad_cloud = cloud_of(kind="ring", points=5)
        with pytest.raises(DimensionError, match=r"has shape \(6, 4\), "
                           r"expected \(5, 4\)"):
            build_encoding_matrix(spec, bad_cloud)


class TestDecoderToSpeaker:
    def test_real_layout_identity(self):
        layout = named_layout("3.0.1")
        dec = build_decoder_to_speaker(None, layout)
        np.testing.assert_array_equal(dec.entries, np.eye(4))

    def test_pseudo_inverse_projector(self):
        virtual = cloud_of(kind="merge", parts=[
            {"cloud": {"kind": "tdesign", "points": 60, "hemisphere": True}},
            {"cloud": {"kind": "ring", "points": 36}},
        ])
        layout = layout_from_cloud(virtual)
        dec = build_decoder_to_speaker(AmbisonicsSpec(5), layout)
        assert dec.shape == (66, 36)
        y = sh_matrix(layout.azimuth, layout.elevation, 5)
        np.testing.assert_allclose(y.T @ dec.entries, np.eye(36), atol=1e-8)

    def test_square_invertible_matches_inverse(self):
        layout = layout_from_cloud(
            PointCloud([0, 120, -120, 0], [-10, -10, -10, 90])
        )
        dec = build_decoder_to_speaker(AmbisonicsSpec(1), layout)
        y = sh_matrix(layout.azimuth, layout.elevation, 1)
        np.testing.assert_allclose(dec.entries, np.linalg.inv(y.T), atol=1e-9)

    def test_small_layout_decoder_loses_channels(self):
        # three speakers cannot reach nine channels; the problem build
        # rejects such a decoder (tests/test_cli.py)
        layout = layout_from_cloud(PointCloud([0, 120, -120], [0, 0, 30]))
        dec = build_decoder_to_speaker(AmbisonicsSpec(2), layout)
        assert dec.shape == (3, 9)
        rank, lost = lost_channels(dec.entries, dec.channel_labels)
        assert rank == 3
        assert len(lost) >= 6

    def test_lost_channels_names_the_null_space(self):
        ring = layout_from_cloud(PointCloud(np.arange(8) * 45.0, np.zeros(8)))
        dec = build_decoder_to_speaker(AmbisonicsSpec(1), ring)
        assert lost_channels(dec.entries, dec.channel_labels) == (3, ("ACN2",))
        assert lost_channels(np.eye(3), "abc") == (3, ())
        assert lost_channels(np.zeros((2, 2)), "ab") == (0, ("a", "b"))


class TestRemapBaseline:
    def test_bed_to_scene_columns_are_sh_rows(self):
        layout = named_layout("7.0.4")
        t = remap_baseline(layout.azimuth, layout.elevation, AmbisonicsSpec(5))
        assert t.shape == (36, 11)
        np.testing.assert_allclose(
            t, sh_matrix(layout.azimuth, layout.elevation, 5).T, atol=1e-15
        )

    def test_bed_to_bed_shape(self):
        src = named_layout("5.0.2")
        dst = named_layout("3.0.1")
        t = remap_baseline(src.azimuth, src.elevation, VbapSpec(dst))
        assert t.shape == (4, 7)

    def test_objects_at_speakers_is_permutation(self, rng):
        layout = named_layout("octahedron")
        perm = rng.permutation(len(layout))
        t = remap_baseline(layout.azimuth[perm], layout.elevation[perm],
                           VbapSpec(layout))
        assert t.shape == (6, 6)
        for col, speaker in enumerate(perm):
            expected = np.zeros(6)
            expected[speaker] = 1.0
            np.testing.assert_allclose(t[:, col], expected, atol=1e-9)


class TestMatrixTypes:
    def test_encoding_row_count_must_match_cloud(self):
        from satx.formats import EncodingMatrix

        cloud = cloud_of(kind="ring", points=4)
        with pytest.raises(DimensionError):
            EncodingMatrix(np.ones((3, 2)), cloud, ("a", "b"))

    def test_entries_immutable(self):
        cloud = cloud_of(kind="ring", points=4)
        enc = build_encoding_matrix(ObjectsSpec(), cloud)
        with pytest.raises(ValueError):
            enc.entries[0, 0] = 5.0

import copy
import dataclasses
import math
import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from satx import (
    AudioError,
    ConfigError,
    CostCoefficients,
    MatrixFileError,
    OptimizationConfig,
    SatxError,
    presets,
    runner,
)
from satx.audio import apply_matrix_to_audio, read_wav, write_wav_float32
from satx.config import load_config, parse_config
from satx.matfile import (
    export_matrix,
    format_matrix,
    import_matrix,
    matrix_file,
    parse_matrix,
)


class TestMatrixFile:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        values = rng.standard_normal((36, 11)) * np.exp(rng.uniform(-20, 20, (36, 11)))
        m = matrix_file(
            values,
            kind="transcoding",
            row_labels=[f"o{i}" for i in range(36)],
            col_labels=[f"i{i}" for i in range(11)],
            note="round trip check",
        )
        path = tmp_path / "t.smx"
        export_matrix(m, path)
        back = import_matrix(path)
        assert back.kind == m.kind
        assert back.row_labels == m.row_labels
        assert back.col_labels == m.col_labels
        assert back.note == m.note
        np.testing.assert_array_equal(back.values(), values)

    def test_entry_count_mismatch(self):
        text = format_matrix(matrix_file(np.ones((2, 2))))
        text = text.replace("rows 2", "rows 3")
        with pytest.raises(MatrixFileError, match="entries"):
            parse_matrix(text)

    def test_missing_header(self):
        with pytest.raises(MatrixFileError, match="header"):
            parse_matrix("1 2\n3 4\n")

    def test_bad_number(self):
        lines = format_matrix(matrix_file(np.ones((1, 2)))).splitlines()
        lines[-1] = "1 pear"
        with pytest.raises(MatrixFileError, match="numeric"):
            parse_matrix("\n".join(lines))

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_entry_names_file_and_line(self, tmp_path, token):
        lines = format_matrix(matrix_file(np.ones((2, 2)))).splitlines()
        lines[-1] = f"1 {token}"
        path = tmp_path / "bad.smx"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            MatrixFileError, match=rf"bad\.smx: line {len(lines)}: non-finite"
        ):
            import_matrix(path)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(MatrixFileError, match="unique"):
            matrix_file(np.ones((2, 2)), row_labels=["a", "a"])

    def test_whitespace_label_rejected(self):
        with pytest.raises(MatrixFileError, match="label"):
            matrix_file(np.ones((1, 1)), row_labels=["a b"])

    def test_unknown_kind(self):
        with pytest.raises(MatrixFileError, match="kind"):
            matrix_file(np.ones((1, 1)), kind="mixing")

    def test_missing_file(self, tmp_path):
        with pytest.raises(MatrixFileError, match="cannot read"):
            import_matrix(tmp_path / "nope.smx")

    def test_declared_size_checked_before_default_labels(self):
        text = ("satx-matrix 1\nkind transcoding\nrows 1000000\ncols 1\n"
                "1 2\n3 4\n")
        tracemalloc.start()
        try:
            with pytest.raises(MatrixFileError,
                               match="needs 1000000 entries, got 4"):
                parse_matrix(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_non_finite_values_rejected(self):
        # an exported NaN or infinity could not be imported again
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(MatrixFileError, match="must be finite"):
                matrix_file([[bad, 1.0]])

    def test_generate_exports_the_problems_channel_labels(self, tmp_path):
        job = presets.load_preset("example2")  # 7.0.4 bed to ambisonics
        job.optimizer = dataclasses.replace(job.optimizer, max_iterations=2)
        problem = runner.build_problem(job)
        result = runner.run_generate(job, tmp_path)
        exported = import_matrix(result.matrix_path)
        assert exported.row_labels == problem.decoder.channel_labels
        assert exported.col_labels == problem.encoding.channel_labels
        assert exported.row_labels[:2] == ("ACN0", "ACN1")
        assert exported.col_labels[:2] == ("C", "L")

    def test_default_labels(self):
        text = "satx-matrix 1\nkind transcoding\nrows 2\ncols 1\n1\n2\n"
        m = parse_matrix(text)
        assert m.row_labels == ("r0", "r1")
        assert m.col_labels == ("c0",)


def write_pcm24(path, rate, data):
    """Minimal 24-bit PCM WAV writer (scipy cannot write 24-bit)."""
    frames, channels = data.shape
    ints = np.clip(np.round(data * (2**23)), -(2**23), 2**23 - 1).astype(np.int64)
    payload = bytearray()
    for frame in ints:
        for v in frame:
            payload += struct.pack("<i", int(v) << 8)[1:]
    block = channels * 3
    with open(path, "wb") as fh:
        fh.write(b"RIFF")
        fh.write(struct.pack("<I", 36 + len(payload)))
        fh.write(b"WAVEfmt ")
        fh.write(struct.pack("<IHHIIHH", 16, 1, channels, rate,
                             rate * block, block, 24))
        fh.write(b"data")
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)


class TestAudio:
    def test_identity_reproduces_float_converted_pcm16(self, tmp_path, rng):
        rate = 48000
        pcm = (rng.uniform(-1, 1, (1000, 3)) * 32767).astype(np.int16)
        src = tmp_path / "in.wav"
        wavfile.write(src, rate, pcm)
        dst = tmp_path / "out.wav"
        result = apply_matrix_to_audio(np.eye(3), src, dst)
        assert result.frames == 1000
        assert result.clipped_samples == 0
        got_rate, got = wavfile.read(dst)
        assert got_rate == rate
        expected = (pcm.astype(np.float64) / 32768.0).astype(np.float32)
        np.testing.assert_array_equal(got, expected)

    def test_identity_reproduces_float32_exactly(self, tmp_path, rng):
        rate = 44100
        data = rng.uniform(-1, 1, (500, 2)).astype(np.float32)
        src = tmp_path / "in.wav"
        wavfile.write(src, rate, data)
        dst = tmp_path / "out.wav"
        apply_matrix_to_audio(np.eye(2), src, dst)
        _, got = wavfile.read(dst)
        np.testing.assert_array_equal(got, data)

    def test_downmix_mean(self, tmp_path):
        rate = 8000
        data = np.stack(
            [np.linspace(-1, 1, 64), np.linspace(1, -1, 64)], axis=1
        ).astype(np.float32)
        src = tmp_path / "in.wav"
        wavfile.write(src, rate, data)
        dst = tmp_path / "out.wav"
        result = apply_matrix_to_audio(np.array([[0.5, 0.5]]), src, dst)
        assert result.out_channels == 1
        _, got = wavfile.read(dst)
        np.testing.assert_allclose(got, np.zeros(64), atol=1e-7)

    def test_pcm24_read(self, tmp_path):
        rate = 32000
        data = np.array([[0.5, -0.25], [0.125, 0.75]])
        src = tmp_path / "in24.wav"
        write_pcm24(src, rate, data)
        got_rate, got = read_wav(src)
        assert got_rate == rate
        np.testing.assert_allclose(got, data, atol=2**-22)

    def test_unsupported_format_rejected(self, tmp_path):
        src = tmp_path / "in8.wav"
        wavfile.write(src, 8000, np.zeros(10, dtype=np.uint8))
        with pytest.raises(AudioError, match="unsupported sample format"):
            read_wav(src)

    def test_channel_mismatch(self, tmp_path):
        src = tmp_path / "in.wav"
        wavfile.write(src, 8000, np.zeros((10, 2), dtype=np.float32))
        with pytest.raises(AudioError, match="channels"):
            apply_matrix_to_audio(np.eye(3), src, tmp_path / "out.wav")

    def test_clipping_counted_not_applied(self, tmp_path):
        src = tmp_path / "in.wav"
        wavfile.write(src, 8000, np.full((16, 1), 0.9, dtype=np.float32))
        dst = tmp_path / "out.wav"
        result = apply_matrix_to_audio(np.array([[2.0]]), src, dst)
        assert result.clipped_samples == 16
        _, got = wavfile.read(dst)
        np.testing.assert_allclose(got, 1.8, atol=1e-6)

    def test_linearity_exact_on_dyadic_data(self, tmp_path, rng):
        rate = 16000
        a = (rng.integers(-512, 512, (200, 2)) / 1024.0)
        b = (rng.integers(-512, 512, (200, 2)) / 1024.0)
        t = np.array([[0.5, 0.25], [-0.5, 1.0]])
        outs = {}
        for name, data in (("a", a), ("b", b), ("ab", a + b)):
            src = tmp_path / f"{name}.wav"
            write_wav_float32(src, rate, data)
            dst = tmp_path / f"{name}_out.wav"
            apply_matrix_to_audio(t, src, dst)
            outs[name] = wavfile.read(dst)[1].astype(np.float64)
        np.testing.assert_array_equal(outs["ab"], outs["a"] + outs["b"])

    def test_blockwise_matches_single_shot(self, tmp_path, rng):
        rate = 22050
        data = rng.uniform(-1, 1, (1000, 3)).astype(np.float32)
        src = tmp_path / "in.wav"
        wavfile.write(src, rate, data)
        t = rng.normal(size=(2, 3))
        small = tmp_path / "small.wav"
        big = tmp_path / "big.wav"
        apply_matrix_to_audio(t, src, small, block_frames=64)
        apply_matrix_to_audio(t, src, big, block_frames=1 << 20)
        np.testing.assert_array_equal(
            wavfile.read(small)[1], wavfile.read(big)[1]
        )


class TestConfig:
    def test_preset_example1_contents(self):
        from satx import AmbisonicsSpec, presets

        job = presets.load_preset("example1")
        assert job.analysis == "incoherent"
        assert isinstance(job.input_spec, AmbisonicsSpec)
        assert job.input_spec.order == 5
        assert job.output_spec is None
        assert len(job.output_layout) == 11
        assert job.coeffs.energy == 5
        assert job.coeffs.intensity_radial == 2
        assert job.coeffs.intensity_transverse == 1
        assert job.coeffs.in_phase_quadratic == 10
        assert job.coeffs.symmetry_quadratic == 2
        assert job.coeffs.pressure == 0

    def test_negative_coefficient_names_key(self):
        from satx.presets import preset_dict

        cfg = preset_dict("example1")
        cfg["coefficients"]["energy"] = -5
        with pytest.raises(ConfigError, match="coefficients.energy"):
            parse_config(cfg)

    def test_unknown_key_rejected_with_path(self):
        from satx.presets import preset_dict

        cfg = preset_dict("example1")
        cfg["optimizer"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="optimizer.momentum"):
            parse_config(cfg)

    def test_defaults_applied_without_optimizer_block(self):
        from satx.presets import preset_dict

        cfg = preset_dict("example4")
        del cfg["optimizer"]
        job = parse_config(cfg)
        assert job.optimizer.max_iterations == 2000
        assert job.optimizer.gradient_tolerance == 1e-7
        assert job.optimizer.cost_tolerance == 1e-10

    def test_optimization_config_resolves_the_job(self, tmp_path):
        from satx import runner
        from satx.presets import preset_dict

        t0 = np.arange(28.0).reshape(4, 7) / 28
        export_matrix(matrix_file(t0), tmp_path / "t0.smx")
        cfg = preset_dict("example3")
        cfg["optimizer"] = {"init": "given", "matrix": str(tmp_path / "t0.smx"),
                            "seed": 4}
        job = parse_config(cfg)
        assert job.optimizer.matrix is None
        resolved = runner.optimization_config(job, seed=9)
        assert resolved.init == "given" and resolved.seed == 9
        np.testing.assert_array_equal(resolved.matrix, t0)
        assert runner.optimization_config(job).seed == 4

        cfg["optimizer"] = {"init": "reference"}
        job = parse_config(cfg)
        resolved = runner.optimization_config(job)
        np.testing.assert_array_equal(resolved.matrix,
                                      runner.reference_transcoder(job))

    def test_generate_requires_cloud(self):
        from satx.presets import preset_dict

        cfg = preset_dict("example4")
        del cfg["cloud"]
        with pytest.raises(ConfigError, match="cloud"):
            parse_config(cfg)

    def test_inline_layout_and_label_pairs(self):
        cfg = {
            "mode": "generate",
            "input": {"format": "objects"},
            "output": {
                "format": "speakers",
                "layout": [["A", 40, 0], ["B", -40, 0], ["M", 0, 0]],
            },
            "cloud": {"kind": "ring", "points": 8},
            "coefficients": {"energy": 1},
            "symmetry": {"pairs": [["A", "B"]]},
        }
        job = parse_config(cfg)
        assert job.output_layout.labels == ("A", "B", "M")
        assert job.output_layout.symmetry_pairs == ((0, 1),)

    def test_layout_file_reference(self, tmp_path):
        layout_path = tmp_path / "layout.yaml"
        layout_path.write_text(
            "speakers:\n- [L, 30, 0]\n- [R, -30, 0]\n"
        )
        cfg = {
            "mode": "generate",
            "input": {"format": "objects"},
            "output": {"format": "speakers", "layout": {"file": str(layout_path)}},
            "cloud": {"kind": "ring", "points": 4},
            "coefficients": {"energy": 1},
        }
        job = parse_config(cfg)
        assert job.output_layout.labels == ("L", "R")
        assert job.output_layout.symmetry_pairs == ((0, 1),)

    def test_label_pairs_replace_detection_in_sorted_order(self):
        cfg = {
            "mode": "evaluate",
            "input": {"format": "ambisonics", "order": 1},
            "output": {"format": "speakers", "layout": "5.0"},
            # a ring never excites ACN2, which build_problem rejects
            "cloud": {"kind": "tdesign", "points": 56},
            "symmetry": {"pairs": [["Rs", "Ls"], ["R", "L"]]},
        }
        job = parse_config(cfg)
        # C L R Ls Rs: the detected pairs are ((1, 2), (3, 4))
        assert job.output_layout.symmetry_pairs == ((2, 1), (4, 3))
        problem = runner.build_problem(job)
        assert problem.decoder.layout.symmetry_pairs == ((2, 1), (4, 3))
        assert problem._geo.pa.tolist() == [2, 4]
        assert problem._geo.pb.tolist() == [1, 3]

    @pytest.mark.parametrize("key, value, message", [
        ("cloud", {"kind": "tdesign", "points": 57},
         "config.cloud.points: unknown t-design size 57"),
        ("cloud", {"kind": "explicit", "directions": [[0, 95]]},
         "config.cloud.directions[0]: elevation 95.0 outside [-90, 90]"),
        ("cloud", {"kind": "explicit", "directions": [[0, -10], [30, -20]],
                   "hemisphere": True},
         "config.cloud.hemisphere: no direction has elevation >= 0"),
        ("cloud", {"kind": "explicit", "directions": [[0, 0]],
                   "weights": [0]},
         "config.cloud.weights[0]: must be > 0"),
        ("evaluation_cloud", {"kind": "tdesign", "points": 50},
         "config.evaluation_cloud.points: unknown t-design size 50"),
        ("cloud", {"kind": "merge", "parts": [
            {"cloud": {"kind": "ring", "points": 4}},
            {"cloud": {"kind": "tdesign", "points": 57}}]},
         "config.cloud.parts[1].cloud.points: unknown t-design size 57"),
        ("output", {"format": "ambisonics", "order": 1, "virtual_layout": {
            "kind": "fibonacci", "points": 8, "hemisphere": True,
            "weights": [1]}},
         "config.output.virtual_layout.weights: unknown key"),
        ("symmetry", {"pairs": [["L", "L"]]},
         "config.symmetry.pairs[0]: (L, L) pairs a speaker with itself"),
        ("symmetry", {"pairs": [["L", "R"], ["L", "C"]]},
         "config.symmetry.pairs[1]: (L, C): L is already in a pair"),
        ("symmetry", {"pairs": [["L", "Q"]]},
         "config.symmetry.pairs[0]: Q is not a speaker of the output "
         "layout ('L', 'R', 'C')"),
        ("output", {"format": "speakers",
                    "layout": [["L", 30, 0], ["R", -30, 95]]},
         "config.output.layout[1]: elevation 95.0 outside [-90, 90]"),
        ("output", {"format": "speakers",
                    "layout": {"speakers": [["L", 30, 0], ["R", -30, -91]]}},
         "config.output.layout[1]: elevation -91.0 outside [-90, 90]"),
    ])
    def test_load_error_names_its_key(self, tmp_path, capsys, key, value,
                                      message):
        from satx.cli import main

        cfg = {
            "input": {"format": "objects"},
            "output": {"format": "speakers",
                       "layout": [["L", 30, 0], ["R", -30, 0], ["C", 0, 0]]},
            "cloud": {"kind": "ring", "points": 8},
            "coefficients": {"energy": 1},
            key: value,
        }
        path = tmp_path / "job.yaml"
        path.write_text(yaml.safe_dump(cfg))
        code = main(["generate", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, message", [
        ({"mode": "evaluate", "input": {"format": "objects"},
          "output": {"format": "speakers", "layout": "5.0"}},
         "config.cloud: required for objects input"),
        ({"mode": "apply", "symmetry": {"pairs": [["L", "R"]]}},
         "config.symmetry.pairs: names speakers of config.output, which is "
         "absent"),
    ])
    def test_section_another_section_needs(self, cfg, message):
        with pytest.raises(ConfigError) as info:
            parse_config(cfg)
        assert str(info.value).startswith(message)

    def test_load_config_reports_bad_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("mode: [unclosed\n")
        with pytest.raises(ConfigError, match="YAML"):
            load_config(path)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "none.yaml")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config({"mode": "transmogrify"})

    @pytest.mark.parametrize("where, value, key", [
        (("output", "layout", 0, 1), "abc", "output.layout[0][1]"),
        (("output", "layout", 1, 2), None, "output.layout[1][2]"),
        (("cloud", "directions", 0, 1), "x", "cloud.directions[0][1]"),
        (("cloud", "directions", 1, 0), None, "cloud.directions[1][0]"),
        (("coefficients", "max_boost_db"), float("nan"),
         "coefficients.max_boost_db"),
        (("coefficients", "max_boost_db"), float("inf"),
         "coefficients.max_boost_db"),
        (("optimizer", "gradient_tolerance"), float("nan"),
         "optimizer.gradient_tolerance"),
        (("optimizer", "seed"), -1, "optimizer.seed"),
        (("input",), {"format": "ambisonics", "order": 12}, "input.order"),
        (("output",), {"format": "ambisonics", "order": 1,
                       "normalization": "fuma",
                       "virtual_layout": [["L", 30, 0], ["R", -30, 0]]},
         "output.normalization"),
        (("coefficients", "energy"), "1.5", "coefficients.energy"),
        (("coefficients", "energy"), True, "coefficients.energy"),
        (("optimizer", "gradient_tolerance"), "x",
         "optimizer.gradient_tolerance"),
        (("optimizer", "init"), "bogus", "optimizer.init"),
        (("optimizer",), {"init": "remap", "scale": 0.1}, "optimizer.scale"),
        (("optimizer",), {"init": "random", "matrix": "t0.smx"},
         "optimizer.matrix"),
        (("name",), "sub/x", "name"),
        (("name",), ["a"], "name"),
        (("name",), "..", "name"),
        (("name",), "", "name"),
        (("input",), {"format": "objects", "order": 12}, "input.order"),
        (("input",), {"format": "vbap", "layout": "5.0",
                      "normalization": "SN3D"}, "input.normalization"),
        (("output",), {"format": "speakers", "order": 3,
                       "layout": [["L", 30, 0], ["R", -30, 0]]},
         "output.order"),
        (("output",), {"format": "ambisonics", "order": 1,
                       "matrix": "d.smx",
                       "virtual_layout": [["L", 30, 0], ["R", -30, 0]]},
         "output.matrix"),
    ])
    def test_bad_value_exits_2_naming_the_key(self, tmp_path, capsys, where,
                                               value, key):
        from satx.cli import main

        cfg = {
            "input": {"format": "objects"},
            "output": {
                "format": "speakers",
                "layout": [["L", 30, 0], ["R", -30, 0]],
            },
            "cloud": {"kind": "explicit", "directions": [[10, 0], [-10, 0]]},
            "coefficients": {"energy": 1},
            "optimizer": {},
        }
        node = cfg
        for part in where[:-1]:
            node = node[part]
        node[where[-1]] = value
        path = tmp_path / "job.yaml"
        path.write_text(yaml.safe_dump(cfg))
        code = main(["generate", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert f"config.{key}:" in capsys.readouterr().err


# Values a config key may hold that are of the wrong type or out of range,
# plus a few that are fine for some keys.
_ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=8),
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.5, 1, 3]),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-12, allow_nan=False, allow_infinity=False),
    st.integers(min_value=2**63, max_value=10**400),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)

_FUZZ_KEYS = (
    [("optimizer", f.name) for f in dataclasses.fields(OptimizationConfig)]
    + [("coefficients", f.name) for f in dataclasses.fields(CostCoefficients)]
    + [("input", key) for key in
       ("format", "order", "normalization", "layout", "matrix")]
    + [("symmetry", key) for key in ("tolerance_deg", "pairs")]
    + [("name",)]
)


class TestConfigFuzz:
    BASE = {
        "mode": "evaluate",
        "name": "fuzz",
        "input": {"format": "ambisonics", "order": 1,
                  "normalization": "SN3D"},
        "output": {"format": "speakers",
                   "layout": [["L", 30, 0], ["R", -30, 0]]},
        "evaluation_cloud": {"kind": "ring", "points": 8},
        "coefficients": {"energy": 1, "max_boost_db": 3},
        "optimizer": {"init": "random", "scale": 0.1, "seed": 0},
        "symmetry": {"tolerance_deg": 1.0, "pairs": [["L", "R"]]},
    }

    @settings(max_examples=200, deadline=None)
    @given(changes=st.lists(st.tuples(st.sampled_from(_FUZZ_KEYS),
                                      _ODD_VALUES), min_size=1, max_size=3))
    def test_schema_fails_only_with_satx_errors(self, changes):
        from satx.cli import main

        cfg = copy.deepcopy(self.BASE)
        for where, value in changes:
            node = cfg
            for part in where[:-1]:
                node = node.setdefault(part, {})
            node[where[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "job.yaml")
            with open(path, "w") as handle:
                yaml.safe_dump(cfg, handle)
            with open(path) as handle:
                data = yaml.safe_load(handle)
            try:
                parse_config(data)
                parsed = True
            except SatxError:
                parsed = False
            matrix = os.path.join(tmp, "t.smx")
            export_matrix(matrix_file(np.full((2, 4), 0.5)), matrix)
            code = main(["evaluate", "--config", path, "--matrix", matrix,
                         "--out", tmp])
            # a parsed job still exits 2 where the matrix no longer fits
            assert code in (0, 2)
            assert parsed or code == 2


# Tokens a mutated matrix file may hold: non-finite and signed-zero
# numbers, integers too large for any allocation, control characters, and
# header keys.
_SMX_TOKENS = st.sampled_from([
    "nan", "1e400", "-0", "99999999999999999999", "1" + "0" * 400,
    "9" * 5000, "\x00", "\r", "", "0", "-3", "satx-matrix",
    "kind", "rows", "cols", "row_labels", "col_labels", "note",
])
_SMX_KEYS = ("kind", "rows", "cols", "row_labels", "col_labels", "note")

_SMX_EDITS = st.lists(st.one_of(
    st.tuples(st.just("swap"), st.integers(0, 20), st.integers(0, 5),
              _SMX_TOKENS),
    st.tuples(st.just("drop"), st.integers(0, 20)),
    st.tuples(st.just("duplicate"), st.integers(0, 20)),
    st.tuples(st.just("header"), st.sampled_from(_SMX_KEYS), _SMX_TOKENS),
), min_size=1, max_size=4)


def _mutate_lines(text, edits):
    lines = text.splitlines()
    for edit in edits:
        if edit[0] == "header":
            # set the key's value, or add the key where it is missing
            _, key, token = edit
            at = [i for i, line in enumerate(lines) if line.startswith(key)]
            if at:
                lines[at[0]] = f"{key} {token}"
            else:
                lines.insert(1, f"{key} {token}")
            continue
        if not lines:
            continue
        i = edit[1] % len(lines)
        if edit[0] == "swap":
            tokens = lines[i].split(" ")
            tokens[edit[2] % len(tokens)] = edit[3]
            lines[i] = " ".join(tokens)
        elif edit[0] == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


def _smx_without_labels(text):
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(("row_labels", "col_labels")))


class TestMatrixFileFuzz:
    LABELLED = format_matrix(matrix_file(np.full((2, 4), 0.5),
                                         row_labels=["L", "R"], note="fuzz"))
    BASES = (LABELLED, _smx_without_labels(LABELLED))

    @settings(max_examples=200, deadline=None)
    @given(base=st.sampled_from(BASES), edits=_SMX_EDITS)
    def test_parser_fails_only_with_matrix_file_error(self, base, edits):
        from satx.cli import main

        text = _mutate_lines(base, edits)
        try:
            parse_matrix(text)
        except MatrixFileError:
            pass
        with tempfile.TemporaryDirectory() as tmp:
            job = os.path.join(tmp, "job.yaml")
            with open(job, "w") as handle:
                yaml.safe_dump(TestConfigFuzz.BASE, handle)
            matrix = os.path.join(tmp, "t.smx")
            with open(matrix, "w", newline="") as handle:
                handle.write(text)
            code = main(["evaluate", "--config", job, "--matrix", matrix,
                         "--out", tmp])
            assert code in (0, 2)

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.io import wavfile

import satx
from satx import presets
from satx.cli import main
from satx.config import load_config, parse_config
from satx.errors import ConfigError
from satx.matfile import export_matrix, import_matrix, matrix_file

from conftest import fresh_python

DATA = Path(__file__).parent / "data"

TINY_JOB = {
    "name": "tiny",
    "mode": "generate",
    "analysis": "incoherent",
    "input": {"format": "objects"},
    "output": {
        "format": "speakers",
        "layout": [["A", 0, 0], ["B", 120, 0], ["C", -120, 0]],
    },
    "cloud": {"kind": "ring", "points": 12},
    "evaluation_cloud": {"kind": "ring", "points": 12},
    "coefficients": {"energy": 5, "intensity_radial": 2,
                     "intensity_transverse": 1, "in_phase_quadratic": 10},
    "optimizer": {"seed": 3, "max_iterations": 400},
}


@pytest.fixture
def reads(monkeypatch):
    """The paths ``matfile.import_matrix`` is called with, in order."""
    from satx import matfile

    read = []
    import_matrix = matfile.import_matrix
    monkeypatch.setattr(matfile, "import_matrix",
                        lambda path: read.append(str(path))
                        or import_matrix(path))
    return read


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(TINY_JOB))
    return path


class TestPresetRegression:
    @pytest.mark.parametrize("name", presets.PRESET_NAMES)
    def test_serialized_presets_are_frozen(self, name):
        frozen = (DATA / f"preset_{name}.yaml").read_text()
        assert presets.preset_yaml(name) == frozen

    @pytest.mark.parametrize(
        "name,shape",
        [
            ("example1", (11, 36)),
            ("example2", (36, 11)),
            ("example3", (4, 7)),
            ("example4", (5, 72)),
        ],
    )
    def test_preset_problem_shapes(self, name, shape):
        from satx import runner

        job = presets.load_preset(name)
        problem = runner.build_problem(job)
        assert problem.shape == shape

    def test_preset_cloud_sizes(self):
        assert len(presets.load_preset("example2").cloud) == 54
        assert len(presets.load_preset("example3").cloud) == 59
        assert len(presets.load_preset("example4").cloud) == 72

    def test_run_generate_example3_writes_4x7(self, tmp_path):
        from satx import runner

        job = presets.load_preset("example3")
        result = runner.run_generate(job, tmp_path)
        matrix = import_matrix(result.matrix_path)
        assert (matrix.rows, matrix.cols) == (4, 7)
        assert matrix.kind == "transcoding"
        assert matrix.row_labels == ("L", "R", "S", "T")
        log = Path(result.log_path).read_text()
        assert "final_cost_terms" in log
        assert "total " in log
        lines = log.splitlines()
        report = result.report
        for line in (f"evaluations {report.evaluations}",
                     f"line_search_fallbacks {report.line_search_fallbacks}",
                     f"hessian_resets {report.hessian_resets}"):
            assert line in lines
        assert [x for x in lines if x.startswith("iterations ")] == [
            f"iterations {report.iterations}"]

    def test_preset_command_writes_yaml(self, tmp_path, capsys):
        out = tmp_path / "p.yaml"
        assert main(["preset", "example3", "--out", str(out)]) == 0
        assert out.read_text() == presets.preset_yaml("example3")
        assert main(["preset", "example3"]) == 0
        assert "5.0.2" in capsys.readouterr().out


class TestGenerateCli:
    def test_generate_and_rerun_byte_identical(self, tiny_config, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["generate", "--config", str(tiny_config),
                     "--out", str(out1)]) == 0
        assert main(["generate", "--config", str(tiny_config),
                     "--out", str(out2)]) == 0
        for fname in ("tiny_transcoder.smx", "tiny_log.txt"):
            a = (out1 / fname).read_bytes()
            b = (out2 / fname).read_bytes()
            assert a == b, fname
        matrix = import_matrix(out1 / "tiny_transcoder.smx")
        assert (matrix.rows, matrix.cols) == (3, 12)

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("mode: generate\ninput: {format: warble}\n")
        assert main(["generate", "--config", str(bad), "--out",
                     str(tmp_path)]) == 2

    def test_numeric_error_exit_code(self, tmp_path):
        cfg = dict(TINY_JOB)
        cfg["input"] = {"format": "vbap", "layout": "7.0.4"}
        cfg["cloud"] = {
            "kind": "explicit",
            "directions": [[0, -60]],  # below the 7.0.4 hull
        }
        path = tmp_path / "uncovered.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["generate", "--config", str(path), "--out",
                     str(tmp_path)]) == 3

    def test_direction_behind_2d_layout_names_it(self, tmp_path, capsys):
        cfg = {
            "input": {"format": "objects"},
            "output": {"format": "speakers",
                       "layout": [["L", 30, 0], ["R", -30, 0]]},
            "cloud": {"kind": "explicit", "directions": [[0, 0], [170, 0]]},
            "coefficients": {"energy": 1},
        }
        path = tmp_path / "behind.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["generate", "--config", str(path), "--out",
                     str(tmp_path)]) == 3
        assert "direction az=170.000 el=0.000" in capsys.readouterr().err


class TestLostChannelsExit2:
    """A decoder or an encoding that loses a channel is bad input."""

    def _generate(self, tmp_path, job):
        path = tmp_path / "lost.yaml"
        path.write_text(yaml.safe_dump(job))
        return main(["generate", "--config", str(path), "--out",
                     str(tmp_path / "out")])

    @pytest.mark.parametrize("command", ["generate", "evaluate"])
    def test_decoder_that_cannot_reach_a_channel(self, tmp_path, capsys,
                                                 command):
        # a first-order decoder over a horizontal ring has a zero Z column
        job = {
            "input": {"format": "vbap", "layout": "5.0"},
            "output": {"format": "ambisonics", "order": 1,
                       "virtual_layout": {"kind": "ring", "points": 8}},
            "cloud": {"kind": "ring", "points": 36},
            "coefficients": {"pressure": 1},
        }
        if command == "generate":
            assert self._generate(tmp_path, job) == 2
        else:
            path = tmp_path / "lost.yaml"
            path.write_text(yaml.safe_dump(job))
            matrix = tmp_path / "t.smx"
            export_matrix(matrix_file(np.ones((4, 5))), matrix)
            assert main(["evaluate", "--config", str(path), "--matrix",
                         str(matrix), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert ("error: config.output.virtual_layout: the decoder has rank 3 "
                "for 4 output channels and cannot reach ACN2") in err
        assert not (tmp_path / "out").exists()

    def test_cloud_that_never_excites_a_channel(self, tmp_path, capsys):
        # a horizontal ring never excites the Z channel of the scene
        job = {
            "input": {"format": "ambisonics", "order": 1},
            "output": {"format": "speakers", "layout": "5.0"},
            "cloud": {"kind": "ring", "points": 36},
            "coefficients": {"energy": 1},
            "optimizer": {"init": "random"},
        }
        assert self._generate(tmp_path, job) == 2
        err = capsys.readouterr().err
        assert ("error: config.cloud: the encoding has rank 3 for 4 input "
                "channels; the cloud never excites ACN2") in err
        assert not (tmp_path / "out").exists()


class TestTextThatIsNotUtf8:
    """A text input whose bytes are not UTF-8 exits 2 naming its file."""

    @pytest.fixture
    def bad(self, tmp_path):
        path = tmp_path / "binary.dat"
        path.write_bytes(b"satx-matrix 1\n\xff\xfe\x00\x80\n")
        return str(path)

    def _error(self, tmp_path, capsys, args):
        assert main(args + ["--out", str(tmp_path)]) == 2
        return capsys.readouterr().err

    def _generate_error(self, tmp_path, capsys, job):
        config = tmp_path / "job.yaml"
        config.write_text(yaml.safe_dump(job))
        return self._error(tmp_path, capsys,
                           ["generate", "--config", str(config)])

    def test_config(self, bad, tmp_path, capsys):
        err = self._error(tmp_path, capsys, ["generate", "--config", bad])
        assert f"error: config {bad} is not UTF-8 text: " in err

    def test_evaluate_matrix(self, bad, tiny_config, tmp_path, capsys):
        err = self._error(tmp_path, capsys, [
            "evaluate", "--config", str(tiny_config), "--matrix", bad])
        assert f"error: matrix file {bad} is not UTF-8 text: " in err

    def test_layout_file(self, bad, tmp_path, capsys):
        err = self._generate_error(tmp_path, capsys, dict(
            TINY_JOB, output={"format": "speakers", "layout": {"file": bad}}))
        assert (f"error: config.output.layout.file {bad} is not UTF-8 "
                "text: ") in err

    def test_given_init(self, bad, tmp_path, capsys):
        err = self._generate_error(tmp_path, capsys, dict(
            TINY_JOB, optimizer={"init": "given", "matrix": bad}))
        assert (f"error: config.optimizer.matrix: matrix file {bad} is not "
                "UTF-8 text: ") in err


class TestEvaluateCompareCli:
    @pytest.fixture
    def generated(self, tiny_config, tmp_path):
        out = tmp_path / "gen"
        assert main(["generate", "--config", str(tiny_config),
                     "--out", str(out)]) == 0
        return out / "tiny_transcoder.smx"

    def test_evaluate_outputs_deterministic(self, tiny_config, generated,
                                            tmp_path):
        out1 = tmp_path / "ev1"
        out2 = tmp_path / "ev2"
        for out in (out1, out2):
            assert main(["evaluate", "--config", str(tiny_config),
                         "--matrix", str(generated), "--out", str(out)]) == 0
        for fname in ("tiny_metrics.dat", "tiny_summary.dat", "tiny_plot.gp"):
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()
        header = (out1 / "tiny_metrics.dat").read_text().splitlines()[0]
        assert header.split() == [
            "#", "azimuth", "elevation", "weight", "pressure",
            "velocity_radial", "velocity_transverse", "energy",
            "intensity_radial", "intensity_transverse", "asw_deg",
            "angular_error_deg", "level_db",
        ]

    def test_compare_self_gives_zero_deltas(self, tiny_config, generated,
                                            tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main([
            "compare", "--config", str(tiny_config),
            "--matrix", str(generated), "--matrix", str(generated),
            "--out", str(out),
        ]) == 0
        rows = (out / "compare_deltas.dat").read_text().splitlines()[1:]
        deltas = np.array([row.split()[2:] for row in rows], dtype=float)
        np.testing.assert_array_equal(deltas, 0.0)
        summary = (out / "compare_summary.dat").read_text()
        assert "tiny_transcoder " in summary
        assert "tiny_transcoder_2 " in summary

    def test_compare_with_reference_baseline(self, tiny_config, generated,
                                             tmp_path):
        out = tmp_path / "cmpref"
        assert main([
            "compare", "--config", str(tiny_config),
            "--matrix", str(generated), "--baseline", "reference",
            "--out", str(out),
        ]) == 0
        assert (out / "reference_metrics.dat").exists()

    def test_compare_matrix_named_like_a_baseline(self, tiny_config,
                                                  generated, tmp_path):
        matrix = tmp_path / "reference.smx"
        matrix.write_bytes(generated.read_bytes())
        out = tmp_path / "cmpname"
        assert main([
            "compare", "--config", str(tiny_config),
            "--matrix", str(matrix), "--baseline", "reference",
            "--out", str(out),
        ]) == 0
        assert (out / "reference_metrics.dat").exists()
        assert (out / "reference_2_metrics.dat").exists()
        summary = (out / "compare_summary.dat").read_text().splitlines()
        assert {row.split()[0] for row in summary[1:]} == {
            "reference", "reference_2"}
        header = (out / "compare_deltas.dat").read_text().splitlines()[0]
        assert "reference_2:d_level_db" in header.split()

    def test_compare_rejects_duplicate_names(self, tiny_config, tmp_path):
        from satx import runner
        from satx.config import load_config

        t = np.zeros((3, 12))
        with pytest.raises(ConfigError, match="distinct"):
            runner.run_compare(load_config(str(tiny_config)),
                               [("a", t, "a.smx"), ("a", t, "b.smx")],
                               tmp_path / "dup")

    def test_mode_override(self, tiny_config, generated, tmp_path):
        out_inc = tmp_path / "minc"
        out_coh = tmp_path / "mcoh"
        main(["evaluate", "--config", str(tiny_config), "--matrix",
              str(generated), "--out", str(out_inc)])
        main(["evaluate", "--config", str(tiny_config), "--matrix",
              str(generated), "--mode", "coherent", "--out", str(out_coh)])
        inc = (out_inc / "tiny_metrics.dat").read_text()
        coh = (out_coh / "tiny_metrics.dat").read_text()
        assert inc != coh


class TestObjectsEvaluation:
    """An objects input is evaluated at its own cloud, its channels."""

    def test_default_evaluation_cloud_is_the_cloud(self, tmp_path):
        job = {k: v for k, v in TINY_JOB.items() if k != "evaluation_cloud"}
        config = tmp_path / "objects.yaml"
        config.write_text(yaml.safe_dump(job))
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
        matrix = str(tmp_path / "tiny_transcoder.smx")
        assert main(["evaluate", "--config", str(config), "--matrix", matrix,
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "tiny_metrics.dat").read_text().splitlines()[1:]
        assert len(rows) == 12
        assert main(["compare", "--config", str(config), "--matrix", matrix,
                     "--baseline", "reference", "--out", str(tmp_path)]) == 0

    def test_other_evaluation_directions_exit_2(self, tmp_path, capsys):
        job = dict(TINY_JOB, evaluation_cloud={"kind": "ring", "points": 24})
        config = tmp_path / "objects.yaml"
        config.write_text(yaml.safe_dump(job))
        matrix = tmp_path / "t.smx"
        export_matrix(matrix_file(np.zeros((3, 12))), matrix)
        assert main(["evaluate", "--config", str(config), "--matrix",
                     str(matrix), "--out", str(tmp_path)]) == 2
        assert ("error: config.evaluation_cloud: an objects input is "
                "evaluated at the directions of config.cloud"
                in capsys.readouterr().err)


class TestExternalInput:
    """An external input is evaluated at its own cloud, its matrix rows."""

    def _config(self, tmp_path, rng, **changes):
        path = tmp_path / "enc.smx"
        export_matrix(matrix_file(rng.normal(size=(40, 4)), kind="encoding"),
                      path)
        job = {"name": "ext", "input": {"format": "external",
                                        "matrix": str(path)},
               "output": {"format": "speakers", "layout": "7.0.4"},
               "cloud": {"kind": "fibonacci", "points": 40},
               "coefficients": {"energy": 5, "intensity_radial": 2,
                                "intensity_transverse": 1},
               "optimizer": {"max_iterations": 30}}
        job.update(changes)
        config = tmp_path / "ext.yaml"
        config.write_text(yaml.safe_dump(job))
        return str(config)

    def test_generate_evaluate_and_compare(self, tmp_path, rng):
        config = self._config(tmp_path, rng)
        out = str(tmp_path / "out")
        assert main(["generate", "--config", config, "--out", out]) == 0
        matrix = os.path.join(out, "ext_transcoder.smx")
        assert import_matrix(matrix).values().shape == (11, 4)
        assert main(["evaluate", "--config", config, "--matrix", matrix,
                     "--out", out]) == 0
        rows = (tmp_path / "out" / "ext_metrics.dat").read_text()
        assert len(rows.splitlines()) == 1 + 40
        assert main(["compare", "--config", config, "--matrix", matrix,
                     "--matrix", matrix, "--out", out]) == 0

    def test_other_evaluation_directions_exit_2(self, tmp_path, rng,
                                                 capsys):
        config = self._config(tmp_path, rng, evaluation_cloud={
            "kind": "fibonacci", "points": 312, "hemisphere": True})
        assert main(["generate", "--config", config,
                     "--out", str(tmp_path)]) == 2
        assert ("error: config.evaluation_cloud: an external input is "
                "evaluated at the directions of config.cloud"
                in capsys.readouterr().err)

    def test_cloud_required(self, tmp_path, rng, capsys):
        config = Path(self._config(tmp_path, rng))
        job = yaml.safe_load(config.read_text())
        del job["cloud"]
        config.write_text(yaml.safe_dump(job))
        matrix = tmp_path / "t.smx"
        export_matrix(matrix_file(np.zeros((11, 4))), matrix)
        assert main(["evaluate", "--config", str(config), "--matrix",
                     str(matrix), "--out", str(tmp_path)]) == 2
        assert ("error: config.cloud: required for external input"
                in capsys.readouterr().err)

    def test_reference_init_rejected_at_load(self, tmp_path, rng, capsys):
        config = self._config(tmp_path, rng, optimizer={"init": "reference"})
        with pytest.raises(ConfigError, match="^config.optimizer.init: "):
            load_config(config)
        assert main(["generate", "--config", config,
                     "--out", str(tmp_path)]) == 2
        assert ("error: config.optimizer.init: an external input has no "
                "reference transcoder to start from"
                in capsys.readouterr().err)
        assert not (tmp_path / "ext_transcoder.smx").exists()

    def test_reference_baseline_names_the_input_format(self, tmp_path, rng,
                                                       capsys):
        config = self._config(tmp_path, rng)
        assert main(["compare", "--config", config, "--baseline",
                     "reference", "--out", str(tmp_path)]) == 2
        assert ("error: config.input.format: no reference transcoder is "
                "defined for an external input" in capsys.readouterr().err)

    @pytest.mark.parametrize("kind", ["remap", "remap_plus_noise"])
    def test_remap_init_rejected_at_load(self, tmp_path, rng, capsys, kind):
        config = self._config(tmp_path, rng, optimizer={"init": kind})
        assert main(["generate", "--config", config,
                     "--out", str(tmp_path)]) == 2
        assert (f"error: config.optimizer.init: the {kind} init needs input "
                "channel directions" in capsys.readouterr().err)
        assert not (tmp_path / "ext_transcoder.smx").exists()


class TestRemapInitOnAmbisonics:
    """A first-order scene has no channel directions to remap: a remap
    init fails at load, where the same job with a random init generates."""

    def _config(self, tmp_path, optimizer):
        job = {"name": "foa",
               "input": {"format": "ambisonics", "order": 1},
               "output": {"format": "speakers", "layout": "7.0.4"},
               "cloud": {"kind": "fibonacci", "points": 40},
               "coefficients": {"energy": 1}, "optimizer": optimizer}
        config = tmp_path / "foa.yaml"
        config.write_text(yaml.safe_dump(job))
        return str(config)

    @pytest.mark.parametrize("kind", ["remap", "remap_plus_noise"])
    def test_generate_exits_2_at_load(self, tmp_path, capsys, kind):
        config = self._config(tmp_path, {"init": kind})
        with pytest.raises(ConfigError, match="^config.optimizer.init: "):
            load_config(config)
        assert main(["generate", "--config", config,
                     "--out", str(tmp_path)]) == 2
        assert (f"error: config.optimizer.init: the {kind} init needs input "
                "channel directions" in capsys.readouterr().err)
        assert not (tmp_path / "foa_transcoder.smx").exists()

    def test_random_init_generates(self, tmp_path):
        config = self._config(tmp_path, {"init": "random",
                                         "max_iterations": 5})
        assert main(["generate", "--config", config,
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "foa_transcoder.smx").exists()


class TestMatrixShapeNamesItsFile:
    """A matrix that does not fit the job's formats is named by its file,
    or by its config key when the config names it."""

    def _matrices(self, tmp_path):
        good, bad = tmp_path / "good.smx", tmp_path / "bad.smx"
        export_matrix(matrix_file(np.zeros((3, 12))), good)
        export_matrix(matrix_file(np.zeros((11, 36))), bad)
        return str(good), str(bad)

    def test_evaluate(self, tiny_config, tmp_path, capsys):
        _, bad = self._matrices(tmp_path)
        assert main(["evaluate", "--config", str(tiny_config), "--matrix",
                     bad, "--out", str(tmp_path)]) == 2
        assert (f"error: {bad} has shape (11, 36); the formats need "
                "(3 x 12)") in capsys.readouterr().err

    def test_compare(self, tiny_config, tmp_path, capsys):
        good, bad = self._matrices(tmp_path)
        assert main(["compare", "--config", str(tiny_config), "--matrix",
                     good, "--matrix", bad, "--out", str(tmp_path)]) == 2
        assert (f"error: {bad} has shape (11, 36); the formats need "
                "(3 x 12)") in capsys.readouterr().err

    def test_given_init(self, tmp_path, capsys):
        _, bad = self._matrices(tmp_path)
        job = dict(TINY_JOB, optimizer={"init": "given", "matrix": bad})
        config = tmp_path / "given.yaml"
        config.write_text(yaml.safe_dump(job))
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp_path)]) == 2
        assert ("error: config.optimizer.matrix: has shape (11, 36), "
                "expected (3, 12)") in capsys.readouterr().err


# per config key that names a matrix file: a job, the shape its file
# must have, and the message of a file with a row too many
_MATRIX_KEYS = {
    "input.matrix": (dict(TINY_JOB, input={"format": "external"}), (12, 2),
                     "has 13 rows for the 12 directions of config.cloud"),
    "output.matrix": (dict(TINY_JOB, output=dict(TINY_JOB["output"],
                                                 format="external")), (3, 2),
                      "has 4 rows for the 3 speakers of "
                      "config.output.layout"),
    "optimizer.matrix": (dict(TINY_JOB, optimizer={"init": "given"}),
                         (3, 12), "has shape (4, 12), expected (3, 12)"),
}


def _extra_row(key):
    """A writer of a file for ``key`` with a row too many."""
    rows, cols = _MATRIX_KEYS[key][1]
    return lambda path: export_matrix(matrix_file(np.ones((rows + 1, cols))),
                                      path)


class TestMatrixFilesReadAtLoad:
    """Each matrix file a config names is read once, when the config is
    loaded; its errors exit 2 naming the key, and nothing is optimized."""

    def _matrix_job(self, tmp_path, key, write):
        """The config of the key's job, and its file written by ``write``."""
        job = _MATRIX_KEYS[key][0]
        section = key.split(".")[0]
        path = tmp_path / "m.smx"
        write(path)
        job = dict(job, **{section: dict(job[section], matrix=str(path))})
        config = tmp_path / "job.yaml"
        config.write_text(yaml.safe_dump(job))
        return str(config), str(path)

    @pytest.mark.parametrize("key", _MATRIX_KEYS)
    @pytest.mark.parametrize("case, write, message", [
        ("missing", lambda path: None, "cannot read matrix file {path}: "),
        ("not-utf-8", lambda path: path.write_bytes(b"\xff\xfe\n"),
         "matrix file {path} is not UTF-8 text: "),
        ("ragged", lambda path: path.write_text(
            "satx-matrix 1\nkind encoding\nrows 2\ncols 2\n1 2 3\n4\n"),
         "matrix file {path}: line 5: 3 entries, expected 2"),
        ("rows", None, None),
    ], ids=["missing", "not-utf-8", "ragged", "rows"])
    def test_bad_file_exits_2_at_load(self, tmp_path, capsys, monkeypatch,
                                      key, case, write, message):
        from satx import runner
        from satx.config import load_config

        if case == "rows":
            write, message = _extra_row(key), _MATRIX_KEYS[key][2]
        config, path = self._matrix_job(tmp_path, key, write)
        message = f"error: config.{key}: " + message.format(path=path)
        # a given matrix must have the problem's shape, which is known
        # once the problem is built, before it is optimized
        if (case, key) != ("rows", "optimizer.matrix"):
            with pytest.raises(ConfigError) as info:
                load_config(config, "generate")
            assert f"error: {info.value}".startswith(message)

        def optimize(*args):
            raise AssertionError("optimized a job with a bad matrix file")

        monkeypatch.setattr(runner.optimizer, "optimize", optimize)
        assert main(["generate", "--config", config,
                     "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", _MATRIX_KEYS)
    def test_each_file_is_read_once_per_command(self, tmp_path, reads, key):
        shape = _MATRIX_KEYS[key][1]
        config, path = self._matrix_job(
            tmp_path, key, lambda path: export_matrix(
                matrix_file(np.eye(*shape) + 0.5), path))
        out = tmp_path / "out"
        assert main(["generate", "--config", config, "--out", str(out)]) == 0
        assert reads.count(path) == 1
        matrix = str(out / "tiny_transcoder.smx")
        for command in (["evaluate"], ["compare", "--matrix", matrix]):
            reads.clear()
            assert main(command + ["--config", config, "--matrix", matrix,
                                   "--out", str(out)]) == 0
            assert reads.count(path) == 1


class TestSectionsAtLoad:
    """Sections are parsed whenever present; each command requires its own."""

    JOB = {
        "mode": "apply",
        "input": {"format": "ambisonics", "order": 1},
        "output": {"format": "speakers", "layout": "octahedron"},
        "evaluation_cloud": {"kind": "ring", "points": 8},
    }

    def _run(self, tmp_path, command, job, *extra):
        config = tmp_path / "job.yaml"
        config.write_text(yaml.safe_dump(job))
        matrix = tmp_path / "t.smx"
        export_matrix(matrix_file(np.full((6, 4), 0.5)), matrix)
        argv = [command, "--config", str(config), "--out", str(tmp_path)]
        if command != "generate":
            argv += ["--matrix", str(matrix)]
        return main(argv + list(extra))

    def test_apply_mode_job_evaluates(self, tmp_path):
        assert self._run(tmp_path, "evaluate", self.JOB) == 0
        assert (tmp_path / "job_summary.dat").exists()

    def test_apply_mode_job_compares_with_reference(self, tmp_path):
        assert self._run(tmp_path, "compare", self.JOB,
                         "--baseline", "reference") == 0
        assert "reference" in (tmp_path / "compare_summary.dat").read_text()

    @pytest.mark.parametrize("command, missing", [
        ("evaluate", "output"),
        ("evaluate", "input"),
        ("compare", "output"),
        ("generate", "input"),
        ("generate", "cloud"),
    ])
    def test_missing_section_exits_2_at_load(self, tmp_path, capsys,
                                             command, missing):
        job = dict(self.JOB, coefficients={"energy": 1},
                   cloud={"kind": "tdesign", "points": 56})
        del job[missing]
        assert self._run(tmp_path, command, job) == 2
        assert f"config.{missing}: required for mode {command}" in (
            capsys.readouterr().err)


class TestReferenceFitsTheOutput:
    """The reference transcoder has the problem's shape on every output."""

    COEFFS = {"energy": 1, "intensity_radial": 1}
    # 5 speakers fed by 3 channels
    DECODER = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.5, 0.5, 0], [0, 0.5, 0.5]]

    def _external_bed_job(self, tmp_path, decoder, layout="5.0"):
        path = tmp_path / "decoder.smx"
        export_matrix(matrix_file(decoder, kind="decoder_to_speaker"), path)
        return {"name": "ext", "input": {"format": "vbap", "layout": "5.0"},
                "output": {"format": "external", "matrix": str(path),
                           "layout": layout},
                "cloud": {"kind": "ring", "points": 36},
                "coefficients": self.COEFFS}

    def _run(self, tmp_path, job, shape, init=None):
        if init is not None:
            job = dict(job, optimizer={"init": init})
        config = tmp_path / "job.yaml"
        config.write_text(yaml.safe_dump(job))
        out = tmp_path / "out"
        assert main(["generate", "--config", str(config),
                     "--out", str(out)]) == 0
        matrix = out / f"{job['name']}_transcoder.smx"
        assert import_matrix(matrix).values().shape == shape
        assert main(["compare", "--config", str(config), "--matrix",
                     str(matrix), "--baseline", "reference",
                     "--out", str(tmp_path / "cmp")]) == 0

    def test_bed_to_external_output(self, tmp_path):
        # the default init starts from the reference
        self._run(tmp_path, self._external_bed_job(tmp_path, self.DECODER),
                  (3, 5))

    def test_compare_reads_the_external_decoder_once(self, tmp_path, reads):
        job = self._external_bed_job(tmp_path, self.DECODER)
        self._run(tmp_path, job, (3, 5))
        reads.clear()
        assert main(["compare", "--config", str(tmp_path / "job.yaml"),
                     "--matrix", str(tmp_path / "out" / "ext_transcoder.smx"),
                     "--baseline", "reference",
                     "--out", str(tmp_path / "cmp")]) == 0
        assert reads.count(job["output"]["matrix"]) == 1

    def test_scene_to_ambisonics_output(self, tmp_path):
        job = {"name": "amb", "input": {"format": "ambisonics", "order": 1},
               "output": {"format": "ambisonics", "order": 1,
                          "virtual_layout": {"kind": "tdesign",
                                             "points": 56}},
               "cloud": {"kind": "tdesign", "points": 56},
               "coefficients": self.COEFFS}
        self._run(tmp_path, job, (4, 4), init="reference")

    @pytest.mark.parametrize("source", [
        {"format": "vbap", "layout": "5.0"},
        {"format": "ambisonics", "order": 2},
    ])
    def test_identity_external_decoder_gives_the_speakers_reference(
            self, tmp_path, source):
        from satx import runner

        speakers = {"input": source,
                    "output": {"format": "speakers", "layout": "7.0.4"},
                    "cloud": {"kind": "tdesign", "points": 56},
                    "coefficients": self.COEFFS}
        external = dict(
            self._external_bed_job(tmp_path, np.eye(11), "7.0.4"),
            input=source, cloud=speakers["cloud"])
        want = runner.reference_transcoder(parse_config(speakers))
        got = runner.reference_transcoder(parse_config(external))
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_readme_python_blocks_run(tmp_path):
    """Each ``python`` block of the README runs in a fresh interpreter."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 2
    src = str(Path(satx.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    for block in blocks:
        code = block.split("```")[0]
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             cwd=tmp_path, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr


class TestApplyCli:
    def test_identity_apply(self, tmp_path, rng):
        wav_in = tmp_path / "in.wav"
        data = rng.uniform(-1, 1, (256, 3)).astype(np.float32)
        wavfile.write(wav_in, 48000, data)
        mpath = tmp_path / "id.smx"
        export_matrix(matrix_file(np.eye(3)), mpath)
        wav_out = tmp_path / "out.wav"
        assert main(["apply", "--matrix", str(mpath), "--in", str(wav_in),
                     "--outfile", str(wav_out)]) == 0
        np.testing.assert_array_equal(wavfile.read(wav_out)[1], data)

    def test_channel_mismatch_exit_code(self, tmp_path, rng):
        wav_in = tmp_path / "in.wav"
        wavfile.write(wav_in, 8000, rng.uniform(-1, 1, (64, 2)).astype(np.float32))
        mpath = tmp_path / "id.smx"
        export_matrix(matrix_file(np.eye(3)), mpath)
        assert main(["apply", "--matrix", str(mpath), "--in", str(wav_in),
                     "--outfile", str(tmp_path / "out.wav")]) == 2

    def test_scene_downmix_channel_counts(self, tmp_path, rng):
        wav_in = tmp_path / "scene.wav"
        wavfile.write(
            wav_in, 48000, rng.uniform(-0.1, 0.1, (128, 36)).astype(np.float32)
        )
        mpath = tmp_path / "dec.smx"
        export_matrix(matrix_file(rng.normal(size=(11, 36))), mpath)
        wav_out = tmp_path / "bed.wav"
        assert main(["apply", "--matrix", str(mpath), "--in", str(wav_in),
                     "--outfile", str(wav_out)]) == 0
        assert wavfile.read(wav_out)[1].shape == (128, 11)


def _scipy_after(script, *args):
    """Run ``script`` in a fresh interpreter that imports satx from this
    checkout; returns the scipy modules it loaded, sorted."""
    probe = (script + "\nimport json, sys\nprint(json.dumps(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    return json.loads(fresh_python(probe, *args).splitlines()[-1])


# the scipy packages that cost a fresh process most of its start-up
_HEAVY_SCIPY = ("scipy.linalg", "scipy.optimize", "scipy.sparse",
                "scipy.spatial", "scipy.special")


def _heavy(loaded):
    """The packages of ``_HEAVY_SCIPY`` that ``loaded`` names: the packages
    whose ``__init__`` ran.  An extension module loaded from its file
    without its package, as ``formats._scipy_extension`` loads one, does
    not count."""
    return sorted(set(loaded) & set(_HEAVY_SCIPY))


class TestImportHygiene:
    """scipy packages load only where a command needs qhull for a layout
    outside the frozen faces.  Spherical harmonics load the extension
    modules of ``scipy.special`` without the package, and BFGS its BLAS
    extension without ``scipy.linalg``."""

    def test_config_parsing_loads_no_scipy(self, tiny_config):
        script = (
            "import sys\n"
            "import satx.cli\n"
            "from satx import presets\n"
            "from satx.config import load_config\n"
            "for name in presets.PRESET_NAMES:\n"
            "    presets.load_preset(name)\n"
            "load_config(sys.argv[1])\n"
        )
        assert _scipy_after(script, str(tiny_config)) == []

    def test_apply_loads_no_scipy(self, tmp_path, rng):
        wav_in = tmp_path / "in.wav"
        wavfile.write(wav_in, 8000,
                      rng.uniform(-1, 1, (64, 2)).astype(np.float32))
        mpath = tmp_path / "m.smx"
        export_matrix(matrix_file(np.eye(2)), mpath)
        script = (
            "import sys\n"
            "from satx.cli import main\n"
            "assert main(['apply', '--matrix', sys.argv[1], '--in', "
            "sys.argv[2], '--outfile', sys.argv[3]]) == 0\n"
        )
        assert _scipy_after(script, str(mpath), str(wav_in),
                            str(tmp_path / "out.wav")) == []

    def test_generate_never_loads_scipy_optimize(self, tmp_path):
        # built-in layouts only, and no spherical harmonics
        script = (
            "import sys\n"
            "from satx.cli import main\n"
            "for name in ('example3', 'example4'):\n"
            "    out = f'{sys.argv[1]}/{name}'\n"
            "    assert main(['generate', '--preset', name, '--out', out]) "
            "== 0\n"
            "    assert main(['evaluate', '--preset', name, '--matrix', "
            "f'{out}/{name}_transcoder.smx', '--out', out]) == 0\n"
        )
        assert _heavy(_scipy_after(script, str(tmp_path))) == []

    def test_vbap_generate_and_compare_load_no_scipy_package(self, tmp_path):
        job = {
            "name": "vbap",
            "input": {"format": "vbap", "layout": "7.0.4"},
            "output": {"format": "speakers", "layout": "5.0.2"},
            "cloud": {"kind": "fibonacci", "points": 200,
                      "hemisphere": True},
            "coefficients": {"energy": 5, "intensity_radial": 2,
                             "intensity_transverse": 1,
                             "symmetry_quadratic": 2},
            "optimizer": {"max_iterations": 20},
        }
        config = tmp_path / "vbap.yaml"
        config.write_text(yaml.safe_dump(job))
        script = (
            "import sys\n"
            "from satx.cli import main\n"
            "config, out = sys.argv[1:]\n"
            "assert main(['generate', '--config', config, '--out', out]) "
            "== 0\n"
            "assert main(['compare', '--config', config, '--matrix', "
            "f'{out}/vbap_transcoder.smx', '--baseline', 'reference', "
            "'--out', out]) == 0\n"
        )
        assert _heavy(_scipy_after(script, str(config), str(tmp_path))) == []

    def test_ambisonics_generate_loads_only_scipy_special(self, tmp_path):
        # generate, then evaluate in a process of its own: each loads
        # scipy.special's extension modules, never the package itself
        generate = (
            "import sys\n"
            "from satx.cli import main\n"
            "assert main(['generate', '--preset', 'example1', '--out', "
            "sys.argv[1]]) == 0\n"
        )
        evaluate = (
            "import sys\n"
            "from satx.cli import main\n"
            "assert main(['evaluate', '--preset', 'example1', '--matrix', "
            "f'{sys.argv[1]}/example1_transcoder.smx', '--out', "
            "sys.argv[1]]) == 0\n"
        )
        for script in (generate, evaluate):
            loaded = _scipy_after(script, str(tmp_path))
            assert "scipy.special._ufuncs" in loaded
            assert "scipy.special" not in loaded
            assert "scipy.special._basic" not in loaded
            assert _heavy(loaded) == []

    def test_layout_outside_the_frozen_faces_loads_qhull(self, tmp_path):
        job = dict(TINY_JOB, output={
            "format": "speakers",
            "layout": [["A", 0, 0], ["B", 120, 0], ["C", -120, 0],
                       ["T", 0, 90]]})
        config = tmp_path / "tetra.yaml"
        config.write_text(yaml.safe_dump(job))
        script = (
            "import sys\n"
            "from satx.cli import main\n"
            "assert main(['generate', '--config', sys.argv[1], '--out', "
            "sys.argv[2]]) == 0\n"
        )
        assert "scipy.spatial" in _heavy(
            _scipy_after(script, str(config), str(tmp_path)))

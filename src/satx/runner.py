"""Job orchestration: build problems, run the modes, write reports.

All report files are deterministic byte streams for fixed inputs (wall
times go to the console, never into files) and are written atomically.
A generated transcoder is written with the problem's decoder channels
as row labels and its encoding channels as column labels.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import analysis, formats, geometry, matfile, optimizer
from .analysis import METRIC_COLUMNS, DirectionMetrics
from .config import JobConfig, parse_cloud
from .cost import TranscodingProblem
from .errors import ConfigError, DimensionError
from .matfile import write_text_atomic

SUMMARY_METRICS = (
    "pressure", "velocity_radial", "velocity_transverse",
    "energy", "intensity_radial", "intensity_transverse",
    "asw_deg", "angular_error_deg", "level_db",
)

# the cloud of the reference decoder's virtual layout for scene inputs
_REFERENCE_VIRTUAL = {"kind": "merge", "parts": [
    {"weight": 1.0,
     "cloud": {"kind": "tdesign", "points": 60, "hemisphere": True}},
    {"weight": 1.0, "cloud": {"kind": "ring", "points": 36}},
]}


@functools.cache
def _reference_virtual_layout() -> geometry.SpeakerLayout:
    """The virtual layout of ``_REFERENCE_VIRTUAL``, sampled on first use."""
    return geometry.layout_from_cloud(
        parse_cloud(_REFERENCE_VIRTUAL, "reference virtual layout"))


def input_channel_directions(job: JobConfig) -> Optional[tuple]:
    """(azimuth, elevation) arrays of bed and object input channels, else None.

    Objects sit at the sampling-cloud directions.
    """
    spec = job.input_spec
    if isinstance(spec, formats.VbapSpec):
        return spec.layout.azimuth, spec.layout.elevation
    if isinstance(spec, formats.ObjectsSpec):
        return job.cloud.azimuth, job.cloud.elevation
    return None


def _checked_decoder(job: JobConfig):
    """The decoder of the job's output format over its output layout.

    A decoder that cannot reach an output channel is bad input.  Speaker
    outputs decode through the identity, which reaches every channel.
    """
    decoder = formats.build_decoder_to_speaker(job.output_spec,
                                               job.output_layout)
    if job.output_spec is not None:
        rank, lost = formats.lost_channels(decoder.entries,
                                           decoder.channel_labels)
        if lost:
            key = ("config.output.virtual_layout"
                   if isinstance(job.output_spec, formats.AmbisonicsSpec)
                   else "config.output")
            raise ConfigError(
                f"{key}: the decoder has rank {rank} for "
                f"{len(decoder.channel_labels)} output channels and cannot "
                f"reach {', '.join(lost)}")
    return decoder


def build_problem(job: JobConfig) -> TranscodingProblem:
    """The job's problem over its sampling cloud; pairs come with the layout.

    A channel the problem cannot see is bad input: the decoder must reach
    every output channel (``_checked_decoder``), and the cloud must excite
    every input channel.  An objects input encodes through the identity,
    which every cloud excites.
    """
    if job.cloud is None or job.output_layout is None:
        raise ConfigError("job has no sampling cloud or no output layout")
    encoding = formats.build_encoding_matrix(job.input_spec, job.cloud)
    decoder = _checked_decoder(job)
    if not isinstance(job.input_spec, formats.ObjectsSpec):
        rank, lost = formats.lost_channels(encoding.entries,
                                           encoding.channel_labels)
        if lost:
            raise ConfigError(
                f"config.cloud: the encoding has rank {rank} for "
                f"{len(encoding.channel_labels)} input channels; the cloud "
                f"never excites {', '.join(lost)}")
    return TranscodingProblem(encoding=encoding, decoder=decoder,
                              coeffs=job.coeffs)


def reference_transcoder(job: JobConfig) -> np.ndarray:
    """Built-in comparison transcoder (N x M).

    Channel-format inputs use the direct per-channel remap; scene-format
    inputs decode to a dense virtual layout and pan every virtual speaker
    onto the output layout.  Where those give speaker feeds but the output
    is not speakers (any output of a scene input, an external output of a
    channel input), the decoder's pseudo-inverse maps the feeds to output
    channels.
    """
    if isinstance(job.input_spec, formats.AmbisonicsSpec):
        feeds = formats.panned_reference_decoder(
            job.input_spec, _reference_virtual_layout(), job.output_layout
        )
        if job.output_spec is None:
            return feeds
    else:
        directions = input_channel_directions(job)
        if directions is None:
            raise ConfigError("config.input.format: no reference "
                              "transcoder is defined for an external input")
        if not isinstance(job.output_spec, formats.ExternalSpec):
            return formats.remap_baseline(
                *directions, job.output_spec, job.output_layout
            )
        feeds = formats.remap_baseline(*directions, None, job.output_layout)
    decoder = formats.build_decoder_to_speaker(job.output_spec,
                                               job.output_layout)
    return np.linalg.pinv(decoder.entries, rcond=formats._PINV_CUTOFF) @ feeds


def optimization_config(job: JobConfig,
                        seed: Optional[int] = None) -> optimizer.OptimizationConfig:
    """The job's optimizer settings, ready for ``optimizer.optimize``.

    Fills an unset matrix of the remap and reference starts with
    ``reference_transcoder`` (the per-channel remap on bed and object
    inputs).  ``seed`` overrides the job's.
    """
    config = job.optimizer
    if (optimizer.INITS[config.init][0] in ("remap", "reference")
            and config.matrix is None):
        config = replace(config, matrix=reference_transcoder(job))
    return config if seed is None else replace(config, seed=seed)


@dataclass
class GenerateResult:
    report: optimizer.OptimizationReport
    matrix_path: str
    log_path: str


def run_generate(job: JobConfig, out_dir, seed: Optional[int] = None) -> GenerateResult:
    problem = build_problem(job)
    cfg = optimization_config(job, seed)
    if cfg.matrix is not None and cfg.matrix.shape != problem.shape:
        raise ConfigError(f"config.optimizer.matrix: has shape "
                          f"{cfg.matrix.shape}, expected {problem.shape}")
    report = optimizer.optimize(problem, cfg)
    os.makedirs(out_dir, exist_ok=True)
    matrix_path = os.path.join(out_dir, f"{job.name}_transcoder.smx")
    matfile.export_matrix(
        matfile.matrix_file(report.final_matrix,
                            row_labels=problem.decoder.channel_labels,
                            col_labels=problem.encoding.channel_labels,
                            note=f"job {job.name}"),
        matrix_path,
    )
    log_lines = [
        f"job {job.name}",
        f"analysis {job.analysis}",
        f"transcoder_shape {report.final_matrix.shape[0]}x"
        f"{report.final_matrix.shape[1]}",
        f"iterations {report.iterations}",
        f"evaluations {report.evaluations}",
        f"line_search_fallbacks {report.line_search_fallbacks}",
        f"hessian_resets {report.hessian_resets}",
        f"converged {report.converged}",
        f"gradient_norm {report.gradient_norm_final:.6e}",
        f"stop_reason {report.message}",
        "",
        "initial_cost_terms",
        report.initial_breakdown.as_text().rstrip("\n"),
        "",
        "final_cost_terms",
        report.final_breakdown.as_text().rstrip("\n"),
    ]
    if report.progress_lines:
        log_lines += ["", "progress (iteration cost gradient_norm)"]
        log_lines += list(report.progress_lines)
    log_path = os.path.join(out_dir, f"{job.name}_log.txt")
    write_text_atomic(log_path, "\n".join(log_lines) + "\n")
    return GenerateResult(report, matrix_path, log_path)


def evaluation_chain(job: JobConfig):
    """The encoding over the evaluation cloud, and the decoder."""
    return (formats.build_encoding_matrix(job.input_spec, job.eval_cloud),
            _checked_decoder(job))


def evaluate_matrix(job: JobConfig, t: np.ndarray, chain=None,
                    source: str = "matrix") -> DirectionMetrics:
    """Per-direction metrics of a transcoder over the evaluation cloud.

    ``chain`` is ``evaluation_chain(job)``, where it is already built.
    A shape error names ``source``, where the matrix came from.
    """
    encoding, decoder = chain if chain is not None else evaluation_chain(job)
    t = np.asarray(t, dtype=float)
    if t.shape != (decoder.entries.shape[1], encoding.entries.shape[1]):
        raise DimensionError(
            f"{source} has shape {t.shape}; the formats need "
            f"({decoder.entries.shape[1]} x {encoding.entries.shape[1]})"
        )
    s = analysis.speaker_matrix(encoding, t, decoder)
    return analysis.direction_metrics(s, job.analysis)


def summaries(metrics: DirectionMetrics) -> dict:
    return {
        name: analysis.summarize(metrics.column(name))
        for name in SUMMARY_METRICS
    }


def _table_lines(table: np.ndarray) -> list:
    """One line per row, every cell formatted ``%.10g``."""
    fmt = " ".join(["%.10g"] * table.shape[1])
    return [fmt % tuple(row) for row in table.tolist()]


def metrics_table_text(metrics: DirectionMetrics) -> str:
    lines = ["# " + " ".join(METRIC_COLUMNS)] + _table_lines(metrics.table())
    return "\n".join(lines) + "\n"


_SUMMARY_FIELDS = ("median", "q1", "q3", "whisker_low", "whisker_high")


def _summary_lines(stats: dict, prefix: str = "") -> list:
    """One ``prefix metric`` line of _SUMMARY_FIELDS per summary metric."""
    return [prefix + " ".join([name] + ["%.10g" % stats[name][f]
                                        for f in _SUMMARY_FIELDS])
            for name in SUMMARY_METRICS]


def summary_table_text(stats: dict) -> str:
    lines = ["# metric " + " ".join(_SUMMARY_FIELDS)] + _summary_lines(stats)
    return "\n".join(lines) + "\n"


_PLOT_SCRIPT = """\
# gnuplot script for the metric tables written alongside
set datafile commentschars "#"
set style data boxplot
set term pngcairo size 900,300
set output "metrics_boxplots.png"
set multiplot layout 1,3
set title "level (dB)"; plot "{stem}_metrics.dat" using (1):12 notitle
set title "source width (deg)"; plot "{stem}_metrics.dat" using (1):10 notitle
set title "angular error (deg)"; plot "{stem}_metrics.dat" using (1):11 notitle
unset multiplot
"""


def run_evaluate(job: JobConfig, t: np.ndarray, out_dir,
                 stem: Optional[str] = None, source: str = "matrix") -> dict:
    metrics = evaluate_matrix(job, t, source=source)
    stats = summaries(metrics)
    os.makedirs(out_dir, exist_ok=True)
    stem = stem or job.name
    write_text_atomic(
        os.path.join(out_dir, f"{stem}_metrics.dat"),
        metrics_table_text(metrics),
    )
    write_text_atomic(
        os.path.join(out_dir, f"{stem}_summary.dat"),
        summary_table_text(stats),
    )
    write_text_atomic(
        os.path.join(out_dir, f"{stem}_plot.gp"),
        _PLOT_SCRIPT.format(stem=stem),
    )
    return stats


def run_compare(job: JobConfig, named: Sequence, out_dir) -> dict:
    """Evaluate several named transcoders on the same cloud.

    ``named`` is a sequence of (name, matrix, source) triples, where
    ``source`` says where the matrix came from (a file path); per-direction
    deltas are reported against the first entry.
    """
    if len(named) < 2:
        raise ConfigError("compare needs at least two matrices")
    if len({name for name, _, _ in named}) < len(named):
        raise ConfigError("compare needs distinct matrix names")
    os.makedirs(out_dir, exist_ok=True)
    chain = evaluation_chain(job)
    results = {}
    for name, t, source in named:
        metrics = evaluate_matrix(job, t, chain, source)
        results[name] = (metrics, summaries(metrics))
        write_text_atomic(
            os.path.join(out_dir, f"{name}_metrics.dat"),
            metrics_table_text(metrics),
        )
    lines = ["# matrix metric " + " ".join(_SUMMARY_FIELDS)]
    for name, (_, stats) in results.items():
        lines += _summary_lines(stats, f"{name} ")
    write_text_atomic(
        os.path.join(out_dir, "compare_summary.dat"), "\n".join(lines) + "\n"
    )
    base_name, (base_metrics, _) = next(iter(results.items()))
    delta_lines = [
        "# azimuth elevation "
        + " ".join(
            f"{name}:d_{m}"
            for name in results if name != base_name
            for m in ("level_db", "asw_deg", "angular_error_deg")
        )
    ]
    columns = [base_metrics.column(c) for c in ("azimuth", "elevation")]
    for name, (metrics, _) in results.items():
        if name == base_name:
            continue
        for m in ("level_db", "asw_deg", "angular_error_deg"):
            columns.append(metrics.column(m) - base_metrics.column(m))
    delta_lines += _table_lines(np.column_stack(columns))
    write_text_atomic(
        os.path.join(out_dir, "compare_deltas.dat"),
        "\n".join(delta_lines) + "\n",
    )
    return {name: stats for name, (_, stats) in results.items()}

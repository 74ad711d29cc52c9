"""Command-line interface.

Subcommands: generate, evaluate, compare, apply, preset.  Exit codes:
0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys

from . import audio, matfile, presets, runner
from .config import load_config
from .errors import (
    AudioError,
    ConfigError,
    CoverageError,
    DimensionError,
    GeometryError,
    MatrixFileError,
    SatxError,
)

CONFIG_ERRORS = (ConfigError, MatrixFileError, AudioError, DimensionError,
                 GeometryError)
NUMERIC_ERRORS = (CoverageError,)


def _add_job_source(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="path to a YAML job config")
    group.add_argument(
        "--preset", choices=presets.PRESET_NAMES, help="built-in job preset"
    )


def _load_job(args):
    if args.config:
        job = load_config(args.config, args.command)
    else:
        job = presets.load_preset(args.preset)
    if getattr(args, "mode", None):
        job.analysis = args.mode
    return job


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satx",
        description=(
            "Generate, evaluate, compare, and apply optimal spatial audio "
            "transcoding matrices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="optimize a transcoding matrix")
    _add_job_source(gen)
    gen.add_argument("--out", default=".", help="output directory")
    gen.add_argument("--seed", type=int, default=None)

    ev = sub.add_parser("evaluate", help="evaluate a matrix on a cloud")
    _add_job_source(ev)
    ev.add_argument("--matrix", required=True, help="matrix file to evaluate")
    ev.add_argument("--mode", choices=("coherent", "incoherent"), default=None)
    ev.add_argument("--out", default=".", help="output directory")

    cmp_ = sub.add_parser("compare", help="compare matrices side by side")
    _add_job_source(cmp_)
    cmp_.add_argument(
        "--matrix", action="append", default=[],
        help="matrix file (repeatable)",
    )
    cmp_.add_argument(
        "--baseline", action="append", default=[], choices=("reference",),
        help="include a built-in baseline transcoder",
    )
    cmp_.add_argument("--mode", choices=("coherent", "incoherent"), default=None)
    cmp_.add_argument("--out", default=".", help="output directory")

    ap = sub.add_parser("apply", help="apply a matrix to a WAV file")
    ap.add_argument("--matrix", required=True)
    ap.add_argument("--in", dest="in_path", required=True, metavar="IN_WAV")
    ap.add_argument("--outfile", required=True, metavar="OUT_WAV")

    pre = sub.add_parser("preset", help="print a preset's config as YAML")
    pre.add_argument("name", choices=presets.PRESET_NAMES)
    pre.add_argument("--out", default=None, help="write to this file instead")

    return parser


def _cmd_generate(args) -> int:
    job = _load_job(args)
    result = runner.run_generate(job, args.out, seed=args.seed)
    report = result.report
    print(f"wrote {result.matrix_path}")
    print(f"wrote {result.log_path}")
    print(
        f"cost {report.initial_cost:.6g} -> {report.final_cost:.6g} in "
        f"{report.iterations} iterations "
        f"({report.wall_time_seconds:.2f} s, {report.message})"
    )
    return 0


def _cmd_evaluate(args) -> int:
    job = _load_job(args)
    t = matfile.import_matrix(args.matrix).values()
    stats = runner.run_evaluate(job, t, args.out, source=args.matrix)
    for metric in ("level_db", "asw_deg", "angular_error_deg"):
        s = stats[metric]
        print(
            f"{metric}: median {s['median']:.4g} "
            f"iqr [{s['q1']:.4g}, {s['q3']:.4g}]"
        )
    return 0


def _cmd_compare(args) -> int:
    job = _load_job(args)
    named = []
    for path in args.matrix:
        t = matfile.import_matrix(path).values()
        named.append((_unique_name(path, named), t, path))
    for kind in args.baseline:
        named.append((_unique_name(kind, named),
                      runner.reference_transcoder(job), f"{kind} baseline"))
    all_stats = runner.run_compare(job, named, args.out)
    for name, stats in all_stats.items():
        s = stats["level_db"]
        print(
            f"{name}: median level {s['median']:.4g} dB, "
            f"median width {stats['asw_deg']['median']:.4g} deg, "
            f"median error {stats['angular_error_deg']['median']:.4g} deg"
        )
    return 0


def _unique_name(path: str, named) -> str:
    import os

    base = os.path.splitext(os.path.basename(path))[0]
    name = base
    k = 1
    taken = {n for n, _, _ in named}
    while name in taken:
        k += 1
        name = f"{base}_{k}"
    return name


def _cmd_apply(args) -> int:
    t = matfile.import_matrix(args.matrix).values()
    result = audio.apply_matrix_to_audio(t, args.in_path, args.outfile)
    print(
        f"processed {result.frames} frames: {result.in_channels} -> "
        f"{result.out_channels} channels at {result.sample_rate} Hz"
    )
    if result.clipped_samples:
        print(f"warning: {result.clipped_samples} samples exceed full scale")
    return 0


def _cmd_preset(args) -> int:
    text = presets.preset_yaml(args.name)
    if args.out:
        matfile.write_text_atomic(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "apply": _cmd_apply,
    "preset": _cmd_preset,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except SatxError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Span recorder and layer wrappers for the traced benchmark run.

The traced run wraps the public functions at each layer boundary of satx
from the outside: nothing under ``src/`` changes.  A wrapper replaces the
name where its caller looks it up (``satx.cli.load_config`` is imported by
name into the CLI, while ``satx.geometry.mirror_indices`` is looked up on
the module at call time), so the program's own calls go through it.

Spans are kept in memory as ``[id, parent, command, name, start, end,
attrs]`` lists and only recorded while a command span is open, so the
benchmark's correctness checks, which call into satx between commands, do
not show up in the layer figures.  A span's self time is its duration minus
the durations of its direct children; since everything runs on one thread,
children never overlap.
"""

from __future__ import annotations

import functools
import math
import os
from contextlib import contextmanager
from time import perf_counter

# span name -> per-layer metric fed by the span's self time
SELF_TIME_METRIC = {
    "cli": "cli.self_s",
    "config.load": "config.load_s",
    "build.problem": "build.problem_s",
    "build.reference": "build.reference_s",
    "formats.encode": "formats.encode_s",
    "geometry.mirror": "geometry.mirror_s",
    "cost.kernel": "cost.kernel_s",
    "optimizer.optimize": "optimizer.self_s",
    "analysis.evaluate": "analysis.evaluate_s",
    "runner.report": "runner.report_s",
    "matfile.export": "matfile.export_s",
    "matfile.import": "matfile.import_s",
    "audio.apply": "audio.mix_s",
    "audio.read": "audio.read_s",
    "audio.write": "audio.write_s",
}

# span attributes and recorder counters summed over a pass (or job)
SUMMED = {
    "formats.encoded_dirs", "analysis.dirs", "optimizer.iterations",
    "optimizer.line_searches", "optimizer.armijo_fallbacks",
    "runner.report_bytes", "audio.frames", "audio.bytes_in",
    "audio.bytes_out",
}
# sizes reported for the largest job of a pass
LARGEST = {"geometry.mirror_mb", "cost.cells", "optimizer.params"}

# Every ``_s`` metric is a self time, so a pass's times add up to its
# command time.  optimizer.iter_ms is optimize wall time (cost calls
# included) per iteration; geometry.mirror_mb is the L x L float64 dot
# matrix of mirror_indices and optimizer.hessian_mb the n x n inverse
# Hessian; cost.cells is directions x speakers.
LAYER_METRICS = (
    "cli.self_s",
    "config.load_s",
    "build.problem_s", "build.reference_s", "formats.encode_s",
    "formats.encoded_dirs", "geometry.mirror_s", "geometry.mirror_mb",
    "cost.evals", "cost.kernel_s", "cost.eval_ms", "cost.cells",
    "optimizer.iterations", "optimizer.self_s", "optimizer.iter_ms",
    "optimizer.evals_per_iter", "optimizer.line_searches",
    "optimizer.armijo_fallbacks", "optimizer.params", "optimizer.hessian_mb",
    "analysis.evaluate_s", "analysis.dirs", "runner.report_s",
    "runner.report_bytes",
    "matfile.export_s", "matfile.import_s",
    "audio.read_s", "audio.mix_s", "audio.write_s", "audio.frames",
    "audio.bytes_in", "audio.bytes_out",
)


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # -- spans ---------------------------------------------------------

    def _open(self, name, attrs=None):
        parent = self._stack[-1][0] if self._stack else None
        command = self._stack[0][0] if self._stack else len(self.spans)
        span = [len(self.spans), parent, command, name, perf_counter(), None,
                attrs or {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span[5] = perf_counter()
        self._stack.pop()

    @contextmanager
    def command(self, name, **attrs):
        """Root span of one CLI command; its id tags every nested span."""
        span = self._open("cli", dict(attrs, command=name))
        try:
            yield span
        finally:
            self._close(span)

    def count(self, name, n=1):
        if self._stack:
            attrs = self._stack[0][6]
            attrs[name] = attrs.get(name, 0) + n

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def wrap(self, owner, attr, name, describe=None):
        """Record a span around ``owner.attr``; ``describe(args, kwargs,
        result)`` returns extra span attributes."""
        rec = self

        def make(original):
            def traced(*args, **kwargs):
                if not rec._stack:
                    return original(*args, **kwargs)
                span = rec._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    rec._close(span)
                if describe is not None:
                    span[6].update(describe(args, kwargs, result))
                return result
            return traced

        self._patch(owner, attr, make)

    def install(self):
        """Wrap every layer boundary of satx named in the per-layer table."""
        import satx.audio
        import satx.cli
        import satx.cost
        import satx.formats
        import satx.geometry
        import satx.matfile
        import satx.optimizer
        import satx.presets
        import satx.runner

        wrap = self.wrap
        wrap(satx.cli, "load_config", "config.load")
        wrap(satx.presets, "load_preset", "config.load")
        wrap(satx.runner, "build_problem", "build.problem")
        wrap(satx.runner, "reference_transcoder", "build.reference")
        wrap(satx.formats, "build_encoding_matrix", "formats.encode",
             lambda a, k, r: {"formats.encoded_dirs": len(r.cloud)})
        wrap(satx.geometry, "mirror_indices", "geometry.mirror",
             lambda a, k, r: {"geometry.mirror_mb": len(r) ** 2 * 8 / 1e6})
        wrap(satx.cost.TranscodingProblem, "cost_and_gradient", "cost.kernel")
        wrap(satx.optimizer, "optimize", "optimizer.optimize",
             _describe_optimize)
        wrap(satx.runner, "evaluate_matrix", "analysis.evaluate",
             lambda a, k, r: {"analysis.dirs": len(r.cloud)})
        for fn in ("run_generate", "run_evaluate", "run_compare"):
            wrap(satx.runner, fn, "runner.report")
        wrap(satx.matfile, "export_matrix", "matfile.export")
        wrap(satx.matfile, "import_matrix", "matfile.import")
        wrap(satx.audio, "apply_matrix_to_audio", "audio.apply",
             _describe_apply)
        wrap(satx.audio, "read_wav", "audio.read")
        wrap(satx.audio, "write_wav_float32", "audio.write")

        rec = self

        def count_line_search(original):
            def traced(*args, **kwargs):
                result = original(*args, **kwargs)
                rec.count("optimizer.line_searches")
                alpha, f_new = result[0], result[3]
                old = kwargs.get("old_fval")
                if alpha is None or (old is not None and not f_new < old):
                    rec.count("optimizer.armijo_fallbacks")
                return result
            return traced

        def count_report_bytes(original):
            def traced(path, text, *args, **kwargs):
                rec.count("runner.report_bytes", len(text.encode()))
                return original(path, text, *args, **kwargs)
            return traced

        self._patch(satx.optimizer, "line_search", count_line_search)
        self._patch(satx.runner, "write_text_atomic", count_report_bytes)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _describe_optimize(args, kwargs, report):
    problem = args[0]
    directions = problem.encoding.entries.shape[0]
    return {
        "optimizer.iterations": report.iterations,
        "optimizer.params": int(math.prod(problem.shape)),
        "cost.cells": directions * len(problem.decoder.layout),
    }


def _describe_apply(args, kwargs, result):
    _, in_path, out_path = args[:3]
    return {
        "audio.frames": result.frames,
        "audio.bytes_in": os.path.getsize(in_path),
        "audio.bytes_out": os.path.getsize(out_path),
    }


# -- aggregation -------------------------------------------------------


def self_times(spans):
    """Self seconds of every span, indexed like ``spans``."""
    own = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[5] - s[4]
    return own


def layer_totals(spans, own=None):
    """Per-layer metrics of a set of spans (one pass, or one job)."""
    if own is None:
        own = self_times(spans)
    out = dict.fromkeys(LAYER_METRICS, 0)
    optimize_s = 0.0
    for span, self_s in zip(spans, own):
        name, attrs = span[3], span[6]
        out[SELF_TIME_METRIC[name]] += self_s
        if name == "cost.kernel":
            out["cost.evals"] += 1
        if name == "optimizer.optimize":
            optimize_s += span[5] - span[4]
        for key, value in attrs.items():
            if key in SUMMED:
                out[key] += value
            elif key in LARGEST:
                out[key] = max(out[key], value)
    if out["cost.evals"]:
        out["cost.eval_ms"] = 1e3 * out["cost.kernel_s"] / out["cost.evals"]
    if out["optimizer.iterations"]:
        iters = out["optimizer.iterations"]
        out["optimizer.iter_ms"] = 1e3 * optimize_s / iters
        out["optimizer.evals_per_iter"] = out["cost.evals"] / iters
    out["optimizer.hessian_mb"] = out["optimizer.params"] ** 2 * 8 / 1e6
    return out


def grouped_layers(spans, group_of):
    """Layer totals per group of commands.

    ``group_of`` maps a command id to its group (a pass, a command kind or a
    job); spans of commands it does not name are left out.
    """
    own = self_times(spans)
    groups = {}
    for i, span in enumerate(spans):
        group = group_of.get(span[2])
        if group is not None:
            groups.setdefault(group, []).append(i)
    return {
        group: layer_totals([spans[i] for i in idx], [own[i] for i in idx])
        for group, idx in groups.items()
    }

"""satx benchmark: one command per workload.

    python3 bench/run.py --workload {presets,dense_cloud,apply} --seed N \\
        --seconds S --trace {0,1} [--size {full,toy}]
    python3 bench/run.py --report [--size {full,toy}]
                         # per-layer tables of the latest saved traced runs

Run it from the root of a checkout; satx is imported from ``./src``.

A run first writes the workload's inputs from the seed (``synth.py``), then
starts fresh measured processes (``worker.py``) that drive ``satx.cli.main``
in-process, closed loop with one client.  BLAS runs on one thread
(``BLAS_ENV``): on a few shared cores a second BLAS thread waits on
whatever else the host schedules, and the times then measure the scheduler.

``--trace 0`` reports the end-to-end metrics:

    setup_s      median over three fresh processes of the time from process
                 start through ``import satx`` and parsing the workload's
                 configs
    command_s    median over passes of the wall seconds of one pass of the
                 workload's satx commands
    peak_rss_mb  peak resident memory of the measured process

and prints, above the JSON line, the per-command figures with units:
``generate_s``, ``evaluate_s`` (evaluate and compare), ``apply_xrt`` (audio
seconds per wall second), ``final_cost`` (geometric mean over the generate
jobs), ``op_error_rate`` and ``ops``.  ``--trace 1`` runs one untraced and
one traced process for half the time each and reports the per-layer
metrics of ``spans.py`` (self times, counts and sizes), those per-command
figures from the untraced process, and the tracing overhead (traced minus
untraced).  Each run also saves its figures, environment and input sizes
under ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import synth  # noqa: E402

WORKLOADS = ("presets", "dense_cloud", "apply")
SETUP_PROBES = 2  # plus the measured process itself
RUN_DEADLINE_S = 170  # a run must end within 180 s, whatever hangs
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}

END_TO_END = {"setup_s": "s", "command_s": "s", "peak_rss_mb": "MB"}
COMMAND_FIGURES = {"generate_s": "s", "evaluate_s": "s", "apply_xrt": "s/s",
                   "final_cost": "cost"}
OVERHEADS = {"trace.generate_overhead_s": "s",
             "trace.evaluate_overhead_s": "s",
             "trace.apply_xrt_overhead": "s/s"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("audio.bytes") or name.endswith("_bytes"):
        return "B"
    return "count"


PER_LAYER = dict(
    [(name, layer_unit(name)) for name in spans.LAYER_METRICS]
    + list(COMMAND_FIGURES.items()) + list(OVERHEADS.items())
)


class BenchError(Exception):
    pass


def run_worker(manifest_path, workdir, deadline, tag, seconds, trace=0,
               setup_only=False):
    result_path = os.path.join(workdir, f"result-{tag}.json")
    log_path = os.path.join(workdir, f"worker-{tag}.log")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--manifest", manifest_path, "--workdir", workdir,
           "--result", result_path, "--seconds", str(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    with open(log_path, "w") as log:
        cmd += ["--t0", repr(perf_counter())]
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  env=dict(os.environ, **BLAS_ENV),
                                  timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {tag} ran past the run's deadline")
    if proc.returncode != 0:
        with open(log_path) as log:
            tail = log.read()[-4000:]
        raise BenchError(f"worker {tag} exited {proc.returncode}:\n{tail}")
    with open(result_path) as handle:
        return json.load(handle)


def ops_of(result):
    return [op for ops in result["passes"] for op in ops]


def pass_sum(ops, commands, field="seconds"):
    return sum(op[field] for op in ops if op["command"] in commands)


def command_figures(result):
    """Per-command figures: medians over passes, 0 where not applicable.

    ``final_cost`` and ``iterations`` repeat exactly for a seed and are
    taken from the last pass.
    """
    passes = result["passes"]

    def median_of(fn):
        return statistics.median(fn(ops) for ops in passes)

    out = {
        "generate_s": median_of(lambda ops: pass_sum(ops, ("generate",))),
        "evaluate_s": median_of(
            lambda ops: pass_sum(ops, ("evaluate", "compare"))),
        "apply_xrt": 0.0,
        "final_cost": 0.0,
        "iterations": pass_sum(passes[-1], ("generate",), "iterations"),
    }
    if pass_sum(passes[0], ("apply",)):
        out["apply_xrt"] = median_of(
            lambda ops: pass_sum(ops, ("apply",), "audio_seconds")
            / pass_sum(ops, ("apply",)))
    costs = [op["final_cost"] for op in passes[-1]
             if op["command"] == "generate" and op["final_cost"]]
    if costs:
        out["final_cost"] = math.exp(statistics.fmean(map(math.log, costs)))
    return out


def failures(results):
    return [op for r in results for op in ops_of(r) if op["error"]]


def first_pass_groups(result, field):
    """Layer totals of the first pass, grouped by an operation field."""
    return spans.grouped_layers(
        result["spans"],
        {op["command_id"]: op[field] for op in result["passes"][0]})


def layer_metrics(plain, traced):
    passes = {op["command_id"]: k
              for k, ops in enumerate(traced["passes"]) for op in ops}
    totals = spans.grouped_layers(traced["spans"], passes).values()
    metrics = {name: statistics.median(t[name] for t in totals)
               for name in spans.LAYER_METRICS}
    untraced = command_figures(plain)
    with_trace = command_figures(traced)
    metrics.update((name, untraced[name]) for name in COMMAND_FIGURES)
    metrics["trace.generate_overhead_s"] = (with_trace["generate_s"]
                                            - untraced["generate_s"])
    metrics["trace.evaluate_overhead_s"] = (with_trace["evaluate_s"]
                                            - untraced["evaluate_s"])
    metrics["trace.apply_xrt_overhead"] = (with_trace["apply_xrt"]
                                           - untraced["apply_xrt"])
    return metrics


def fmt(value):
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_table(title, columns, rows, units):
    """rows: metric -> list of values, one per column."""
    width = max(len(r) for r in rows) + 2
    print(f"# {title}")
    print("# " + "metric".ljust(width) + "unit    "
          + "".join(c[:14].rjust(15) for c in columns))
    for name, values in rows.items():
        print("  " + name.ljust(width) + units.get(name, "").ljust(8)
              + "".join(fmt(v).rjust(15) for v in values))


def print_layer_tables(record):
    kinds = record["per_kind"]
    columns = ["pass"] + list(kinds)
    rows = {name: [record["metrics"][name]] + [kinds[k][name] for k in kinds]
            for name in spans.LAYER_METRICS}
    print_table(f"per-layer, {record['workload']} {record['size']} seed "
                f"{record['seed']} (pass, then by command)",
                columns, rows, PER_LAYER)
    jobs = record["per_job"]
    if len(jobs) > 1:
        rows = {name: [jobs[j][name] for j in jobs]
                for name in spans.LAYER_METRICS}
        print_table(f"per-job split, {record['workload']}", list(jobs), rows,
                    PER_LAYER)
    print_table("command figures and tracing overhead", ["value"],
                {n: [record["metrics"][n]]
                 for n in list(COMMAND_FIGURES) + list(OVERHEADS)},
                PER_LAYER)


def report(size):
    records = []
    paths = glob.glob(os.path.join(OUT_DIR, f"*-{size}-seed*-trace1.json"))
    for path in sorted(paths, key=os.path.getmtime):
        with open(path) as handle:
            records.append(json.load(handle))
    if not records:
        print(f"no {size} traced runs under {OUT_DIR}/", file=sys.stderr)
        return 1
    latest = {}
    for rec in records:
        latest[rec["workload"]] = rec
    for rec in latest.values():
        print_layer_tables(rec)
    columns = list(latest)
    rows = {name: [latest[w]["metrics"][name] for w in columns]
            for name in PER_LAYER}
    print_table("per-layer metrics by workload", columns, rows, PER_LAYER)
    return 0


def run(args):
    deadline = perf_counter() + RUN_DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "satx", "cli.py")):
        raise BenchError(f"no satx source under {root}/src; run from the "
                         "root of a checkout")
    seed = args.seed % 2**32
    workdir = os.path.join(root, WORK_DIR,
                           f"{args.workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        manifest = synth.synthesize(args.workload, seed, args.size, workdir)
        manifest_path = os.path.join(workdir, "manifest.json")
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        record = {"workload": args.workload, "seed": seed, "size": args.size,
                  "seconds": args.seconds, "trace": args.trace}
        if args.trace:
            half = args.seconds / 2
            plain = run_worker(manifest_path, workdir, deadline, "plain",
                               half)
            traced = run_worker(manifest_path, workdir, deadline, "traced",
                                half, 1)
            results = [plain, traced]
            metrics = layer_metrics(plain, traced)
            record.update(per_kind=first_pass_groups(traced, "command"),
                          per_job=first_pass_groups(traced, "job"))
            units = PER_LAYER
        else:
            setups = [run_worker(manifest_path, workdir, deadline,
                                 f"setup{i}", 0, setup_only=True)["setup_s"]
                      for i in range(SETUP_PROBES)]
            main = run_worker(manifest_path, workdir, deadline, "main",
                              args.seconds)
            results = [main]
            setups.append(main["setup_s"])
            metrics = {
                "setup_s": statistics.median(setups),
                "command_s": statistics.median(
                    sum(op["seconds"] for op in ops)
                    for ops in main["passes"]),
                "peak_rss_mb": main["peak_rss_mb"],
            }
            record.update(setup_samples=setups,
                          pass_seconds=[sum(op["seconds"] for op in ops)
                                        for ops in main["passes"]],
                          command_figures=command_figures(main))
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(ops_of(r)) for r in results)
    failed = failures(results)
    record.update(metrics=metrics, env=results[-1]["env"],
                  input_sizes=results[-1]["input_sizes"],
                  passes=[len(r["passes"]) for r in results],
                  attempted=attempted, failed=len(failed))
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    out_path = os.path.join(
        root, OUT_DIR,
        f"{args.workload}-{args.size}-seed{seed}-trace{args.trace}.json")
    with open(out_path, "w") as handle:
        json.dump(dict(record, spans=results[-1]["spans"]), handle)

    for op in failed:
        print(f"FAILED {op['command']} {op['job']}: {op['error']}",
              file=sys.stderr)
    print(f"# workload {args.workload} seed {seed} size {args.size} "
          f"passes {record['passes']}")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    print("# inputs " + json.dumps(record["input_sizes"], sort_keys=True))
    if args.trace:
        print_layer_tables(record)
    else:
        figures = record["command_figures"]
        rows = {name: [metrics[name]] for name in END_TO_END}
        rows.update({name: [value] for name, value in figures.items()
                     if value})
        rows["op_error_rate"] = [len(failed) / attempted]
        rows["ops"] = [attempted]
        print_table("end-to-end", ["value"], rows,
                    dict(END_TO_END, **COMMAND_FIGURES, iterations="count",
                         op_error_rate="1", ops="count"))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="satx benchmark",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--report", action="store_true",
                        help="print the per-layer tables of the latest saved "
                        "traced run of each workload")
    args = parser.parse_args(argv)
    if args.report:
        return report(args.size)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

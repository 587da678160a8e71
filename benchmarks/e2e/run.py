"""End-to-end benchmark of the serving simulator: one command, four workloads.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--repeats K]
                                  [--seconds T] [--trace 0|1] [--quick]
                                  [--out FILE]

Each repeat runs in a fresh child process (clean heap, its own peak RSS,
BLAS/OpenMP pinned to one thread) and times two phases separately:
*setup* (registry, trace, simulator construction) and *run* (the
replay). Repeats continue until at least ``K`` have run and ``T``
seconds have passed; the end-to-end metrics are medians over them.

Host times are scaled to a reference host speed: every repeat also
times a fixed reference loop (:func:`reference_loop`) before setup,
between setup and run, and after the run, and its phase times are
multiplied by ``REFERENCE_S / median reference time``. On a shared
machine whose speed drifts by tens of percent within minutes, this
cancels most of the drift; the raw times are kept in the ``--out``
record and printed beside the scaled ones.

Every run is checked: each trace request is served exactly once, the
energy ledgers reconcile at 1e-9, and the digest of the simulated
outcome is identical across repeats. ``--trace 1`` adds one traced run
that wraps each layer's entry points from outside the program
(:mod:`layertrace`), checks that its digest equals the untraced one,
writes its spans to ``benchmarks/results/e2e/<workload>.spans.jsonl``
and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without
``--workload`` all four workloads run and metric names are prefixed
with ``<workload>.``. The exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(ROOT, "benchmarks", "results", "e2e")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from layertrace import LAYER_NAMES, LayerTracer  # noqa: E402
from repro.utils import format_table  # noqa: E402
from workloads import SITES, WORKLOADS  # noqa: E402

import numpy as np  # noqa: E402
import workloads  # noqa: E402

#: (name, unit, better) of every end-to-end metric, in print order.
END_TO_END = (
    ("throughput_rps", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_slo_attainment", "fraction", "higher"),
    ("sim_energy_mj_per_req", "mJ", "lower"),
    ("sim_p50_ms", "ms", "lower"),
    ("sim_p99_ms", "ms", "lower"),
)


def _per_layer_units():
    units = {}
    for name in LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_share"] = "share"
    units["serving.server.price_batch.sentences"] = "count"
    units.update({
        "fleet.router.estimate_miss_ratio": "ratio",
        "energy.governor.estimates_per_placement": "ratio",
        "energy.budget.throttle_ratio": "ratio",
        "trace.overhead": "ratio",
        "trace.root_self_share": "share",
        "trace.wall_s": "s",
        "sim.batches": "count",
        "sim.mean_batch_size": "req/batch",
        "sim.task_switches": "count",
        "sim.mean_queueing_ms": "ms",
        "sim.deferrals": "count",
        "sim.throttle_events": "count",
        "sim.slo_miss_rate": "fraction",
    })
    for site in SITES:
        units[f"sim.site_share.{site}"] = "share"
    for key in ("spans", "journeys", "alerts"):
        units[f"telemetry.{key}"] = "count"
    return units


#: name -> unit of every per-layer metric ``--trace 1`` reports.
PER_LAYER = _per_layer_units()

#: The child processes run single-threaded numerics and a fixed hash
#: seed, so repeats differ only by host noise.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}
#: One repeat must finish well inside the command's own time limit.
CHILD_TIMEOUT_S = 120.0
ROOT_PHASES = ("bench.setup", "bench.run")
#: Seconds :func:`reference_loop` takes on the reference host (a 2-vCPU
#: 2.0 GHz VM during a quiet spell); scaled times are seconds on it.
REFERENCE_S = 0.045


def reference_loop():
    """Seconds a fixed interpreter-and-small-array loop takes right now.

    The mix resembles the simulator's own (dict and tuple churn in the
    interpreter, many small NumPy calls) and touches no simulator code,
    so no change to the program can move it: only the host's speed can.
    The cyclic garbage collector is paused so that a collection of the
    simulator's objects is never billed to the host.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        table = {}
        for i in range(200_000):
            total += i * i
            table[i & 4095] = (i, total)
        row = np.arange(256.0)
        for _ in range(13_000):
            row.sum()
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_once(name, seed, requests, traced=False, spans_path=None):
    """One repeat in this process: set up, run, then check the outcome.

    Returns a JSON-ready dict with the raw phase times, the reference
    loop's median time around them, peak RSS, the simulated outcome and
    checks (:func:`workloads.summarize`), and, when ``traced``, the
    per-boundary layer totals.
    """
    workload = WORKLOADS[name]
    setup, run = workloads.setup, workloads.run
    tracer = LayerTracer() if traced else None
    gc.collect()
    references = [reference_loop()]
    try:
        if tracer is not None:
            skipped = tracer.install()
            setup = tracer.wrap(ROOT_PHASES[0], setup)
            run = tracer.wrap(ROOT_PHASES[1], run)
        t0 = time.perf_counter()
        prepared = setup(workload, seed, requests)
        t1 = time.perf_counter()
        references.append(reference_loop())
        t1r = time.perf_counter()
        run(prepared)
        t2 = time.perf_counter()
    except Exception:  # a raising run is a failed run, reported as such
        return {"error": traceback.format_exc(), "failed": requests,
                "attempted": requests}
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        / 1024.0
    references.append(reference_loop())
    result = {"setup_s": t1 - t0, "run_s": t2 - t1r,
              "reference_s": statistics.median(references),
              "peak_rss_mb": peak_rss_mb, "attempted": requests}
    result.update(workloads.summarize(prepared))
    if tracer is not None:
        result["wall_s"] = (t1 - t0) + (t2 - t1r)
        result["layers"] = {k: list(v) for k, v in tracer.stats.items()}
        result["skipped"] = skipped
        if spans_path is not None:
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            tracer.write_jsonl(spans_path)
    return result


def _spawn(name, seed, requests, traced):
    """Run one repeat in a fresh interpreter; returns its result dict."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", name, "--seed", str(seed),
           "--requests", str(requests)]
    if traced:
        cmd += ["--spans",
                os.path.join(RESULTS_DIR, f"{name}.spans.jsonl")]
    env = dict(os.environ, **CHILD_ENV)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"repeat exceeded {CHILD_TIMEOUT_S:.0f} s",
                "failed": requests, "attempted": requests}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": proc.stderr.strip() or
                f"child exited with code {proc.returncode}",
                "failed": requests, "attempted": requests}
    return json.loads(lines[-1])


def _layer_metrics(traced, untraced_wall_s):
    """Per-layer metrics of the traced run (see :data:`PER_LAYER`)."""
    layers = traced["layers"]
    wall = traced["wall_s"]
    counts = traced["counts"]

    def calls(name):
        return layers[name][0]

    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_share"] = layers[name][1] / wall
    metrics["serving.server.price_batch.sentences"] = \
        layers["serving.server.price_batch"][3]
    routes = calls("fleet.router.route")
    placements = calls("energy.governor.next_placement")
    commits = calls("energy.budget.commit")
    metrics["fleet.router.estimate_miss_ratio"] = \
        calls("fleet.site.price_batch") / routes if routes else 0.0
    metrics["energy.governor.estimates_per_placement"] = \
        calls("cluster.accelerator.estimate") / placements \
        if placements else 0.0
    metrics["energy.budget.throttle_ratio"] = \
        counts["sim.throttle_events"] / commits if commits else 0.0
    metrics["trace.overhead"] = wall / untraced_wall_s
    metrics["trace.root_self_share"] = \
        sum(layers[p][1] for p in ROOT_PHASES) / wall
    metrics["trace.wall_s"] = wall
    metrics.update(counts)
    return metrics


def _scaled(result, key):
    """A repeat's phase time in seconds on the reference host."""
    return result[key] * REFERENCE_S / result["reference_s"]


def measure(name, seed, repeats, seconds, requests, trace):
    """All repeats of one workload (plus the traced run); one record."""
    runs = []
    started = time.perf_counter()
    while len(runs) < repeats or time.perf_counter() - started < seconds:
        runs.append(_spawn(name, seed, requests, traced=False))
    traced = _spawn(name, seed, requests, traced=True) if trace else None
    return aggregate(name, seed, requests, runs, traced)


def aggregate(name, seed, requests, runs, traced=None):
    """Fold repeat results (and the traced run's, if any) into a record.

    End-to-end metrics are medians over the untraced ``runs``; the
    simulated outcome comes from the first, the checks from all of
    them. The record is what ``--out`` stores and compare.py reads.
    """
    good = [r for r in runs if "error" not in r]
    every = runs + ([traced] if traced is not None else [])
    errors = [r["error"] for r in every if "error" in r]
    digests = sorted({r["digest"] for r in every if "error" not in r})
    checks = {"no_run_raised": not errors,
              "digest_identical": len(digests) == 1}
    for run in every:
        for check, ok in run.get("checks", {}).items():
            checks[check] = checks.get(check, True) and ok
    record = {
        "workload": name, "seed": seed, "requests": requests,
        "repeats": len(runs), "digests": digests, "errors": errors,
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "failed_share": sum(r["failed"] for r in every)
        / sum(r["attempted"] for r in every),
        "raw": {key: [r[key] for r in good] for key in
                ("setup_s", "run_s", "reference_s", "peak_rss_mb")},
        "metrics": {}, "per_layer": None, "layers": None,
    }
    if good:
        first = good[0]
        record["metrics"] = {
            "throughput_rps": statistics.median(
                requests / _scaled(r, "run_s") for r in good),
            "setup_s": statistics.median(
                _scaled(r, "setup_s") for r in good),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in good),
            **first["sim"],
        }
        record["host"] = {
            "raw_throughput_rps": statistics.median(
                requests / r["run_s"] for r in good),
            "raw_setup_s": statistics.median(r["setup_s"] for r in good),
            "reference_s": statistics.median(
                r["reference_s"] for r in good),
        }
        record["counts"] = first["counts"]
    if traced is not None and "error" not in traced and good:
        untraced_wall = statistics.median(
            _scaled(r, "setup_s") + _scaled(r, "run_s") for r in good)
        record["per_layer"] = _layer_metrics(
            traced, untraced_wall * traced["reference_s"] / REFERENCE_S)
        record["layers"] = traced["layers"]
        record["skipped"] = traced["skipped"]
        record["traced_wall_s"] = traced["wall_s"]
        covered = sum(v[1] for v in traced["layers"].values())
        checks["layer_self_time_covers_wall"] = \
            abs(covered - traced["wall_s"]) <= 0.01 * traced["wall_s"]
    elif traced is not None:
        checks["traced_run_completed"] = False
    record["checks"] = checks
    record["correct"] = all(checks.values()) and record["failed"] == 0 \
        and bool(good)
    return record


def _report_text(record, trace):
    """Human-readable tables for one workload's record."""
    lines = []
    head = (f"== {record['workload']}: seed {record['seed']}, "
            f"{record['requests']:,} requests x {record['repeats']} "
            f"repeats" + (" + 1 traced run" if trace else ""))
    rows = [[name, record["metrics"].get(name, "-"), unit, better]
            for name, unit, better in END_TO_END]
    rows.append(["failed_share", record["failed_share"],
                 "share", "lower"])
    lines.append(format_table(["metric", "value", "unit", "better"],
                              rows, title=head, floatfmt=".6g"))
    if "host" in record:
        host = record["host"]
        lines.append(
            f"host: reference loop {host['reference_s']:.4f} s here vs "
            f"{REFERENCE_S} s on the reference host; unscaled "
            f"throughput_rps {host['raw_throughput_rps']:.6g}, setup_s "
            f"{host['raw_setup_s']:.6g}")
    lines.append(f"digest: {', '.join(record['digests']) or '-'}")
    lines.append("checks: " + ", ".join(
        f"{k}={'ok' if v else 'FAILED'}"
        for k, v in record["checks"].items()))
    for error in record["errors"]:
        lines.append("error: " + error.strip().splitlines()[-1])
    if record["layers"]:
        wall = record["traced_wall_s"]
        order = sorted(record["layers"].items(),
                       key=lambda kv: -kv[1][1])
        rows = [[name, calls, self_s, 100.0 * self_s / wall, total_s]
                for name, (calls, self_s, total_s, _) in order]
        covered = sum(v[1] for v in record["layers"].values())
        rows.append(["(sum of self)", "", covered,
                     100.0 * covered / wall, wall])
        if record["skipped"]:
            lines.append("boundaries not found (zero calls): "
                         + ", ".join(record["skipped"]))
        lines.append(format_table(
            ["layer", "calls", "self_s", "self %", "total_s"], rows,
            title=f"per-layer host time, traced wall {wall:.3f} s, "
                  f"overhead {record['per_layer']['trace.overhead']:.3f}x",
            floatfmt=".4f"))
    return "\n".join(lines)


def _metric_entries(record, trace):
    if trace:
        values = record["per_layer"] or {}
        return {k: {"value": values[k], "unit": unit}
                for k, unit in PER_LAYER.items() if k in values}
    return {name: {"value": record["metrics"][name], "unit": unit}
            for name, unit, _ in END_TO_END if name in record["metrics"]}


def _append_out(path, records):
    existing = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            existing = json.load(f)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(existing + records, f, indent=1, sort_keys=True)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 1 is held out for "
                             "confirming claims")
    parser.add_argument("--repeats", type=int, default=5,
                        help="minimum untraced repeats (K)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating until this many seconds "
                             "have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced run, report per-layer "
                             "metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes (a few hundred requests)")
    parser.add_argument("--out", help="append the run records to this "
                                      "JSON list (compare.py input)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--requests", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    if args.child:
        result = run_once(args.workload, args.seed, args.requests,
                          traced=args.spans is not None,
                          spans_path=args.spans)
        print(json.dumps(result))
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for name in names:
        workload = WORKLOADS[name]
        requests = workload.quick_requests if args.quick \
            else workload.requests
        record = measure(name, args.seed, args.repeats, args.seconds,
                         requests, bool(args.trace))
        records.append(record)
        print(_report_text(record, bool(args.trace)), flush=True)
        print(flush=True)
    if args.out:
        _append_out(args.out, records)

    metrics = {}
    for record in records:
        prefix = "" if args.workload else record["workload"] + "."
        for key, entry in _metric_entries(record, bool(args.trace)).items():
            metrics[prefix + key] = entry
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

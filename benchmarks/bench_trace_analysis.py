"""Trace-analysis bench: stitching 100k journeys must stay cheap.

Replays a seeded 100k-request diurnal trace through the vectorized
engine with a tracer attached, writes the lossless JSONL span log, and
times :func:`repro.telemetry.analysis.analyze` stitching the whole log
into per-request journeys — the cold-start path an engineer hits when
pointing ``python -m repro.telemetry.analysis`` at an archived trace.
The profiling rollup (hot paths + both flamegraph exports) is timed on
top, so the full "span log on disk -> attributed profile" pipeline is
priced end to end.

While the stitched run is in memory the bench re-verifies the
package's contracts at scale — one journey per replayed request, leg
durations tiling time-in-system at 1e-9, energy attribution
reconciling against the replay ledgers at 1e-9, and the file-fed
analysis bit-identical to the live-tracer one.

``benchmarks/BENCH_trace_analysis.json`` is the persisted
perf-trajectory artifact: the committed copy is the baseline, and the
bench fails — before overwriting it — when a fresh wall clock
regresses past its gate.

Gates (fail the bench before any reporting does):

* stitching the 100k-request span log takes at most
  :data:`MAX_ANALYZE_SECONDS`;
* the profiling rollup on top takes at most
  :data:`MAX_PROFILE_SECONDS`;
* fresh walls stay within :data:`REGRESSION_FACTOR` x the committed
  baseline walls;
* all contract checks above hold.

Run:  pytest benchmarks/bench_trace_analysis.py -s
 or:  python benchmarks/bench_trace_analysis.py
"""

import json
import os
import sys
import tempfile

from conftest import best_of, require, run_bench
from repro.cluster import ClusterSimulator, generate_diurnal_trace
from repro.serving import synthetic_registry
from repro.telemetry import Tracer, write_spans_jsonl
from repro.telemetry.analysis import (analyze, flamegraph_lines,
                                      hot_paths)
from repro.utils import format_table

TASKS = ("sst2", "mnli", "qqp", "qnli")
N_SENTENCES = 64
#: Same saturated high-throughput regime the telemetry-overhead bench
#: replays: 40k requests/s across four tasks on a 64-device pool.
MEAN_INTERARRIVAL_MS = 0.025
POOL = 64
MAX_BATCH = 64
TIMEOUT_MS = 15.0
NUM_REQUESTS = 100_000
REPEATS = 5

#: Stitching the 100k-request span log may take at most this long —
#: roughly 6x the observed cold wall on a shared dev box, so the gate
#: trips on algorithmic regressions (an accidental O(n^2) join), not
#: machine noise.
MAX_ANALYZE_SECONDS = 10.0
#: Hot-path rollup plus both flamegraph exports on the stitched run.
MAX_PROFILE_SECONDS = 6.0
#: Fresh walls may exceed the committed baseline by this factor.
REGRESSION_FACTOR = 1.8

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "BENCH_trace_analysis.json")


def run_benchmark(seed=0):
    """Stitch + profile a 100k-request span log; returns the record."""
    registry = synthetic_registry(TASKS, n=N_SENTENCES, seed=seed)
    trace = generate_diurnal_trace(
        NUM_REQUESTS, seed=seed,
        mean_interarrival_ms=MEAN_INTERARRIVAL_MS)
    tracer = Tracer()
    sim = ClusterSimulator(
        registry, num_accelerators=POOL, policy="fifo",
        max_batch_size=MAX_BATCH, batch_timeout_ms=TIMEOUT_MS,
        tracer=tracer)
    report = sim.run(trace)
    require(report.engine == "vector",
            f"the bench traces the vector core, {report.engine} ran")

    with tempfile.TemporaryDirectory(prefix="bench_analysis_") as tmp:
        log = os.path.join(tmp, "spans.jsonl")
        n_spans = write_spans_jsonl(tracer, log)
        analyze(log)  # warm caches outside the clock
        analyze_wall, analysis = best_of(lambda: analyze(log), REPEATS)

    profile_wall, _ = best_of(
        lambda: (hot_paths(analysis),
                 flamegraph_lines(analysis, weight="time"),
                 flamegraph_lines(analysis, weight="energy")),
        REPEATS)

    # Contract checks at bench scale, on the file-fed analysis.
    require(len(analysis) == NUM_REQUESTS,
            f"stitched {len(analysis)} journeys for "
            f"{NUM_REQUESTS} requests")
    analysis.reconcile(report, tol=1e-9)
    for journey in analysis.journeys:
        journey.critical_path(tol=1e-9)
    live = analyze(tracer)
    require(json.dumps(analysis.to_dict(), sort_keys=True)
            == json.dumps(live.to_dict(), sort_keys=True),
            "file-fed analysis diverges from the live tracer's")

    return {
        "config": {
            "tasks": list(TASKS),
            "num_accelerators": POOL,
            "policy": "fifo",
            "max_batch_size": MAX_BATCH,
            "batch_timeout_ms": TIMEOUT_MS,
            "mean_interarrival_ms": MEAN_INTERARRIVAL_MS,
            "num_requests": NUM_REQUESTS,
            "repeats": REPEATS,
            "seed": seed,
        },
        "spans": n_spans,
        "journeys": len(analysis),
        "analyze_seconds": analyze_wall,
        "journeys_per_second": NUM_REQUESTS / analyze_wall,
        "profile_seconds": profile_wall,
    }


def _check_gates(record, baseline=None):
    wall = record["analyze_seconds"]
    require(wall <= MAX_ANALYZE_SECONDS,
            f"stitching 100k journeys took {wall:.2f}s "
            f"(gate: <= {MAX_ANALYZE_SECONDS:.1f}s)")
    profile = record["profile_seconds"]
    require(profile <= MAX_PROFILE_SECONDS,
            f"profiling rollup took {profile:.2f}s "
            f"(gate: <= {MAX_PROFILE_SECONDS:.1f}s)")
    if baseline is not None:
        for key in ("analyze_seconds", "profile_seconds"):
            base_wall = baseline.get(key)
            if base_wall is None:
                continue
            ceiling = base_wall * REGRESSION_FACTOR
            require(record[key] <= ceiling,
                    f"{key} regressed: {record[key]:.2f}s vs baseline "
                    f"{base_wall:.2f}s (ceiling {ceiling:.2f}s)")


def _build_table(record):
    rows = [
        ["stitch journeys", f"{record['analyze_seconds']:.2f}",
         f"{record['journeys_per_second']:,.0f}"],
        ["profile rollup", f"{record['profile_seconds']:.2f}", "-"],
    ]
    return format_table(
        ["Stage", "Wall (s)", "Journeys/s"],
        rows,
        title=f"Trace analysis — {record['journeys']:,} journeys from "
              f"{record['spans']:,} spans")


def test_trace_analysis():
    run_bench(sys.modules[__name__])


if __name__ == "__main__":
    test_trace_analysis()

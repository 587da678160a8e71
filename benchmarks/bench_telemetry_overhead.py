"""Telemetry overhead bench: tracing must be nearly free.

Replays a seeded 100k-request diurnal trace through the vectorized
engine five ways — untraced (the :data:`~repro.telemetry.NULL_TRACER`
fast path), traced with a default unbounded :class:`Tracer`, traced
with a spilling (bounded-memory) tracer, traced with metrics sampling
on top, and monitored (a :class:`~repro.telemetry.TelemetryMonitor`
with the stock rule set, no tracer) — and gates the default traced
run's wall clock at :data:`MAX_OVERHEAD` times the untraced one and
the monitored run at :data:`MAX_MONITOR_OVERHEAD` times it. The vector engine
reconstructs batch-granular spans from the replay plan, so the traced
run also re-verifies the observability contract at bench scale: its
report is bit-identical to the untraced one and the span-energy rollup
reconciles against the ledgers at 1e-9.

The spilling mode pays per-row JSON serialization on top of tracing
proper, so it is reported and trajectory-gated (vs the committed
baseline) rather than held to the ``MAX_OVERHEAD`` promise — it covers
tracing, the spill row prices the bounded-memory opt-in.

Wall clocks on shared machines drift within a run (thermal/noisy
neighbors), so each mode is re-run :data:`REPEATS` times with the mode
order flipped on alternate rounds. Reported wall clocks are best-of-N
and the overhead ratios are computed from them: the workload is
deterministic and CPU-bound, so each mode's minimum approaches its
true cost while medians and means absorb whatever noisy-neighbor
bursts landed in that round.

``benchmarks/BENCH_telemetry.json`` is the persisted perf-trajectory
artifact: the committed copy is the baseline, and the bench fails —
before overwriting it — when a fresh overhead ratio regresses more
than its margin beyond the baseline ratio.

Gates (fail the bench before any reporting does):

* traced (unbounded) wall clock <= ``MAX_OVERHEAD`` x untraced;
* monitored wall clock <= ``MAX_MONITOR_OVERHEAD`` x untraced;
* every traced/monitored variant's report bit-identical to untraced;
  the traced rollup reconciles at 1e-9; the spill cap actually engaged;
* fresh traced ratio within ``REGRESSION_MARGIN`` of the baseline,
  fresh spilling ratio within ``SPILL_REGRESSION_MARGIN`` of it.

Run:  pytest benchmarks/bench_telemetry_overhead.py -s
 or:  python benchmarks/bench_telemetry_overhead.py
"""

import gc
import json
import os
import tempfile
import time

from conftest import RESULTS_DIR, emit
from repro.cluster import ClusterSimulator, generate_diurnal_trace
from repro.serving import synthetic_registry
from repro.telemetry import (MetricsRegistry, TelemetryMonitor, Tracer,
                             default_rules, reconcile_cluster)
from repro.utils import format_table

TASKS = ("sst2", "mnli", "qqp", "qnli")
N_SENTENCES = 64
#: 40k requests/s across four tasks — batches size-close at the cap,
#: the saturated high-throughput regime the vector engine exists for.
MEAN_INTERARRIVAL_MS = 0.025
POOL = 64
MAX_BATCH = 64
TIMEOUT_MS = 15.0
NUM_REQUESTS = 100_000
#: In-memory span cap before the tracer streams to its JSONL spill —
#: small enough that the replay spills several times (the spill row
#: times the bounded-memory path, not an unbounded buffer).
SPILL_CAP = 4096
REPEATS = 9

#: Default traced wall clock may cost at most this factor over
#: untraced. Two things price this above the original 1.10: spans now
#: carry per-request attribution payloads (member ids, arrivals, exact
#: finish/energy columns — the journey stitcher's inputs; they ride as
#: numpy views and only box to lists at serialization), and the ratio
#: is machine-relative — on a runner where the numpy-heavy untraced
#: replay finishes 2x faster, the same fixed per-span Python cost
#: doubles as a fraction. The absolute gate must hold on the fastest
#: runner seen, not just the baseline box.
MAX_OVERHEAD = 1.25
#: Monitored (stock rule set) wall clock gate: the monitor does
#: windowed rule math per committed run, a bit dearer than span
#: emission — and machine-relative the same way the traced gate is.
MAX_MONITOR_OVERHEAD = 1.30
#: Fresh traced ratio may exceed the committed baseline ratio by at
#: most this much (absolute) before the bench fails — sized to machine
#: noise (interleaved best-of-N still wobbles a few percent).
REGRESSION_MARGIN = 0.10
#: The spilling ratio pays per-row JSON serialization of the full
#: per-request columns (an order of magnitude more bytes than the
#: pre-attribution span schema) and swings hardest with machine speed;
#: its trajectory margin is correspondingly the loosest.
SPILL_REGRESSION_MARGIN = 0.75

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "BENCH_telemetry.json")


def _require(condition, message):
    # Explicit check (not assert): the gate must still fire under -O.
    if not condition:
        raise AssertionError(message)


def _canonical(report):
    return json.dumps(report.summary(), sort_keys=True)


def _one_run(registry, trace, tracer=None, metrics=False,
             monitor=None):
    """One timed replay; returns (elapsed_seconds, report)."""
    sim = ClusterSimulator(
        registry, num_accelerators=POOL, policy="fifo",
        max_batch_size=MAX_BATCH, batch_timeout_ms=TIMEOUT_MS,
        tracer=tracer,
        metrics=MetricsRegistry() if metrics else None,
        monitor=monitor)
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        report = sim.run(trace)
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
    _require(report.engine == "vector",
             f"the bench times the vector core, {report.engine} ran")
    return elapsed, report


def run_benchmark(seed=0):
    """Untraced vs traced/spilling/metered at 100k; returns record."""
    registry = synthetic_registry(TASKS, n=N_SENTENCES, seed=seed)
    trace = generate_diurnal_trace(
        NUM_REQUESTS, seed=seed,
        mean_interarrival_ms=MEAN_INTERARRIVAL_MS)

    with tempfile.TemporaryDirectory(prefix="bench_telemetry_") as tmp:
        spill = os.path.join(tmp, "spans.jsonl")
        modes = [
            ("untraced", lambda: (None, False, None)),
            ("traced", lambda: (Tracer(), False, None)),
            ("traced_spilling",
             lambda: (Tracer(max_spans=SPILL_CAP, spill_path=spill),
                      False, None)),
            ("traced_with_metrics", lambda: (Tracer(), True, None)),
            ("monitored",
             lambda: (None, False,
                      TelemetryMonitor(default_rules()))),
        ]
        best = {}
        reports = {}
        tracers = {}
        _one_run(registry, trace)  # warm caches outside the clock
        for round_no in range(REPEATS):
            # Flip the mode order on alternate rounds: slow machine
            # drift within a round then biases each mode both ways.
            ordering = modes if round_no % 2 == 0 else modes[::-1]
            for name, make in ordering:
                tracer, metrics, monitor = make()
                elapsed, report = _one_run(registry, trace,
                                           tracer=tracer,
                                           metrics=metrics,
                                           monitor=monitor)
                if name not in best or elapsed < best[name]:
                    best[name] = elapsed
                reports[name] = report
                if tracers.get(name) is not None:
                    tracers[name].close()
                tracers[name] = tracer

        # Contract checks at bench scale, while the tracers are live.
        base = _canonical(reports["untraced"])
        for name in ("traced", "traced_spilling",
                     "traced_with_metrics", "monitored"):
            _require(_canonical(reports[name]) == base,
                     f"{name} perturbed the 100k replay report")
        reconcile_cluster(tracers["traced"], reports["traced"],
                          tol=1e-9)
        _require(tracers["traced_spilling"].spilled > 0,
                 "spill cap never engaged at 100k")
        emitted = tracers["traced"].emitted
        for tracer in tracers.values():
            if tracer is not None:
                tracer.close()

    timings = {
        name: {
            "num_requests": NUM_REQUESTS,
            "wall_seconds": wall,
            "requests_per_second": NUM_REQUESTS / wall,
        }
        for name, wall in best.items()
    }
    def ratio(name):
        # Noise-floor comparison: the deterministic workload's best
        # wall approaches its true cost; any other statistic folds
        # noisy-neighbor bursts into the overhead it claims to price.
        return best[name] / best["untraced"]

    return {
        "config": {
            "tasks": list(TASKS),
            "num_accelerators": POOL,
            "policy": "fifo",
            "max_batch_size": MAX_BATCH,
            "batch_timeout_ms": TIMEOUT_MS,
            "mean_interarrival_ms": MEAN_INTERARRIVAL_MS,
            "num_requests": NUM_REQUESTS,
            "spill_cap": SPILL_CAP,
            "repeats": REPEATS,
            "seed": seed,
        },
        "untraced": timings["untraced"],
        "traced": timings["traced"],
        "traced_spilling": timings["traced_spilling"],
        "traced_with_metrics": timings["traced_with_metrics"],
        "monitored": timings["monitored"],
        "spans_emitted": emitted,
        "overhead_ratio": ratio("traced"),
        "overhead_spilling_ratio": ratio("traced_spilling"),
        "overhead_with_metrics_ratio": ratio("traced_with_metrics"),
        "overhead_monitored_ratio": ratio("monitored"),
    }


def _check_gates(record, baseline=None):
    ratio = record["overhead_ratio"]
    _require(ratio <= MAX_OVERHEAD,
             f"traced replay costs {ratio:.3f}x untraced "
             f"(gate: <= {MAX_OVERHEAD:.2f}x)")
    monitored = record["overhead_monitored_ratio"]
    _require(monitored <= MAX_MONITOR_OVERHEAD,
             f"monitored replay costs {monitored:.3f}x untraced "
             f"(gate: <= {MAX_MONITOR_OVERHEAD:.2f}x)")
    if baseline is not None:
        for key, margin in (("overhead_ratio", REGRESSION_MARGIN),
                            ("overhead_spilling_ratio",
                             SPILL_REGRESSION_MARGIN)):
            base_ratio = baseline.get(key)
            if base_ratio is None:
                continue
            ceiling = base_ratio + margin
            fresh = record[key]
            _require(fresh <= ceiling,
                     f"{key} regressed: {fresh:.3f}x vs baseline "
                     f"{base_ratio:.3f}x (ceiling {ceiling:.3f}x)")


def _load_baseline():
    if not os.path.exists(BASELINE_PATH):
        return None
    with open(BASELINE_PATH, encoding="utf-8") as f:
        return json.load(f)


def _write_result(record):
    with open(BASELINE_PATH, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "telemetry_overhead.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    return BASELINE_PATH


def _build_table(record):
    rows = []
    for label, key, ratio_key in (
            ("untraced", "untraced", None),
            ("traced", "traced", "overhead_ratio"),
            ("traced (spilling)", "traced_spilling",
             "overhead_spilling_ratio"),
            ("traced + metrics", "traced_with_metrics",
             "overhead_with_metrics_ratio"),
            ("monitored", "monitored", "overhead_monitored_ratio")):
        timing = record[key]
        ratio = 1.0 if ratio_key is None else record[ratio_key]
        rows.append([label, f"{timing['wall_seconds']:.2f}",
                     f"{timing['requests_per_second']:,.0f}",
                     f"{ratio:.3f}x"])
    return format_table(
        ["Mode", "Wall (s)", "Req/s", "vs untraced"],
        rows,
        title=f"Telemetry overhead — {NUM_REQUESTS:,} requests, "
              f"{record['spans_emitted']:,} spans, spill cap "
              f"{SPILL_CAP}")


def test_telemetry_overhead():
    baseline = _load_baseline()
    record = run_benchmark()
    _check_gates(record, baseline)
    _write_result(record)
    emit("telemetry_overhead", _build_table(record))


if __name__ == "__main__":
    baseline = _load_baseline()
    result = run_benchmark()
    _check_gates(result, baseline)
    path = _write_result(result)
    print(_build_table(result))
    print(f"\nwrote {path}")

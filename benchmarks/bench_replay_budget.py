"""Energy-budgeted replay bench: the paper's flagship path at 1M.

EdgeBERT's headline configuration is energy-governed, not unthrottled —
so this bench replays a seeded 1M-request diurnal trace through the
vector core with a *brownout* energy budget: a 300 mW rolling-window
cap below the trace's average offered power, which keeps admission
throttled and a deep backlog live for most of the run. That regime is
exactly where the per-event loop hurts (every dispatch pass re-scans
the backlog, every arrival walks the former), and where the vector
core's budget-recheck heap events and O(1) FIFO fast path pay off.

A 100k-request run under both engines measures the speedup *and*
asserts the reports are bit-identical — the budget path's equivalence
contract (same throttle events, same ledgers) is what makes the
speedup meaningful.

``benchmarks/BENCH_replay_budget.json`` is the committed trajectory
baseline; the bench fails before overwriting it when fresh throughput
regresses more than :data:`REGRESSION_TOLERANCE`.

Gates (fail the bench before any reporting does):

* the 1M-request budgeted replay completes in <= 30 s single-process;
* the vector engine is >= 20x faster than the per-event engine at
  N=100k under the same budget;
* the 100k vector and event reports (and budget stats) are identical;
* fresh 1M throughput is within 20% of the committed baseline.

Run:  pytest benchmarks/bench_replay_budget.py -s
 or:  python benchmarks/bench_replay_budget.py
"""

import gc
import json
import os
import resource
import time

from conftest import RESULTS_DIR, emit
from repro.cluster import ClusterSimulator, generate_diurnal_trace
from repro.serving import synthetic_registry
from repro.utils import format_table

TASKS = ("sst2", "mnli", "qqp", "qnli")
N_SENTENCES = 64
MEAN_INTERARRIVAL_MS = 0.1
POOL = 64
MAX_BATCH = 32
#: Short windows + the brownout cap: admission throttles ~20k times
#: over the 1M replay and the backlog stays thousands of batches deep.
TIMEOUT_MS = 5.0
#: Below the trace's ~395 mW average offered power — a sustained
#: brownout, not a transient one.
BUDGET_MW = 300.0
BUDGET_WINDOW_MS = 100.0
REPLAY_REQUESTS = 1_000_000
SPEEDUP_REQUESTS = 100_000

MAX_REPLAY_SECONDS = 30.0
MIN_SPEEDUP = 20.0
REGRESSION_TOLERANCE = 0.20

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "BENCH_replay_budget.json")


def _require(condition, message):
    # Explicit check (not assert): the gate must still fire under -O.
    if not condition:
        raise AssertionError(message)


def _simulator(registry):
    return ClusterSimulator(
        registry, num_accelerators=POOL, policy="fifo",
        max_batch_size=MAX_BATCH, batch_timeout_ms=TIMEOUT_MS,
        energy_budget_mw=BUDGET_MW, budget_window_ms=BUDGET_WINDOW_MS)


def _peak_rss_mb():
    # ru_maxrss is KB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_replay(registry, trace, engine, repeats=1):
    """Best-of-``repeats`` wall clock with the GC parked outside the
    timed window (both engines get the same treatment)."""
    wall = None
    for _ in range(repeats):
        sim = _simulator(registry)
        replay = sim.run if engine == "vector" else sim.run_events
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            report = replay(trace)
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        _require(report.engine == engine,
                 f"asked for the {engine} core, {report.engine} ran")
        if wall is None or elapsed < wall:
            wall = elapsed
    return report, {
        "engine": report.engine,
        "num_requests": len(trace),
        "wall_seconds": wall,
        "requests_per_second": len(trace) / wall,
        "num_batches": report.num_batches,
        "makespan_ms": report.makespan_ms,
        "throttle_events": report.budget.throttle_events,
        "throttled_ms": report.budget.throttled_ms,
    }


def run_benchmark(seed=0):
    """100k vector-vs-event equivalence + speedup, then the 1M replay."""
    registry = synthetic_registry(TASKS, n=N_SENTENCES, seed=seed)

    small = generate_diurnal_trace(
        SPEEDUP_REQUESTS, seed=seed,
        mean_interarrival_ms=MEAN_INTERARRIVAL_MS)
    vec_report, vector = _timed_replay(registry, small, "vector",
                                       repeats=3)
    event_report, event = _timed_replay(registry, small, "event")
    # The speedup only counts because the replays agree exactly.
    _require(json.dumps(vec_report.summary(), sort_keys=True)
             == json.dumps(event_report.summary(), sort_keys=True),
             "vector and event reports differ under the energy budget")
    _require(json.dumps(vec_report.budget.summary(), sort_keys=True)
             == json.dumps(event_report.budget.summary(),
                           sort_keys=True),
             "vector and event budget ledgers differ")
    del small, vec_report, event_report

    trace = generate_diurnal_trace(
        REPLAY_REQUESTS, seed=seed,
        mean_interarrival_ms=MEAN_INTERARRIVAL_MS)
    _, replay = _timed_replay(registry, trace, "vector", repeats=2)
    replay["peak_rss_mb"] = _peak_rss_mb()

    return {
        "config": {
            "tasks": list(TASKS),
            "num_accelerators": POOL,
            "policy": "fifo",
            "max_batch_size": MAX_BATCH,
            "batch_timeout_ms": TIMEOUT_MS,
            "energy_budget_mw": BUDGET_MW,
            "budget_window_ms": BUDGET_WINDOW_MS,
            "mean_interarrival_ms": MEAN_INTERARRIVAL_MS,
            "seed": seed,
        },
        "replay_1m": replay,
        "speedup_100k": {
            "vector": vector,
            "event": event,
            "speedup": event["wall_seconds"] / vector["wall_seconds"],
            "reports_identical": True,
        },
    }


def _check_gates(record, baseline=None):
    replay = record["replay_1m"]
    _require(replay["wall_seconds"] <= MAX_REPLAY_SECONDS,
             f"1M budgeted replay took {replay['wall_seconds']:.1f}s "
             f"(gate: <= {MAX_REPLAY_SECONDS:.0f}s)")
    speedup = record["speedup_100k"]["speedup"]
    _require(speedup >= MIN_SPEEDUP,
             f"vector engine only {speedup:.1f}x over the event engine "
             f"at N={SPEEDUP_REQUESTS:,} (gate: >= {MIN_SPEEDUP:.0f}x)")
    _require(replay["throttle_events"] > 0,
             "brownout bench ran unthrottled; the budget path was "
             "not exercised")
    if baseline is not None:
        base_rps = baseline["replay_1m"]["requests_per_second"]
        fresh_rps = replay["requests_per_second"]
        floor = base_rps * (1.0 - REGRESSION_TOLERANCE)
        _require(fresh_rps >= floor,
                 f"budgeted replay throughput regressed: "
                 f"{fresh_rps:,.0f} req/s vs baseline "
                 f"{base_rps:,.0f} (floor {floor:,.0f})")


def _load_baseline():
    if not os.path.exists(BASELINE_PATH):
        return None
    with open(BASELINE_PATH, encoding="utf-8") as f:
        return json.load(f)


def _write_result(record):
    with open(BASELINE_PATH, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "replay_budget.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    return BASELINE_PATH


def _build_table(record):
    replay = record["replay_1m"]
    s = record["speedup_100k"]
    rows = [
        ["vector", f"{replay['num_requests']:,}",
         f"{replay['wall_seconds']:.2f}",
         f"{replay['requests_per_second']:,.0f}",
         f"{replay['throttle_events']:,}",
         f"{replay['peak_rss_mb']:.0f}"],
        ["vector", f"{s['vector']['num_requests']:,}",
         f"{s['vector']['wall_seconds']:.2f}",
         f"{s['vector']['requests_per_second']:,.0f}",
         f"{s['vector']['throttle_events']:,}", "-"],
        ["event", f"{s['event']['num_requests']:,}",
         f"{s['event']['wall_seconds']:.2f}",
         f"{s['event']['requests_per_second']:,.0f}",
         f"{s['event']['throttle_events']:,}", "-"],
    ]
    return format_table(
        ["Engine", "Requests", "Wall (s)", "Req/s", "Throttles",
         "Peak RSS (MB)"],
        rows,
        title=f"Budgeted replay — {BUDGET_MW:.0f} mW brownout, "
              f"{POOL} accels, vector/event speedup {s['speedup']:.1f}x")


def test_replay_budget():
    baseline = _load_baseline()
    record = run_benchmark()
    _check_gates(record, baseline)
    _write_result(record)
    emit("replay_budget", _build_table(record))


if __name__ == "__main__":
    baseline = _load_baseline()
    result = run_benchmark()
    _check_gates(result, baseline)
    path = _write_result(result)
    print(_build_table(result))
    print(f"\nwrote {path}")

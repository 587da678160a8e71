"""Replay-engine bench: million-request traces through the vector core.

Generates a seeded 1M-request diurnal trace (sinusoidal epoch-batched
arrivals, ``repro.cluster.generate_diurnal_trace``) and replays it
through the batch-granular vectorized engine on a 64-accelerator FIFO
pool, recording wall-clock, sustained requests/sec and peak RSS. A
second 100k-request replay runs under both engines — ``vector`` and the
retained scalar ``oracle`` loop — to measure the speedup the
vectorization buys.

``benchmarks/BENCH_replay.json`` is the repo's first persisted
perf-*trajectory* artifact: the committed copy is the baseline, and the
bench fails — before overwriting it — when fresh throughput regresses
more than :data:`REGRESSION_TOLERANCE` against it. Speed regressions
gate like correctness from now on.

Gates (fail the bench before any reporting does):

* the 1M-request replay completes in <= 30 s single-process;
* the vectorized engine is >= 50x faster than the scalar oracle at
  N=100k;
* fresh 1M throughput is within 20% of the committed baseline.

Run:  pytest benchmarks/bench_replay_engine.py -s
 or:  python benchmarks/bench_replay_engine.py
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
#: Near-capacity offered load for the 64-device pool: 10k req/s keeps
#: windows filling by timeout/size (avg batch ~14) without queue
#: blow-up, so the bench measures engine overhead, not saturation.
MEAN_INTERARRIVAL_MS = 0.1
POOL = 64
MAX_BATCH = 32
TIMEOUT_MS = 15.0
REPLAY_REQUESTS = 1_000_000
SPEEDUP_REQUESTS = 100_000

MAX_REPLAY_SECONDS = 30.0
MIN_SPEEDUP = 50.0
#: Fractional throughput loss vs. the committed baseline that fails the
#: bench (tier-2 perf-trajectory gate).
REGRESSION_TOLERANCE = 0.20

#: The committed perf-trajectory baseline this bench gates against
#: (and refreshes once the gates pass).
BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "BENCH_replay.json")


def _require(condition, message):
    # Explicit check (not assert): the gate must still fire under -O.
    if not condition:
        raise AssertionError(message)


def _simulator(registry, engine):
    # The oracle is the same configuration on the scalar kernels, which
    # run() can only replay on the per-event loop.
    return ClusterSimulator(
        registry, num_accelerators=POOL, policy="fifo",
        max_batch_size=MAX_BATCH, batch_timeout_ms=TIMEOUT_MS,
        vectorized=engine != "oracle")


def _peak_rss_mb():
    # ru_maxrss is KB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_replay(registry, trace, engine, repeats=1):
    """Best-of-``repeats`` wall clock (the standard noise filter for
    short timing windows; the runs are deterministic, so only the
    fastest one reflects the engine rather than the machine)."""
    wall = None
    for _ in range(repeats):
        sim = _simulator(registry, engine)
        # Collect, then keep the collector out of the timed window: a
        # cyclic-GC pass over the host process's heap (pytest holds a
        # big one) lands arbitrarily inside short windows. Both
        # engines get the same treatment.
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            report = sim.run(trace)
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        _require(report.engine == engine,
                 f"asked for the {engine} core, {report.engine} ran")
        if wall is None or elapsed < wall:
            wall = elapsed
    return {
        "engine": report.engine,
        "num_requests": len(trace),
        "wall_seconds": wall,
        "requests_per_second": len(trace) / wall,
        "num_batches": report.num_batches,
        "makespan_ms": report.makespan_ms,
    }


def run_benchmark(seed=0):
    """100k vector-vs-oracle + 1M vector replay; returns the record."""
    registry = synthetic_registry(TASKS, n=N_SENTENCES, seed=seed)

    # The speedup pair runs first, on a clean heap: a million live
    # request objects from the big replay would tax every full GC pass
    # inside the much shorter 100k timing windows. A full (all-epochs)
    # diurnal trace at 100k, not a prefix of the 1M one — a prefix
    # covers only the day curve's low-rate ramp.
    small = generate_diurnal_trace(
        SPEEDUP_REQUESTS, seed=seed,
        mean_interarrival_ms=MEAN_INTERARRIVAL_MS)
    vector = _timed_replay(registry, small, "vector", repeats=3)
    oracle = _timed_replay(registry, small, "oracle")
    del small

    trace = generate_diurnal_trace(
        REPLAY_REQUESTS, seed=seed,
        mean_interarrival_ms=MEAN_INTERARRIVAL_MS)
    # Best-of-2 so the committed trajectory baseline and every future
    # comparison both measure the engine, not transient machine load.
    replay = _timed_replay(registry, trace, "vector", repeats=2)
    replay["peak_rss_mb"] = _peak_rss_mb()

    return {
        "config": {
            "tasks": list(TASKS),
            "num_accelerators": POOL,
            "policy": "fifo",
            "max_batch_size": MAX_BATCH,
            "batch_timeout_ms": TIMEOUT_MS,
            "mean_interarrival_ms": MEAN_INTERARRIVAL_MS,
            "seed": seed,
        },
        "replay_1m": replay,
        "speedup_100k": {
            "vector": vector,
            "oracle": oracle,
            "speedup": oracle["wall_seconds"] / vector["wall_seconds"],
        },
    }


def _check_gates(record, baseline=None):
    replay = record["replay_1m"]
    _require(replay["wall_seconds"] <= MAX_REPLAY_SECONDS,
             f"1M-request replay took {replay['wall_seconds']:.1f}s "
             f"(gate: <= {MAX_REPLAY_SECONDS:.0f}s)")
    speedup = record["speedup_100k"]["speedup"]
    _require(speedup >= MIN_SPEEDUP,
             f"vector engine only {speedup:.1f}x over the oracle at "
             f"N={SPEEDUP_REQUESTS:,} (gate: >= {MIN_SPEEDUP:.0f}x)")
    if baseline is not None:
        base_rps = baseline["replay_1m"]["requests_per_second"]
        fresh_rps = replay["requests_per_second"]
        floor = base_rps * (1.0 - REGRESSION_TOLERANCE)
        _require(fresh_rps >= floor,
                 f"replay throughput regressed: {fresh_rps:,.0f} req/s "
                 f"vs baseline {base_rps:,.0f} (floor {floor:,.0f})")


def _load_baseline():
    if not os.path.exists(BASELINE_PATH):
        return None
    with open(BASELINE_PATH, encoding="utf-8") as f:
        return json.load(f)


def _write_result(record):
    with open(BASELINE_PATH, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "replay_engine.json")
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
         f"{replay['peak_rss_mb']:.0f}"],
        ["vector", f"{s['vector']['num_requests']:,}",
         f"{s['vector']['wall_seconds']:.2f}",
         f"{s['vector']['requests_per_second']:,.0f}", "-"],
        ["oracle", f"{s['oracle']['num_requests']:,}",
         f"{s['oracle']['wall_seconds']:.2f}",
         f"{s['oracle']['requests_per_second']:,.0f}", "-"],
    ]
    return format_table(
        ["Engine", "Requests", "Wall (s)", "Req/s", "Peak RSS (MB)"],
        rows,
        title=f"Replay engine — diurnal trace, {POOL} accels, "
              f"vector/oracle speedup {s['speedup']:.1f}x")


def test_replay_engine():
    baseline = _load_baseline()
    record = run_benchmark()
    _check_gates(record, baseline)
    _write_result(record)
    emit("replay_engine", _build_table(record))


if __name__ == "__main__":
    baseline = _load_baseline()
    result = run_benchmark()
    _check_gates(result, baseline)
    path = _write_result(result)
    print(_build_table(result))
    print(f"\nwrote {path}")

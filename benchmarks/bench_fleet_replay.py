"""Fleet replay bench: energy-routed million-request serving at scale.

The fleet orchestrator has one drive loop: it consumes the sorted
arrival columns in bulk, free-runs each site between front-end
instants, and routes every arrival through the policy's ordinary
``route``. Each site memoizes its placement estimates per epoch of
frozen device state (one representative per distinct idle device class
instead of a full idle-pool scan per request per site) and prices its
batches from whole-profile tables. Report identity against a per-event
reference loop is a tier-1 check (``tests/fleet/test_bulk_routing.py``),
not a bench gate.

The configuration leans where edge fleets lean: large heterogeneous
pools (hundreds of devices per site) behind non-trivial RTTs with one
power-capped site, under a 10 req/ms diurnal arrival process — the
regime where per-request idle-pool scans would dominate routing.

``benchmarks/BENCH_fleet_replay.json`` is the committed trajectory
baseline; the bench fails before overwriting it when fresh throughput
regresses more than :data:`REGRESSION_TOLERANCE`.

Gates (fail the bench before any reporting does):

* the 1M-request 3-site energy-routed replay completes in <= 60 s;
* fresh 1M throughput is within 20% of the committed baseline.

Run:  pytest benchmarks/bench_fleet_replay.py -s
 or:  python benchmarks/bench_fleet_replay.py
"""

import gc
import json
import os
import resource
import time

from conftest import RESULTS_DIR, emit
from repro.cluster import generate_diurnal_trace
from repro.fleet import FleetOrchestrator, SiteConfig
from repro.serving import synthetic_registry
from repro.utils import format_table

TASKS = ("sst2", "mnli", "qqp", "qnli")
N_SENTENCES = 64
MEAN_INTERARRIVAL_MS = 0.1
#: Three sites, big pools: the idle-class census is what the site's
#: estimate memo collapses, so the pool size is what a miss would cost.
SITE_POOLS = (384, 256, 192)
SITE_RTTS_MS = (2.0, 5.0, 8.0)
#: The farthest site runs power-capped, keeping the router's shaping
#: (headroom inflation) live on every scoring pass.
CAPPED_SITE_BUDGET_MW = 200.0
BATCH_TIMEOUT_MS = 40.0
MAX_BATCH = 128
REPLAY_REQUESTS = 1_000_000

MAX_REPLAY_SECONDS = 60.0
REGRESSION_TOLERANCE = 0.20

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "BENCH_fleet_replay.json")


def _require(condition, message):
    # Explicit check (not assert): the gate must still fire under -O.
    if not condition:
        raise AssertionError(message)


def _site_configs():
    caps = (None, None, CAPPED_SITE_BUDGET_MW)
    return [
        SiteConfig(f"edge-{chr(ord('a') + i)}",
                   num_accelerators=SITE_POOLS[i],
                   rtt_ms=SITE_RTTS_MS[i], policy="fifo",
                   deadline_aware=False,
                   batch_timeout_ms=BATCH_TIMEOUT_MS,
                   max_batch_size=MAX_BATCH,
                   energy_budget_mw=caps[i])
        for i in range(len(SITE_POOLS))
    ]


def _peak_rss_mb():
    # ru_maxrss is KB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_run(registry, trace, repeats=1):
    """Best-of-``repeats`` wall clock with the GC parked outside the
    timed window."""
    wall = None
    for _ in range(repeats):
        fleet = FleetOrchestrator(registry, _site_configs(),
                                  routing="energy")
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            report = fleet.run(trace)
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        if wall is None or elapsed < wall:
            wall = elapsed
    summary = report.summary()
    return {
        "num_requests": len(trace),
        "wall_seconds": wall,
        "requests_per_second": len(trace) / wall,
        "makespan_ms": summary["makespan_ms"],
        "deferrals": summary["deferrals"],
        "deadline_violations": summary["deadline_violations"],
        "total_energy_mj": summary["total_energy_mj"],
    }


def run_benchmark(seed=0):
    """The 1M-request energy-routed fleet replay."""
    registry = synthetic_registry(TASKS, n=N_SENTENCES, seed=seed)
    trace = generate_diurnal_trace(
        REPLAY_REQUESTS, seed=seed,
        mean_interarrival_ms=MEAN_INTERARRIVAL_MS)
    replay = _timed_run(registry, trace)
    replay["peak_rss_mb"] = _peak_rss_mb()

    return {
        "config": {
            "tasks": list(TASKS),
            "site_pools": list(SITE_POOLS),
            "site_rtts_ms": list(SITE_RTTS_MS),
            "capped_site_budget_mw": CAPPED_SITE_BUDGET_MW,
            "routing": "energy",
            "site_policy": "fifo",
            "max_batch_size": MAX_BATCH,
            "batch_timeout_ms": BATCH_TIMEOUT_MS,
            "mean_interarrival_ms": MEAN_INTERARRIVAL_MS,
            "seed": seed,
        },
        "replay_1m": replay,
    }


def _check_gates(record, baseline=None):
    replay = record["replay_1m"]
    _require(replay["wall_seconds"] <= MAX_REPLAY_SECONDS,
             f"1M fleet replay took {replay['wall_seconds']:.1f}s "
             f"(gate: <= {MAX_REPLAY_SECONDS:.0f}s)")
    if baseline is not None:
        base_rps = baseline["replay_1m"]["requests_per_second"]
        fresh_rps = replay["requests_per_second"]
        floor = base_rps * (1.0 - REGRESSION_TOLERANCE)
        _require(fresh_rps >= floor,
                 f"fleet replay throughput regressed: "
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
    path = os.path.join(RESULTS_DIR, "fleet_replay.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    return BASELINE_PATH


def _build_table(record):
    replay = record["replay_1m"]
    rows = [
        [f"{replay['num_requests']:,}",
         f"{replay['wall_seconds']:.2f}",
         f"{replay['requests_per_second']:,.0f}",
         f"{replay['deferrals']:,}",
         f"{replay['deadline_violations']:,}",
         f"{replay['peak_rss_mb']:.0f}"],
    ]
    return format_table(
        ["Requests", "Wall (s)", "Req/s", "Deferrals", "Violations",
         "Peak RSS (MB)"],
        rows,
        title=f"Fleet replay — 3 sites, {sum(SITE_POOLS)} devices, "
              f"energy routing")


def test_fleet_replay():
    baseline = _load_baseline()
    record = run_benchmark()
    _check_gates(record, baseline)
    _write_result(record)
    emit("fleet_replay", _build_table(record))


if __name__ == "__main__":
    baseline = _load_baseline()
    result = run_benchmark()
    _check_gates(result, baseline)
    path = _write_result(result)
    print(_build_table(result))
    print(f"\nwrote {path}")

"""Fleet replay bench: energy-routed million-request serving at scale.

The fleet orchestrator has one drive loop: it consumes the sorted
arrival columns in bulk, free-runs each site between front-end
instants, and routes every arrival through the policy's ordinary
``route``. Each site prices a placement estimate per device class
(one representative per distinct idle class of its pool index instead
of a full idle-pool scan per request per site; a walk of the online
pool once every device is busy) and prices its batches from
whole-profile tables. Report identity against a per-event
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

import os
import sys

from conftest import (best_of, peak_rss_mb, require,
                      require_throughput_floor, run_bench)
from repro.cluster import generate_diurnal_trace
from repro.fleet import FleetOrchestrator, SiteConfig
from repro.serving import synthetic_registry
from repro.utils import format_table

TASKS = ("sst2", "mnli", "qqp", "qnli")
N_SENTENCES = 64
MEAN_INTERARRIVAL_MS = 0.1
#: Three sites, big pools: an estimate at a site with a free device
#: prices the pool index's classes; at a saturated site it walks every
#: online device.
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


def _timed_run(registry, trace, repeats=1):
    """Best-of-``repeats`` energy-routed replay of ``trace``."""
    wall, report = best_of(
        lambda fleet: fleet.run(trace), repeats,
        setup=lambda: FleetOrchestrator(registry, _site_configs(),
                                        routing="energy"))
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
    replay["peak_rss_mb"] = peak_rss_mb()

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
    require(replay["wall_seconds"] <= MAX_REPLAY_SECONDS,
            f"1M fleet replay took {replay['wall_seconds']:.1f}s "
            f"(gate: <= {MAX_REPLAY_SECONDS:.0f}s)")
    require_throughput_floor("fleet replay", record, baseline,
                             REGRESSION_TOLERANCE)


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
    run_bench(sys.modules[__name__])


if __name__ == "__main__":
    test_fleet_replay()

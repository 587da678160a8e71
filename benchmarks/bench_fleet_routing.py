"""Fleet-routing bench: joules vs SLO across multi-site routing policies.

Replays the anonymized bursty reference trace
(``benchmarks/traces/reference_bursty.jsonl`` — diurnal-ish rate with
three superimposed bursts, 477 requests) across the reference 3-site
fleet: a close-by site with the big tight-SLO device (n=32/16), a
mid-distance energy-optimal site (n=16/16), and a far small site
(n=16/8) under a 30 mW rolling power cap. Every run uses the device
autoscaler, so scaling transitions are part of the bill. Recorded per
routing policy: total fleet energy with its per-site breakdown, SLO
violations, routing deferrals, capped-site budget activity, parks and
wakes — written to ``benchmarks/results/fleet_routing.json``.

Gates (the ISSUE-5 acceptance criteria; fail before any reporting):

* **energy/deadline-aware routing strictly beats round-robin on total
  joules** at an **equal-or-fewer SLO violation count**;
* the **power-capped site never exceeds its cap** under the energy
  policy (zero window overshoots — admission shaping diverted traffic
  before the window filled);
* every policy serves the whole trace and every report's energy rollup
  reconciles with the summed per-site cluster ledgers within 1e-9.

Run:  pytest benchmarks/bench_fleet_routing.py -s
 or:  python benchmarks/bench_fleet_routing.py
"""

import os
import sys

from conftest import RESULTS_DIR, require, run_bench
from repro.cluster import load_trace
from repro.fleet import FleetAutoscaler, FleetOrchestrator
from repro.smoke import reference_fleet, trace_registry
from repro.utils import format_table

POLICIES = ("round-robin", "least-loaded", "energy")
CAPPED_SITE = "edge-c"
BURSTY_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "traces", "reference_bursty.jsonl")


def run_benchmark(seed=0):
    """Sweep the routing policies on the bursty replay; returns JSON."""
    trace = load_trace(BURSTY_TRACE)
    registry = trace_registry(trace, seed)
    rows = []
    for policy in POLICIES:
        fleet = FleetOrchestrator(registry, reference_fleet(),
                                  routing=policy,
                                  autoscaler=FleetAutoscaler())
        report = fleet.run(trace)
        require(report.num_requests == len(trace),
                f"{policy} failed to serve the whole bursty trace")
        report.reconcile(tol=1e-9)
        capped = report.site(CAPPED_SITE).report
        stats = report.autoscaler
        rows.append({
            "policy": policy,
            "total_energy_mj": report.total_energy_mj,
            "deadline_violations": report.deadline_violations,
            "deferrals": report.deferrals,
            "mean_time_in_system_ms": report.mean_time_in_system_ms,
            "p95_time_in_system_ms": report.p95_time_in_system_ms,
            "makespan_ms": report.makespan_ms,
            "per_site": report.per_site(),
            "capped_site_overshoots": capped.budget.overshoots,
            "capped_site_throttles": capped.budget.throttle_events,
            "parks": sum(stats.parks.values()),
            "wakes": sum(stats.wakes.values()),
            "wall_seconds": report.wall_seconds,
        })
    return {
        "trace": os.path.relpath(BURSTY_TRACE,
                                 os.path.dirname(RESULTS_DIR)),
        "num_requests": len(trace),
        "capped_site": CAPPED_SITE,
        "sites": {c.site_id: {
            "rtt_ms": c.rtt_ms,
            "mac_vector_sizes": [hw.mac_vector_size
                                 for hw in c.hw_configs],
            "energy_budget_mw": c.energy_budget_mw,
        } for c in reference_fleet()},
        "rows": rows,
    }


def _row_for(record, policy):
    for row in record["rows"]:
        if row["policy"] == policy:
            return row
    raise AssertionError(f"no row for policy {policy!r}")


def _check_gates(record):
    rr = _row_for(record, "round-robin")
    energy = _row_for(record, "energy")
    require(energy["total_energy_mj"] < rr["total_energy_mj"],
            "energy routing does not strictly beat round-robin on "
            f"joules: {energy['total_energy_mj']:.6f} vs "
            f"{rr['total_energy_mj']:.6f} mJ")
    require(energy["deadline_violations"] <= rr["deadline_violations"],
            "energy routing misses more SLOs than round-robin: "
            f"{energy['deadline_violations']} vs "
            f"{rr['deadline_violations']}")
    require(energy["capped_site_overshoots"] == 0,
            "the power-capped site exceeded its cap under energy "
            f"routing ({energy['capped_site_overshoots']} overshoots)")


def _build_table(record):
    rows = []
    for row in record["rows"]:
        spread = "/".join(str(row["per_site"][sid]["requests"])
                          for sid in sorted(row["per_site"]))
        rows.append([
            row["policy"], f"{row['total_energy_mj']:.4f}",
            str(row["deadline_violations"]), str(row["deferrals"]),
            spread, str(row["capped_site_overshoots"]),
            str(row["parks"]), f"{row['p95_time_in_system_ms']:.2f}",
        ])
    return format_table(
        ["Routing", "Total (mJ)", "SLO miss", "Defers",
         "Req a/b/c", "Cap overshoots", "Parks", "p95 (ms)"],
        rows,
        title=(f"Fleet routing — bursty reference trace "
               f"({record['num_requests']} requests, 3 sites, "
               f"{record['capped_site']} capped)"))


def test_fleet_routing():
    run_bench(sys.modules[__name__])


if __name__ == "__main__":
    test_fleet_routing()

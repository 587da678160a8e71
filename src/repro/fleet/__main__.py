"""Fleet drivers: ``--smoke`` self-checks and ``--trace`` replay.

``python -m repro.fleet --smoke`` exercises the whole multi-site path —
routing policies, RTT accounting, per-site power caps, the autoscaler —
on the reference 3-site fleet (governor sites, then energy routing over
FIFO sites) with self-checks on conservation, the
1e-9 energy reconciliation, determinism (bit-identical summaries across
runs *and* across site-config orderings), and the headline claim
(energy/deadline-aware routing spends no more joules than round-robin
at no more SLO violations). Exits non-zero on any regression; the cheap
CI gate for the fleet stack, mirroring ``python -m repro.cluster``.

``python -m repro.fleet --trace FILE`` replays a measured CSV/JSONL
request log through a chosen routing policy and fleet size and prints
the report summary.
"""

from __future__ import annotations

import json
import sys

from repro.cluster import load_trace
from repro.errors import FleetError
from repro.fleet import FleetAutoscaler, FleetOrchestrator
from repro.smoke import (canonical, check, cli_parser, reference_fleet,
                         reference_workload, run_cli, trace_registry)


def _check_fleet_accounting(report, trace):
    check(report.num_requests == len(trace), "request count mismatch")
    served = sorted(rec.request.request_id for rec in report.records)
    check(served == sorted(r.request_id for r in trace),
          "served ids diverge from the trace")
    report.reconcile(tol=1e-9)
    for rec in report.records:
        check(abs(rec.completion_ms
                  - rec.site_record.completion_ms
                  - rec.rtt_ms / 2.0) <= 1e-9,
              "fleet completion is not site completion + egress leg")
        check(rec.routing_delay_ms >= -1e-9,
              f"negative routing delay on {rec.request.request_id}")
        check(rec.time_in_system_ms
              >= rec.site_record.result.latency_ms + rec.rtt_ms - 1e-9,
              "time in system below compute + round trip")
    routed_sites = {rec.site_id for rec in report.records}
    check(len(routed_sites) > 1,
          "routing collapsed onto a single site")


def _check_replays(registry, configs, trace, summary):
    """The energy-routed fleet on ``configs`` replays to ``summary``
    bit-for-bit, also with the site configs handed in reverse order
    (sites are canonicalized by site_id)."""
    for order in (configs, tuple(reversed(configs))):
        again = FleetOrchestrator(registry, order,
                                  routing="energy").run(trace)
        check(canonical(again) == json.dumps(summary, sort_keys=True),
              "fleet report is not deterministic or depends on "
              "site-config ordering")


def run_smoke(num_requests=400, n_sentences=64, seed=0, verbose=True):
    """End-to-end fleet pass with self-checks; returns the summaries."""
    registry, trace = reference_workload(num_requests, n_sentences, seed)

    summaries = {}
    for policy in ("round-robin", "least-loaded", "energy"):
        fleet = FleetOrchestrator(registry, reference_fleet(),
                                  routing=policy)
        report = fleet.run(trace)
        _check_fleet_accounting(report, trace)
        summaries[policy] = report.summary()

    # The headline claim: joules-scored, deadline-feasible, budget-
    # shaped routing beats blind rotation on energy at no SLO cost.
    rr, energy = summaries["round-robin"], summaries["energy"]
    check(energy["total_energy_mj"] < rr["total_energy_mj"],
          f"energy routing {energy['total_energy_mj']:.6f} mJ not "
          f"below round-robin {rr['total_energy_mj']:.6f} mJ")
    check(energy["deadline_violations"] <= rr["deadline_violations"],
          f"energy routing violations {energy['deadline_violations']} "
          f"exceed round-robin {rr['deadline_violations']}")

    # The power cap binds without breaking anything: the capped site
    # admitted work, never overshot its window, and the run conserved.
    capped = energy["per_site"]["edge-c"]
    check(capped["budget"] is not None, "capped site lost its budget")
    check(capped["budget"]["overshoots"] == 0,
          "capped site overshot its power window")

    _check_replays(registry, reference_fleet(), trace, energy)

    # Energy routing over FIFO sites: the event core's FIFO placement
    # and the sites' placement estimates, end to end.
    fifo_sites = reference_fleet(policy="fifo")
    fifo = FleetOrchestrator(registry, fifo_sites,
                             routing="energy").run(trace)
    _check_fleet_accounting(fifo, trace)
    summaries["energy_fifo_sites"] = fifo.summary()
    _check_replays(registry, fifo_sites, trace,
                   summaries["energy_fifo_sites"])

    # Autoscaling: the same trace with the autoscaler must still serve
    # everything, park devices across the quiet tail, and reconcile.
    scaled = FleetOrchestrator(
        registry, reference_fleet(), routing="energy",
        autoscaler=FleetAutoscaler()).run(trace)
    _check_fleet_accounting(scaled, trace)
    stats = scaled.autoscaler
    check(stats is not None and stats.ticks > 0,
          "autoscaler never ticked")
    check(sum(stats.parks.values()) > 0,
          "autoscaler never parked a device")
    summaries["energy_autoscaled"] = scaled.summary()

    if verbose:
        print(json.dumps(summaries, indent=2, sort_keys=True))
    return summaries


def run_trace(path, policy="energy", num_sites=3, seed=0, autoscale=False,
              verbose=True):
    """Replay a trace file across the reference fleet; returns summary."""
    trace = load_trace(path)
    registry = trace_registry(trace, seed, FleetError)
    fleet = FleetOrchestrator(
        registry, reference_fleet(num_sites), routing=policy,
        autoscaler=FleetAutoscaler() if autoscale else None)
    report = fleet.run(trace)
    report.reconcile(tol=1e-9)
    summary = report.summary()
    if verbose:
        print(json.dumps(summary, indent=2, sort_keys=True))
    return summary


def main(argv=None):
    parser = cli_parser("python -m repro.fleet",
                        "EdgeBERT multi-site fleet orchestrator driver",
                        "run the self-checking fleet smoke pass")
    parser.add_argument("--trace", metavar="FILE",
                        help="replay a CSV/JSONL request log")
    parser.add_argument("--policy", default="energy",
                        help="routing policy (round-robin, least-loaded, "
                             "energy)")
    parser.add_argument("--sites", type=int, default=3,
                        help="fleet size for --trace replay")
    parser.add_argument("--autoscale", action="store_true",
                        help="enable the device autoscaler for --trace")
    parser.add_argument("--requests", type=int, default=400,
                        help="trace length for the smoke pass")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    def body():
        if args.smoke:
            run_smoke(num_requests=args.requests, seed=args.seed,
                      verbose=not args.quiet)
        if args.trace:
            run_trace(args.trace, policy=args.policy,
                      num_sites=args.sites, seed=args.seed,
                      autoscale=args.autoscale, verbose=not args.quiet)

    return run_cli(parser, args, "fleet", body,
                   asked=args.smoke or args.trace,
                   usage="--smoke or --trace FILE")


if __name__ == "__main__":
    sys.exit(main())

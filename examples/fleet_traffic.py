"""Multi-site fleet demo: route mixed traffic across three edge sites.

Builds the reference fleet — a close-by site with the big tight-SLO
device, the energy-optimal mid site, and a far power-capped small
site — and plays the same mixed-SLO, mixed-criticality trace through
all three routing policies, with the device autoscaler on. Prints the
policy comparison (joules, SLO misses, cross-site spread, capped-site
budget activity, parks/wakes) and then drills into the energy policy's
per-site breakdown.

The energy-policy run is traced end-to-end: the script writes a
Perfetto-loadable Chrome trace (``fleet_trace.json`` — drop it on
https://ui.perfetto.dev) plus the lossless JSONL span log
(``fleet_spans.jsonl``, replayable with
``python -m repro.telemetry fleet_spans.jsonl``), audits the traced
span energy against the fleet ledgers at 1e-9, and prints the
per-site metric summary off the shared registry. A
:class:`~repro.telemetry.TelemetryMonitor` with the default SRE rule
set rides along on the same run and writes whatever fired to
``fleet_alerts.jsonl`` (replayable with
``python -m repro.telemetry.monitor --replay fleet_spans.jsonl``).

The same traced run is then stitched into per-request causal journeys
(:mod:`repro.telemetry.analysis`): ``fleet_journeys.jsonl`` holds one
journey per line, ``fleet_flame.txt`` the collapsed-stack flamegraph
(open with speedscope or ``flamegraph.pl``), and the script prints the
hot-path table plus the slowest request's latency waterfall.

Run:  PYTHONPATH=src python examples/fleet_traffic.py [--out DIR]
(no trained artifacts needed — synthetic profiles; artifacts land in
``--out``, default ``./out``)
"""

import argparse
import os

from repro.cluster import generate_diurnal_trace
from repro.fleet import FleetAutoscaler, FleetOrchestrator
from repro.smoke import reference_fleet, reference_workload
from repro.telemetry import (MetricsRegistry, TelemetryMonitor, Tracer,
                             default_rules, reconcile_fleet,
                             render_metrics, render_timeline,
                             write_chrome_trace, write_spans_jsonl)
from repro.telemetry.analysis import (analyze, render_hot_paths,
                                      render_waterfall,
                                      write_flamegraph)
from repro.utils import format_table


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="multi-site fleet routing demo")
    parser.add_argument(
        "--out", default="./out", metavar="DIR",
        help="directory for trace/span/alert artifacts (default ./out)")
    parser.add_argument(
        "--requests", type=int, default=None, metavar="N",
        help="scale up with a seeded diurnal (day-curve) trace of N "
             "requests — volumes past a few thousand exercise the "
             "sites' placement estimates under load "
             "(default: the 400-request reference workload)")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    registry, trace = reference_workload(num_requests=400)
    if args.requests is not None:
        # Same registry and request mix as the reference workload, but
        # arrivals follow the diurnal day curve at constant mean rate —
        # the trace the replay benchmarks scale on.
        trace = generate_diurnal_trace(
            args.requests, seed=0, mean_interarrival_ms=1.0,
            modes=("base", "lai"))
    configs = reference_fleet()
    print(format_table(
        ["Site", "Devices (n)", "RTT (ms)", "Power cap"],
        [[c.site_id,
          "/".join(str(hw.mac_vector_size) for hw in c.hw_configs),
          f"{c.rtt_ms:g}",
          "-" if c.energy_budget_mw is None
          else f"{c.energy_budget_mw:g} mW"]
         for c in configs],
        title="Reference fleet"))
    print()

    reports = {}
    rows = []
    tracer = Tracer()
    metrics = MetricsRegistry()
    monitor = TelemetryMonitor(default_rules(), registry=metrics)
    for policy in ("round-robin", "least-loaded", "energy"):
        # Only the headline (energy) run is traced/monitored; both are
        # read-only, so its report matches an untraced run bit-for-bit.
        traced = policy == "energy"
        fleet = FleetOrchestrator(
            registry, configs, routing=policy,
            autoscaler=FleetAutoscaler(),
            tracer=tracer if traced else None,
            metrics=metrics if traced else None,
            monitor=monitor if traced else None)
        report = fleet.run(trace)
        report.reconcile(tol=1e-9)
        reports[policy] = report
        per_site = report.per_site()
        stats = report.autoscaler
        rows.append([
            policy,
            f"{report.total_energy_mj:.3f}",
            str(report.deadline_violations),
            str(report.deferrals),
            "/".join(str(per_site[sid]["requests"])
                     for sid in sorted(per_site)),
            str(sum(stats.parks.values())),
            str(sum(stats.wakes.values())),
            f"{report.p95_time_in_system_ms:.2f}",
        ])
    print(format_table(
        ["Routing", "Energy (mJ)", "SLO miss", "Defers", "Req a/b/c",
         "Parks", "Wakes", "p95 (ms)"],
        rows, title=f"Routing policies — {len(trace)} requests"))
    print()

    energy = reports["energy"]
    site_rows = []
    for site_id, row in sorted(energy.per_site().items()):
        breakdown = energy.energy_breakdown()[site_id]
        budget = row["budget"]
        site_rows.append([
            site_id, str(row["requests"]), str(row["violations"]),
            f"{breakdown['compute_mj']:.3f}",
            f"{breakdown['idle_mj']:.3f}",
            f"{breakdown['total_mj']:.3f}",
            "-" if budget is None else str(budget["throttle_events"]),
            f"{row['parks']}/{row['wakes']}",
        ])
    print(format_table(
        ["Site", "Requests", "SLO miss", "Compute (mJ)", "Idle (mJ)",
         "Total (mJ)", "Throttles", "Parks/Wakes"],
        site_rows, title="Energy/deadline-aware routing — per site"))
    print()

    # The traced run's span-energy rollup must tie out against every
    # ledger level (per-site categories + fleet total) at 1e-9 — the
    # trace is an audit, not an approximation.
    reconcile_fleet(tracer, energy, tol=1e-9)
    print(f"span-energy audit: {tracer.emitted} spans reconcile "
          "against the fleet ledgers at 1e-9")
    print()
    print(render_timeline(tracer.iter_spans(), width=64))
    print()
    print(render_metrics(metrics))
    print()

    incident_report = monitor.report()
    worst = incident_report.worst_severity()
    print(f"monitor: {incident_report.num_alerts} alerts / "
          f"{incident_report.num_incidents} incidents"
          + (f" (worst: {worst})" if worst else " — all quiet"))
    for scope in sorted(incident_report.health):
        print(f"  health[{scope}] = {incident_report.health[scope]:.2f}")
    print()

    # Stitch the traced run into per-request journeys: every leg chain
    # tiles time-in-system exactly and the attributed joules reconcile
    # against the same ledgers the span audit above checked.
    analysis = analyze(tracer)
    analysis.reconcile(energy, tol=1e-9)
    for journey in analysis.journeys:
        journey.critical_path(tol=1e-9)
    print(render_hot_paths(analysis, limit=8))
    print()
    slowest = max(analysis.journeys, key=lambda j: j.time_in_system_ms)
    print(render_waterfall(slowest))
    print()

    trace_path = os.path.join(args.out, "fleet_trace.json")
    spans_path = os.path.join(args.out, "fleet_spans.jsonl")
    alerts_path = os.path.join(args.out, "fleet_alerts.jsonl")
    journeys_path = os.path.join(args.out, "fleet_journeys.jsonl")
    flame_path = os.path.join(args.out, "fleet_flame.txt")
    n_events = write_chrome_trace(tracer, trace_path)
    n_spans = write_spans_jsonl(tracer, spans_path)
    n_rows = incident_report.to_jsonl(alerts_path)
    n_journeys = analysis.to_jsonl(journeys_path)
    n_stacks = write_flamegraph(analysis, flame_path)
    print(f"wrote {trace_path} ({n_events} events — load in "
          "https://ui.perfetto.dev)")
    print(f"wrote {spans_path} ({n_spans} spans — replay with "
          f"python -m repro.telemetry {spans_path})")
    print(f"wrote {alerts_path} ({n_rows} rows — alerts, incidents, "
          "health)")
    print(f"wrote {journeys_path} ({n_journeys} journeys — stitched "
          f"with python -m repro.telemetry.analysis {spans_path})")
    print(f"wrote {flame_path} ({n_stacks} collapsed stacks — open in "
          "https://speedscope.app)")


if __name__ == "__main__":
    main()

"""Monitor drivers: rule replay, OpenMetrics dump, ``--smoke`` gate.

``python -m repro.telemetry.monitor --replay SPANS.jsonl`` re-runs the
anomaly watchdogs over a recorded span log (a tracer spill or
:func:`~repro.telemetry.write_spans_jsonl` output) and prints the
incident report; ``--rules RULES.json`` swaps in a custom rule set,
``--alerts OUT.jsonl`` persists the report, ``--openmetrics`` prints
the reconstructed registry in Prometheus text format.

``python -m repro.telemetry.monitor --smoke`` is the monitoring CI
gate, mirroring ``python -m repro.telemetry --smoke``: it runs a
reference workload monitored and unmonitored on **both** cluster
engines and through the fleet orchestrator, then self-checks the
contracts this subsystem promises —

* monitoring is read-only: every monitored report is bit-identical to
  its unmonitored twin, on both engines and fleet-wide (health
  subscriptions default off);
* the Alert/Incident stream is engine-invariant: the event and vector
  engines produce byte-identical report summaries, with or without a
  spilling tracer attached;
* a hostile workload (tight SLOs + thrash-prone scheduling) actually
  fires burn-rate, latency and watchdog alerts — the gate fails if
  the rules go silent;
* the IncidentReport JSONL round trip is lossless, its timeline spans
  render, and the OpenMetrics exposition is well-formed (``# EOF``
  framed, counters suffixed ``_total``);
* energy ledgers still reconcile at 1e-9 under monitoring.

Exits non-zero on any regression.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from repro.serving import synthetic_registry, synthetic_traffic
from repro.smoke import (canonical, check, cli_parser, reference_workload,
                         run_cli, run_cluster, run_reference_fleet)
from repro.telemetry import (MetricsRegistry, Tracer,
                             reconcile_cluster, reconcile_fleet,
                             render_openmetrics, render_timeline)
from repro.telemetry.monitor import (BurnRateRule, IncidentReport,
                                     LatencyQuantileRule,
                                     SwapThrashRule, TelemetryMonitor,
                                     parse_rules)


def _monitor_report(registry, trace, engine, rules=None, tracer=None,
                    metrics=None):
    monitor = TelemetryMonitor(rules, registry=metrics)
    report = run_cluster(registry, trace, engine, tracer=tracer,
                         metrics=metrics, monitor=monitor)
    monitor.finalize(report.makespan_ms)
    return report, monitor.report()


def _smoke_cluster(registry, trace, workdir):
    """Bit-identity + engine-invariant alert streams + spill."""
    streams = {}
    for engine in ("event", "vector"):
        plain = canonical(run_cluster(registry, trace, engine))
        metrics = MetricsRegistry()
        report, mon_report = _monitor_report(registry, trace, engine,
                                             metrics=metrics)
        check(canonical(report) == plain,
              f"{engine}: monitoring perturbed the report")
        streams[engine] = json.dumps(mon_report.summary(),
                                     sort_keys=True)

        # Monitoring composes with a spilling tracer: same report,
        # same alert stream, and the ledgers still reconcile.
        spill = os.path.join(workdir, f"spill_{engine}.jsonl")
        with Tracer(max_spans=64, spill_path=spill) as spiller:
            spilled, spilled_mon = _monitor_report(
                registry, trace, engine, tracer=spiller)
            check(canonical(spilled) == plain,
                  f"{engine}: monitored+spilling perturbed the report")
            check(spiller.spilled > 0,
                  f"{engine}: spill cap never triggered")
            check(json.dumps(spilled_mon.summary(), sort_keys=True)
                  == streams[engine],
                  f"{engine}: span spill changed the alert stream")
            reconcile_cluster(spiller, spilled, tol=1e-9)
    check(streams["event"] == streams["vector"],
          "event and vector engines disagree on the alert stream")
    return streams["vector"]


def _smoke_alerts(workdir):
    """A hostile workload must actually fire the rules."""
    registry = synthetic_registry(("sst2", "mnli"), n=64, seed=1)
    trace = synthetic_traffic(registry, 600, seed=1,
                              mean_interarrival_ms=0.05,
                              targets_ms=(5.0,), modes=("base",))
    rules = (
        BurnRateRule("burn", slo_target=0.999, fast_window_ms=50.0,
                     slow_window_ms=250.0, fast_burn=14.0,
                     slow_burn=6.0, min_samples=10),
        LatencyQuantileRule("p99", q=0.99, threshold_ms=5.0,
                            window_ms=250.0, min_samples=10),
        SwapThrashRule("thrash", window_ms=200.0, threshold=3),
    )
    streams = {}
    for engine in ("event", "vector"):
        _, mon_report = _monitor_report(registry, trace, engine,
                                        rules=rules)
        kinds = {a.kind for a in mon_report.alerts}
        check("burn_rate" in kinds,
              f"{engine}: burn-rate rule never fired under overload")
        check("latency_quantile" in kinds,
              f"{engine}: latency rule never fired under overload")
        check(mon_report.num_incidents > 0,
              f"{engine}: alerts never grouped into incidents")
        for incident in mon_report.incidents:
            check(incident.root_cause.get("rule"),
                  f"{engine}: incident without a root cause")
        streams[engine] = json.dumps(mon_report.summary(),
                                     sort_keys=True)

        # Lossless JSONL round trip + renderable timeline lanes.
        path = os.path.join(workdir, f"alerts_{engine}.jsonl")
        rows = mon_report.to_jsonl(path)
        check(rows == 1 + mon_report.num_alerts
              + mon_report.num_incidents,
              f"{engine}: alert JSONL dropped rows")
        reread = IncidentReport.from_jsonl(path)
        check(json.dumps(reread.summary(), sort_keys=True)
              == streams[engine],
              f"{engine}: alert JSONL round trip is lossy")
        rendered = render_timeline(mon_report.spans())
        check("alerts" in rendered,
              f"{engine}: alert lanes missing from the timeline")
    check(streams["event"] == streams["vector"],
          "overloaded engines disagree on the alert stream")
    return streams["vector"]


def _smoke_fleet(registry, trace):
    """Monitored fleet: bit-identity, health gauges, 1e-9 ledgers."""
    plain = canonical(run_reference_fleet(registry, trace))
    tracer = Tracer()
    metrics = MetricsRegistry()
    monitor = TelemetryMonitor(registry=metrics)
    report = run_reference_fleet(registry, trace, tracer=tracer,
                                 metrics=metrics, monitor=monitor)
    check(canonical(report) == plain,
          "fleet: monitoring perturbed the report")
    reconcile_fleet(tracer, report, tol=1e-9)
    monitor.finalize(max(r.completion_ms for r in report.records))
    mon_report = monitor.report()
    for outcome in report.sites:
        check(outcome.site_id in mon_report.health,
              f"fleet: no health score for {outcome.site_id}")
        gauge = metrics.gauge("health_score", scope=outcome.site_id)
        check(gauge.value is not None,
              f"fleet: health gauge never sampled for "
              f"{outcome.site_id}")
    return json.dumps(mon_report.summary(), sort_keys=True)


def _smoke_openmetrics(registry, trace):
    """The exposition is framed, typed, and counter-suffixed."""
    metrics = MetricsRegistry()
    report, _ = _monitor_report(registry, trace, "vector",
                                metrics=metrics)
    text = render_openmetrics(metrics)
    check(text.endswith("# EOF\n"), "openmetrics: missing # EOF")
    check("# TYPE requests_served counter" in text,
          "openmetrics: counter family untyped")
    check(f'requests_served_total{{scope="cluster"}} '
          f"{len(report.records)}" in text,
          "openmetrics: served total wrong or unsuffixed")
    check('time_in_system_ms_bucket{scope="cluster",le="+Inf"} '
          f"{len(report.records)}" in text,
          "openmetrics: histogram +Inf bucket must equal count")
    check(text == render_openmetrics(metrics),
          "openmetrics: exposition not deterministic")
    return text.count("\n")


def run_smoke(num_requests=300, n_sentences=64, seed=0, verbose=True):
    """End-to-end monitoring pass; returns the checked streams."""
    registry, trace = reference_workload(num_requests, n_sentences,
                                         seed)
    with tempfile.TemporaryDirectory(prefix="repro_monitor_") as tmp:
        streams = {
            "cluster": json.loads(_smoke_cluster(registry, trace, tmp)),
            "overload": json.loads(_smoke_alerts(tmp)),
        }
    streams["fleet"] = json.loads(_smoke_fleet(registry, trace))
    streams["openmetrics_lines"] = _smoke_openmetrics(registry, trace)
    if verbose:
        counts = {
            key: {"alerts": len(value["alerts"]),
                  "incidents": len(value["incidents"]),
                  "health": value["health"]}
            for key, value in streams.items() if isinstance(value, dict)
        }
        counts["openmetrics_lines"] = streams["openmetrics_lines"]
        print(json.dumps(counts, indent=2, sort_keys=True))
    return streams


def run_replay(path, rules=None, alerts_out=None, openmetrics=False,
               verbose=True):
    """Watchdog the recorded span log; print/persist the incidents."""
    metrics = MetricsRegistry()
    monitor = TelemetryMonitor(rules, registry=metrics)
    fed = monitor.observe_spans(path)
    report = monitor.finalize()
    if verbose:
        print(json.dumps(report.summary(), indent=2, sort_keys=True))
        if report.alerts:
            print()
            print(render_timeline(report.spans()))
    if alerts_out is not None:
        report.to_jsonl(alerts_out)
        if verbose:
            print(f"\nwrote {report.num_alerts} alerts / "
                  f"{report.num_incidents} incidents to {alerts_out}")
    if openmetrics:
        print(render_openmetrics(metrics), end="")
    return fed


def main(argv=None):
    parser = cli_parser("python -m repro.telemetry.monitor",
                        "SLO monitoring: replay rules over span logs and "
                        "self-check the alerting stack",
                        "run the monitoring self-check gate")
    parser.add_argument("--replay", metavar="SPANS.jsonl",
                        help="run the watchdogs over a JSONL span log")
    parser.add_argument("--rules", metavar="RULES.json",
                        help="JSON rule set (default: built-in rules)")
    parser.add_argument("--alerts", metavar="OUT.jsonl",
                        help="persist the incident report as JSONL")
    parser.add_argument("--openmetrics", action="store_true",
                        help="print the registry in OpenMetrics text")
    parser.add_argument("--requests", type=int, default=300,
                        help="trace length for the smoke pass")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    def body():
        rules = parse_rules(args.rules) if args.rules else None
        if args.smoke:
            run_smoke(num_requests=args.requests, seed=args.seed,
                      verbose=not args.quiet)
        if args.replay is not None:
            run_replay(args.replay, rules=rules,
                       alerts_out=args.alerts,
                       openmetrics=args.openmetrics,
                       verbose=not args.quiet)

    return run_cli(parser, args, "telemetry monitor", body,
                   asked=args.smoke or args.replay is not None,
                   usage="--replay SPANS.jsonl or --smoke")


if __name__ == "__main__":
    sys.exit(main())

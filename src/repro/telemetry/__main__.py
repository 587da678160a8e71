"""Telemetry drivers: span-log replay and the ``--smoke`` self-check.

``python -m repro.telemetry SPANS.jsonl`` replays a JSONL span log (a
tracer spill or :func:`~repro.telemetry.write_spans_jsonl` output) and
renders the text timeline plus the per-track/per-category summary;
``--chrome OUT.json`` additionally re-exports it as a Perfetto-loadable
Chrome trace.

``python -m repro.telemetry --smoke`` is the observability CI gate,
mirroring ``python -m repro.cluster`` / ``python -m repro.fleet``: it
runs a reference workload untraced and traced on **both** cluster
engines and through the fleet orchestrator, then self-checks the
contracts this subsystem promises —

* tracing is read-only: every traced report is bit-identical to its
  untraced twin;
* the two engines agree: the same report, the same span rows (one
  compute span per run on both) and the same metric summaries;
* the span-energy rollup reconciles against the run's energy ledgers
  at 1e-9, per category, per scope, and fleet-wide;
* a spilling tracer (bounded memory) replays the same span log and the
  same rollup as an unbounded one;
* the JSONL round trip is lossless and the Chrome export passes the
  schema contract.

Exits non-zero on any regression.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from repro.cluster import ClusterSimulator
from repro.config import GLUE_TASKS
from repro.errors import ReproError, TelemetryError
from repro.fleet import FleetAutoscaler, FleetOrchestrator
from repro.serving import synthetic_registry, synthetic_traffic
from repro.telemetry import (MetricsRegistry, Tracer, chrome_trace,
                             read_spans_jsonl, reconcile_cluster,
                             reconcile_fleet, render_metrics,
                             render_summary, render_timeline,
                             validate_chrome_trace, write_chrome_trace,
                             write_spans_jsonl)


def reference_workload(num_requests=300, n_sentences=64, seed=0):
    """Registry + mixed-mode trace the smoke gate replays everywhere."""
    registry = synthetic_registry(GLUE_TASKS, n=n_sentences, seed=seed)
    trace = synthetic_traffic(registry, num_requests, seed=seed,
                              mean_interarrival_ms=1.0,
                              modes=("base", "lai"))
    return registry, trace


def _check(condition, message):
    # Explicit check (not assert): the smoke gate must still gate under
    # ``python -O``, which strips assert statements.
    if not condition:
        raise TelemetryError(f"smoke check failed: {message}")


def _canonical(report):
    return json.dumps(report.summary(), sort_keys=True)


def _run_cluster(registry, trace, engine, tracer=None, metrics=None,
                 monitor=None):
    """Replay ``trace`` on the ``"vector"`` or ``"event"`` core."""
    sim = ClusterSimulator(registry, num_accelerators=4,
                           policy="affinity", standby_timeout_ms=20.0,
                           tracer=tracer, metrics=metrics, monitor=monitor)
    report = sim.run(trace) if engine == "vector" else sim.run_events(trace)
    _check(report.engine == engine, f"{engine}: {report.engine} core ran")
    return report


def _smoke_cluster(registry, trace, workdir):
    """Traced == untraced on both engines + reconciliation + spill."""
    summaries = {}
    span_rows = {}
    metric_summaries = {}
    for engine in ("event", "vector"):
        untraced = _canonical(_run_cluster(registry, trace, engine))

        tracer = Tracer()
        metrics = MetricsRegistry()
        report = _run_cluster(registry, trace, engine,
                              tracer=tracer, metrics=metrics)
        traced = _canonical(report)
        _check(traced == untraced,
               f"{engine}: tracing perturbed the report")
        _check(tracer.emitted > 0, f"{engine}: tracer saw no spans")
        reconcile_cluster(tracer, report, tol=1e-9)
        summaries[engine] = traced

        served = metrics.counter("requests_served", scope="cluster")
        _check(served.value == len(report.records),
               f"{engine}: served counter {served.value} != "
               f"{len(report.records)} records")

        # Bounded memory: a spilling tracer must replay the identical
        # span log and carry the identical energy rollup.
        spill = os.path.join(workdir, f"spill_{engine}.jsonl")
        with Tracer(max_spans=64, spill_path=spill) as spiller:
            spilled_report = _run_cluster(registry, trace, engine,
                                          tracer=spiller)
            _check(_canonical(spilled_report) == untraced,
                   f"{engine}: spilling tracer perturbed the report")
            _check(spiller.spilled > 0,
                   f"{engine}: spill cap never triggered")
            full = [s.to_dict() for s in tracer.iter_spans()]
            streamed = [s.to_dict() for s in spiller.iter_spans()]
            _check(streamed == full,
                   f"{engine}: spilled span log diverges from in-memory")
            _check(spiller.rollup() == tracer.rollup(),
                   f"{engine}: spilled rollup diverges")
        span_rows[engine] = sorted(json.dumps(row, sort_keys=True)
                                   for row in full)
        metric_summaries[engine] = metrics.summary()

        # Lossless JSONL round trip and a schema-valid Chrome export.
        log_path = os.path.join(workdir, f"spans_{engine}.jsonl")
        count = write_spans_jsonl(tracer, log_path)
        _check(count == tracer.emitted, f"{engine}: span log dropped rows")
        reread = [s.to_dict() for s in read_spans_jsonl(log_path)]
        _check(reread == full, f"{engine}: JSONL round trip is lossy")
        trace_dict = chrome_trace(tracer)
        _check(validate_chrome_trace(trace_dict) == tracer.emitted,
               f"{engine}: chrome export lost events")
        _check(chrome_trace(read_spans_jsonl(log_path)) == trace_dict,
               f"{engine}: chrome export not reproducible from JSONL")

        _check("(no spans)" not in render_timeline(tracer.iter_spans()),
               f"{engine}: timeline rendered empty")

    # The engines already emit identical reports; make it explicit.
    _check(summaries["event"] == summaries["vector"],
           "event and vector engines disagree under tracing")
    _check(span_rows["event"] == span_rows["vector"],
           "event and vector span rows differ")
    _check(metric_summaries["event"] == metric_summaries["vector"],
           "event and vector metric summaries differ")
    return summaries


def _smoke_fleet(registry, trace):
    """Traced fleet run: bit-identity + every-ledger reconciliation."""
    from repro.fleet.__main__ import reference_fleet

    def run(tracer=None, metrics=None):
        fleet = FleetOrchestrator(registry, reference_fleet(),
                                  routing="energy",
                                  autoscaler=FleetAutoscaler(),
                                  tracer=tracer, metrics=metrics)
        return fleet.run(trace)

    untraced = _canonical(run())
    tracer = Tracer()
    metrics = MetricsRegistry()
    report = run(tracer=tracer, metrics=metrics)
    _check(_canonical(report) == untraced,
           "fleet: tracing perturbed the report")
    reconcile_fleet(tracer, report, tol=1e-9)
    scopes = {s.scope for s in tracer.iter_spans()}
    for outcome in report.sites:
        _check(outcome.site_id in scopes,
               f"fleet: no spans for site {outcome.site_id}")
    _check("fleet" in scopes, "fleet: no front-end router/scaler spans")
    validate_chrome_trace(chrome_trace(tracer))
    return untraced


def run_smoke(num_requests=300, n_sentences=64, seed=0, verbose=True):
    """End-to-end observability pass; returns the checked summaries."""
    registry, trace = reference_workload(num_requests, n_sentences, seed)
    with tempfile.TemporaryDirectory(prefix="repro_telemetry_") as tmp:
        summaries = _smoke_cluster(registry, trace, tmp)
    summaries["fleet"] = _smoke_fleet(registry, trace)
    if verbose:
        print(json.dumps({k: json.loads(v)
                          for k, v in sorted(summaries.items())},
                         indent=2, sort_keys=True))
    return summaries


def run_replay(path, width=72, max_tracks=32, chrome_out=None,
               verbose=True):
    """Render a JSONL span log; optionally re-export it for Perfetto."""
    spans = read_spans_jsonl(path)
    if verbose:
        print(render_timeline(spans, width=width, max_tracks=max_tracks))
        print()
        print(render_summary(spans))
    if chrome_out is not None:
        count = write_chrome_trace(spans, chrome_out)
        validate_chrome_trace(chrome_trace(spans))
        if verbose:
            print(f"\nwrote {count} events to {chrome_out} "
                  "(load in https://ui.perfetto.dev)")
    return len(spans)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Replay span logs and self-check the tracing stack")
    parser.add_argument("spans", nargs="?", metavar="SPANS.jsonl",
                        help="JSONL span log to render")
    parser.add_argument("--smoke", action="store_true",
                        help="run the observability self-check gate")
    parser.add_argument("--chrome", metavar="OUT.json",
                        help="also export the span log as a Chrome trace")
    parser.add_argument("--width", type=int, default=72,
                        help="timeline width in character cells")
    parser.add_argument("--max-tracks", type=int, default=32,
                        help="max timeline lanes before clipping")
    parser.add_argument("--requests", type=int, default=300,
                        help="trace length for the smoke pass")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.spans is None:
        parser.error("nothing to do; pass SPANS.jsonl or --smoke")
    try:
        if args.smoke:
            run_smoke(num_requests=args.requests, seed=args.seed,
                      verbose=not args.quiet)
        if args.spans is not None:
            run_replay(args.spans, width=args.width,
                       max_tracks=args.max_tracks,
                       chrome_out=args.chrome,
                       verbose=not args.quiet)
    except (AssertionError, ReproError, OSError) as exc:
        print(f"RUN FAILED: {exc}", file=sys.stderr)
        return 1
    if not args.quiet and args.smoke:
        print("telemetry smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

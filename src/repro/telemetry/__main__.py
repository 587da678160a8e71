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

import json
import os
import sys
import tempfile

from repro.smoke import (canonical, check, cli_parser, reference_workload,
                         run_cli, run_cluster, run_reference_fleet)
from repro.telemetry import (MetricsRegistry, Tracer, chrome_trace,
                             read_spans_jsonl, reconcile_cluster,
                             reconcile_fleet, render_summary,
                             render_timeline, validate_chrome_trace,
                             write_chrome_trace, write_spans_jsonl)


def _smoke_cluster(registry, trace, workdir):
    """Traced == untraced on both engines + reconciliation + spill."""
    summaries = {}
    span_rows = {}
    metric_summaries = {}
    for engine in ("event", "vector"):
        untraced = canonical(run_cluster(registry, trace, engine))

        tracer = Tracer()
        metrics = MetricsRegistry()
        report = run_cluster(registry, trace, engine,
                             tracer=tracer, metrics=metrics)
        traced = canonical(report)
        check(traced == untraced,
              f"{engine}: tracing perturbed the report")
        check(tracer.emitted > 0, f"{engine}: tracer saw no spans")
        reconcile_cluster(tracer, report, tol=1e-9)
        summaries[engine] = traced

        served = metrics.counter("requests_served", scope="cluster")
        check(served.value == len(report.records),
              f"{engine}: served counter {served.value} != "
              f"{len(report.records)} records")

        # Bounded memory: a spilling tracer must replay the identical
        # span log and carry the identical energy rollup.
        spill = os.path.join(workdir, f"spill_{engine}.jsonl")
        with Tracer(max_spans=64, spill_path=spill) as spiller:
            spilled_report = run_cluster(registry, trace, engine,
                                         tracer=spiller)
            check(canonical(spilled_report) == untraced,
                  f"{engine}: spilling tracer perturbed the report")
            check(spiller.spilled > 0,
                  f"{engine}: spill cap never triggered")
            full = [s.to_dict() for s in tracer.iter_spans()]
            streamed = [s.to_dict() for s in spiller.iter_spans()]
            check(streamed == full,
                  f"{engine}: spilled span log diverges from in-memory")
            check(spiller.rollup() == tracer.rollup(),
                  f"{engine}: spilled rollup diverges")
        span_rows[engine] = sorted(json.dumps(row, sort_keys=True)
                                   for row in full)
        metric_summaries[engine] = metrics.summary()

        # Lossless JSONL round trip and a schema-valid Chrome export.
        log_path = os.path.join(workdir, f"spans_{engine}.jsonl")
        count = write_spans_jsonl(tracer, log_path)
        check(count == tracer.emitted, f"{engine}: span log dropped rows")
        reread = [s.to_dict() for s in read_spans_jsonl(log_path)]
        check(reread == full, f"{engine}: JSONL round trip is lossy")
        trace_dict = chrome_trace(tracer)
        check(validate_chrome_trace(trace_dict) == tracer.emitted,
              f"{engine}: chrome export lost events")
        check(chrome_trace(read_spans_jsonl(log_path)) == trace_dict,
              f"{engine}: chrome export not reproducible from JSONL")

        check("(no spans)" not in render_timeline(tracer.iter_spans()),
              f"{engine}: timeline rendered empty")

    # The engines already emit identical reports; make it explicit.
    check(summaries["event"] == summaries["vector"],
          "event and vector engines disagree under tracing")
    check(span_rows["event"] == span_rows["vector"],
          "event and vector span rows differ")
    check(metric_summaries["event"] == metric_summaries["vector"],
          "event and vector metric summaries differ")
    return summaries


def _smoke_fleet(registry, trace):
    """Traced fleet run: bit-identity + every-ledger reconciliation."""
    untraced = canonical(run_reference_fleet(registry, trace))
    tracer = Tracer()
    metrics = MetricsRegistry()
    report = run_reference_fleet(registry, trace, tracer=tracer,
                                 metrics=metrics)
    check(canonical(report) == untraced,
          "fleet: tracing perturbed the report")
    reconcile_fleet(tracer, report, tol=1e-9)
    scopes = {s.scope for s in tracer.iter_spans()}
    for outcome in report.sites:
        check(outcome.site_id in scopes,
              f"fleet: no spans for site {outcome.site_id}")
    check("fleet" in scopes, "fleet: no front-end router/scaler spans")
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
    parser = cli_parser("python -m repro.telemetry",
                        "Replay span logs and self-check the tracing stack",
                        "run the observability self-check gate")
    parser.add_argument("spans", nargs="?", metavar="SPANS.jsonl",
                        help="JSONL span log to render")
    parser.add_argument("--chrome", metavar="OUT.json",
                        help="also export the span log as a Chrome trace")
    parser.add_argument("--width", type=int, default=72,
                        help="timeline width in character cells")
    parser.add_argument("--max-tracks", type=int, default=32,
                        help="max timeline lanes before clipping")
    parser.add_argument("--requests", type=int, default=300,
                        help="trace length for the smoke pass")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    def body():
        if args.smoke:
            run_smoke(num_requests=args.requests, seed=args.seed,
                      verbose=not args.quiet)
        if args.spans is not None:
            run_replay(args.spans, width=args.width,
                       max_tracks=args.max_tracks,
                       chrome_out=args.chrome,
                       verbose=not args.quiet)

    return run_cli(parser, args, "telemetry", body,
                   asked=args.smoke or args.spans is not None,
                   usage="SPANS.jsonl or --smoke")


if __name__ == "__main__":
    sys.exit(main())

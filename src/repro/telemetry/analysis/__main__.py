"""Trace-analysis drivers: journeys, profiles, diffs, and the smoke gate.

``python -m repro.telemetry.analysis SPANS.jsonl`` stitches a span log
into per-request journeys, then renders whichever views are asked for:

* ``--journeys OUT.jsonl``  — write one journey per line;
* ``--critical-path``       — hot-path table + the worst critical paths;
* ``--flame OUT.txt``       — collapsed-stack flamegraph export
  (``--flame-weight energy`` switches the weight to nanojoules);
* ``--waterfall [RID]``     — ASCII waterfall for one request
  (default: the slowest);
* ``--diff A.jsonl B.jsonl`` — align two span logs of the same trace
  and print the typed regression report (``--json`` for the raw dict).

``--smoke`` is the analysis CI gate: it replays the reference
workload on both cluster engines, throttled, EDF-preempted and through
the fleet, then checks the contracts this package promises — journeys,
hot paths and flamegraphs bit-identical across live tracer / spilled
JSONL / event / vector sources, leg durations tiling time-in-system at
1e-9, energy attribution reconciling with the ledgers at 1e-9, and
``diff_runs`` round-tripping through JSON. Exits non-zero on any
regression.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from repro.cluster import ClusterSimulator
from repro.errors import TelemetryError
from repro.smoke import (check, cli_parser, reference_workload, run_cli,
                         run_cluster, run_reference_fleet)
from repro.telemetry import Tracer, write_spans_jsonl
from repro.telemetry.analysis import (RegressionReport, analyze,
                                      diff_runs, flamegraph_lines,
                                      hot_paths, render_hot_paths,
                                      render_waterfall, waterfall_json,
                                      write_flamegraph)


def _canonical(analysis):
    """The journeys and every rollup over them, as one string."""
    return json.dumps(analysis.to_dict(), sort_keys=True) + json.dumps(
        [hot_paths(analysis), flamegraph_lines(analysis, "time"),
         flamegraph_lines(analysis, "energy")])


def _smoke_cluster(workdir):
    """Journeys bit-identical across engines and span sources."""
    registry, trace = reference_workload(num_requests=300)
    digests = {}
    reports = {}
    for engine in ("event", "vector"):
        tracer = Tracer()
        report = run_cluster(registry, trace, engine, tracer=tracer)
        live = analyze(tracer)
        check(len(live) == len(report.records),
              f"{engine}: {len(live)} journeys != "
              f"{len(report.records)} records")
        for journey in live.journeys:
            journey.critical_path(tol=1e-9)  # raises on tiling gaps
        live.reconcile(report, tol=1e-9)

        # The spilled log and the written log must stitch identically.
        spill = os.path.join(workdir, f"spill_{engine}.jsonl")
        with Tracer(max_spans=64, spill_path=spill) as spiller:
            run_cluster(registry, trace, engine, tracer=spiller)
            check(spiller.spilled > 0,
                  f"{engine}: spill cap never triggered")
            check(_canonical(analyze(spiller)) == _canonical(live),
                  f"{engine}: spilled analysis diverges from live")
        log = os.path.join(workdir, f"spans_{engine}.jsonl")
        write_spans_jsonl(tracer, log)
        check(_canonical(analyze(log)) == _canonical(live),
              f"{engine}: JSONL analysis diverges from live")
        digests[engine] = _canonical(live)
        reports[engine] = (tracer, report)

    check(digests["event"] == digests["vector"],
          "event and vector engines stitch different journeys")

    # Per-record cross-check: completions/violations match the report.
    tracer, report = reports["event"]
    run = analyze(tracer)
    for record in report.records:
        journey = run.by_request[record.request.request_id]
        check(journey.completion_ms == record.completion_ms,
              f"journey completion diverges for "
              f"{record.request.request_id}")
        check(journey.violated == (not record.deadline_met),
              f"journey violation flag diverges for "
              f"{record.request.request_id}")
    return digests["event"]


def _smoke_fleet():
    """Fleet journeys: RTT legs, fleet-level tiling, ledger audit."""
    registry, trace = reference_workload(num_requests=300)
    tracer = Tracer()
    report = run_reference_fleet(registry, trace, tracer=tracer)
    run = analyze(tracer)
    check(len(run) == len(report.records),
          f"fleet: {len(run)} journeys != {len(report.records)} "
          "records")
    run.reconcile(report, tol=1e-9)
    by_id = {r.request.request_id: r for r in report.records}
    saw_rtt = False
    for journey in run.journeys:
        journey.critical_path(tol=1e-9)
        record = by_id[journey.request_id]
        check(journey.completion_ms == record.completion_ms,
              f"fleet journey completion diverges for "
              f"{journey.request_id}")
        names = {leg.name for leg in journey.legs}
        if "ingress" in names or "egress" in names:
            saw_rtt = True
    check(saw_rtt, "fleet: no journey carries a network leg")
    return run


def _smoke_irregular():
    """Throttled and EDF-preempted runs: tiling and ledger audit."""
    registry, trace = reference_workload(num_requests=300)
    for leg, kwargs in (("throttle", {"energy_budget_mw": 50.0}),
                        ("preempted", {"policy": "edf"})):
        tracer = Tracer()
        report = ClusterSimulator(registry, num_accelerators=4,
                                  tracer=tracer, **kwargs).run(trace)
        run = analyze(tracer)
        for journey in run.journeys:
            journey.critical_path(tol=1e-9)
        run.reconcile(report, tol=1e-9)
        check(len(run) == len(report.records) and any(
            x.name == leg for j in run.journeys for x in j.legs),
            f"{leg} run: journeys lost or no {leg} leg")


def _smoke_diff():
    """diff_runs: same-trace alignment + JSON round trip."""
    registry, trace = reference_workload(num_requests=300)
    runs = {}
    for policy in ("fifo", "energy"):
        tracer = Tracer()
        sim = ClusterSimulator(registry, num_accelerators=4,
                               policy=policy, tracer=tracer)
        report = sim.run(trace)
        run = analyze(tracer)
        run.reconcile(report, tol=1e-9)
        runs[policy] = (run, report)
    diff = diff_runs(runs["fifo"][0], runs["energy"][0])
    check(diff.requests == len(trace), "diff dropped requests")
    check(not diff.only_a and not diff.only_b,
          "same-trace diff found unmatched requests")
    # The attributed total-joules delta is exactly the ledger delta.
    ledger_delta = (runs["energy"][1].energy.total_mj
                    - runs["fifo"][1].energy.total_mj)
    gap = abs(diff.total_energy_mj["delta"] - ledger_delta)
    check(gap <= 1e-9,
          f"diff joules delta off ledger by {gap:.3e}")
    round_trip = RegressionReport.from_json(diff.to_json())
    check(round_trip.to_json() == diff.to_json(),
          "RegressionReport JSON round trip is lossy")
    return diff


def run_smoke(verbose=True):
    """End-to-end analysis self-check; returns the diff report."""
    with tempfile.TemporaryDirectory(prefix="repro_analysis_") as tmp:
        _smoke_cluster(tmp)
    _smoke_irregular()
    fleet_run = _smoke_fleet()
    diff = _smoke_diff()
    if verbose:
        print(render_hot_paths(fleet_run, limit=8))
        print()
        print(diff.render())
        print()
    return diff


def main(argv=None):
    parser = cli_parser("python -m repro.telemetry.analysis",
                        "Stitch span logs into per-request journeys, "
                        "profiles, and run-to-run diffs",
                        "run the analysis self-check gate")
    parser.add_argument("spans", nargs="?", metavar="SPANS.jsonl",
                        help="JSONL span log to analyze")
    parser.add_argument("--journeys", metavar="OUT.jsonl",
                        help="write stitched journeys as JSONL")
    parser.add_argument("--critical-path", action="store_true",
                        help="print the hot-path table and the worst "
                             "critical paths")
    parser.add_argument("--flame", metavar="OUT.txt",
                        help="write a collapsed-stack flamegraph file")
    parser.add_argument("--flame-weight", default="time",
                        choices=("time", "energy"))
    parser.add_argument("--waterfall", nargs="?", const="__worst__",
                        metavar="RID",
                        help="render one request's waterfall "
                             "(default: the slowest request)")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="diff two span logs of the same trace")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of "
                             "tables")
    parser.add_argument("--top", type=int, default=5,
                        help="critical paths to print (default 5)")
    args = parser.parse_args(argv)
    if args.top < 0:
        parser.error(f"--top must be >= 0, got {args.top}")

    def body():
        if args.smoke:
            run_smoke(verbose=not args.quiet)
        if args.diff:
            diff = diff_runs(analyze(args.diff[0]),
                             analyze(args.diff[1]))
            print(diff.to_json() if args.json else diff.render())
        if args.spans:
            run = analyze(args.spans)
            for journey in run.journeys:
                journey.critical_path(tol=1e-9)
            if args.journeys:
                count = run.to_jsonl(args.journeys)
                if not args.quiet:
                    print(f"wrote {count} journeys to {args.journeys}")
            if args.flame:
                count = write_flamegraph(run, args.flame,
                                         weight=args.flame_weight)
                if not args.quiet:
                    print(f"wrote {count} stacks to {args.flame}")
            if args.critical_path:
                print(render_hot_paths(run))
                worst = sorted(run.journeys,
                               key=lambda j: -j.time_in_system_ms)
                for journey in worst[:args.top]:
                    path = journey.critical_path()
                    if args.json:
                        print(json.dumps(path, sort_keys=True))
                    else:
                        print(f"\n{render_waterfall(journey)}")
            if args.waterfall is not None:
                if args.waterfall == "__worst__":
                    if not run.journeys:
                        raise TelemetryError(
                            "span log holds no journeys to render")
                    journey = max(run.journeys,
                                  key=lambda j: j.time_in_system_ms)
                else:
                    rid = args.waterfall
                    journey = run.by_request.get(rid)
                    if journey is None:
                        try:
                            journey = run.by_request.get(int(rid))
                        except ValueError:
                            pass
                    if journey is None:
                        raise TelemetryError(
                            f"no journey for request {rid!r}")
                print(json.dumps(waterfall_json(journey),
                                 sort_keys=True)
                      if args.json else render_waterfall(journey))
            if not (args.journeys or args.flame or args.critical_path
                    or args.waterfall is not None):
                # Bare span log: the hot-path table is the overview.
                print(render_hot_paths(run))

    return run_cli(parser, args, "trace analysis", body,
                   asked=args.smoke or args.spans or args.diff,
                   usage="SPANS.jsonl, --diff A B, or --smoke")


if __name__ == "__main__":
    sys.exit(main())

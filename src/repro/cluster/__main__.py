"""Cluster drivers: ``--smoke`` self-checks and ``--trace`` replay.

``python -m repro.cluster --smoke`` exercises the whole discrete-event
path — arrival-aware batching, the scheduling policies, multi-
accelerator placement, EDF preemption — with self-checks on
conservation, queueing accounting, determinism, and the scaling claim
(a 4-accelerator affinity cluster beats the single-accelerator FIFO
baseline on both throughput and end-to-end SLO violations). Exits
non-zero on any regression; the cheap CI gate for the cluster stack,
mirroring ``python -m repro.serving``.

``python -m repro.cluster --trace FILE`` replays a measured CSV/JSONL
request log (:mod:`repro.cluster.trace`) through a chosen policy and
pool size and prints the report summary — the experiment driver for
real traffic instead of synthetic Poisson arrivals. ``--oracle`` forces
the scalar per-event loop (the determinism reference for the vectorized
replay engine); ``--gen-trace N --out FILE`` writes a deterministic
diurnal benchmark trace (:func:`repro.cluster.generate_diurnal_trace`).
"""

from __future__ import annotations

import json
import sys

from repro.cluster import (
    ClusterSimulator,
    generate_diurnal_trace,
    load_trace,
    save_trace,
)
from repro.config import GLUE_TASKS
from repro.errors import ClusterError
from repro.serving import Request, synthetic_registry, synthetic_traffic
from repro.smoke import check, cli_parser, run_cli, trace_registry


def _run(registry, trace, **kwargs):
    return ClusterSimulator(registry, **kwargs).run(trace)


def _check_accounting(report, trace):
    check(report.num_requests == len(trace), "request count mismatch")
    served = sorted(rec.request.request_id for rec in report.records)
    check(served == sorted(r.request_id for r in trace),
          "served ids diverge from the trace")
    for rec in report.records:
        check(rec.queueing_delay_ms >= -1e-9,
              f"negative queueing delay on {rec.request.request_id}")
        check(rec.time_in_system_ms >= rec.result.latency_ms - 1e-9,
              "time in system below compute latency")
    breakdown = report.violation_breakdown()
    check(sum(breakdown.values()) == report.num_requests,
          "violation breakdown does not partition the trace")
    check(breakdown["compute"] + breakdown["queueing"]
          == report.deadline_violations, "violation totals disagree")
    util = report.per_accelerator()
    check(all(0.0 <= u["utilization"] <= 1.0 + 1e-9
              for u in util.values()), "utilization out of range")


def _preemption_trace(registry):
    """A crafted trace that must preempt under EDF on one accelerator.

    A large relaxed-deadline ``base`` batch arrives first and occupies
    the accelerator; tight-deadline ``lai`` singles arrive mid-run.
    """
    trace = [Request(request_id=i, task="sst2", sentence=i,
                     target_ms=1000.0, arrival_ms=0.0, mode="base")
             for i in range(32)]
    trace += [Request(request_id=100 + i, task="sst2", sentence=i,
                      target_ms=8.0, arrival_ms=10.0 + i, mode="lai")
              for i in range(4)]
    return trace


def run_smoke(num_requests=400, n_sentences=64, seed=0, verbose=True):
    """End-to-end cluster pass with self-checks; returns the summaries."""
    registry = synthetic_registry(GLUE_TASKS, n=n_sentences, seed=seed)
    trace = synthetic_traffic(registry, num_requests, seed=seed,
                              mean_interarrival_ms=1.0)

    summaries = {}
    for policy, pool in (("fifo", 1), ("fifo", 4), ("affinity", 4)):
        report = _run(registry, trace, num_accelerators=pool,
                      policy=policy)
        _check_accounting(report, trace)
        summaries[f"{policy}x{pool}"] = report.summary()

    # EDF runs on mixed-criticality traffic (per-request mode overrides
    # drawn by the trace generator) — the workload it exists to reorder.
    mixed = synthetic_traffic(registry, num_requests, seed=seed + 1,
                              mean_interarrival_ms=1.0,
                              modes=("base", "lai"))
    check(any(r.mode == "base" for r in mixed)
          and any(r.mode == "lai" for r in mixed),
          "mode mix missing from the generated trace")
    edf_mixed = _run(registry, mixed, num_accelerators=2, policy="edf")
    _check_accounting(edf_mixed, mixed)
    summaries["edfx2"] = edf_mixed.summary()

    # Determinism: the same trace, pool and policy replay identically.
    again = _run(registry, trace, num_accelerators=4, policy="affinity")
    check(json.dumps(again.summary(), sort_keys=True)
          == json.dumps(summaries["affinityx4"], sort_keys=True),
          "simulation is not deterministic")

    # The scaling claim: 4 accelerators with affinity routing beat the
    # single-accelerator FIFO baseline on throughput AND SLO violations.
    base, scaled = summaries["fifox1"], summaries["affinityx4"]
    check(scaled["throughput_rps"] > base["throughput_rps"],
          "4-accelerator affinity throughput does not beat 1x FIFO")
    check(scaled["deadline_violations"] < base["deadline_violations"],
          "4-accelerator affinity violations not below 1x FIFO")
    # Affinity routing exists to save swaps relative to FIFO at equal pool.
    check(summaries["affinityx4"]["task_switches"]
          <= summaries["fifox4"]["task_switches"],
          "affinity routing pays more swaps than FIFO")

    # EDF must actually preempt on the crafted mixed-criticality trace.
    edf = _run(registry, _preemption_trace(registry), num_accelerators=1,
               policy="edf", max_batch_size=32, batch_timeout_ms=2.0)
    check(edf.preemptions > 0, "EDF never preempted the base batch")
    summaries["edf_preemption"] = edf.summary()

    if verbose:
        print(json.dumps(summaries, indent=2, sort_keys=True))
    return summaries


def run_trace(path, policy="fifo", num_accelerators=4, seed=0,
              mode="lai", vectorized=True, verbose=True):
    """Replay a trace file through the simulator; returns the summary.

    The registry is synthesized over the GLUE task set with enough
    sentences per task to cover every index the trace references (real
    deployments would register trained artifacts instead).
    ``vectorized=False`` (``--oracle``) prices with the scalar kernels,
    so the replay runs the per-event loop — the determinism reference
    the vectorized engine is tested against — and the summary's
    ``engine_fallback_reason`` names the scalar kernels.
    """
    trace = load_trace(path)
    registry = trace_registry(trace, seed, ClusterError)
    report = ClusterSimulator(registry, num_accelerators=num_accelerators,
                              policy=policy, mode=mode,
                              vectorized=vectorized).run(trace)
    summary = report.summary()
    summary["engine"] = report.engine
    if report.engine_fallback_reason is not None:
        summary["engine_fallback_reason"] = report.engine_fallback_reason
    if verbose:
        print(json.dumps(summary, indent=2, sort_keys=True))
    return summary


def run_gen_trace(num_requests, out, seed=0, verbose=True):
    """Write a deterministic diurnal trace; returns ``out``.

    The format follows ``out``'s extension (CSV or JSON Lines), the
    rule the loaders read it back by.
    """
    trace = generate_diurnal_trace(num_requests, seed=seed)
    save_trace(trace, out)
    if verbose:
        span_s = trace[-1].arrival_ms * 1e-3 if trace else 0.0
        print(f"wrote {len(trace)} requests spanning "
              f"{span_s:.1f} s to {out}")
    return out


def main(argv=None):
    parser = cli_parser(
        "python -m repro.cluster",
        "EdgeBERT multi-accelerator cluster simulator driver",
        "run the self-checking cluster smoke pass")
    parser.add_argument("--trace", metavar="FILE",
                        help="replay a CSV/JSONL request log")
    parser.add_argument("--oracle", action="store_true",
                        help="force the scalar per-event loop for "
                        "--trace replay (the determinism oracle)")
    parser.add_argument("--gen-trace", type=int, metavar="N",
                        help="write an N-request diurnal benchmark "
                        "trace (CSV or JSONL, by --out's extension)")
    parser.add_argument("--out", metavar="FILE",
                        help="output path for --gen-trace "
                        "(default trace_N.jsonl)")
    parser.add_argument("--policy", default="fifo",
                        help="scheduling policy for --trace replay")
    parser.add_argument("--accelerators", type=int, default=4,
                        help="pool size for --trace replay")
    parser.add_argument("--mode", default="lai",
                        help="default execution mode for --trace replay")
    parser.add_argument("--requests", type=int, default=400,
                        help="trace length for the smoke pass")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    def body():
        if args.smoke:
            run_smoke(num_requests=args.requests, seed=args.seed,
                      verbose=not args.quiet)
        if args.gen_trace is not None:
            out = args.out or f"trace_{args.gen_trace}.jsonl"
            run_gen_trace(args.gen_trace, out, seed=args.seed,
                          verbose=not args.quiet)
        if args.trace:
            run_trace(args.trace, policy=args.policy,
                      num_accelerators=args.accelerators, seed=args.seed,
                      mode=args.mode,
                      vectorized=not args.oracle,
                      verbose=not args.quiet)

    return run_cli(parser, args, "cluster", body,
                   asked=(args.smoke or args.trace
                          or args.gen_trace is not None),
                   usage="--smoke, --trace FILE or --gen-trace N")


if __name__ == "__main__":
    sys.exit(main())

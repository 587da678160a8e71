"""Serving smoke target: ``python -m repro.serving --smoke``.

One command that exercises the whole serving path — synthetic four-task
traffic through the scheduler and server on the vectorized kernels, with
a scalar-oracle cross-check — and exits non-zero on any regression.
Intended as the cheap CI gate for the serving/engine stack.
"""

from __future__ import annotations

import json
import sys

from repro.config import GLUE_TASKS
from repro.serving import Server, synthetic_registry, synthetic_traffic
from repro.smoke import check, cli_parser, run_cli


def run_smoke(num_requests=200, n_sentences=128, seed=0, verbose=True):
    """End-to-end pass + vectorized-vs-scalar cross-check.

    Returns the vectorized run's :class:`~repro.serving.ServingReport`;
    raises on any mismatch or accounting inconsistency.
    """
    registry = synthetic_registry(GLUE_TASKS, n=n_sentences, seed=seed)
    trace = synthetic_traffic(registry, num_requests, seed=seed)

    reports = {}
    for vectorized in (True, False):
        server = Server(registry, mode="lai", vectorized=vectorized)
        server.submit_many(trace)
        reports[vectorized] = server.run()

    fast, slow = reports[True], reports[False]
    check(fast.num_requests == slow.num_requests == num_requests,
          "request count mismatch")
    for a, b in zip(fast.results, slow.results):
        check(a.request.request_id == b.request.request_id,
              "result ordering diverged")
        for name in ("exit_layer", "predicted_layer", "prediction",
                     "met_target"):
            check(getattr(a.result, name) == getattr(b.result, name),
                  f"{name} mismatch on request {a.request.request_id}")
        for name in ("latency_ms", "energy_mj", "vdd", "freq_ghz"):
            delta = abs(getattr(a.result, name) - getattr(b.result, name))
            check(delta <= 1e-9,
                  f"{name} off by {delta} on request "
                  f"{a.request.request_id}")
    check(fast.task_switches <= len(GLUE_TASKS), "excess task switches")
    check(fast.total_energy_mj > 0 and fast.simulated_time_ms > 0,
          "degenerate accounting totals")

    if verbose:
        summary = fast.summary()
        summary["scalar_pricing_sentences_per_s"] = \
            slow.pricing_sentences_per_s
        print(json.dumps(summary, indent=2, sort_keys=True))
    return fast


def main(argv=None):
    parser = cli_parser("python -m repro.serving",
                        "EdgeBERT multi-task serving driver",
                        "run the self-checking serving smoke pass")
    parser.add_argument("--requests", type=int, default=200,
                        help="trace length for the smoke pass")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    return run_cli(parser, args, "serving", lambda: run_smoke(
        num_requests=args.requests, seed=args.seed, verbose=not args.quiet))


if __name__ == "__main__":
    sys.exit(main())

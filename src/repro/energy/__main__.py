"""Energy smoke target: ``python -m repro.energy --smoke``.

One command that exercises the whole energy subsystem — heterogeneous
per-device pricing, the parked-point device ledgers, the
:class:`~repro.energy.EnergyGovernor` placement policy, and the
rolling-window energy budget — with self-checks:

* **accounting** — every per-accelerator breakdown sums to the cluster
  total within 1e-9, and the compute/swap columns reconcile with the
  serving-layer aggregates within 1e-9;
* **the headline claim** — on the reference mixed-SLO workload over a
  4-device heterogeneous pool, the governor serves the same trace with
  *less total energy* (compute + swap + idle + transition) than FIFO
  at no more SLO violations;
* **budget throttling** — a tight joules/sec cap must actually throttle
  (stall events, longer makespan) and recover (every request still
  served);
* **determinism** — the governor replays bit-for-bit.

Exits non-zero on any regression; the cheap CI gate for the energy
stack, mirroring ``python -m repro.serving`` and ``repro.cluster``.
"""

from __future__ import annotations

import json
import sys

from repro.cluster import ClusterSimulator
from repro.smoke import (check, cli_parser, reference_pool,
                         reference_workload, run_cli)


def _check_energy_accounting(report):
    energy = report.energy
    total = energy.total_mj
    by_column = (energy.compute_mj + energy.swap_mj + energy.idle_mj
                 + energy.transition_mj)
    check(abs(total - by_column) <= 1e-9,
          "column totals do not sum to the cluster total")
    by_device = sum(d.total_mj for d in energy.devices)
    check(abs(total - by_device) <= 1e-9,
          "per-accelerator breakdowns do not sum to the cluster total")
    for device in energy.devices:
        check(min(device.compute_mj, device.swap_mj, device.idle_mj,
                  device.transition_mj) >= 0.0,
              f"negative energy column on accelerator {device.accel_id}")
    energy.reconcile(report.serving, tol=1e-9)
    per_class = energy.per_class
    check(sum(c["requests"] for c in per_class.values())
          == report.num_requests,
          "per-class request counts do not partition the trace")
    check(all(c["mj_per_request"] > 0 for c in per_class.values()),
          "non-positive per-request energy in a class")


def run_smoke(num_requests=400, n_sentences=64, seed=0, verbose=True):
    """End-to-end energy pass with self-checks; returns the summaries."""
    registry, trace = reference_workload(num_requests, n_sentences, seed)
    pool = reference_pool()

    summaries = {}
    reports = {}
    for policy in ("fifo", "energy"):
        report = ClusterSimulator(registry, policy=policy,
                                  hw_configs=pool).run(trace)
        _check_energy_accounting(report)
        reports[policy] = report
        summaries[policy] = report.summary()

    # The headline claim: the governor spends no more joules than FIFO
    # on the same heterogeneous pool at no more SLO violations.
    fifo, gov = reports["fifo"], reports["energy"]
    check(gov.energy.total_mj < fifo.energy.total_mj,
          f"governor energy {gov.energy.total_mj:.6f} mJ not below "
          f"fifo {fifo.energy.total_mj:.6f} mJ")
    check(gov.deadline_violations <= fifo.deadline_violations,
          f"governor SLO violations {gov.deadline_violations} exceed "
          f"fifo {fifo.deadline_violations}")

    # Heterogeneity is real: the per-device profile variants must make
    # the same sentences cost different latency AND energy on the n=32
    # vs n=8 devices — gating the profile_for/with_hw_config plumbing,
    # not just the pool constant.
    task = registry.tasks[0]
    big = registry.profile_for(task, pool[0])
    small = registry.profile_for(task, pool[-1])
    priced = {
        name: profile.engine.simulate_dataset(
            "base", profile.logits[:, :4], profile.entropies[:, :4])
        for name, profile in (("big", big), ("small", small))
    }
    check(priced["big"].total_latency_ms
          < priced["small"].total_latency_ms - 1e-9,
          "n=32 device does not price faster than n=8")
    check(abs(priced["big"].total_energy_mj
              - priced["small"].total_energy_mj) > 1e-9,
          "per-device pricing collapsed to identical energy")

    # Budget throttling: cap the cluster at half the governor's average
    # power; the run must stall at least once, stretch the makespan,
    # and still serve every request (recovery).
    avg_power_mw = gov.energy.total_mj / gov.makespan_ms * 1e3
    budget = ClusterSimulator(
        registry, policy="energy", hw_configs=pool,
        energy_budget_mw=avg_power_mw * 0.5,
        budget_window_ms=50.0).run(trace)
    _check_energy_accounting(budget)
    check(budget.budget is not None, "budget stats missing")
    check(budget.budget.throttle_events > 0,
          "tight energy budget never throttled admission")
    check(budget.budget.throttled_ms > 0, "throttle stalls took no time")
    check(budget.num_requests == len(trace),
          "budgeted run failed to serve the whole trace")
    check(budget.makespan_ms > gov.makespan_ms,
          "throttling did not stretch the makespan")
    summaries["energy_budgeted"] = budget.summary()

    # A generous budget must be invisible: no stalls, same placements.
    roomy = ClusterSimulator(
        registry, policy="energy", hw_configs=pool,
        energy_budget_mw=avg_power_mw * 50.0).run(trace)
    check(roomy.budget.throttle_events == 0,
          "a 50x budget still throttled")
    check(roomy.energy.total_mj == gov.energy.total_mj,
          "a never-binding budget changed the schedule")

    # Determinism: the governor replays bit-for-bit.
    again = ClusterSimulator(registry, policy="energy",
                             hw_configs=pool).run(trace).summary()
    for record in (again, summaries["energy"]):
        record.pop("wall_seconds", None)
    check(json.dumps(again, sort_keys=True)
          == json.dumps(summaries["energy"], sort_keys=True),
          "governor simulation is not deterministic")

    if verbose:
        print(json.dumps(summaries, indent=2, sort_keys=True))
    return summaries


def main(argv=None):
    parser = cli_parser("python -m repro.energy",
                        "EdgeBERT energy governor / budget smoke driver",
                        "run the self-checking energy smoke pass")
    parser.add_argument("--requests", type=int, default=400,
                        help="trace length for the smoke pass")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    return run_cli(parser, args, "energy", lambda: run_smoke(
        num_requests=args.requests, seed=args.seed, verbose=not args.quiet))


if __name__ == "__main__":
    sys.exit(main())

"""Energy-policy bench: joules vs SLO across cluster placement policies.

Plays the reference mixed-SLO, mixed-criticality workload (400 requests,
four GLUE tasks, base+lai modes) through the discrete-event simulator on
the reference 4-device heterogeneous pool (mac vector sizes 32/16/16/8)
under FIFO, affinity, EDF and the :class:`~repro.energy.EnergyGovernor`,
recording total cluster energy with its compute/swap/idle/transition
breakdown, SLO violations, preemptions and makespan per policy in
``benchmarks/results/energy_policies.json``.

A second sweep replays the **anonymized bursty reference trace**
(``benchmarks/traces/reference_bursty.jsonl``, loaded through
:func:`repro.cluster.load_trace`): a diurnal-ish sinusoidal rate with
three superimposed bursts, so the policies are also gated on a
measured-shaped — not Poisson — arrival pattern.

Gates (fail the bench before any reporting does):

* the energy-aware governor uses **no more total joules than FIFO** at
  an **equal-or-better SLO violation count** on the reference workload
  (the ISSUE-3 acceptance criterion) *and* on the bursty trace replay;
* every policy's per-accelerator energy breakdowns sum to its cluster
  total within 1e-9 and reconcile with the serving aggregates;
* every policy serves the whole trace.

Run:  pytest benchmarks/bench_energy_policies.py -s
 or:  python benchmarks/bench_energy_policies.py
"""

import os
import sys

from conftest import RESULTS_DIR, require, run_bench
from repro.cluster import ClusterSimulator, load_trace
from repro.smoke import reference_pool, reference_workload
from repro.utils import format_table

NUM_REQUESTS = 400
N_SENTENCES = 64
POLICIES = ("fifo", "affinity", "edf", "energy")
BURSTY_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "traces", "reference_bursty.jsonl")


def _sweep_policies(registry, trace, pool, label):
    """Run every policy on one trace with the accounting gates."""
    rows = []
    for policy in POLICIES:
        report = ClusterSimulator(registry, policy=policy,
                                  hw_configs=pool).run(trace)
        energy = report.energy
        require(report.num_requests == len(trace),
                f"{policy} failed to serve the whole {label} trace")
        require(abs(energy.total_mj
                    - sum(d.total_mj for d in energy.devices)) <= 1e-9,
                f"{policy} per-device energy does not sum to the total")
        energy.reconcile(report.serving, tol=1e-9)
        rows.append({
            "policy": policy,
            "total_energy_mj": energy.total_mj,
            "compute_mj": energy.compute_mj,
            "swap_mj": energy.swap_mj,
            "idle_mj": energy.idle_mj,
            "transition_mj": energy.transition_mj,
            "deadline_violations": report.deadline_violations,
            "task_switches": report.serving.task_switches,
            "preemptions": report.preemptions,
            "makespan_ms": report.makespan_ms,
            "mean_queueing_delay_ms": report.mean_queueing_delay_ms,
            "wall_seconds": report.wall_seconds,
        })
    return rows


def run_benchmark(num_requests=NUM_REQUESTS, seed=0):
    """Sweep the policies on one trace; returns the JSON record."""
    registry, trace = reference_workload(num_requests=num_requests,
                                         n_sentences=N_SENTENCES,
                                         seed=seed)
    pool = reference_pool()
    bursty = load_trace(BURSTY_TRACE)
    return {
        "num_requests": num_requests,
        "pool_mac_vector_sizes": [hw.mac_vector_size for hw in pool],
        "rows": _sweep_policies(registry, trace, pool, "poisson"),
        "bursty_trace": os.path.relpath(BURSTY_TRACE,
                                        os.path.dirname(RESULTS_DIR)),
        "bursty_requests": len(bursty),
        "bursty_rows": _sweep_policies(registry, bursty, pool, "bursty"),
    }


def _row_for(record, policy, key="rows"):
    for row in record[key]:
        if row["policy"] == policy:
            return row
    raise AssertionError(f"no {key} row for policy {policy!r}")


def _check_gates(record):
    for key, label in (("rows", "poisson"), ("bursty_rows", "bursty")):
        fifo = _row_for(record, "fifo", key)
        governor = _row_for(record, "energy", key)
        require(governor["total_energy_mj"] <= fifo["total_energy_mj"],
                f"energy policy burns more joules than FIFO ({label}): "
                f"{governor['total_energy_mj']:.6f} vs "
                f"{fifo['total_energy_mj']:.6f} mJ")
        require(governor["deadline_violations"]
                <= fifo["deadline_violations"],
                f"energy policy misses more SLOs than FIFO ({label}): "
                f"{governor['deadline_violations']} vs "
                f"{fifo['deadline_violations']}")


def _build_table(record):
    sizes = "/".join(str(n) for n in record["pool_mac_vector_sizes"])
    tables = []
    for key, title in (
            ("rows", f"Energy policies — {record['num_requests']} "
                     f"Poisson requests on a heterogeneous n={sizes} "
                     "pool"),
            ("bursty_rows", f"Energy policies — bursty reference trace "
                            f"({record['bursty_requests']} requests, "
                            f"{record['bursty_trace']})")):
        rows = [
            [row["policy"], f"{row['total_energy_mj']:.4f}",
             f"{row['compute_mj']:.4f}", f"{row['swap_mj']:.4f}",
             f"{row['idle_mj']:.4f}", str(row["deadline_violations"]),
             str(row["task_switches"]), f"{row['makespan_ms']:.0f}"]
            for row in record[key]
        ]
        tables.append(format_table(
            ["Policy", "Total (mJ)", "Compute", "Swap", "Idle",
             "SLO miss", "Swaps", "Makespan (ms)"],
            rows, title=title))
    return "\n\n".join(tables)


def test_energy_policies():
    run_bench(sys.modules[__name__])


if __name__ == "__main__":
    test_energy_policies()

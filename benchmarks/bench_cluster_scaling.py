"""Cluster scaling bench: throughput and tail queueing vs. pool size.

Plays one saturating synthetic trace (≈1 request/ms, ~3x a single
accelerator's sustained rate) through the discrete-event simulator at
pool sizes 1/2/4/8 under FIFO and affinity routing, and records
simulated throughput, p95 queueing delay and end-to-end SLO violations
per configuration in ``benchmarks/results/cluster_scaling.json``.

Gates (fail the bench before any reporting does):

* throughput scales strictly monotonically from 1 -> 2 -> 4 accelerators
  under affinity routing (the ISSUE-2 acceptance criterion);
* the 4-accelerator affinity cluster beats the single-accelerator FIFO
  baseline on both throughput and SLO violations;
* p95 queueing delay is non-increasing in pool size.

Run:  pytest benchmarks/bench_cluster_scaling.py -s
 or:  python benchmarks/bench_cluster_scaling.py
"""

import sys

from conftest import require, run_bench
from repro.cluster import ClusterSimulator
from repro.config import GLUE_TASKS
from repro.serving import synthetic_registry, synthetic_traffic
from repro.utils import format_table

NUM_REQUESTS = 600
N_SENTENCES = 128
MEAN_INTERARRIVAL_MS = 1.0
POOL_SIZES = (1, 2, 4, 8)
POLICIES = ("fifo", "affinity")


def run_benchmark(num_requests=NUM_REQUESTS, seed=0):
    """Sweep pool sizes x policies; returns the JSON record."""
    registry = synthetic_registry(GLUE_TASKS, n=N_SENTENCES, seed=seed)
    trace = synthetic_traffic(registry, num_requests, seed=seed,
                              mean_interarrival_ms=MEAN_INTERARRIVAL_MS)
    rows = []
    for policy in POLICIES:
        for pool in POOL_SIZES:
            report = ClusterSimulator(
                registry, num_accelerators=pool, policy=policy).run(trace)
            rows.append({
                "policy": policy,
                "num_accelerators": pool,
                "throughput_rps": report.throughput_rps,
                "mean_queueing_delay_ms": report.mean_queueing_delay_ms,
                "p95_queueing_delay_ms": report.p95_queueing_delay_ms,
                "deadline_violations": report.deadline_violations,
                "task_switches": report.serving.task_switches,
                "makespan_ms": report.makespan_ms,
                "wall_seconds": report.wall_seconds,
            })
    return {
        "num_requests": num_requests,
        "mean_interarrival_ms": MEAN_INTERARRIVAL_MS,
        "pool_sizes": list(POOL_SIZES),
        "rows": rows,
    }


def _rows_for(record, policy):
    return {row["num_accelerators"]: row for row in record["rows"]
            if row["policy"] == policy}


def _check_gates(record):
    affinity = _rows_for(record, "affinity")
    fifo = _rows_for(record, "fifo")
    # Monotone throughput scaling 1 -> 2 -> 4 (acceptance criterion).
    thr = [affinity[p]["throughput_rps"] for p in (1, 2, 4)]
    require(thr[0] < thr[1] < thr[2],
            f"affinity throughput not monotone 1->2->4: {thr}")
    # 4x affinity beats 1x FIFO on throughput and violations.
    require(affinity[4]["throughput_rps"] > fifo[1]["throughput_rps"],
            "4x affinity throughput does not beat 1x FIFO")
    require(affinity[4]["deadline_violations"]
            < fifo[1]["deadline_violations"],
            "4x affinity violations not below 1x FIFO")
    # Tail queueing never grows with the pool.
    for policy, rows in (("affinity", affinity), ("fifo", fifo)):
        p95 = [rows[p]["p95_queueing_delay_ms"] for p in POOL_SIZES]
        require(all(a >= b - 1e-9 for a, b in zip(p95, p95[1:])),
                f"{policy} p95 queueing delay grew with pool size: {p95}")


def _build_table(record):
    rows = [
        [row["policy"], str(row["num_accelerators"]),
         f"{row['throughput_rps']:,.0f}",
         f"{row['p95_queueing_delay_ms']:.2f}",
         str(row["deadline_violations"]), str(row["task_switches"])]
        for row in record["rows"]
    ]
    return format_table(
        ["Policy", "Accels", "Thr (req/s)", "p95 qd (ms)", "SLO miss",
         "Swaps"],
        rows,
        title=f"Cluster scaling — {record['num_requests']} requests, "
              f"1/{record['mean_interarrival_ms']:.0f} ms arrivals")


def test_cluster_scaling():
    run_bench(sys.modules[__name__])


if __name__ == "__main__":
    test_cluster_scaling()

"""Deadline-budget DVFS bench: batch planning vs per-sentence planning.

Two views of the same question — what does planning a whole batch
against its SLO deadline buy over planning every sentence independently?

* **Engine level**: one relaxed batch per SLO class, priced by
  :func:`~repro.core.engine.price_latency_aware_batch` (per-sentence)
  and :func:`~repro.core.engine.price_latency_aware_deadline_columns`
  (deadline budget derived the serving way, from the members'
  ``Request.deadline_ms``). This is the controlled before/after joules
  table the README quotes.
* **Cluster level**: the bursty reference trace replayed through the
  discrete-event simulator with and without ``deadline_aware=True``
  (same FIFO policy, same pool), comparing the lai traffic's priced
  compute energy and the end-to-end SLO violation count.
* **Pricing cost**: microseconds per ``price_batch(..., deadline_ms=...)``
  call for 1-, 2-, 8- and 32-sentence batches at two budgets — 4x the
  zero-slack plan's ``planned_ns`` (relaxed: the lowest shared level
  fits) and 0.99x of it (tight: both sweeps fail and the planner falls
  back to the per-sentence plan); and for 32- and 256-sentence batches
  at a 2 ms per-sentence target, a budget between the level-0 and the
  next coupled total (slower level: the planner keeps a level above the
  floor and sweeps the leftover-slack prefixes).

Gates (fail before any reporting):

* the deadline planner uses **strictly fewer joules** than per-sentence
  planning on every relaxed SLO class, at **zero additional SLO
  violations** (engine and cluster level);
* the **zero-slack path reproduces per-sentence pricing to 1e-9**;
* a tight batch costs **at most 4x** the relaxed batch of the same size
  (a ratio on one host, so it holds whatever the host's speed).

Run:  pytest benchmarks/bench_batch_dvfs.py -s
 or:  python benchmarks/bench_batch_dvfs.py
"""

import os
import sys
import time

import numpy as np

from conftest import require, run_bench
from repro.cluster import ClusterSimulator, load_trace
from repro.core.engine import (
    lai_exit_columns,
    price_latency_aware_batch,
    price_latency_aware_deadline_columns,
)
from repro.dvfs import DeadlineBudget
from repro.serving import Batch, Request, batch_deadline_ms, price_batch
from repro.smoke import reference_pool, reference_workload
from repro.utils import format_table

#: SLO classes priced at the engine level: (label, per-sentence target).
SLO_CLASSES = (("tight", 2.0), ("mid", 5.0), ("relaxed", 50.0),
               ("very-relaxed", 100.0))
# Eight sentences: big enough to amortize the batch rail, small enough
# that the relaxed classes' deadline budgets still cover the planner's
# conservative predicted-layer schedule (the plan reserves predicted
# work; actual exits only come earlier).
BATCH_SIZE = 8
BURSTY_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "traces", "reference_bursty.jsonl")
#: Batch sizes whose deadline pricing is timed, and the budgets as
#: multiples of each batch's zero-slack ``planned_ns``.
TIMED_SIZES = (1, 2, 8, 32)
RELAXED_FACTOR = 4.0
TIGHT_FACTOR = 0.99
#: The host-independent cost gate: tight over relaxed, same batch.
TIGHT_OVER_RELAXED_MAX = 4.0
#: Batch sizes timed at a slower-level budget, and their per-sentence
#: target: tight enough that per-sentence rows sit above the table
#: floor, so a level above 0 exists to keep.
LEVEL_SIZES = (32, 256)
LEVEL_TARGET_MS = 2.0


def _engine_sweep(registry):
    """Per-sentence vs deadline pricing for one batch per SLO class."""
    task = registry.tasks[0]
    profile = registry.profile(task)
    tables = profile.engine.pricing_tables()
    entropies = profile.entropies[:, :BATCH_SIZE]
    columns = lai_exit_columns(tables, entropies, profile.lut,
                               profile.entropy_threshold, deadline=True)

    rows = []
    for label, target_ms in SLO_CLASSES:
        batch = Batch(task=task, target_ms=target_ms, requests=tuple(
            Request(request_id=i, task=task, sentence=i,
                    target_ms=target_ms, arrival_ms=i * 0.25)
            for i in range(BATCH_SIZE)))
        deadline_ms = batch_deadline_ms(batch)
        per = price_latency_aware_batch(
            tables, profile.engine.dvfs, entropies, profile.lut,
            profile.entropy_threshold, target_ms)
        dead = price_latency_aware_deadline_columns(
            tables, profile.engine.dvfs, columns, target_ms, deadline_ms)
        rows.append({
            "slo_class": label,
            "target_ms": target_ms,
            "deadline_budget_ms": deadline_ms,
            "per_sentence_mj": float(per["energy_mj"].sum()),
            "deadline_mj": float(dead["energy_mj"].sum()),
            "per_sentence_latency_ms": float(per["latency_ms"].sum()),
            "deadline_latency_ms": float(dead["latency_ms"].sum()),
            "per_sentence_violations": int((~per["met_target"]).sum()),
            "deadline_violations": int((~dead["met_target"]).sum()),
            "deadline_avg_vdd": float(dead["vdd"].mean()),
            "per_sentence_avg_vdd": float(per["vdd"].mean()),
        })

    # The 1e-9 acceptance gate: a zero budget is per-sentence pricing.
    per = price_latency_aware_batch(
        tables, profile.engine.dvfs, entropies, profile.lut,
        profile.entropy_threshold, 50.0)
    zero = price_latency_aware_deadline_columns(
        tables, profile.engine.dvfs, columns, 50.0, 0.0)
    drift = max(
        float(np.max(np.abs(np.asarray(zero[key], dtype=np.float64)
                            - np.asarray(per[key], dtype=np.float64))))
        for key in per)
    return rows, drift


def _cluster_sweep(registry, pool):
    """The bursty trace with and without deadline-aware dispatch."""
    trace = load_trace(BURSTY_TRACE)
    out = {}
    for label, deadline_aware in (("per_sentence", False),
                                  ("deadline", True)):
        report = ClusterSimulator(registry, policy="fifo",
                                  hw_configs=pool,
                                  deadline_aware=deadline_aware).run(trace)
        require(report.num_requests == len(trace),
                f"{label} run failed to serve the whole trace")
        report.energy.reconcile(report.serving, tol=1e-9)
        lai = [rec for rec in report.records if rec.request.mode == "lai"]
        out[label] = {
            "total_energy_mj": report.energy.total_mj,
            "lai_requests": len(lai),
            "lai_compute_mj": float(sum(rec.result.energy_mj
                                        for rec in lai)),
            "deadline_violations": report.deadline_violations,
            "makespan_ms": report.makespan_ms,
        }
    return out


def _per_call_us(*calls, repeat=100, rounds=7):
    """Best-of-``rounds`` mean wall time of each call, in microseconds.

    Rounds interleave the calls, so a busy spell on a shared host slows
    each of them alike instead of skewing their ratio.
    """
    for call in calls:
        call()  # warm: the profile's exit columns are built once
    best = [float("inf")] * len(calls)
    for _ in range(rounds):
        for i, call in enumerate(calls):
            started = time.perf_counter()
            for _ in range(repeat):
                call()
            best[i] = min(best[i], (time.perf_counter() - started) / repeat)
    return [seconds * 1e6 for seconds in best]


def _planner(profile, size, target_ms):
    """A ``size``-sentence batch and the plan price_batch makes for it."""
    task = profile.task
    engine = profile.engine
    tables = engine.pricing_tables()
    columns = profile.deadline_columns()
    batch = Batch(task=task, target_ms=target_ms, requests=tuple(
        Request(request_id=i, task=task,
                sentence=i % profile.num_sentences, target_ms=target_ms)
        for i in range(size)))
    idx = batch.sentence_indices

    def plan(deadline_ms):
        return engine.dvfs.plan_batch_deadline(
            columns["remaining"][idx],
            DeadlineBudget.from_ms(deadline_ms, target_ms),
            tables.embed_time_ns + tables.layer_time_ns,
            rail_layer_ns=columns["layer_ns"][idx],
            rail_front_ns=tables.rail_front_time_ns)

    return batch, plan


def _timing_sweep(registry):
    """µs per deadline-priced batch, relaxed vs tight, per batch size."""
    profile = registry.profile(registry.tasks[0])
    rows = []
    for size in TIMED_SIZES:
        batch, plan = _planner(profile, size, 50.0)
        planned_ms = plan(0.0).planned_ns * 1e-6
        relaxed_ms = RELAXED_FACTOR * planned_ms
        tight_ms = TIGHT_FACTOR * planned_ms
        require(not plan(relaxed_ms).fallback,
                f"{size}-sentence relaxed budget fell back")
        require(plan(tight_ms).fallback,
                f"{size}-sentence tight budget found a feasible sweep")
        relaxed_us, tight_us = _per_call_us(
            lambda: price_batch(profile, batch, "lai",
                                deadline_ms=relaxed_ms),
            lambda: price_batch(profile, batch, "lai",
                                deadline_ms=tight_ms))
        rows.append({
            "batch_size": size,
            "zero_slack_planned_ms": planned_ms,
            "relaxed_us": relaxed_us,
            "tight_us": tight_us,
            "tight_over_relaxed": tight_us / relaxed_us,
        })
    return rows


def _level_sweep(registry):
    """µs per deadline-priced batch whose plan keeps a slower level.

    The budget sits halfway between the level-0 coupled total and the
    plan just below it, so level 0 overruns, a coupled level above it
    fits, and the planner sweeps the leftover-slack prefixes.
    """
    profile = registry.profile(registry.tasks[0])
    rows = []
    for size in LEVEL_SIZES:
        batch, plan = _planner(profile, size, LEVEL_TARGET_MS)
        floor_ns = plan(1e9).planned_ns
        below_ns = plan(floor_ns * (1.0 - 1e-12) * 1e-6).planned_ns
        level_ms = 0.5 * (floor_ns + below_ns) * 1e-6
        level = plan(level_ms)
        require(not level.fallback and level.planned_ns < floor_ns
                and np.array_equal(level.front_index[1:],
                                   level.table_index[1:]),
                f"{size}-sentence budget did not keep a slower level")
        level_us, = _per_call_us(
            lambda: price_batch(profile, batch, "lai",
                                deadline_ms=level_ms),
            repeat=20, rounds=5)
        rows.append({"batch_size": size, "target_ms": LEVEL_TARGET_MS,
                     "deadline_ms": level_ms, "level_us": level_us})
    return rows


def run_benchmark(seed=0):
    registry, _ = reference_workload(num_requests=10, n_sentences=64,
                                     seed=seed)
    engine_rows, zero_slack_drift = _engine_sweep(registry)
    cluster = _cluster_sweep(registry, reference_pool())
    return {
        "batch_size": BATCH_SIZE,
        "engine_rows": engine_rows,
        "zero_slack_max_drift": zero_slack_drift,
        "cluster": cluster,
        "pricing_us": _timing_sweep(registry),
        "level_pricing_us": _level_sweep(registry),
    }


def _check_gates(record):
    require(record["zero_slack_max_drift"] <= 1e-9,
            "zero-slack path drifts from per-sentence pricing by "
            f"{record['zero_slack_max_drift']:.3e}")
    for row in record["engine_rows"]:
        require(row["deadline_violations"]
                <= row["per_sentence_violations"],
                f"{row['slo_class']}: deadline planning added SLO "
                "violations")
        if row["slo_class"] in ("relaxed", "very-relaxed"):
            require(row["deadline_mj"]
                    < row["per_sentence_mj"] - 1e-12,
                    f"{row['slo_class']}: deadline planning is not "
                    "strictly cheaper: "
                    f"{row['deadline_mj']:.6f} vs "
                    f"{row['per_sentence_mj']:.6f} mJ")
        require(row["deadline_mj"] <= row["per_sentence_mj"] + 1e-12,
                f"{row['slo_class']}: deadline planning costs more")
    cluster = record["cluster"]
    per, dead = cluster["per_sentence"], cluster["deadline"]
    require(dead["deadline_violations"] <= per["deadline_violations"],
            "deadline-aware dispatch added cluster SLO violations: "
            f"{dead['deadline_violations']} vs "
            f"{per['deadline_violations']}")
    require(dead["lai_compute_mj"] < per["lai_compute_mj"] - 1e-9,
            "deadline-aware dispatch did not cut lai compute energy: "
            f"{dead['lai_compute_mj']:.6f} vs "
            f"{per['lai_compute_mj']:.6f} mJ")
    for row in record["pricing_us"]:
        require(row["tight_over_relaxed"] <= TIGHT_OVER_RELAXED_MAX,
                f"{row['batch_size']}-sentence tight deadline batch "
                f"costs {row['tight_over_relaxed']:.2f}x the relaxed "
                f"one (gate {TIGHT_OVER_RELAXED_MAX:.0f}x)")


def _build_table(record):
    rows = [
        [row["slo_class"], f"{row['target_ms']:.0f}",
         f"{row['per_sentence_mj']:.4f}", f"{row['deadline_mj']:.4f}",
         f"{100.0 * (1.0 - row['deadline_mj'] / row['per_sentence_mj']):.1f}%",
         f"{row['per_sentence_avg_vdd']:.3f}",
         f"{row['deadline_avg_vdd']:.3f}",
         f"{row['deadline_violations']}"]
        for row in record["engine_rows"]
    ]
    engine_table = format_table(
        ["SLO class", "Target (ms)", "Per-sentence (mJ)",
         "Deadline (mJ)", "Saving", "Vdd (per-sent)", "Vdd (deadline)",
         "SLO miss"],
        rows,
        title=f"Deadline-budget DVFS — one {record['batch_size']}-"
              "sentence batch per SLO class")
    cluster = record["cluster"]
    cluster_rows = [
        [label, f"{row['lai_compute_mj']:.4f}",
         f"{row['total_energy_mj']:.4f}",
         str(row["deadline_violations"]), f"{row['makespan_ms']:.0f}"]
        for label, row in cluster.items()
    ]
    cluster_table = format_table(
        ["Dispatch", "lai compute (mJ)", "Cluster total (mJ)",
         "SLO miss", "Makespan (ms)"],
        cluster_rows,
        title="Bursty reference trace — FIFO, per-sentence vs "
              "deadline-aware dispatch")
    timing_table = format_table(
        ["Batch", "Relaxed (us)", "Tight (us)", "Tight / relaxed"],
        [[str(row["batch_size"]), f"{row['relaxed_us']:.0f}",
          f"{row['tight_us']:.0f}", f"{row['tight_over_relaxed']:.2f}x"]
         for row in record["pricing_us"]],
        title=f"Deadline pricing per call — relaxed = "
              f"{RELAXED_FACTOR:g}x, tight = {TIGHT_FACTOR:g}x the "
              "zero-slack plan")
    level_table = format_table(
        ["Batch", "Budget (ms)", "Slower level (us)"],
        [[str(row["batch_size"]), f"{row['deadline_ms']:.3f}",
          f"{row['level_us']:.0f}"]
         for row in record["level_pricing_us"]],
        title=f"Deadline pricing per call — slower level, "
              f"{LEVEL_TARGET_MS:g} ms per-sentence target")
    return "\n\n".join((engine_table, cluster_table, timing_table,
                        level_table))


def test_batch_dvfs():
    run_bench(sys.modules[__name__])


if __name__ == "__main__":
    test_batch_dvfs()

"""The four end-to-end workloads and what a finished run measured.

Every workload is an *open loop* offline replay: a seeded diurnal
arrival schedule (:func:`repro.cluster.generate_diurnal_trace`) at a
fixed mean rate, four GLUE tasks, 50/75/100 ms latency targets. The
simulated latency of a request counts from its scheduled arrival, so
the generator is never late. The program under test receives only the
generated trace; ``seed`` drives both the trace and the synthetic task
profiles (:func:`repro.serving.synthetic_registry`).

A workload splits into the two timed phases of one repeat:

* :func:`setup` — registry, trace, and construction of the simulator
  or orchestrator;
* :func:`run` — the replay itself (plus, on ``cluster_traced``, the
  journey stitch and hot-path rollup over the recorded spans).

:func:`summarize` then reads the finished report, outside any timed
region: the simulated SLO/energy/latency outcome, the report counts,
the correctness checks and the digest that must repeat bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.cluster import ClusterSimulator, generate_diurnal_trace
from repro.config import HwConfig
from repro.errors import EnergyError, FleetError
from repro.fleet import FleetOrchestrator, SiteConfig
from repro.serving import synthetic_registry
from repro.telemetry import (MetricsRegistry, TelemetryMonitor, Tracer,
                             default_rules)
from repro.telemetry import analysis as trace_analysis

TASKS = ("sst2", "mnli", "qqp", "qnli")
#: Fleet sites in canonical (sorted) order; fleet workloads report the
#: share of traffic each one served.
SITES = ("edge-a", "edge-b", "edge-c")
SITE_RTTS_MS = (2.0, 5.0, 8.0)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Requests per repeat at full size and under ``--quick``.
    requests: int
    quick_requests: int
    #: Sentences per task in the registry (the pricing working set).
    sentences: int
    mean_interarrival_ms: float
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "cluster_budget", requests=75_000, quick_requests=300,
        sentences=64, mean_interarrival_ms=0.25,
        why="Standalone vector replay core with live energy-budget "
            "admission at a servable load; the fleet router, governor "
            "and per-event loop do no work."),
    Workload(
        "fleet_flagship", requests=1_500, quick_requests=300,
        sentences=64, mean_interarrival_ms=0.25,
        why="The paper's configuration: energy governor, deadline-aware "
            "lai DVFS and a power-capped site; placement estimates and "
            "deadline pricing dominate."),
    Workload(
        "fleet_wide", requests=1_500, quick_requests=300,
        sentences=1024, mean_interarrival_ms=0.1,
        why="Large fifo pools and a 1,024-sentence working set that "
            "defeats the router memo; energy routing dominates, the "
            "governor does no work."),
    Workload(
        "cluster_traced", requests=15_000, quick_requests=300,
        sentences=64, mean_interarrival_ms=0.25,
        why="The vector core with tracer, metrics and monitor attached, "
            "then journey stitching; a core speedup that costs tracing "
            "shows here."),
)}


class Prepared:
    """One repeat's set-up: the trace plus the system that replays it."""

    def __init__(self, workload, trace, system):
        self.workload = workload
        self.trace = trace
        self.system = system
        self.report = None
        self.telemetry = None


def _cluster(registry, energy_budget_mw=None, **telemetry):
    return ClusterSimulator(
        registry, num_accelerators=64, policy="fifo", max_batch_size=32,
        batch_timeout_ms=5.0, energy_budget_mw=energy_budget_mw,
        budget_window_ms=100.0, **telemetry)


def _flagship_sites():
    # Each site alternates two MAC-vector sizes over 8 devices.
    sizes = ((32, 16), (16, 16), (16, 8))
    caps = (None, None, 100.0)
    return [
        SiteConfig(site_id, rtt_ms=rtt,
                   hw_configs=tuple(HwConfig(mac_vector_size=n)
                                    for n in pair * 4),
                   policy="energy", deadline_aware=True,
                   energy_budget_mw=cap, budget_window_ms=100.0)
        for site_id, rtt, pair, cap in zip(SITES, SITE_RTTS_MS, sizes,
                                           caps)
    ]


def _wide_sites():
    pools = (384, 256, 192)
    caps = (None, None, 200.0)
    return [
        SiteConfig(site_id, num_accelerators=pool, rtt_ms=rtt,
                   policy="fifo", deadline_aware=False,
                   max_batch_size=128, batch_timeout_ms=10.0,
                   energy_budget_mw=cap)
        for site_id, rtt, pool, cap in zip(SITES, SITE_RTTS_MS, pools,
                                           caps)
    ]


def _build(name, registry):
    if name == "cluster_budget":
        return _cluster(registry, energy_budget_mw=270.0)
    if name == "cluster_traced":
        return _cluster(registry, tracer=Tracer(),
                        metrics=MetricsRegistry(),
                        monitor=TelemetryMonitor(default_rules()))
    sites = _flagship_sites() if name == "fleet_flagship" \
        else _wide_sites()
    return FleetOrchestrator(registry, sites, routing="energy")


def setup(workload, seed, num_requests):
    """Registry, trace and simulator for one repeat."""
    registry = synthetic_registry(TASKS, n=workload.sentences, seed=seed)
    trace = generate_diurnal_trace(
        num_requests, seed=seed, tasks=TASKS,
        n_sentences=workload.sentences,
        mean_interarrival_ms=workload.mean_interarrival_ms)
    return Prepared(workload, trace, _build(workload.name, registry))


def run(prepared):
    """Replay the trace (and analyze its spans on ``cluster_traced``)."""
    system = prepared.system
    prepared.report = system.run(prepared.trace)
    if prepared.workload.name == "cluster_traced":
        # Looked up on the module at call time, so a layer tracer that
        # wraps the module attributes sees these calls.
        stitched = trace_analysis.analyze(system.tracer)
        trace_analysis.hot_paths(stitched)
        prepared.telemetry = {
            "spans": system.tracer.emitted,
            "journeys": len(stitched.journeys),
            "alerts": system.monitor.num_alerts,
        }
    return prepared.report


def summarize(prepared):
    """Simulated outcome, report counts, checks and digest of one run.

    Returns ``{"sim": {...}, "counts": {...}, "failed": int,
    "checks": {name: bool}, "digest": str}``. ``failed`` counts trace
    requests not served exactly once.
    """
    report = prepared.report
    trace = prepared.trace
    fleet = hasattr(report, "routing_policy")
    records = list(report.records)
    ids = [rec.request.request_id for rec in records]
    served = Counter(ids)
    failed = sum(1 for r in trace if served[r.request_id] != 1)
    checks = {"served_exactly_once": failed == 0 and len(ids) == len(trace)}
    try:
        if fleet:
            report.reconcile(1e-9)
        else:
            report.energy.reconcile(report.serving, 1e-9)
        checks["ledger_reconciles"] = True
    except (EnergyError, FleetError):
        checks["ledger_reconciles"] = False

    times = np.array([rec.time_in_system_ms for rec in records])
    completions = np.array([rec.completion_ms for rec in records])
    n = len(trace)
    misses = report.deadline_violations + failed
    if fleet:
        site_reports = [outcome.report for outcome in report.sites]
        per_site = report.per_site()
        energy_mj = report.total_energy_mj
        deferrals = report.deferrals
    else:
        site_reports = [report]
        per_site = {}
        energy_mj = report.energy.total_mj
        deferrals = 0
    batches = sum(r.num_batches for r in site_reports)
    counts = {
        "sim.batches": batches,
        "sim.mean_batch_size": n / batches if batches else 0.0,
        "sim.task_switches": sum(r.serving.task_switches
                                 for r in site_reports),
        "sim.mean_queueing_ms": report.mean_queueing_delay_ms,
        "sim.deferrals": deferrals,
        "sim.throttle_events": sum(r.budget.throttle_events
                                   for r in site_reports
                                   if r.budget is not None),
        "sim.slo_miss_rate": misses / n,
    }
    for site in SITES:
        row = per_site.get(site)
        counts[f"sim.site_share.{site}"] = \
            row["requests"] / n if row else 0.0
    telemetry = prepared.telemetry or {}
    for key in ("spans", "journeys", "alerts"):
        counts[f"telemetry.{key}"] = telemetry.get(key, 0)

    sim = {
        "sim_slo_attainment": 1.0 - misses / n,
        "sim_energy_mj_per_req": energy_mj / n,
        "sim_p50_ms": float(np.percentile(times, 50)),
        "sim_p99_ms": float(np.percentile(times, 99.0)),
    }
    summaries = [report.summary()]
    if fleet:
        summaries += [r.summary() for r in site_reports]
    digest = hashlib.sha256()
    digest.update(json.dumps(summaries, sort_keys=True).encode())
    digest.update(np.asarray(ids, dtype=np.int64).tobytes())
    digest.update(completions.tobytes())
    return {"sim": sim, "counts": counts, "failed": failed,
            "checks": checks, "digest": digest.hexdigest()[:16]}

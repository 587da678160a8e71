"""Run-to-run regression diffing over stitched journeys.

:func:`diff_runs` aligns two analyses of the **same trace** (different
config, policy, or engine) request-by-request and attributes the
deltas — p50/p99 time-in-system, deadline violations, millijoules —
to the causal buckets the legs roll up under: **queueing** (window +
dispatch + serial + preemption stalls) vs **compute** vs **swap** vs
**throttle** vs **rtt**. Energy deltas additionally carry the
run-level unattributed categories (idle, transitions, wasted compute),
so the total-joules delta ties out against the two runs' ledgers at
1e-9 — the diff explains exactly the gap the energy reports measure.

The result is a typed :class:`RegressionReport` that round-trips
through JSON (``to_json`` / ``from_json``), so a CI job can archive
one per build and re-read the trajectory later.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import fsum

import numpy as np

from repro.errors import TelemetryError
from repro.telemetry.analysis.journeys import (LEG_GROUPS, LEG_ORDER,
                                               TraceAnalysis, analyze)

#: Latency attribution buckets, in journey order.
GROUPS = ("rtt", "queueing", "throttle", "swap", "compute")

#: Energy attribution categories (ledger columns).
ENERGY_CATS = ("compute", "swap", "idle", "transition")


def _as_analysis(run):
    if isinstance(run, TraceAnalysis):
        return run
    return analyze(run)


def _percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64),
                               q)) if values else 0.0


def _group_ms(analysis):
    table = analysis.journeys
    group = np.array([GROUPS.index(LEG_GROUPS[name])
                      for name in LEG_ORDER])[table.leg_code]
    ms = table.leg_end - table.leg_start
    return {g: fsum(ms[group == i].tolist()) for i, g in enumerate(GROUPS)}


def _energy_mj(analysis):
    table = analysis.journeys
    totals = {cat: fsum(table.leg_mj[table.leg_code == LEG_ORDER.index(cat)]
                        .tolist()) if cat in LEG_ORDER else 0.0
              for cat in ENERGY_CATS}
    for cats in analysis.unattributed.values():
        for cat, mj in cats.items():
            totals[cat] = totals.get(cat, 0.0) + mj
    return totals


@dataclass(slots=True)
class RegressionReport:
    """Typed, JSON-round-tripping result of :func:`diff_runs`."""

    requests: int
    only_a: list
    only_b: list
    latency: dict         # p50/p99/mean per side + deltas (b - a)
    violations: dict      # {"a", "b", "delta"}
    time_ms: dict         # {group: {"a", "b", "delta"}}
    energy_mj: dict       # {category: {"a", "b", "delta"}}
    total_energy_mj: dict  # {"a", "b", "delta"}
    dominant_time_group: str
    dominant_energy_category: str
    regressed: list = field(default_factory=list)

    def to_dict(self):
        return {
            "requests": self.requests,
            "only_a": self.only_a,
            "only_b": self.only_b,
            "latency": self.latency,
            "violations": self.violations,
            "time_ms": self.time_ms,
            "energy_mj": self.energy_mj,
            "total_energy_mj": self.total_energy_mj,
            "dominant_time_group": self.dominant_time_group,
            "dominant_energy_category": self.dominant_energy_category,
            "regressed": self.regressed,
        }

    @classmethod
    def from_dict(cls, row):
        return cls(**{key: row[key] for key in (
            "requests", "only_a", "only_b", "latency", "violations",
            "time_ms", "energy_mj", "total_energy_mj",
            "dominant_time_group", "dominant_energy_category",
            "regressed")})

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def render(self):
        from repro.utils import format_table

        rows = [[group,
                 f"{self.time_ms[group]['a']:.3f}",
                 f"{self.time_ms[group]['b']:.3f}",
                 f"{self.time_ms[group]['delta']:+.3f}"]
                for group in GROUPS]
        time_table = format_table(
            ["Bucket", "A (ms)", "B (ms)", "delta"], rows,
            title=f"Run diff — {self.requests} aligned requests")
        rows = [[cat,
                 f"{self.energy_mj[cat]['a']:.3f}",
                 f"{self.energy_mj[cat]['b']:.3f}",
                 f"{self.energy_mj[cat]['delta']:+.3f}"]
                for cat in ENERGY_CATS]
        rows.append(["total",
                     f"{self.total_energy_mj['a']:.3f}",
                     f"{self.total_energy_mj['b']:.3f}",
                     f"{self.total_energy_mj['delta']:+.3f}"])
        energy_table = format_table(
            ["Category", "A (mJ)", "B (mJ)", "delta"], rows,
            title="Energy attribution")
        lat = self.latency
        summary = (
            f"p50 {lat['p50_a']:.3f} -> {lat['p50_b']:.3f}ms "
            f"({lat['delta_p50']:+.3f}), "
            f"p99 {lat['p99_a']:.3f} -> {lat['p99_b']:.3f}ms "
            f"({lat['delta_p99']:+.3f}); violations "
            f"{self.violations['a']} -> {self.violations['b']} "
            f"({self.violations['delta']:+d}); dominant time bucket: "
            f"{self.dominant_time_group}, dominant energy category: "
            f"{self.dominant_energy_category}")
        return "\n".join([time_table, "", energy_table, "", summary])


def diff_runs(a, b):
    """Diff two replays of the same trace; returns RegressionReport.

    ``a`` / ``b`` are :class:`TraceAnalysis` objects or any span
    source :func:`~repro.telemetry.analysis.analyze` accepts. Deltas
    are ``b - a`` throughout.
    """
    run_a, run_b = _as_analysis(a), _as_analysis(b)
    ids_a = set(run_a.by_request)
    ids_b = set(run_b.by_request)
    shared = ids_a & ids_b
    if not shared:
        raise TelemetryError(
            f"runs share no request ids ({len(ids_a)} vs {len(ids_b)} "
            "journeys); diff_runs aligns replays of the same trace")
    tis_a = [run_a.by_request[rid].time_in_system_ms for rid in shared]
    tis_b = [run_b.by_request[rid].time_in_system_ms for rid in shared]
    viol_a = sum(1 for rid in shared if run_a.by_request[rid].violated)
    viol_b = sum(1 for rid in shared if run_b.by_request[rid].violated)

    latency = {
        "p50_a": _percentile(tis_a, 50), "p50_b": _percentile(tis_b, 50),
        "p99_a": _percentile(tis_a, 99), "p99_b": _percentile(tis_b, 99),
        "mean_a": fsum(tis_a) / len(shared),
        "mean_b": fsum(tis_b) / len(shared),
    }
    latency["delta_p50"] = latency["p50_b"] - latency["p50_a"]
    latency["delta_p99"] = latency["p99_b"] - latency["p99_a"]
    latency["delta_mean"] = latency["mean_b"] - latency["mean_a"]

    group_a, group_b = _group_ms(run_a), _group_ms(run_b)
    time_ms = {group: {"a": group_a[group], "b": group_b[group],
                       "delta": group_b[group] - group_a[group]}
               for group in GROUPS}
    energy_a, energy_b = _energy_mj(run_a), _energy_mj(run_b)
    energy_mj = {cat: {"a": energy_a[cat], "b": energy_b[cat],
                       "delta": energy_b[cat] - energy_a[cat]}
                 for cat in ENERGY_CATS}
    total_a = fsum(energy_a[cat] for cat in ENERGY_CATS)
    total_b = fsum(energy_b[cat] for cat in ENERGY_CATS)

    dominant_time = max(GROUPS,
                        key=lambda g: abs(time_ms[g]["delta"]))
    dominant_energy = max(ENERGY_CATS,
                          key=lambda c: abs(energy_mj[c]["delta"]))
    regressed = []
    if latency["delta_p99"] > 0:
        regressed.append(
            f"p99 +{latency['delta_p99']:.3f}ms "
            f"(mostly {dominant_time})")
    if viol_b > viol_a:
        regressed.append(f"violations +{viol_b - viol_a}")
    if total_b > total_a:
        regressed.append(
            f"energy +{total_b - total_a:.3f}mJ "
            f"(mostly {dominant_energy})")

    return RegressionReport(
        requests=len(shared),
        only_a=sorted(ids_a - shared, key=str),
        only_b=sorted(ids_b - shared, key=str),
        latency=latency,
        violations={"a": viol_a, "b": viol_b, "delta": viol_b - viol_a},
        time_ms=time_ms,
        energy_mj=energy_mj,
        total_energy_mj={"a": total_a, "b": total_b,
                         "delta": total_b - total_a},
        dominant_time_group=dominant_time,
        dominant_energy_category=dominant_energy,
        regressed=regressed,
    )

"""Aggregated profiling views over the stitched journey columns.

Two renderings of the same rollup:

* :func:`hot_paths` — per ``(task, SLO class, mode, hw)`` totals:
  request/violation counts, per-leg milliseconds, per-category
  millijoules — the table a capacity planner reads;
* :func:`flamegraph_lines` / :func:`write_flamegraph` — collapsed-stack
  export (``frame;frame;frame weight`` per line) loadable by
  speedscope (https://speedscope.app) and Brendan Gregg's
  ``flamegraph.pl``. Stacks are ``scope;task|slo|mode|hw;leg`` and the
  weight is integer nanoseconds (``weight="time"``) or nanojoules
  (``weight="energy"``), so fractional milliseconds survive the
  integer collapse losslessly at trace scale.
"""

from __future__ import annotations

from math import fsum

import numpy as np

from repro.errors import TelemetryError
from repro.telemetry.analysis.journeys import LEG_ORDER, _LEG_RANK

_WIDTH = len(LEG_ORDER)


def _classes(table, site=False):
    """``(names, codes)``: each journey's ``task|slo|mode|hw`` class
    (``site;``-prefixed when asked) as a code into ``names``."""
    hws = {}
    run_hw = np.array([hws.setdefault(run[1], len(hws))
                       for run in table.runs], np.intp)
    combos, inverse = np.unique(table.meta * len(hws) + run_hw[table.run],
                                return_inverse=True)
    hws, names, codes = list(hws), {}, []
    for combo in combos.tolist():
        scope, task, mode, target = table.metas[combo // len(hws)]
        hw = hws[combo % len(hws)]
        name = f"{task}|{target:g}ms|{mode}|hw{'any' if hw is None else hw}"
        codes.append(names.setdefault(
            f"{scope};{name}" if site else name, len(names)))
    return list(names), np.array(codes, np.intp)[inverse]


def _cells(table, names, classes, weights, keep=slice(None)):
    """Per (class, leg) leg counts and sums of ``weights``, added left
    to right in journey order (``np.bincount``), as per-journey loops."""
    cell = classes[table.leg_journey[keep]] * _WIDTH \
        + table.leg_code[keep]
    size = len(names) * _WIDTH
    return (np.bincount(cell, weights[keep], size).tolist(),
            np.bincount(cell, minlength=size).tolist())


def hot_paths(analysis):
    """Rollup by (task, SLO class, mode, hw): the hot-path table.

    Returns ``{class_key: {"requests", "violations", "attempts",
    "time_in_system_ms", "legs_ms": {leg: ms}, "energy_mj":
    {category: mJ}}}`` sorted by descending total time in system.
    Reads the journey columns; boxes nothing.
    """
    table = analysis.journeys
    names, classes = _classes(table)
    ms, count = _cells(table, names, classes,
                       table.leg_end - table.leg_start)
    mj, _ = _cells(table, names, classes, table.leg_mj)
    requests = np.bincount(classes, minlength=len(names)).tolist()
    violations = np.bincount(
        classes[table.completion > table.deadline + 1e-9],
        minlength=len(names)).tolist()
    attempts = np.bincount(classes, table.attempts, len(names)).tolist()
    by_class = np.argsort(classes, kind="stable")
    tis = np.split((table.completion - table.arrival)[by_class],
                   np.cumsum(requests)[:-1])
    out = {}
    for c, key in enumerate(names):
        total = fsum(tis[c].tolist())
        row = slice(c * _WIDTH, (c + 1) * _WIDTH)
        out[key] = {
            "requests": requests[c],
            "violations": violations[c],
            "attempts": int(attempts[c]),
            "time_in_system_ms": total,
            "mean_time_in_system_ms": total / requests[c],
            "legs_ms": {name: value for name, value, n in zip(
                LEG_ORDER, ms[row], count[row]) if n},
            "energy_mj": {name: mj[row][_LEG_RANK[name]]
                          for name in ("compute", "swap")
                          if count[row][_LEG_RANK[name]]},
        }
    return dict(sorted(out.items(),
                       key=lambda kv: (-kv[1]["time_in_system_ms"],
                                       kv[0])))


def flamegraph_lines(analysis, weight="time"):
    """Collapsed stacks, one ``scope;class;leg weight`` line each.

    ``weight="time"`` sums leg durations (integer nanoseconds);
    ``weight="energy"`` sums leg energies (integer nanojoules, only
    legs that carry energy). Lines sort lexicographically — the export
    is deterministic and diffable.
    """
    if weight not in ("time", "energy"):
        raise TelemetryError(
            f"flamegraph weight must be 'time' or 'energy', "
            f"got {weight!r}")
    table = analysis.journeys
    names, classes = _classes(table, site=True)
    values = table.leg_end - table.leg_start if weight == "time" \
        else table.leg_mj
    sums, count = _cells(table, names, classes, values, values != 0.0)
    cells = {f"{names[c // _WIDTH]};{LEG_ORDER[c % _WIDTH]}": sums[c]
             for c, n in enumerate(count) if n}
    if weight == "energy":
        cells.update({f"{scope};(unattributed);{cat}": mj
                      for scope, cats in analysis.unattributed.items()
                      for cat, mj in cats.items() if mj != 0.0})
    ints = {stack: int(round(value * 1e6))  # ms -> ns, mJ -> nJ
            for stack, value in cells.items()}
    return [f"{stack} {ints[stack]}" for stack in sorted(ints)
            if ints[stack]]


def write_flamegraph(analysis, path, weight="time"):
    """Write :func:`flamegraph_lines` to ``path``; returns line count."""
    lines = flamegraph_lines(analysis, weight=weight)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines))
        if lines:
            f.write("\n")
    return len(lines)


def render_hot_paths(analysis, limit=12):
    """ASCII hot-path table (top ``limit`` classes by time)."""
    from repro.utils import format_table

    if limit < 0:
        raise TelemetryError(f"hot-path row limit must be >= 0, "
                             f"got {limit}")
    table = hot_paths(analysis)
    rows = []
    for key, cell in list(table.items())[:limit]:
        legs = cell["legs_ms"]
        dominant = max(legs, key=lambda k: (legs[k], -_LEG_RANK[k])) \
            if legs else "-"
        rows.append([
            key, str(cell["requests"]), str(cell["violations"]),
            f"{cell['mean_time_in_system_ms']:.3f}",
            dominant,
            f"{cell['energy_mj'].get('compute', 0.0):.3f}",
            f"{cell['energy_mj'].get('swap', 0.0):.3f}",
        ])
    return format_table(
        ["Class (task|slo|mode|hw)", "Reqs", "Miss", "Mean ms",
         "Hottest leg", "Compute mJ", "Swap mJ"],
        rows, title=f"Hot paths — {len(analysis)} journeys")


#: Re-exported for callers building custom rollups.
__all__ = ["hot_paths", "flamegraph_lines", "write_flamegraph",
           "render_hot_paths", "LEG_ORDER"]

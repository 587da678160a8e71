"""DVFS smoke target: ``python -m repro.dvfs --smoke``.

One quick self-check of the deadline-budget planner
(:mod:`repro.dvfs.deadline`) against the per-sentence oracle, matching
the serving/cluster/energy smoke-gate pattern:

* **table sanity** — per-row layer *and* front-end energies are strictly
  monotone in voltage (the water-filling's "slower is cheaper" premise);
* **zero-slack oracle** — a zero (and an insufficient) deadline budget
  reproduces per-sentence pricing to 1e-9;
* **monotonicity** — sweeping the budget upward never increases energy;
* **deadline-met invariant** — every non-fallback plan's priced latency
  fits its budget, across corner budgets that pin the top and bottom of
  the V/F table;
* **the headline claim** — a relaxed batch prices strictly fewer joules
  under the deadline plan than per-sentence, at zero violations;
* **determinism** — the deadline kernel replays bit-for-bit.

Exits non-zero on any regression; the cheap CI gate for the DVFS stack.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.config import GLUE_TASKS
from repro.core.engine import (
    lai_exit_columns,
    price_latency_aware_batch,
    price_latency_aware_deadline_columns,
)
from repro.errors import DvfsError, ReproError
from repro.serving import synthetic_registry

RELAXED_MS = 50.0


def _check(condition, message):
    # Explicit check (not assert): the smoke gate must still gate under
    # ``python -O``, which strips assert statements.
    if not condition:
        raise DvfsError(f"smoke check failed: {message}")


def run_smoke(n_sentences=24, seed=0, verbose=True):
    """Deadline-planner self-check; returns the summary dict."""
    registry = synthetic_registry(GLUE_TASKS[:1], n=n_sentences,
                                  seed=seed)
    profile = registry.profile(registry.tasks[0])
    engine = profile.engine
    tables = engine.pricing_tables()

    columns = lai_exit_columns(tables, profile.entropies, profile.lut,
                               profile.entropy_threshold, deadline=True)

    def price(deadline_ms=None):
        if deadline_ms is None:
            return price_latency_aware_batch(
                tables, engine.dvfs, profile.entropies, profile.lut,
                profile.entropy_threshold, RELAXED_MS)
        return price_latency_aware_deadline_columns(
            tables, engine.dvfs, columns, RELAXED_MS, deadline_ms)

    # Rail code 0 is the nominal point; codes 1.. are the table rows.
    _check(np.all(np.diff(tables.rail_layer_energy_pj[1:]) > 0),
           "per-row layer energy is not monotone in voltage")
    _check(np.all(np.diff(tables.rail_front_energy_pj[1:]) > 0),
           "per-row front-end energy is not monotone in voltage")

    per = price()
    per_total_ms = float(per["latency_ms"].sum())
    per_total_mj = float(per["energy_mj"].sum())
    for deadline in (0.0, per_total_ms * 0.5):
        zero = price(deadline)
        for key in per:
            drift = np.max(np.abs(
                np.asarray(zero[key], dtype=np.float64)
                - np.asarray(per[key], dtype=np.float64)))
            _check(drift <= 1e-9,
                   f"zero-slack path diverges from per-sentence "
                   f"pricing in {key!r} by {drift:.3e}")

    energies = []
    for deadline in np.linspace(0.0, per_total_ms * 4.0, 41):
        priced = price(deadline)
        total_ms = float(priced["latency_ms"].sum())
        fallback = abs(total_ms - per_total_ms) <= 1e-9
        _check(fallback or total_ms <= deadline + 1e-6,
               f"plan at {deadline:.3f} ms budget overran it: "
               f"{total_ms:.3f} ms")
        energies.append(float(priced["energy_mj"].sum()))
    _check(all(b <= a + 1e-12 for a, b in zip(energies, energies[1:])),
           "more slack cost more energy")

    # Corner budgets: just over the per-sentence plan (top-of-table
    # regime) and effectively unbounded (all-floor regime).
    corner_hi = price(per_total_ms * 1.08)
    corner_lo = price(1e5)
    floor_mj = float(corner_lo["energy_mj"].sum())
    _check(float(corner_hi["energy_mj"].sum()) <= per_total_mj + 1e-12,
           "top-corner budget priced above per-sentence")
    _check(floor_mj < per_total_mj - 1e-9,
           "relaxed deadline plan is not strictly cheaper than "
           "per-sentence planning")
    _check(bool(corner_lo["met_target"].all()),
           "relaxed deadline plan reports SLO violations")

    again = price(1e5)
    for key in again:
        _check(np.array_equal(np.asarray(again[key]),
                              np.asarray(corner_lo[key])),
               "deadline pricing is not deterministic")

    summary = {
        "sentences": n_sentences,
        "per_sentence_mj": per_total_mj,
        "deadline_relaxed_mj": floor_mj,
        "saving_pct": 100.0 * (1.0 - floor_mj / per_total_mj),
    }
    if verbose:
        print(f"per-sentence: {per_total_mj:.6f} mJ | deadline "
              f"(relaxed): {floor_mj:.6f} mJ | saving "
              f"{summary['saving_pct']:.1f}%")
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.dvfs",
        description="EdgeBERT deadline-budget DVFS smoke driver")
    parser.add_argument("--smoke", action="store_true",
                        help="run the self-checking deadline-planner pass")
    parser.add_argument("--sentences", type=int, default=24,
                        help="batch size for the smoke pass")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("nothing to do; pass --smoke")
    try:
        run_smoke(n_sentences=args.sentences, seed=args.seed,
                  verbose=not args.quiet)
    except (AssertionError, ReproError) as exc:
        print(f"SMOKE FAILED: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print("dvfs smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

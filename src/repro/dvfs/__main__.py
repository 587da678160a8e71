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
* **determinism** — the deadline kernel replays bit-for-bit;
* **one-member batches** — every sentence priced alone by
  :func:`repro.serving.price_batch` (a pick over the profile's
  per-rail-code columns) equals
  :meth:`~repro.core.LatencyAwareEngine.price_deadline` on its gathered
  exit columns, field and type, at zero, tight (0.99x its zero-slack
  plan: the planner falls back), level-0 (the level-0 schedule's own
  total) and relaxed (4x) budgets — on the profile and on a variant
  with layer-1 exits.

Exits non-zero on any regression; the cheap CI gate for the DVFS stack.
"""

from __future__ import annotations

import sys
from dataclasses import astuple, replace

import numpy as np

from repro.config import GLUE_TASKS
from repro.core.engine import (
    lai_exit_columns,
    price_latency_aware_batch,
    price_latency_aware_deadline_columns,
)
from repro.dvfs import DeadlineBudget
from repro.serving import Batch, Request, price_batch, synthetic_registry
from repro.smoke import check, cli_parser, run_cli

RELAXED_MS = 50.0
#: One-member budgets as multiples of the sentence's zero-slack plan.
TIGHT_FACTOR = 0.99
RELAXED_FACTOR = 4.0


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
    check(np.all(np.diff(tables.rail_layer_energy_pj[1:]) > 0),
          "per-row layer energy is not monotone in voltage")
    check(np.all(np.diff(tables.rail_front_energy_pj[1:]) > 0),
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
            check(drift <= 1e-9,
                  f"zero-slack path diverges from per-sentence "
                  f"pricing in {key!r} by {drift:.3e}")

    energies = []
    for deadline in np.linspace(0.0, per_total_ms * 4.0, 41):
        priced = price(deadline)
        total_ms = float(priced["latency_ms"].sum())
        fallback = abs(total_ms - per_total_ms) <= 1e-9
        check(fallback or total_ms <= deadline + 1e-6,
              f"plan at {deadline:.3f} ms budget overran it: "
              f"{total_ms:.3f} ms")
        energies.append(float(priced["energy_mj"].sum()))
    check(all(b <= a + 1e-12 for a, b in zip(energies, energies[1:])),
          "more slack cost more energy")

    # Corner budgets: just over the per-sentence plan (top-of-table
    # regime) and effectively unbounded (all-floor regime).
    corner_hi = price(per_total_ms * 1.08)
    corner_lo = price(1e5)
    floor_mj = float(corner_lo["energy_mj"].sum())
    check(float(corner_hi["energy_mj"].sum()) <= per_total_mj + 1e-12,
          "top-corner budget priced above per-sentence")
    check(floor_mj < per_total_mj - 1e-9,
          "relaxed deadline plan is not strictly cheaper than "
          "per-sentence planning")
    check(bool(corner_lo["met_target"].all()),
          "relaxed deadline plan reports SLO violations")

    again = price(1e5)
    for key in again:
        check(np.array_equal(np.asarray(again[key]),
                             np.asarray(corner_lo[key])),
              "deadline pricing is not deterministic")

    # The synthetic profile has no layer-1 exits; a variant whose
    # threshold sends half its sentences out at layer 1 covers them.
    regimes = _check_one_member_batches(profile)
    exits = _check_one_member_batches(replace(
        profile, entropy_threshold=float(np.median(profile.entropies[0]))))
    for key in regimes:
        regimes[key] += exits[key]

    summary = {
        "sentences": n_sentences,
        "per_sentence_mj": per_total_mj,
        "deadline_relaxed_mj": floor_mj,
        "saving_pct": 100.0 * (1.0 - floor_mj / per_total_mj),
        "one_member_rows": sum(regimes.values()),
    }
    if verbose:
        print(f"per-sentence: {per_total_mj:.6f} mJ | deadline "
              f"(relaxed): {floor_mj:.6f} mJ | saving "
              f"{summary['saving_pct']:.1f}% | one-member rows: "
              f"{regimes['planned']} planned, {regimes['fallback']} "
              "fallback, all equal to the planner's")
    return summary


def _check_one_member_batches(profile):
    """Hold every one-member batch's row to the array planner's.

    Returns how many checked rows the planner priced from a plan and
    how many from its per-sentence fallback; both must occur.
    """
    engine = profile.engine
    tables = engine.pricing_tables()
    gathered = profile.deadline_columns()
    regimes = {"planned": 0, "fallback": 0}
    for sentence in range(profile.num_sentences):
        columns = {name: column[[sentence]]
                   for name, column in gathered.items()}

        def plan(deadline_ms):
            return engine.dvfs.plan_batch_deadline(
                columns["remaining"],
                DeadlineBudget.from_ms(deadline_ms, RELAXED_MS),
                tables.embed_time_ns + tables.layer_time_ns,
                rail_layer_ns=columns["layer_ns"],
                rail_front_ns=tables.rail_front_time_ns)

        planned_ms = plan(0.0).planned_ns * 1e-6
        batch = Batch(task=profile.task, target_ms=RELAXED_MS, requests=(
            Request(request_id=0, task=profile.task, sentence=sentence,
                    target_ms=RELAXED_MS),))
        for deadline_ms in (0.0, TIGHT_FACTOR * planned_ms,
                            plan(1e9).planned_ns * 1e-6,
                            RELAXED_FACTOR * planned_ms):
            got = price_batch(profile, batch, "lai",
                              deadline_ms=deadline_ms).results
            want = engine.price_deadline(columns, RELAXED_MS,
                                         deadline_ms).results
            check(len(got) == 1 and all(
                type(a) is type(b) and a == b
                for a, b in zip(astuple(got[0]), astuple(want[0]))),
                f"one-member batch of sentence {sentence} at a "
                f"{deadline_ms:.6f} ms budget priced {got} instead of "
                f"the planner's {want}")
            regimes["fallback" if plan(deadline_ms).fallback
                    else "planned"] += 1
    check(regimes["planned"] and regimes["fallback"],
          f"one-member budgets missed a regime: {regimes}")
    return regimes


def main(argv=None):
    parser = cli_parser("python -m repro.dvfs",
                        "EdgeBERT deadline-budget DVFS smoke driver",
                        "run the self-checking deadline-planner pass")
    parser.add_argument("--sentences", type=int, default=24,
                        help="batch size for the smoke pass")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    return run_cli(parser, args, "dvfs", lambda: run_smoke(
        n_sentences=args.sentences, seed=args.seed, verbose=not args.quiet))


if __name__ == "__main__":
    sys.exit(main())

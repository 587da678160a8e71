"""Deadline-budget DVFS: plan a whole batch against one shared SLO budget.

The per-sentence controller (:meth:`~repro.dvfs.DvfsController.plan_batch`)
gives every sentence the same latency target and plans each one
independently — the paper's streaming model, where a new sentence arrives
every target period. A served *batch* is different: its sentences execute
back-to-back and the SLO owns the whole run ("all of this work must be
done ``deadline_ns`` from the rail wake-up"), so planning each sentence
against the full per-sentence target either sprints the shared nominal
front ends through work the deadline never asked to be that fast, or
ignores slack that could buy a lower rail.

:class:`DeadlineBudget` carries that contract, and the planner here turns
it into per-sentence operating points by **earliest-deadline
water-filling over the V/F table**:

1. price today's per-sentence plan (the fallback, and the oracle the
   zero-slack path must reproduce exactly);
2. score every shared *water level* at once — a table row every
   sentence is lowered to (never below its per-sentence row… never
   *above* it either: the level only ever slows sentences) with the
   whole batch, front ends included, riding the level's rail — as one
   (levels × sentences) array, and keep the lowest level whose
   predicted schedule still meets the deadline;
3. spend any leftover slack lowering the *earliest* sentences one more
   step (they are the batch's earliest deadlines — the plan tightens as
   the deadline approaches): the prefixes are scored as (prefixes ×
   sentences) blocks — one block up to 256 sentences — and the plan
   keeps the longest prefix before the first one that overruns.

When no shared level fits, the planner tries **decoupling the front
ends** before falling back: layers stay at their per-sentence rows and
the fronts alone ride one intermediate V/F row — every row scored in
one pass, the lowest whose schedule still meets the deadline wins (each
sentence boundary then pays two rail moves, previous rail → front rail
→ layer rail). That closes the narrow window where the per-sentence
plan fits but the slowest coupled schedule does not — previously those
budgets surrendered all front-end savings to the nominal sprint.

When no front level fits either (the budget has no slack over the
per-sentence plan) the planner returns the per-sentence plan unchanged,
so the zero-slack path is bit-for-bit today's pricing. Because
feasibility of a level never depends on anything but its own fixed
schedule, a larger budget can only move every sentence to an
equal-or-lower row — more slack never costs more energy, and the
invariant is testable componentwise.

Every candidate is priced by gathers over *rail codes* (code 0 is the
nominal point, code ``i + 1`` V/F row ``i``): per-sentence layer and
front-end times per code, and the controller's per-config rail-move
matrix (:attr:`~repro.dvfs.DvfsController.rail_move_ns`). A plan of up
to 256 sentences is therefore a fixed handful of array operations
whatever its slack, and a candidate's total is the row sum of its
sentence times — the same pairwise summation a one-candidate ``sum()``
performs.

The planner predicts time from the same per-row tables the engine prices
with — the engine hands in each sentence's rail-coded layer times from
its exit columns and the rail-coded front-end times of
:class:`~repro.core.engine.PricingTables` — so "the plan meets the
deadline" and "the priced batch meets the deadline" are the same
statement: actual exits only come earlier than the predicted layers the
plan budgeted for.

For a one-member batch the planner reduces to a table pick
(:func:`repro.core.engine.price_singleton_deadline`). Level ``l`` runs
the sentence on code ``min(b, l) + 1`` (``b`` its per-sentence row, the
top row for a nominal fallback), and a one-element sum is the element.
The prefix sweep needs two sentences; the decoupled sweep's one front
is at nominal and ``rail_move_ns[0, 0] == 0``, so it repeats the
level-``b`` candidate. The plan is the first code in ``1..b + 1`` whose
time fits, else the per-sentence fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.dvfs.controller import BatchPlan
from repro.errors import DvfsError

#: Feasibility tolerance (ns) — matches the engine's met-target check.
DEADLINE_TOL_NS = 1e-6

#: Most (candidates x sentences) elements one prefix block scores: one
#: block covers every prefix of a batch of up to 256 sentences, and a
#: larger batch keeps its temporaries bounded while the sweep stops at
#: the first block holding an overrun.
PREFIX_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class DeadlineBudget:
    """A whole batch's latency contract.

    ``deadline_ns`` is the total sequential-compute budget: the time from
    the rail waking for the batch's first front end until the last
    sentence must be done (the cluster hands in its actual remaining
    slack — SLO deadline minus queueing delay minus the swap — so compute
    adapts to time already lost in queue). ``target_ns`` is the SLO
    class's per-sentence latency target, which the zero-slack fallback
    plans against. ``deadline_ns = 0`` means "no batch budget": always
    fall back to the per-sentence plan.
    """

    deadline_ns: float
    target_ns: float

    def __post_init__(self):
        if not math.isfinite(self.target_ns) or self.target_ns <= 0:
            raise DvfsError("per-sentence target_ns must be positive")
        if not math.isfinite(self.deadline_ns) or self.deadline_ns < 0:
            raise DvfsError("deadline_ns must be non-negative")

    @classmethod
    def from_ms(cls, deadline_ms, target_ms):
        return cls(deadline_ns=float(deadline_ms) * 1e6,
                   target_ns=float(target_ms) * 1e6)

    @classmethod
    def zero_slack(cls, target_ms):
        """The no-budget contract: plan per-sentence, exactly as today."""
        return cls(deadline_ns=0.0, target_ns=float(target_ms) * 1e6)


@dataclass(frozen=True)
class DeadlineBatchPlan(BatchPlan):
    """A :class:`BatchPlan` extended with the batch-wide rail schedule.

    ``table_index`` (inherited) is the row whose rail the sentence runs
    on (−1 = nominal); ``front_index`` the row its *front end* runs on —
    always −1 for sentence 0 (the wake transition lands the rail at
    nominal, exactly where Algorithm 2's first layer-1 pass needs it) and
    for every sentence of a fallback plan. A decoupled-front plan holds
    ``front_index`` at one intermediate row above the layer rail. ``transition_ns`` /
    ``rail_changed`` describe the one rail move charged at each
    sentence's boundary; ``sentence_ns`` is the planner's predicted
    per-sentence time (front + transition + predicted scaled layers),
    summing to ``planned_ns``.
    """

    front_index: np.ndarray
    transition_ns: np.ndarray
    rail_changed: np.ndarray
    sentence_ns: np.ndarray
    planned_ns: float
    deadline_ns: float
    fallback: bool
    feasible: bool

    @property
    def front_codes(self):
        """Each front end's rail code (0 = nominal, ``i + 1`` = row ``i``)."""
        return self.front_index + 1


def _as_budget(budget, target_ns):
    if isinstance(budget, DeadlineBudget):
        return budget
    if target_ns is None:
        raise DvfsError(
            "plan_batch_deadline needs a DeadlineBudget, or a deadline_ns "
            "scalar together with target_ns")
    return DeadlineBudget(deadline_ns=float(budget),
                          target_ns=float(target_ns))


def _score(rows, front, wake, moves, layer_ns, front_ns):
    """Score candidate rail schedules, one candidate per row.

    ``rows`` is the (K, N) table row each sentence's layers run on —
    the water level only ever slows a sentence, so it never exceeds the
    per-sentence row. ``front`` is None when the fronts ride the layer
    rail (one rail move per sentence boundary), else the (K, N) rail
    codes of decoupled fronts (two moves: previous rail → front rail →
    layer rail). Sentence 0's front always runs at the nominal wake
    point (code 0); ``wake`` says sentence 0 has no post-front work, so
    its rail stays there too and first moves for sentence 1.

    Returns the rail codes, the front codes, the per-sentence rail-move
    time and predicted time, and each candidate's total. Totals are row
    sums of a C-contiguous array, which NumPy reduces with the same
    pairwise summation as each row's own ``sum()``.
    """
    # Each candidate's rail codes behind a leading nominal column, so
    # one array gives the rail each sentence runs on (codes[:, 1:]) and
    # the rail it moves from (codes[:, :-1]: the previous sentence's,
    # or the nominal wake point for sentence 0). Layers read the codes
    # before the wake fix-up.
    sentences = np.arange(rows.shape[1])
    codes = np.empty((rows.shape[0], rows.shape[1] + 1), dtype=np.int64)
    codes[:, 0] = 0
    np.add(rows, 1, out=codes[:, 1:])
    layers = layer_ns[sentences, codes[:, 1:]]
    if wake:
        codes[:, 1] = 0
    rail, prev = codes[:, 1:], codes[:, :-1]
    if front is None:
        front = rail.copy()
        front[:, 0] = 0
        transition = moves[prev, rail]
    else:
        transition = moves[prev, front] + moves[front, rail]
    if front_ns.ndim == 1:
        fronts = front_ns[front]
    else:
        fronts = front_ns[sentences, front]
    sentence = fronts + transition + layers
    return rail, front, transition, sentence, sentence.sum(axis=1)


def _longest_prefix(score, base_eff, level, limit):
    """The longest prefix lowered one row below ``level`` that still fits.

    Candidate ``j`` lowers the first ``j + 1`` sentences (lowering all
    of them is ``level - 1`` itself, already too slow). Candidates are
    scored in row blocks of at most :data:`PREFIX_BLOCK_ELEMENTS`
    elements, in order, and the sweep stops at the first block holding
    an overrun: the pick is the last candidate before the first
    overrun. Returns ``(scored, row)`` — the block holding the pick and
    its row there — or None when even the one-sentence prefix overruns.
    """
    n = base_eff.size
    sentences = np.arange(n)
    block = max(1, PREFIX_BLOCK_ELEMENTS // n)
    kept = None
    for start in range(0, n - 1, block):
        prefixes = np.arange(start, min(start + block, n - 1))
        trial = score(np.minimum(
            base_eff, level - (sentences <= prefixes[:, None])))
        over = trial[-1] > limit
        fitting = int(over.argmax()) if over.any() else prefixes.size
        if fitting:
            kept = trial, fitting - 1
        if fitting < prefixes.size:
            break
    return kept


def plan_batch_deadline(controller, remaining_cycles, budget, elapsed_ns,
                        target_ns=None, rail_layer_ns=None,
                        rail_front_ns=None):
    """Water-fill a batch's operating points against a shared deadline.

    See the module docstring for the algorithm;
    :meth:`~repro.dvfs.DvfsController.plan_batch_deadline` is the public
    entry point. ``remaining_cycles`` is the (N,) predicted post-front
    work per sentence (0 for sentences whose layer-1 entropy already
    exits); ``budget`` a :class:`DeadlineBudget` (or a ``deadline_ns``
    scalar with ``target_ns``); ``elapsed_ns`` the nominal front-end
    time, broadcast per sentence.

    Times are rail-coded: code 0 is the nominal point and code ``i + 1``
    V/F row ``i``. ``rail_layer_ns`` is the (N, R+1) predicted
    post-front time of each sentence on each code and ``rail_front_ns``
    the front-end time on each code, (R+1,) or per sentence (N, R+1),
    whose code 0 must equal ``elapsed_ns``. The engine passes both from
    its exit columns and :class:`~repro.core.engine.PricingTables`, so
    the plan predicts with the exact per-row costs it will be priced
    with; left None, they are cycles over each code's frequency and the
    nominal front end's cycles at each code's frequency.
    """
    budget = _as_budget(budget, target_ns)
    remaining = np.atleast_1d(
        np.asarray(remaining_cycles, dtype=np.float64))
    if remaining.ndim != 1:
        raise DvfsError("remaining_cycles must be one-dimensional")
    n = remaining.size
    elapsed = np.asarray(elapsed_ns, dtype=np.float64)
    if elapsed.ndim:
        elapsed = np.broadcast_to(elapsed, remaining.shape)
    rail_freq = controller.table.rail_frequencies
    if rail_layer_ns is None:
        rail_layer_ns = remaining[:, None] / rail_freq[None, :]
    if rail_front_ns is None:
        rail_front_ns = elapsed[..., None] * (rail_freq[0] / rail_freq)
    num_codes = rail_freq.size
    if rail_layer_ns.shape != (n, num_codes) or rail_front_ns.shape \
            not in ((num_codes,), (n, num_codes)):
        raise DvfsError(
            f"rail-coded times must be ({n}, {num_codes}) per sentence "
            f"and ({num_codes},) or ({n}, {num_codes}) per front, got "
            f"{rail_layer_ns.shape} and {rail_front_ns.shape}")

    # Today's per-sentence plan, timed the way the engine prices it: the
    # nominal front end, one transition down from nominal, then the
    # predicted layers at the planned point.
    base = controller.plan_batch(remaining, budget.target_ns, elapsed)
    moves = controller.rail_move_ns
    base_code = base.rail_codes
    base_transition = moves[0, base_code]
    base_sentence = (elapsed + base_transition
                     + rail_layer_ns[np.arange(n), base_code])
    base_total = float(base_sentence.sum())

    if n == 0 or budget.deadline_ns <= 0:
        # No sentences (nothing to water-fill) or no budget: the
        # per-sentence plan is the answer either way.
        return _fallback_plan(base, base_transition, base_sentence,
                              base_total, budget)

    # Effective per-sentence ceiling: the per-sentence row, with nominal
    # fallbacks (infeasible targets, no work) pinned at the top row — the
    # batch budget, not the blown per-sentence target, now decides
    # whether they fit.
    num_rows = num_codes - 1
    base_eff = np.where(base.table_index >= 0, base.table_index,
                        num_rows - 1)
    limit = budget.deadline_ns + DEADLINE_TOL_NS
    wake = bool(remaining[0] <= 0)
    levels = np.arange(num_rows)

    def score(rows, front=None):
        return _score(rows, front, wake, moves, rail_layer_ns,
                      rail_front_ns)

    # Every shared water level at once; the lowest that fits wins.
    scored = score(np.minimum(base_eff, levels[:, None]))
    fits = scored[-1] <= limit
    level = int(fits.argmax())
    if fits[level]:
        pick = level
        if level > 0 and n > 1:
            # Leftover slack buys the earliest sentences — the batch's
            # earliest deadlines — one more step down the table; the
            # plan tightens back to the level as the deadline
            # approaches. Keep the longest prefix that fits before the
            # first overrun.
            kept = _longest_prefix(score, base_eff, level, limit)
            if kept is not None:
                scored, pick = kept
    else:
        # Even the fastest level (per-sentence rows, fronts riding the
        # batch rail) overruns the budget. Before surrendering to the
        # per-sentence fallback — which sprints every front end at
        # nominal V/F — decouple the fronts onto one intermediate table
        # row: layers stay at their per-sentence rows (the fastest the
        # water-fill allows), fronts sweep up from the floor, and the
        # lowest level whose schedule still fits wins. This closes the
        # window between "per-sentence plan fits" and "slowest schedule
        # fits" where the fallback used to burn nominal front energy.
        front = np.repeat(levels[:, None] + 1, n, axis=1)
        front[:, 0] = 0
        scored = score(np.broadcast_to(base_eff, front.shape), front)
        fits = scored[-1] <= limit
        pick = int(fits.argmax())
        if not fits[pick]:
            # No front level fits either: the deadline grants no slack
            # over today's plan, so return it unchanged.
            return _fallback_plan(base, base_transition, base_sentence,
                                  base_total, budget)

    rail, front, transition, sentence, totals = scored
    rail = rail[pick]
    table = controller.table
    return DeadlineBatchPlan(
        vdd=table.rail_voltages[rail],
        freq_ghz=table.rail_frequencies[rail],
        meets_target=np.ones(n, dtype=bool),
        requested_freq_ghz=base.requested_freq_ghz,
        table_index=rail - 1,
        front_index=front[pick] - 1,
        transition_ns=transition[pick],
        rail_changed=transition[pick] > 0,
        sentence_ns=sentence[pick],
        planned_ns=float(totals[pick]),
        deadline_ns=budget.deadline_ns,
        fallback=False,
        feasible=True,
    )


def _fallback_plan(base, transition, sentence, total, budget):
    """The per-sentence plan, unchanged, as a :class:`DeadlineBatchPlan`."""
    return DeadlineBatchPlan(
        vdd=base.vdd, freq_ghz=base.freq_ghz,
        meets_target=base.meets_target,
        requested_freq_ghz=base.requested_freq_ghz,
        table_index=base.table_index,
        front_index=np.full(base.table_index.size, -1, dtype=np.int64),
        transition_ns=transition,
        rail_changed=transition > 0,
        sentence_ns=sentence,
        planned_ns=total,
        deadline_ns=budget.deadline_ns,
        fallback=True,
        feasible=total <= budget.deadline_ns + DEADLINE_TOL_NS,
    )

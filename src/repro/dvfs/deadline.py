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

1. price today's per-sentence plan, one
   :meth:`~repro.dvfs.DvfsController.plan_row` per sentence (the
   fallback, and the oracle the zero-slack path must reproduce exactly);
2. sweep the shared *water levels* up from the table floor — a table
   row every sentence is lowered to (never below its per-sentence row…
   never *above* it either: the level only ever slows sentences) with
   the whole batch, front ends included, riding the level's rail — and
   keep the first level whose predicted schedule meets the deadline.
   Every level at or above the highest per-sentence row is the same
   schedule, so the sweep ends there;
3. spend any leftover slack lowering the *earliest* sentences one more
   step (they are the batch's earliest deadlines — the plan tightens as
   the deadline approaches): prefix ``j`` lowers sentences ``0..j``,
   the sweep walks ``j = 0 … n − 2`` and keeps the last prefix before
   the first one that overruns.

When no shared level fits, the planner tries **decoupling the front
ends** before falling back: layers stay at their per-sentence rows and
the fronts alone ride one intermediate V/F row — rows swept up from the
floor, the first whose schedule still meets the deadline wins (each
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

Candidates are scored one at a time, in Python floats, over *rail
codes* (code 0 is the nominal point, code ``i + 1`` V/F row ``i``):
per-sentence layer and front-end times per code, and the controller's
per-config rail-move matrix
(:attr:`~repro.dvfs.DvfsController.rail_move_rows`). A sentence's
predicted time is ``(front + transition) + layers``. Consecutive
candidates differ in few sentences — a prefix step moves sentence ``j``
to a lower rail, which changes only its own time and sentence
``j + 1``'s move onto it — so each sentence's time is computed once per
level and a prefix candidate is spliced from those lists. A
candidate's total is :func:`pairwise_sum` of its sentence times, which
adds in NumPy's float64 order: ``planned_ns`` and every fit verdict are
the floats an array ``sum()`` of the same times gives.

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
            raise DvfsError(
                "per-sentence target_ns must be finite and positive")
        if not math.isfinite(self.deadline_ns) or self.deadline_ns < 0:
            raise DvfsError("deadline_ns must be finite and non-negative")

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


def pairwise_sum(values):
    """The sum of Python floats ``values``, added in NumPy's float64 order.

    ``np.add.reduce`` of a contiguous float64 vector adds 0.0 to a
    pairwise sum: fewer than 8 values left to right from 0.0; up to 128
    in eight accumulators (every eighth value each, left to right),
    combined as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``,
    then the tail left to right; beyond that, the sum of the first half
    (rounded down to a multiple of 8) plus the sum of the rest. The
    result is the float that ``sum()`` of the same values as an array,
    or as a row of a C-contiguous 2-D array, gives — the tests hold the
    two to the bit.
    """
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values, start, n, known=None):
    """The pairwise sum of ``values[start:start + n]``.

    ``known(start, n)``, when given, may return a block's sum (None
    where it does not know it) in place of summing that block again.
    """
    if known is not None:
        total = known(start, n)
        if total is not None:
            return total
    if n < 8:
        total = 0.0
        for value in values[start:start + n]:
            total += value
        return total
    if n <= 128:
        stop = start + n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start:start + 8]
        # Eight values at a time, one to each accumulator.
        for a, b, c, d, e, f, g, h in zip(*[iter(values[start + 8:stop])] * 8):
            r0 += a
            r1 += b
            r2 += c
            r3 += d
            r4 += e
            r5 += f
            r6 += g
            r7 += h
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for value in values[stop:start + n]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return (_pairwise(values, start, half, known)
            + _pairwise(values, start + half, n - half, known))


def _nested(values):
    """``values`` as (nested) lists of Python floats, and their shape.

    A list is read as it is — a list of rows must hold rows of one
    length — and anything else goes through ``np.asarray``.
    """
    if not isinstance(values, list):
        values = np.asarray(values, dtype=np.float64)
        return values.tolist(), values.shape
    if values and isinstance(values[0], list):
        widths = {len(row) for row in values}
        if len(widths) != 1:
            return values, ("ragged",)
        return values, (len(values), *widths)
    return values, (len(values),)


def _times(front_ns, fronts, transition, layers):
    """Each sentence's predicted time: ``(front + transition) + layers``."""
    return [(times[lead] + move) + layer
            for times, lead, move, layer in zip(front_ns, fronts, transition,
                                                layers)]


class _Schedule:
    """One candidate rail schedule, scored in Python floats.

    ``codes`` is the rail each sentence runs on, ``fronts`` the rail
    code of each front end (sentence 0's is always the nominal wake
    point, code 0), ``transition`` the rail moves charged at each
    sentence's boundary, ``layers`` each sentence's predicted post-front
    time, ``sentence`` its predicted time and ``total`` their
    :func:`pairwise_sum`.
    """

    def __init__(self, codes, fronts, transition, layers, sentence,
                 total=None):
        self.codes = codes
        self.fronts = fronts
        self.transition = transition
        self.layers = layers
        self.sentence = sentence
        self.total = pairwise_sum(sentence) if total is None else total

    @classmethod
    def coupled(cls, moves, layer_ns, front_ns, wake, rows):
        """Layers on table ``rows``, fronts riding the layer rail.

        The water level only ever slows a sentence, so ``rows`` never
        exceed the per-sentence rows. Each sentence runs on code
        ``row + 1``, except that a sentence 0 with no post-front work
        (``wake``) keeps the nominal wake point and the rail first moves
        for sentence 1; layers read the codes before that fix-up. Each
        boundary pays one move, from the previous sentence's rail (the
        nominal wake point for sentence 0).
        """
        codes = [row + 1 for row in rows]
        layers = [layer[code] for layer, code in zip(layer_ns, codes)]
        if wake:
            codes[0] = 0
        fronts = [0, *codes[1:]]
        transition = [moves[prev][code]
                      for prev, code in zip([0, *codes], codes)]
        return cls(codes, fronts, transition, layers,
                   _times(front_ns, fronts, transition, layers))

    def decoupled(self, moves, front_ns, front):
        """This schedule's layers with fronts 1.. on rail code ``front``.

        Each boundary then pays two moves: previous rail → front rail →
        layer rail.
        """
        codes = self.codes
        fronts = [0, *[front] * (len(codes) - 1)]
        transition = [moves[prev][lead] + moves[lead][code]
                      for prev, lead, code in zip([0, *codes], fronts,
                                                  codes)]
        return type(self)(codes, fronts, transition, self.layers,
                          _times(front_ns, fronts, transition, self.layers))

    def plan(self, table, requested, deadline_ns, meets=None):
        """This schedule as a :class:`DeadlineBatchPlan`.

        A water-filled schedule fits its deadline and meets every
        target. The per-sentence fallback passes the controller's
        per-sentence verdicts as ``meets`` and may overrun.
        """
        codes = np.array(self.codes, dtype=np.int64)
        transition = np.array(self.transition, dtype=np.float64)
        fallback = meets is not None
        return DeadlineBatchPlan(
            vdd=table.rail_voltages[codes],
            freq_ghz=table.rail_frequencies[codes],
            meets_target=np.array(meets if fallback
                                  else [True] * codes.size, dtype=bool),
            requested_freq_ghz=requested,
            table_index=codes - 1,
            front_index=np.array(self.fronts, dtype=np.int64) - 1,
            transition_ns=transition,
            rail_changed=transition > 0,
            sentence_ns=np.array(self.sentence, dtype=np.float64),
            planned_ns=self.total,
            deadline_ns=deadline_ns,
            fallback=fallback,
            feasible=not fallback
            or self.total <= deadline_ns + DEADLINE_TOL_NS,
        )


def _longest_fitting_prefix(moves, front_ns, ceiling, level, below, above,
                            limit):
    """The level schedule with its longest fitting prefix one row lower.

    ``above`` is the schedule at ``level`` and ``below`` the one at
    ``level - 1``. Prefix ``j`` lowers sentences ``0..j``; each
    sentence's time depends only on its own rail and the previous one,
    so prefix ``j``'s times are ``below``'s up to ``j``, then sentence
    ``j + 1`` at the level after a lowered predecessor (``joint``), then
    ``above``'s. Prefixes are tried in order up to ``n - 2`` (lowering
    every sentence is ``below`` itself), and the last one before the
    first overrun is kept; a sentence whose ceiling is already below the
    level lowers to itself, so its prefix repeats the previous
    candidate, which fits. Returns ``above`` when prefix 0 overruns.
    """
    n = len(ceiling)
    joint_move = [moves[prev][code]
                  for prev, code in zip(below.codes, above.codes[1:])]
    joint = _times(front_ns[1:], above.fronts[1:], joint_move,
                   above.layers[1:])
    # A block of the pairwise sum that lies wholly before the joint
    # sentence holds ``below``'s times, and one wholly after it
    # ``above``'s, in every candidate: each such block is summed once.
    sums = {}

    def known(start, size):
        if start + size <= joint_at:
            key, times = (start, size, 0), below.sentence
        elif start > joint_at:
            key, times = (start, size, 1), above.sentence
        else:
            return None
        total = sums.get(key)
        if total is None:
            total = sums[key] = _pairwise(times, start, size)
        return total

    pick, total = None, above.total
    for j in range(n - 1):
        if ceiling[j] >= level:
            joint_at = j + 1
            trial = 0.0 + _pairwise(
                below.sentence[:joint_at] + [joint[j]]
                + above.sentence[joint_at + 1:], 0, n, known)
            if trial > limit:
                break
            total = trial
        pick = j
    if pick is None:
        return above
    head, tail = slice(None, pick + 1), slice(pick + 1, None)
    return _Schedule(
        below.codes[head] + above.codes[tail],
        below.fronts[head] + above.fronts[tail],
        below.transition[head] + [joint_move[pick]]
        + above.transition[pick + 2:],
        below.layers[head] + above.layers[tail],
        below.sentence[head] + [joint[pick]] + above.sentence[pick + 2:],
        total)


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
    whose code 0 must equal ``elapsed_ns`` (:class:`DvfsError`
    otherwise). Arrays and nested lists of floats are both accepted.
    The engine passes both from its exit columns and
    :class:`~repro.core.engine.PricingTables`, so the plan predicts with
    the exact per-row costs it will be priced with; left None, they are
    cycles over each code's frequency and the nominal front end's cycles
    at each code's frequency.
    """
    budget = _as_budget(budget, target_ns)
    remaining, shape = _nested(remaining_cycles)
    if not shape:
        remaining, shape = [remaining], (1,)
    if len(shape) != 1:
        raise DvfsError("remaining_cycles must be one-dimensional")
    n = shape[0]
    elapsed = np.asarray(elapsed_ns, dtype=np.float64)
    if elapsed.ndim:
        elapsed = np.broadcast_to(elapsed, shape)
    table = controller.table
    rail_freq = table.rail_frequencies
    if rail_layer_ns is None:
        rail_layer_ns = (np.array(remaining, dtype=np.float64)[:, None]
                         / rail_freq[None, :])
    if rail_front_ns is None:
        rail_front_ns = elapsed[..., None] * (rail_freq[0] / rail_freq)
    num_codes = rail_freq.size
    layer_ns, layer_shape = _nested(rail_layer_ns)
    front_ns, front_shape = _nested(rail_front_ns)
    if layer_shape != (n, num_codes) or front_shape \
            not in ((num_codes,), (n, num_codes)):
        raise DvfsError(
            f"rail-coded times must be ({n}, {num_codes}) per sentence "
            f"and ({num_codes},) or ({n}, {num_codes}) per front, got "
            f"{layer_shape} and {front_shape}")
    if len(front_shape) == 1:
        front_ns = [front_ns] * n
    elapsed = elapsed.tolist() if elapsed.ndim else [elapsed.item()] * n
    if any(times[0] != front for times, front in zip(front_ns, elapsed)):
        raise DvfsError(
            "rail_front_ns at code 0 (the nominal front end) must equal "
            "elapsed_ns")

    # Today's per-sentence plan: the controller's decision for each
    # sentence, which depends only on its work and front time (a batch
    # repeats both).
    decisions = {key: controller.plan_row(key[0], budget.target_ns, key[1])
                 for key in set(zip(remaining, elapsed))}
    base = [decisions[key] for key in zip(remaining, elapsed)]
    base_codes = [row + 1 for row, _, _ in base]
    requested = np.array([request for _, _, request in base],
                         dtype=np.float64)
    moves = controller.rail_move_rows

    def fallback():
        # The per-sentence plan, unchanged, timed the way the engine
        # prices it: the nominal front end, one transition down from
        # nominal, then the predicted layers at the planned point.
        fronts = [0] * n
        transition = [moves[0][code] for code in base_codes]
        layers = [layer[code] for layer, code in zip(layer_ns, base_codes)]
        return _Schedule(
            base_codes, fronts, transition, layers,
            _times(front_ns, fronts, transition, layers),
        ).plan(table, requested, budget.deadline_ns,
               meets=[met for _, met, _ in base])

    if n == 0 or budget.deadline_ns <= 0:
        # No sentences (nothing to water-fill) or no budget: the
        # per-sentence plan is the answer either way.
        return fallback()

    # Effective per-sentence ceiling: the per-sentence row, with nominal
    # fallbacks (infeasible targets, no work) pinned at the top row — the
    # batch budget, not the blown per-sentence target, now decides
    # whether they fit.
    num_rows = num_codes - 1
    ceiling = [code - 1 if code else num_rows - 1 for code in base_codes]
    limit = budget.deadline_ns + DEADLINE_TOL_NS
    wake = remaining[0] <= 0

    # Shared water levels from the floor up; the first that fits wins.
    # Every level from the highest ceiling on is the same schedule.
    below = None
    for level in range(max(ceiling) + 1):
        chosen = _Schedule.coupled(moves, layer_ns, front_ns, wake,
                                   [min(row, level) for row in ceiling])
        if chosen.total <= limit:
            break
        below = chosen
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
        # The last level scored holds every sentence at its ceiling.
        for front in range(1, num_codes):
            trial = chosen.decoupled(moves, front_ns, front)
            if trial.total <= limit:
                return trial.plan(table, requested, budget.deadline_ns)
        # No front level fits either: the deadline grants no slack over
        # today's plan, so return it unchanged.
        return fallback()

    if level > 0:
        # Leftover slack buys the earliest sentences — the batch's
        # earliest deadlines — one more step down the table; the plan
        # tightens back to the level as the deadline approaches.
        chosen = _longest_fitting_prefix(moves, front_ns, ceiling, level,
                                         below, chosen, limit)
    return chosen.plan(table, requested, budget.deadline_ns)

"""The loop-based deadline water-fill, kept as a test reference.

This is the planner :mod:`repro.dvfs.deadline` shipped before it scored
each sweep as one (candidates x sentences) array: ``_Schedule.evaluate``
prices one candidate schedule at a time, the coupled and decoupled
sweeps walk the V/F levels in order, and the leftover-slack prefixes
are tried one by one until the first overrun. ``plan_batch`` is the
matching per-sentence plan built on ``np.broadcast_arrays`` with masked
assignments. The tests hold the production planner to this one field
by field with ``np.array_equal``.

Imported by the deadline tests (``from deadline_reference import ...``).
A prefix of all ``n`` sentences is the level above the chosen one,
already infeasible, so the longest prefix this loop can keep is
``n - 1`` sentences: that is the ``"prefix-full"`` branch.
"""

import numpy as np

from repro.dvfs.controller import BatchPlan
from repro.dvfs.deadline import (
    DEADLINE_TOL_NS,
    DeadlineBatchPlan,
    _as_budget,
)
from repro.errors import DvfsError


def plan_batch(controller, remaining_cycles, target_ns, elapsed_ns):
    """The masked-assignment ``DvfsController.plan_batch``."""
    remaining, target, elapsed = np.broadcast_arrays(
        np.asarray(remaining_cycles, dtype=np.float64),
        np.asarray(target_ns, dtype=np.float64),
        np.asarray(elapsed_ns, dtype=np.float64))
    table = controller.table
    nominal_vdd, nominal_freq = table.nominal_point()
    slack = target - elapsed

    active = remaining > 0
    blown = active & (slack <= 0)
    planned = active & (slack > 0)

    request = np.zeros_like(remaining)
    request[blown] = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        request[planned] = remaining[planned] / slack[planned]

    idx = np.full(remaining.shape, -1, dtype=np.int64)
    row = table.row_index_for(request[planned])
    feasible_rows = row < len(table)
    idx[planned] = np.where(feasible_rows, row, -1)

    hit = idx >= 0
    safe = np.maximum(idx, 0)
    vdd = np.where(hit, table.voltages[safe], nominal_vdd)
    freq = np.where(hit, table.frequencies[safe], nominal_freq)
    meets = hit | ~active
    return BatchPlan(vdd=vdd, freq_ghz=freq, meets_target=meets,
                     requested_freq_ghz=request, table_index=idx)


class _Schedule:
    """Vectorized evaluation of candidate batch rail schedules."""

    def __init__(self, controller, remaining, elapsed, layer_cycles,
                 point_time_ns, front_point_time_ns, nominal_layer_time_ns):
        self.controller = controller
        table = controller.table
        self.num_rows = len(table)
        self.freqs = table.frequencies
        self.volts = table.voltages
        self.nominal_vdd, self.nominal_freq = table.nominal_point()
        self.remaining = remaining
        self.elapsed = elapsed
        n = remaining.size

        # Per-sentence, per-row post-front layer time (n, R). When the
        # engine's pricing tables are handed in, the planner predicts
        # with the exact numbers the engine will price with.
        if point_time_ns is not None:
            if layer_cycles is None:
                raise DvfsError("point_time_ns needs layer_cycles")
            point_time = np.asarray(point_time_ns, dtype=np.float64)
            if point_time.shape != (self.num_rows,):
                raise DvfsError(
                    f"point_time_ns must have one entry per V/F row "
                    f"({self.num_rows}), got {point_time.shape}")
            layers = remaining / float(layer_cycles)
            self.layer_time = layers[:, None] * point_time[None, :]
            nominal_time = (float(nominal_layer_time_ns)
                            if nominal_layer_time_ns is not None
                            else float(layer_cycles) / self.nominal_freq)
            self.nominal_layer = layers * nominal_time
        else:
            self.layer_time = remaining[:, None] / self.freqs[None, :]
            self.nominal_layer = remaining / self.nominal_freq

        # Per-sentence, per-row front-end time (n, R).
        if front_point_time_ns is not None:
            front = np.asarray(front_point_time_ns, dtype=np.float64)
            if front.shape != (self.num_rows,):
                raise DvfsError(
                    f"front_point_time_ns must have one entry per V/F row "
                    f"({self.num_rows}), got {front.shape}")
            self.front_time = np.broadcast_to(front, (n, self.num_rows))
        else:
            self.front_time = (self.elapsed[:, None]
                               * (self.nominal_freq / self.freqs)[None, :])

    def _rail_points(self, rail):
        hit = rail >= 0
        safe = np.maximum(rail, 0)
        vdd = np.where(hit, self.volts[safe], self.nominal_vdd)
        freq = np.where(hit, self.freqs[safe], self.nominal_freq)
        return vdd, freq

    def evaluate(self, level_rows, base_rows, front_level=None):
        """Predicted schedule for per-sentence water levels.

        ``level_rows`` is the (n,) candidate level per sentence;
        ``base_rows`` the per-sentence plan's effective rows (the level
        only ever *slows* a sentence, so the planned row is the
        elementwise minimum). By default fronts ride the layer rail;
        ``front_level`` decouples them onto one intermediate table row
        — each sentence's boundary then pays two rail moves (previous
        layer rail → front rail → layer rail) instead of one, which is
        exactly the one-move schedule again whenever the rows coincide.
        Returns the full candidate: rows, rails, per-sentence times and
        the total.
        """
        n = self.remaining.size
        rows = np.minimum(base_rows, level_rows)
        rail = rows.copy()
        if self.remaining[0] <= 0:
            # Sentence 0 has no post-front work: its front runs at the
            # nominal wake point and the rail first moves for sentence 1.
            rail[0] = -1
        if front_level is None:
            front_index = rows.copy()
        else:
            front_index = np.full(n, int(front_level), dtype=np.int64)
        # The wake transition lands the rail at nominal, exactly where
        # sentence 0's front end needs it.
        front_index[0] = -1

        cur_vdd, cur_freq = self._rail_points(rail)
        prev_vdd = np.concatenate([[self.nominal_vdd], cur_vdd[:-1]])
        prev_freq = np.concatenate([[self.nominal_freq], cur_freq[:-1]])
        if front_level is None:
            # Coupled fronts sit on the layer rail (sentence 0's front
            # is nominal, exactly where the previous rail already is),
            # so the boundary is a single move — skip the second,
            # identically-zero transition pass on this hot path.
            transition = self.controller.transition_overhead_ns_batch(
                prev_vdd, cur_vdd, prev_freq, cur_freq)
        else:
            front_vdd, front_freq = self._rail_points(front_index)
            transition = (
                self.controller.transition_overhead_ns_batch(
                    prev_vdd, front_vdd, prev_freq, front_freq)
                + self.controller.transition_overhead_ns_batch(
                    front_vdd, cur_vdd, front_freq, cur_freq))
        rail_changed = transition > 0

        fronts = np.where(front_index >= 0,
                          self.front_time[np.arange(n),
                                          np.maximum(front_index, 0)],
                          self.elapsed)
        layers = np.where(rows >= 0,
                          self.layer_time[np.arange(n),
                                          np.maximum(rows, 0)],
                          self.nominal_layer)
        sentence_ns = fronts + transition + layers
        return {
            "rail": rail,
            "front_index": front_index,
            "transition_ns": transition,
            "rail_changed": rail_changed,
            "sentence_ns": sentence_ns,
            "total_ns": float(sentence_ns.sum()),
            "vdd": cur_vdd,
            "freq": cur_freq,
        }


def plan_batch_deadline(controller, remaining_cycles, budget, elapsed_ns,
                        target_ns=None, layer_cycles=None,
                        point_time_ns=None, front_point_time_ns=None,
                        nominal_layer_time_ns=None, trace=None):
    """The loop-based water-fill: one ``_Schedule.evaluate`` per candidate.

    Same result as :func:`repro.dvfs.deadline.plan_batch_deadline`, from
    the times it took before rail codes: the engine's per-row layer
    times ``point_time_ns`` (with ``layer_cycles`` and
    ``nominal_layer_time_ns``) and front-end times
    ``front_point_time_ns`` — rail codes ``1..`` of the rail-coded
    vectors — or cycles over frequency when those are None. ``trace``,
    when a dict, receives the branch taken under ``"branch"``
    (``"fallback"``, ``"level0"``, ``"prefix-none"``,
    ``"prefix-partial"``, ``"prefix-full"`` or ``"decoupled"``), the
    chosen ``"level"`` and ``"prefix"`` length, and the ``_Schedule``
    the candidates were scored on.
    """
    if trace is None:
        trace = {}
    budget = _as_budget(budget, target_ns)
    remaining = np.atleast_1d(
        np.asarray(remaining_cycles, dtype=np.float64))
    if remaining.ndim != 1:
        raise DvfsError("remaining_cycles must be one-dimensional")
    elapsed = np.broadcast_to(
        np.asarray(elapsed_ns, dtype=np.float64),
        remaining.shape).astype(np.float64)

    base = plan_batch(controller, remaining, budget.target_ns, elapsed)
    sched = trace["schedule"] = _Schedule(
        controller, remaining, elapsed, layer_cycles, point_time_ns,
        front_point_time_ns, nominal_layer_time_ns)

    # Today's per-sentence plan, timed the way the engine prices it: the
    # nominal front end, one transition down from nominal, then the
    # predicted layers at the planned point.
    base_transition = controller.transition_overhead_ns_batch(
        sched.nominal_vdd, base.vdd, sched.nominal_freq, base.freq_ghz)
    n = remaining.size
    base_layer = np.where(
        base.table_index >= 0,
        sched.layer_time[np.arange(n), np.maximum(base.table_index, 0)],
        sched.nominal_layer)
    base_sentence = elapsed + base_transition + base_layer
    base_total = float(base_sentence.sum())

    def fallback_plan():
        return DeadlineBatchPlan(
            vdd=base.vdd, freq_ghz=base.freq_ghz,
            meets_target=base.meets_target,
            requested_freq_ghz=base.requested_freq_ghz,
            table_index=base.table_index,
            front_index=np.full(n, -1, dtype=np.int64),
            transition_ns=base_transition,
            rail_changed=base_transition > 0,
            sentence_ns=base_sentence,
            planned_ns=base_total,
            deadline_ns=budget.deadline_ns,
            fallback=True,
            feasible=base_total <= budget.deadline_ns + DEADLINE_TOL_NS,
        )

    trace.update(branch="fallback", level=None, prefix=0,
                 base_eff=None)
    if n == 0 or budget.deadline_ns <= 0:
        # No sentences (nothing to water-fill) or no budget: the
        # per-sentence plan is the answer either way.
        return fallback_plan()

    # Effective per-sentence ceiling: the per-sentence row, with nominal
    # fallbacks (infeasible targets, no work) pinned at the top row — the
    # batch budget, not the blown per-sentence target, now decides
    # whether they fit.
    num_rows = sched.num_rows
    base_eff = trace["base_eff"] = np.where(base.table_index >= 0,
                                            base.table_index, num_rows - 1)

    chosen = None
    chosen_level = None
    for level in range(num_rows):
        candidate = sched.evaluate(
            np.full(n, level, dtype=np.int64), base_eff)
        if candidate["total_ns"] <= budget.deadline_ns + DEADLINE_TOL_NS:
            chosen, chosen_level = candidate, level
            break
    if chosen is None:
        # Even the fastest level (per-sentence rows, fronts riding the
        # batch rail) overruns the budget. Before surrendering to the
        # per-sentence fallback — which sprints every front end at
        # nominal V/F — decouple the fronts onto one intermediate table
        # row: layers stay at their per-sentence rows (the fastest the
        # water-fill allows), fronts sweep up from the floor, and the
        # lowest level whose schedule still fits wins. This closes the
        # window between "per-sentence plan fits" and "slowest schedule
        # fits" where the fallback used to burn nominal front energy.
        fastest = np.full(n, num_rows - 1, dtype=np.int64)
        for front_level in range(num_rows):
            candidate = sched.evaluate(fastest, base_eff,
                                       front_level=front_level)
            if candidate["total_ns"] \
                    <= budget.deadline_ns + DEADLINE_TOL_NS:
                chosen = candidate
                trace.update(branch="decoupled", level=front_level)
                break
    else:
        trace.update(branch="level0" if chosen_level == 0
                     else "prefix-none", level=chosen_level)
    if chosen is None:
        # No front level fits either: the deadline grants no slack over
        # today's plan, so return it unchanged.
        return fallback_plan()

    if chosen_level is not None and chosen_level > 0:
        # Leftover slack buys the earliest sentences — the batch's
        # earliest deadlines — one more step down the table; the plan
        # tightens back to the level as the deadline approaches.
        level_rows = np.full(n, chosen_level, dtype=np.int64)
        for prefix in range(1, n + 1):
            trial_rows = level_rows.copy()
            trial_rows[:prefix] = chosen_level - 1
            trial = sched.evaluate(trial_rows, base_eff)
            if trial["total_ns"] > budget.deadline_ns + DEADLINE_TOL_NS:
                break
            chosen = trial
            trace.update(branch="prefix-full" if prefix == n - 1
                         else "prefix-partial", prefix=prefix)

    return DeadlineBatchPlan(
        vdd=chosen["vdd"], freq_ghz=chosen["freq"],
        meets_target=np.ones(n, dtype=bool),
        requested_freq_ghz=base.requested_freq_ghz,
        table_index=chosen["rail"],
        front_index=chosen["front_index"],
        transition_ns=chosen["transition_ns"],
        rail_changed=chosen["rail_changed"],
        sentence_ns=chosen["sentence_ns"],
        planned_ns=chosen["total_ns"],
        deadline_ns=budget.deadline_ns,
        fallback=False,
        feasible=True,
    )

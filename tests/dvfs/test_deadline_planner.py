"""Deadline-budget planner tests: zero-slack oracle, monotonicity,
deadline-met invariant, and the water-filling shape."""

import dataclasses

import numpy as np
import pytest
from deadline_reference import plan_batch_deadline as reference_plan

from repro.config import GLUE_TASKS
from repro.core.engine import (
    lai_exit_columns,
    price_latency_aware_batch,
    price_latency_aware_deadline_columns,
)
from repro.dvfs import DeadlineBudget, DvfsController
from repro.dvfs.deadline import DeadlineBatchPlan, plan_batch_deadline
from repro.errors import DvfsError
from repro.serving import synthetic_registry

RELAXED_MS = 50.0


@pytest.fixture(scope="module")
def profile():
    registry = synthetic_registry(GLUE_TASKS[:1], n=24, seed=0)
    return registry.profile(registry.tasks[0])


@pytest.fixture(scope="module")
def tables(profile):
    return profile.engine.pricing_tables()


def price_deadline(profile, tables, target_ms, deadline_ms,
                   entropies=None):
    columns = lai_exit_columns(
        tables, profile.entropies if entropies is None else entropies,
        profile.lut, profile.entropy_threshold, deadline=True)
    return price_latency_aware_deadline_columns(
        tables, profile.engine.dvfs, columns, target_ms, deadline_ms)


def rail_kwargs(tables, remaining):
    """The engine's rail-coded planner inputs for ``remaining`` cycles."""
    return dict(rail_layer_ns=(remaining / float(tables.layer_cycles))
                [:, None] * tables.rail_layer_time_ns,
                rail_front_ns=tables.rail_front_time_ns)


def price_per_sentence(profile, tables, target_ms):
    return price_latency_aware_batch(
        tables, profile.engine.dvfs, profile.entropies, profile.lut,
        profile.entropy_threshold, target_ms)


class TestDeadlineBudget:
    def test_validation(self):
        with pytest.raises(DvfsError):
            DeadlineBudget(deadline_ns=-1.0, target_ns=1e6)
        with pytest.raises(DvfsError):
            DeadlineBudget(deadline_ns=1e6, target_ns=0.0)
        with pytest.raises(DvfsError):
            DeadlineBudget(deadline_ns=float("inf"), target_ns=1e6)

    def test_from_ms(self):
        budget = DeadlineBudget.from_ms(10.0, 2.0)
        assert budget.deadline_ns == pytest.approx(10e6)
        assert budget.target_ns == pytest.approx(2e6)

    def test_zero_slack_constructor(self):
        assert DeadlineBudget.zero_slack(5.0).deadline_ns == 0.0

    def test_scalar_budget_needs_target(self):
        controller = DvfsController()
        with pytest.raises(DvfsError):
            controller.plan_batch_deadline([1e6], 50e6, 4e3)


class TestZeroSlackOracle:
    """The acceptance criterion: zero slack == per-sentence to 1e-9."""

    @pytest.mark.parametrize("target_ms", [1.0, 2.0, RELAXED_MS])
    def test_zero_deadline_reproduces_per_sentence(self, profile, tables,
                                                   target_ms):
        per = price_per_sentence(profile, tables, target_ms)
        dead = price_deadline(profile, tables, target_ms, 0.0)
        for key in per:
            np.testing.assert_allclose(
                np.asarray(dead[key], dtype=np.float64),
                np.asarray(per[key], dtype=np.float64), rtol=0,
                atol=1e-9, err_msg=key)

    def test_budget_below_plan_reproduces_per_sentence(self, profile,
                                                       tables):
        per = price_per_sentence(profile, tables, RELAXED_MS)
        tight = float(per["latency_ms"].sum()) * 0.9
        dead = price_deadline(profile, tables, RELAXED_MS, tight)
        for key in per:
            np.testing.assert_allclose(
                np.asarray(dead[key], dtype=np.float64),
                np.asarray(per[key], dtype=np.float64), rtol=0,
                atol=1e-9, err_msg=key)

    def test_planner_fallback_flags(self, profile, tables):
        engine = profile.engine
        remaining = np.array([4 * tables.layer_cycles,
                              2 * tables.layer_cycles], dtype=np.float64)
        front = tables.embed_time_ns + tables.layer_time_ns
        plan = engine.dvfs.plan_batch_deadline(
            remaining, DeadlineBudget.zero_slack(RELAXED_MS), front)
        base = engine.dvfs.plan_batch(remaining, RELAXED_MS * 1e6, front)
        assert plan.fallback
        np.testing.assert_array_equal(plan.table_index, base.table_index)
        np.testing.assert_array_equal(plan.front_index, [-1, -1])


class TestMonotonicity:
    def test_more_slack_never_costs_more_energy(self, profile, tables):
        energies = [
            float(price_deadline(profile, tables, RELAXED_MS,
                                 deadline)["energy_mj"].sum())
            for deadline in np.linspace(0.0, 400.0, 81)
        ]
        assert all(b <= a + 1e-12
                   for a, b in zip(energies, energies[1:]))

    def test_rows_componentwise_non_increasing(self, profile, tables):
        engine = profile.engine
        remaining = np.array([2, 5, 8, 11], dtype=np.float64) \
            * tables.layer_cycles
        front = tables.embed_time_ns + tables.layer_time_ns
        kwargs = rail_kwargs(tables, remaining)
        prev = None
        for deadline_ms in (6.0, 8.0, 12.0, 20.0, 60.0):
            plan = engine.dvfs.plan_batch_deadline(
                remaining, DeadlineBudget.from_ms(deadline_ms, 3.0),
                front, **kwargs)
            if plan.fallback:
                continue
            rows = plan.table_index
            if prev is not None:
                assert np.all(rows <= prev)
            prev = rows


class TestDeadlineMetInvariant:
    def test_feasible_plans_fit_their_budget(self, profile, tables):
        per_total = float(
            price_per_sentence(profile, tables,
                               RELAXED_MS)["latency_ms"].sum())
        for deadline in (per_total * 1.1, per_total * 1.5,
                         per_total * 4.0, 1e4):
            priced = price_deadline(profile, tables, RELAXED_MS, deadline)
            total = float(priced["latency_ms"].sum())
            assert total <= deadline + 1e-6
            assert priced["met_target"].all()

    def test_infeasible_budget_returns_per_sentence(self, profile, tables):
        # A budget below the per-sentence plan's own schedule cannot be
        # met — the planner must hand back exactly today's plan rather
        # than a broken promise.
        per = price_per_sentence(profile, tables, RELAXED_MS)
        priced = price_deadline(profile, tables, RELAXED_MS,
                                float(per["latency_ms"].sum()) * 0.5)
        np.testing.assert_allclose(priced["latency_ms"],
                                   per["latency_ms"], atol=1e-9)

    def test_table_corner_budgets(self, profile, tables):
        """Budgets pinned to the V/F corners: all-floor and all-top."""
        engine = profile.engine
        table = engine.dvfs.table
        remaining = np.array([6, 6, 6], dtype=np.float64) \
            * tables.layer_cycles
        front = tables.embed_time_ns + tables.layer_time_ns
        kwargs = rail_kwargs(tables, remaining)
        # Huge budget: everything sinks to the bottom row.
        plan = engine.dvfs.plan_batch_deadline(
            remaining, DeadlineBudget.from_ms(1e6, 2.0), front, **kwargs)
        assert not plan.fallback
        assert np.all(plan.table_index == 0)
        assert plan.planned_ns <= 1e6 * 1e6 + 1e-6
        # Budget exactly at the plan's own schedule: still feasible.
        exact = engine.dvfs.plan_batch_deadline(
            remaining,
            DeadlineBudget(plan.planned_ns, 2.0 * 1e6), front, **kwargs)
        assert not exact.fallback
        assert exact.planned_ns <= plan.planned_ns + 1e-6
        # A tight-but-feasible budget pins the top of the table: the
        # chosen level can only be the fastest one that fits.
        tight = engine.dvfs.plan_batch_deadline(
            remaining, DeadlineBudget.from_ms(3.2, 1.1), front, **kwargs)
        if not tight.fallback:
            assert tight.planned_ns <= 3.2e6 + 1e-6


class TestWaterFillingShape:
    def test_early_sentences_get_the_leftover_slack(self, profile, tables):
        """The prefix refinement lowers the earliest deadlines first."""
        engine = profile.engine
        remaining = np.full(6, 6.0) * tables.layer_cycles
        front = tables.embed_time_ns + tables.layer_time_ns
        kwargs = rail_kwargs(tables, remaining)
        # Sweep budgets between two levels until a split plan appears.
        split = None
        for deadline_ms in np.linspace(4.0, 30.0, 200):
            plan = engine.dvfs.plan_batch_deadline(
                remaining, DeadlineBudget.from_ms(deadline_ms, 2.0),
                front, **kwargs)
            if plan.fallback:
                continue
            rows = plan.table_index
            if rows.min() != rows.max():
                split = rows
                break
        assert split is not None, "no budget produced a split level"
        # Slower rows (lower index) must form a prefix: early sentences
        # take the slack, later ones tighten toward the deadline.
        boundary = int(np.argmax(split == split.max()))
        assert np.all(split[:boundary] == split.min())
        assert np.all(split[boundary:] == split.max())

    def test_fronts_ride_the_batch_rail(self, profile, tables):
        priced = price_deadline(profile, tables, RELAXED_MS, 1e4)
        per = price_per_sentence(profile, tables, RELAXED_MS)
        # Relaxed budget: every sentence after the first prices its
        # front end below the nominal sprint, so the batch is strictly
        # cheaper even where per-sentence planning already sat at the
        # table floor.
        assert float(priced["energy_mj"].sum()) \
            < float(per["energy_mj"].sum()) - 1e-9
        assert np.all(priced["energy_mj"][1:] < per["energy_mj"][1:])

    def test_exit1_sentences_budget_no_layers(self, profile, tables):
        # All sentences exit at layer 1: the plan owes only front ends.
        entropies = np.full_like(profile.entropies, 10.0)
        entropies[0] = 0.0  # below any threshold
        priced = price_deadline(profile, tables, RELAXED_MS, 1e4,
                                entropies=entropies)
        assert np.all(priced["exit_layer"] == 1)
        assert np.all(priced["predicted_layer"] == 1)
        # Fronts 2..N run scaled: cheaper than the nominal front.
        nominal_front_mj = (tables.embed_energy_pj
                            + tables.embedding_read_pj
                            + tables.layer_energy_pj) * 1e-9
        assert priced["energy_mj"][0] == pytest.approx(nominal_front_mj)
        assert np.all(priced["energy_mj"][1:] < nominal_front_mj)


class TestDecoupledFrontRail:
    """The front ends may ride an intermediate V/F level when no shared
    water level fits — closing the window between "per-sentence plan
    fits" and "slowest coupled schedule fits"."""

    @pytest.fixture()
    def planner_inputs(self, profile, tables):
        engine = profile.engine
        remaining = np.full(6, 6.0) * tables.layer_cycles
        front = tables.embed_time_ns + tables.layer_time_ns
        kwargs = rail_kwargs(tables, remaining)
        return engine, remaining, front, kwargs

    def _window_bounds(self, planner_inputs):
        """(fallback_total, coupled_floor_total) in ms for the fixture.

        Between the two, the coupled sweep fails but the per-sentence
        plan fits — the decoupled-front window.
        """
        engine, remaining, front, kwargs = planner_inputs
        huge = engine.dvfs.plan_batch_deadline(
            remaining, DeadlineBudget.from_ms(1e6, RELAXED_MS), front,
            **kwargs)
        coupled_floor_ms = huge.planned_ns / 1e6
        zero = engine.dvfs.plan_batch_deadline(
            remaining, DeadlineBudget.zero_slack(RELAXED_MS), front,
            **kwargs)
        fallback_ms = zero.planned_ns / 1e6
        assert fallback_ms < coupled_floor_ms
        return fallback_ms, coupled_floor_ms

    def test_window_budget_decouples_instead_of_falling_back(
            self, planner_inputs):
        engine, remaining, front, kwargs = planner_inputs
        low, high = self._window_bounds(planner_inputs)
        deadline_ms = (low + high) / 2.0
        plan = engine.dvfs.plan_batch_deadline(
            remaining, DeadlineBudget.from_ms(deadline_ms, RELAXED_MS),
            front, **kwargs)
        assert not plan.fallback
        assert plan.feasible
        assert plan.planned_ns <= deadline_ms * 1e6 + 1e-6
        # Fronts 2..N ride one intermediate row above the layer rail.
        assert np.all(plan.front_index[1:] > plan.table_index[1:])
        assert plan.front_index[0] == -1
        assert len(set(plan.front_index[1:].tolist())) == 1

    def test_decoupled_beats_the_old_fallback_on_energy(self, profile,
                                                        tables):
        """Engine-level: inside the window the priced batch must now be
        strictly cheaper than per-sentence pricing (which is exactly
        what the fallback used to return)."""
        per = price_per_sentence(profile, tables, RELAXED_MS)
        per_total = float(per["latency_ms"].sum())
        # Just above the per-sentence schedule: the coupled sweep
        # cannot fit (its slowest candidate carries slowed fronts), so
        # pre-change this budget returned per-sentence pricing.
        deadline_ms = per_total * 1.02
        dead = price_deadline(profile, tables, RELAXED_MS, deadline_ms)
        assert float(dead["latency_ms"].sum()) <= deadline_ms + 1e-6
        if not np.allclose(dead["latency_ms"], per["latency_ms"],
                           atol=1e-12):
            assert float(dead["energy_mj"].sum()) \
                < float(per["energy_mj"].sum()) - 1e-12

    def test_monotonicity_holds_across_the_window(self, profile,
                                                  tables):
        """Engine-level energy stays non-increasing in the budget while
        plans move fallback → decoupled fronts → coupled level."""
        per_total = float(price_per_sentence(
            profile, tables, RELAXED_MS)["latency_ms"].sum())
        energies = [
            float(price_deadline(profile, tables, RELAXED_MS,
                                 deadline)["energy_mj"].sum())
            for deadline in np.linspace(per_total * 0.9,
                                        per_total * 1.6, 80)
        ]
        assert all(b <= a + 1e-12
                   for a, b in zip(energies, energies[1:]))

    def test_below_the_window_still_falls_back_exactly(self, profile,
                                                       tables):
        per = price_per_sentence(profile, tables, RELAXED_MS)
        tight = float(per["latency_ms"].sum()) * 0.9
        dead = price_deadline(profile, tables, RELAXED_MS, tight)
        for key in per:
            np.testing.assert_allclose(
                np.asarray(dead[key], dtype=np.float64),
                np.asarray(per[key], dtype=np.float64), rtol=0,
                atol=1e-9, err_msg=key)

    def test_above_the_window_fronts_recouple(self, planner_inputs):
        engine, remaining, front, kwargs = planner_inputs
        _, high = self._window_bounds(planner_inputs)
        plan = engine.dvfs.plan_batch_deadline(
            remaining, DeadlineBudget.from_ms(high * 1.05, RELAXED_MS),
            front, **kwargs)
        assert not plan.fallback
        # A feasible shared level exists again: fronts ride the rail.
        np.testing.assert_array_equal(plan.front_index[1:],
                                      plan.table_index[1:])


class TestEngineIntegration:
    def test_simulate_dataset_deadline_ms(self, profile):
        report = profile.engine.simulate_dataset(
            "lai", profile.logits, profile.entropies, lut=profile.lut,
            entropy_threshold=profile.entropy_threshold,
            target_ms=RELAXED_MS, deadline_ms=1e4)
        baseline = profile.engine.simulate_dataset(
            "lai", profile.logits, profile.entropies, lut=profile.lut,
            entropy_threshold=profile.entropy_threshold,
            target_ms=RELAXED_MS)
        assert report.total_energy_mj < baseline.total_energy_mj
        assert report.target_violations == 0

    def test_empty_batch_matches_per_sentence_parity(self, profile,
                                                     tables):
        # A zero-sentence slice must degrade exactly like the
        # per-sentence kernel does, not crash in the water-fill.
        empty = profile.entropies[:, :0]
        priced = price_deadline(profile, tables, RELAXED_MS, 40.0,
                                entropies=empty)
        assert priced["exit_layer"].size == 0
        plan = profile.engine.dvfs.plan_batch_deadline(
            np.empty(0), DeadlineBudget.from_ms(40.0, RELAXED_MS),
            tables.embed_time_ns + tables.layer_time_ns)
        assert plan.fallback and len(plan) == 0

    def test_scalar_path_rejects_deadline(self, profile):
        from repro.errors import PipelineError
        with pytest.raises(PipelineError):
            profile.engine.simulate_dataset(
                "lai", profile.logits, profile.entropies, lut=profile.lut,
                entropy_threshold=profile.entropy_threshold,
                target_ms=RELAXED_MS, vectorized=False, deadline_ms=1e4)


# -- the one-pass planner against the loop-based reference ------------------


#: Every branch the water-fill can take. ``prefix-full`` keeps every
#: prefix short of the whole batch (lowering all n sentences is the
#: level above, already infeasible); ``zero`` is a zero budget and
#: ``fallback`` a positive one with no feasible candidate.
BRANCHES = ("zero", "fallback", "level0", "prefix-none", "prefix-partial",
            "prefix-full", "decoupled")
PLAN_FIELDS = tuple(f.name for f in dataclasses.fields(DeadlineBatchPlan))


def assert_same_plan(plan, ref):
    for name in PLAN_FIELDS:
        got, want = getattr(plan, name), getattr(ref, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        else:
            assert type(got) is type(want) and got == want, name


def reference_deadlines(controller, remaining, elapsed, target_ns, kwargs,
                        rng):
    """Budgets that land on candidate schedules' own totals.

    Scored with the reference ``_Schedule``: zero, the level-0 total,
    one slower level's total with two of its prefix totals (a random one
    and the longest), the cheapest decoupled-front total, and half of
    the cheapest candidate's total.
    """
    trace = {}
    reference_plan(controller, remaining, DeadlineBudget(1e18, target_ns),
                   elapsed, trace=trace, **kwargs)
    if remaining.size == 0:
        return [0.0, 1e7]
    sched, base_eff = trace["schedule"], trace["base_eff"]
    n, rows = remaining.size, sched.num_rows

    def total(level_rows, front_level=None):
        return sched.evaluate(np.asarray(level_rows), base_eff,
                              front_level=front_level)["total_ns"]

    coupled = [total(np.full(n, level)) for level in range(rows)]
    decoupled = [total(np.full(n, rows - 1), level)
                 for level in range(rows)]
    deadlines = [coupled[0], min(decoupled),
                 min(coupled + decoupled) * 0.5]
    slower = [level for level in range(1, rows)
              if coupled[level] < coupled[level - 1]]
    if slower:
        level = int(rng.choice(slower))
        deadlines.append(coupled[level])
        for prefix in (int(rng.integers(1, n)) if n > 1 else 0, n - 1):
            if prefix:
                trial = np.full(n, level)
                trial[:prefix] = level - 1
                deadlines.append(total(trial))
    return [0.0] + deadlines


def match_reference(tables, mode, seed=17):
    """Hold the planner to the loop reference on seeded 0–64 batches.

    ``plain`` plans from cycles over frequency (no rail-coded inputs);
    ``engine`` hands in the rail-coded times the engine pricing path
    passes, and the reference the same floats as per-row tables. Odd
    batch sizes start with a sentence that exits at layer 1; every
    third one gets a per-sentence nominal front end instead of a
    scalar. Returns the branches reached, keyed by that first-sentence
    exit.
    """
    controller = DvfsController()
    rng = np.random.default_rng(seed)
    ref_kwargs = {} if mode == "plain" else dict(
        layer_cycles=tables.layer_cycles,
        point_time_ns=tables.rail_layer_time_ns[1:],
        front_point_time_ns=tables.rail_front_time_ns[1:],
        nominal_layer_time_ns=tables.layer_time_ns)
    front = tables.embed_time_ns + tables.layer_time_ns
    reached = {False: set(), True: set()}
    for n in range(65):
        wake = bool(n % 2)
        predicted = rng.integers(2, tables.num_layers + 1, size=n)
        predicted[rng.random(n) < 0.2] = 1
        remaining = (predicted - 1) * float(tables.layer_cycles)
        if n:
            remaining[0] = 0.0 if wake else tables.layer_cycles
        target_ns = float(rng.choice([front * 0.5, front * 1.2,
                                      2e6, 5e6, 50e6]))
        elapsed = front
        if n % 3 == 1:
            elapsed = front * rng.uniform(0.9, 1.1, size=n)
        kwargs = {}
        if mode == "engine":
            kwargs = rail_kwargs(tables, remaining)
            if np.ndim(elapsed):
                kwargs["rail_front_ns"] = np.column_stack(
                    (elapsed, np.broadcast_to(
                        tables.rail_front_time_ns[1:],
                        (n, tables.rail_front_time_ns.size - 1))))
        for deadline_ns in reference_deadlines(
                controller, remaining, elapsed, target_ns, ref_kwargs,
                rng):
            budget = DeadlineBudget(deadline_ns, target_ns)
            trace = {}
            ref = reference_plan(controller, remaining, budget, elapsed,
                                 trace=trace, **ref_kwargs)
            plan = plan_batch_deadline(controller, remaining, budget,
                                       elapsed, **kwargs)
            assert_same_plan(plan, ref)
            reached[wake].add("zero" if deadline_ns == 0.0
                              else trace["branch"])
    return reached


class TestOnePassMatchesReference:
    """``plan_batch_deadline`` is the loop-based water-fill, bit for bit."""

    @pytest.mark.parametrize("mode", ["plain", "engine"])
    def test_every_field_matches_the_loop(self, tables, mode):
        """Seeded batches of 0–64 sentences, every branch reached."""
        reached = match_reference(tables, mode)
        assert reached[False] == set(BRANCHES)
        # A first sentence with no post-front work keeps its rail at the
        # nominal wake point, so lowering it changes nothing: its
        # one-sentence prefix always fits whenever the level does.
        assert reached[True] == set(BRANCHES) - {"prefix-none"}

    @pytest.mark.parametrize("elements", [1, 7, 64])
    def test_prefix_blocks_match_the_loop(self, tables, monkeypatch,
                                          elements):
        """Prefixes scored over many small blocks pick the same plan.

        With at most ``elements`` per block, a batch's prefixes span
        several blocks, so an overrun lands inside a block, on a
        block's first row (the pick is then the previous block's last
        row) or nowhere.
        """
        monkeypatch.setattr("repro.dvfs.deadline.PREFIX_BLOCK_ELEMENTS",
                            elements)
        reached = match_reference(tables, "engine", seed=elements)
        assert {"prefix-none", "prefix-partial",
                "prefix-full"} <= reached[False]

    def test_row_sums_are_one_dimensional_sums(self):
        # Candidate totals are row sums of a C-contiguous block; they
        # must reduce exactly like one candidate's own 1-D sum().
        rng = np.random.default_rng(3)
        for n in [*range(300), 511, 512, 513, 1024, 2049, 4097]:
            block = rng.uniform(0.0, 5e6, size=(4, n))
            rows = block.sum(axis=1)
            each = np.array([row.sum() for row in block])
            assert np.array_equal(rows.view(np.int64),
                                  each.view(np.int64)), n

"""Serving-layer deadline pricing: derivation, price_batch, Server flag."""

import dataclasses

import numpy as np
import pytest
from pricing_reference import with_layer1_exits

import repro.core.engine
import repro.serving.registry as registry_module
from repro.config import HwConfig
from repro.dvfs import DeadlineBudget, DvfsController
from repro.errors import DvfsError, ServingError
from repro.serving import (
    Batch,
    Request,
    Server,
    batch_deadline_ms,
    price_batch,
    synthetic_registry,
)

TASKS = ("sst2", "mnli")


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(TASKS, n=64, seed=0)


def make_batch(task="sst2", target_ms=60.0, n=6, arrival_step=1.0):
    requests = tuple(
        Request(request_id=i, task=task, sentence=i, target_ms=target_ms,
                arrival_ms=i * arrival_step)
        for i in range(n))
    return Batch(task=task, target_ms=target_ms, requests=requests)


class TestDeadlineDerivation:
    def test_budget_runs_from_last_arrival_to_earliest_deadline(self):
        batch = make_batch(target_ms=60.0, n=6, arrival_step=1.0)
        # Earliest deadline = 0 + 60; last arrival = 5: budget 55.
        assert batch_deadline_ms(batch) == pytest.approx(55.0)

    def test_explicit_clock_subtracts_queueing(self):
        batch = make_batch(target_ms=60.0, n=6, arrival_step=1.0)
        assert batch_deadline_ms(batch, now_ms=20.0) == pytest.approx(40.0)

    def test_late_batch_clamps_to_zero(self):
        batch = make_batch(target_ms=10.0, n=2, arrival_step=0.0)
        assert batch_deadline_ms(batch, now_ms=100.0) == 0.0

    def test_empty_batch_raises(self):
        with pytest.raises(ServingError):
            batch_deadline_ms(Batch(task="sst2", target_ms=10.0))


class TestPriceBatch:
    def test_deadline_pricing_is_cheaper_on_relaxed_batches(self, registry):
        profile = registry.profile("sst2")
        batch = make_batch(n=8, target_ms=60.0, arrival_step=0.5)
        per = price_batch(profile, batch, "lai")
        dead = price_batch(profile, batch, "lai",
                           deadline_ms=batch_deadline_ms(batch))
        assert dead.total_energy_mj < per.total_energy_mj - 1e-12
        assert dead.target_violations == 0
        # The whole batch fits the budget it was planned against.
        assert dead.total_latency_ms <= batch_deadline_ms(batch) + 1e-9

    def test_zero_budget_reproduces_per_sentence(self, registry):
        # Also at a target that lifts per-sentence rows off the table
        # floor, and with members that exit at layer 1, whose rows the
        # per-sentence kernel plans but never reads.
        plain = registry.profile("sst2")
        for profile in (plain, with_layer1_exits(plain)):
            for target_ms in (60.0, 2.0):
                batch = make_batch(n=8, target_ms=target_ms)
                per = price_batch(profile, batch, "lai")
                dead = price_batch(profile, batch, "lai", deadline_ms=0.0)
                assert len(dead.results) == 8
                for a, b in zip(per.results, dead.results):
                    assert a == b
            exits = [r.exit_layer == 1 for r in per.results]
            assert any(exits) == (profile is not plain)

    def test_negative_budget_clamps(self, registry):
        profile = registry.profile("sst2")
        batch = make_batch(n=4, target_ms=60.0)
        per = price_batch(profile, batch, "lai")
        dead = price_batch(profile, batch, "lai", deadline_ms=-5.0)
        assert [r.energy_mj for r in dead.results] \
            == [r.energy_mj for r in per.results]

    def test_non_lai_modes_ignore_deadline(self, registry):
        profile = registry.profile("sst2")
        batch = make_batch(n=4, target_ms=60.0)
        base = price_batch(profile, batch, "base", deadline_ms=30.0)
        plain = price_batch(profile, batch, "base")
        assert [r.energy_mj for r in base.results] \
            == [r.energy_mj for r in plain.results]


class TestServerFlag:
    def test_deadline_aware_server_spends_fewer_joules(self, registry):
        def run(deadline_aware):
            server = Server(registry, mode="lai",
                            deadline_aware=deadline_aware)
            for i in range(12):
                server.submit(task="sst2", sentence=i, target_ms=80.0,
                              arrival_ms=i * 0.5)
            return server.run()

        per = run(False)
        dead = run(True)
        assert dead.num_requests == per.num_requests
        assert dead.total_energy_mj < per.total_energy_mj - 1e-12
        assert dead.slo_violations <= per.slo_violations

    def test_deadline_aware_rejects_scalar_pricing(self, registry):
        with pytest.raises(ServingError):
            Server(registry, mode="lai", vectorized=False,
                   deadline_aware=True)

    def test_deadline_aware_rejects_non_lai_modes(self, registry):
        # A fixed-mode server would silently never use the budget.
        for mode in ("base", "ee"):
            with pytest.raises(ServingError):
                Server(registry, mode=mode, deadline_aware=True)

    def test_serial_drain_consumes_slack(self, registry):
        # Two full batches drain back-to-back: the second must plan
        # against slack already spent by the first, so it prices no
        # slower (and no cheaper per request) than a lone batch.
        from repro.serving import Scheduler

        def run(n):
            server = Server(registry, mode="lai", deadline_aware=True,
                            scheduler=Scheduler(max_batch_size=8))
            for i in range(n):
                server.submit(task="sst2", sentence=i, target_ms=60.0)
            return server.run()

        lone = run(8)
        double = run(16)
        first = [row.result.energy_mj for row in double.results[:8]]
        second = [row.result.energy_mj for row in double.results[8:]]
        assert first == pytest.approx(
            [row.result.energy_mj for row in lone.results])
        # The second batch saw a tighter budget: per-request energy is
        # at least the first batch's (less slack can't price cheaper).
        assert sum(second) >= sum(first) - 1e-12

    def test_default_server_unchanged(self, registry):
        results = []
        for _ in range(2):
            server = Server(registry, mode="lai")
            for i in range(6):
                server.submit(task="mnli", sentence=i, target_ms=50.0)
            results.append(server.run().total_energy_mj)
        assert not Server(registry).deadline_aware
        assert results[0] == results[1]


#: Out of order, with a repeat: price_batch must gather, not slice.
GATHERED = (5, 3, 3, 17, 0, 63, 8, 40)


def regime(profile, columns, target_ms, deadline_ms):
    """Which water-fill branch prices a gathered batch at this budget."""
    if deadline_ms == 0.0:
        return "zero"
    tables = profile.engine.pricing_tables()
    plan = profile.engine.dvfs.plan_batch_deadline(
        columns["remaining"],
        DeadlineBudget.from_ms(deadline_ms, target_ms),
        tables.embed_time_ns + tables.layer_time_ns,
        rail_layer_ns=columns["layer_ns"],
        rail_front_ns=tables.rail_front_time_ns)
    if plan.fallback:
        return "fallback"
    if np.any(plan.front_index[1:] != plan.table_index[1:]):
        return "decoupled"
    return "level-0" if plan.table_index.max() == 0 else "slower-level"


def regime_deadlines(profile, batch):
    """Budgets around the batch's zero-slack plan, spanning every regime."""
    zero = price_batch(profile, batch, "lai", deadline_ms=0.0)
    planned_ms = zero.total_latency_ms
    return [0.0, 1e4] + [planned_ms * f
                         for f in np.linspace(0.5, 4.0, 71)]


class TestGatheredColumns:
    """Deadline batches price rows gathered from the profile's columns."""

    def test_rows_equal_simulate_dataset_in_every_regime(self, registry):
        profile = registry.profile("sst2")
        seen = set()
        # A 2 ms target plans rows high enough for slower shared levels
        # to exist; at 60 ms every per-sentence row is the table floor,
        # and the decoupled-front window opens above the zero-slack plan.
        for target_ms in (2.0, 60.0):
            batch = Batch(task="sst2", target_ms=target_ms,
                          requests=tuple(
                              Request(request_id=i, task="sst2",
                                      sentence=s, target_ms=target_ms)
                              for i, s in enumerate(GATHERED)))
            idx = batch.sentence_indices
            columns = {name: column[idx] for name, column
                       in profile.deadline_columns().items()}
            for deadline_ms in regime_deadlines(profile, batch):
                gathered = price_batch(profile, batch, "lai",
                                       deadline_ms=deadline_ms).results
                sliced = profile.engine.simulate_dataset(
                    "lai", profile.logits[:, idx],
                    profile.entropies[:, idx], lut=profile.lut,
                    entropy_threshold=profile.entropy_threshold,
                    target_ms=target_ms, deadline_ms=deadline_ms).results
                assert len(gathered) == len(sliced) == len(GATHERED)
                for got, want in zip(gathered, sliced):
                    for field in dataclasses.fields(want):
                        a = getattr(got, field.name)
                        b = getattr(want, field.name)
                        assert type(a) is type(b) and a == b, field.name
                seen.add(regime(profile, columns, target_ms, deadline_ms))
        assert seen == {"zero", "fallback", "decoupled", "level-0",
                        "slower-level"}

    def test_columns_built_once_per_profile(self, registry):
        profile = registry.profile("mnli")
        columns = profile.deadline_columns()
        assert profile.deadline_columns() is columns
        with pytest.raises(ValueError):
            columns["exit_layer"][0] = 0
        assert columns["layer_ns"].shape == (
            profile.num_sentences, len(profile.engine.dvfs.table) + 1)
        small = HwConfig(mac_vector_size=8)
        variant = registry.profile_for("mnli", small)
        assert registry.profile_for("mnli", small) is variant
        assert variant.deadline_columns() is not columns
        assert variant.deadline_columns() is variant.deadline_columns()
        # Same exits on other hardware; the cycles it prices differ.
        np.testing.assert_array_equal(variant.deadline_columns()
                                      ["exit_layer"], columns["exit_layer"])
        assert not np.array_equal(variant.deadline_columns()["layer_ns"],
                                  columns["layer_ns"])

    def test_warm_batches_derive_no_exits(self, monkeypatch):
        registry = synthetic_registry(TASKS, n=64, seed=1)
        profile = registry.profile("sst2")
        batch = make_batch(n=8, target_ms=60.0, arrival_step=0.5)
        deadlines = regime_deadlines(profile, batch)
        before = [price_batch(profile, batch, "lai", deadline_ms=d).results
                  for d in deadlines]

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm deadline batch re-derived exits")

        monkeypatch.setattr(type(profile.lut), "predict", forbidden)
        monkeypatch.setattr(repro.core.engine, "bounded_exit_layers",
                            forbidden)
        after = [price_batch(profile, batch, "lai", deadline_ms=d).results
                 for d in deadlines]
        assert after == before


def lone(task, sentence, target_ms):
    """A one-member batch of ``sentence``."""
    return Batch(task=task, target_ms=target_ms, requests=(
        Request(request_id=0, task=task, sentence=sentence,
                target_ms=target_ms),))


def lone_cases(profile):
    """(sentence, target, budget) over every sentence of ``profile``.

    Targets: one below the nominal front time (blown: the per-sentence
    plan falls back to nominal), 2 ms and 60 ms. Budgets: a negative
    one, then :func:`regime_deadlines` of the one-member batch (zero,
    relaxed and a spread around its zero-slack plan).
    """
    tables = profile.engine.pricing_tables()
    blown_ms = 0.5e-6 * (tables.embed_time_ns + tables.layer_time_ns)
    for sentence in range(profile.num_sentences):
        for target_ms in (blown_ms, 2.0, 60.0):
            batch = lone(profile.task, sentence, target_ms)
            deadlines = regime_deadlines(profile, batch)
            for deadline_ms in [-1.0] + deadlines[:2] + deadlines[2::10]:
                yield sentence, target_ms, batch, deadline_ms


class TestOneMemberBatches:
    """One-member deadline batches are a pick over per-profile columns."""

    @pytest.mark.parametrize("task", TASKS)
    def test_rows_equal_simulate_dataset(self, registry, task):
        seen = set()
        small = registry.profile_for(task, HwConfig(mac_vector_size=8))
        for profile in (registry.profile(task), small,
                        with_layer1_exits(small)):
            columns = profile.deadline_columns()
            for sentence, target_ms, batch, deadline_ms in lone_cases(
                    profile):
                got = price_batch(profile, batch, "lai",
                                  deadline_ms=deadline_ms).results
                idx = [sentence]
                want = profile.engine.simulate_dataset(
                    "lai", profile.logits[:, idx],
                    profile.entropies[:, idx], lut=profile.lut,
                    entropy_threshold=profile.entropy_threshold,
                    target_ms=target_ms, deadline_ms=deadline_ms).results
                assert len(got) == len(want) == 1
                for field in dataclasses.fields(want[0]):
                    a = getattr(got[0], field.name)
                    b = getattr(want[0], field.name)
                    assert type(a) is type(b) and a == b, (
                        field.name, sentence, target_ms, deadline_ms)
                kind = regime(profile, {name: column[idx]
                                        for name, column in columns.items()},
                              target_ms, max(deadline_ms, 0.0))
                if columns["remaining"][sentence] <= 0 and kind in (
                        "level-0", "slower-level"):
                    kind = "layer-1 exit"
                seen.add(kind)
        # One sentence has no co-member to decouple a front from.
        assert seen == {"zero", "fallback", "level-0", "slower-level",
                        "layer-1 exit"}

    def test_no_planner_runs(self, registry, monkeypatch):
        profile = with_layer1_exits(
            registry.profile_for("mnli", HwConfig(mac_vector_size=8)))
        cases = list(lone_cases(profile))
        before = [price_batch(profile, batch, "lai",
                              deadline_ms=deadline_ms).results
                  for _, _, batch, deadline_ms in cases]

        def forbidden(*args, **kwargs):
            raise AssertionError("a one-member batch ran the planner")

        monkeypatch.setattr(DvfsController, "plan_batch_deadline", forbidden)
        monkeypatch.setattr(DvfsController, "plan_batch", forbidden)
        after = [price_batch(profile, batch, "lai",
                             deadline_ms=deadline_ms).results
                 for _, _, batch, deadline_ms in cases]
        assert after == before
        assert all(len(rows) == 1 for rows in after)

    def test_columns_built_once_per_profile(self, monkeypatch):
        registry = synthetic_registry(TASKS, n=16, seed=2)
        builds = []
        build = registry_module.lai_singleton_columns

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(registry_module, "lai_singleton_columns",
                            counting)
        profile = registry.profile("sst2")
        # Batches of two or more gather the exit columns only.
        price_batch(profile, make_batch(n=2), "lai", deadline_ms=5.0)
        price_batch(profile, make_batch(n=8), "lai", deadline_ms=0.0)
        assert not builds
        for sentence in range(profile.num_sentences):
            for deadline_ms in (0.0, 5.0, 1e4):
                price_batch(profile, lone("sst2", sentence, 60.0), "lai",
                            deadline_ms=deadline_ms)
        assert len(builds) == 1
        columns = profile.singleton_columns()
        assert profile.singleton_columns() is columns
        for name, column in columns.items():
            assert column.dtype in (np.float64, np.int64), name
            assert not column.flags.writeable, name
        with pytest.raises(ValueError):
            columns["deadline_ns"][0, 0] = 0.0
        assert columns["time_ns"].shape == (
            profile.num_sentences, len(profile.engine.dvfs.table) + 1)
        variant = registry.profile_for("sst2", HwConfig(mac_vector_size=8))
        price_batch(variant, lone("sst2", 0, 60.0), "lai", deadline_ms=5.0)
        assert len(builds) == 2
        assert variant.singleton_columns() is not columns

    def test_non_finite_budget_or_target_raises(self, registry):
        profile = registry.profile("sst2")
        batch = lone("sst2", 0, 60.0)
        for deadline_ms in (float("nan"), float("inf")):
            with pytest.raises(DvfsError):
                price_batch(profile, batch, "lai", deadline_ms=deadline_ms)
        blown = Batch(task="sst2", target_ms=float("inf"),
                      requests=batch.requests)
        with pytest.raises(DvfsError):
            price_batch(profile, blown, "lai", deadline_ms=5.0)

"""Dispatch reads the cores' own order.

Both cluster cores place a plain FIFO policy by
:func:`~repro.cluster.policies.fifo_placement` — the head of
``pending`` on the pool index's lowest free id — rather than asking
``FifoPolicy.next_placement`` to scan its inputs. That holds only while
both cores keep ``pending`` in close (seq) order. These tests wrap the
rule in both cores and check, at every dispatch, that it places what
``next_placement`` would place given the whole pending queue and free
list; and they wrap every built-in policy's hooks, and the per-event
loop's dispatcher, to check that ``pending`` is in close order at every
dispatch, EDF's requeued preemption remainders included.
"""

import os

import pytest

import repro.cluster.replay as vector_core
import repro.cluster.simulator as event_core
from repro.cluster import (
    ClusterSimulator,
    EdfPolicy,
    FewestSwapsPolicy,
    FifoPolicy,
    load_trace,
)
from repro.cluster.policies import fifo_placement
from repro.energy.governor import EnergyGovernor
from repro.fleet import FleetAutoscaler, FleetOrchestrator
from repro.serving import synthetic_registry
from repro.smoke import reference_fleet, reference_pool

TASKS = ("sst2", "mnli", "qqp", "qnli")


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(TASKS, n=64, seed=0)


@pytest.fixture(scope="module")
def bursty():
    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "benchmarks", "traces", "reference_bursty.jsonl")
    return load_trace(os.path.abspath(path))


def in_close_order(pending):
    seqs = [pb.seq for pb in pending]
    return seqs == sorted(seqs)


@pytest.fixture
def fifo_calls(monkeypatch):
    """The shared rule, checked against ``FifoPolicy`` on every call."""
    seen = {"calls": 0, "backlog": 0, "choice": 0}
    oracle = FifoPolicy()

    def rule(pending, index, accels):
        got = fifo_placement(pending, index, accels)
        free = [accels[i] for i in index.free]
        want = oracle.next_placement(list(pending), free, None)
        assert got[0] is want[0] and got[1] is want[1]
        assert in_close_order(pending)
        seen["calls"] += 1
        seen["backlog"] += len(pending) > 1
        seen["choice"] += len(free) > 1
        return got

    monkeypatch.setattr(event_core, "fifo_placement", rule)
    monkeypatch.setattr(vector_core, "fifo_placement", rule)
    return seen


class TestFifoRule:
    @pytest.mark.parametrize("budget_mw", [None, 50.0])
    def test_vector_core(self, registry, bursty, fifo_calls, budget_mw):
        report = ClusterSimulator(registry, hw_configs=reference_pool(),
                                  energy_budget_mw=budget_mw).run(bursty)
        assert report.engine == "vector"
        assert fifo_calls["calls"] == report.num_batches
        assert fifo_calls["backlog"] > 0 and fifo_calls["choice"] > 0
        if budget_mw is not None:
            assert report.budget.throttle_events > 0

    def test_event_core(self, registry, bursty, fifo_calls):
        report = ClusterSimulator(registry, hw_configs=reference_pool()
                                  ).run_events(bursty)
        assert fifo_calls["calls"] == report.num_batches
        assert fifo_calls["backlog"] > 0 and fifo_calls["choice"] > 0

    def test_fifo_fleet_with_autoscaler(self, registry, bursty,
                                        fifo_calls):
        fleet = FleetOrchestrator(
            registry, reference_fleet(policy="fifo"), routing="energy",
            autoscaler=FleetAutoscaler())
        report = fleet.run(bursty)
        assert len(report.records) == len(bursty)
        assert sum(report.autoscaler.parks.values()) > 0
        assert fifo_calls["calls"] == sum(o.report.num_batches
                                          for o in report.sites)
        assert fifo_calls["backlog"] > 0 and fifo_calls["choice"] > 0


@pytest.fixture
def order_checks(monkeypatch, fifo_calls):
    """Check ``pending``'s order wherever a dispatch reads it."""
    seen = {"dispatches": 0, "hooks": 0, "requeued": 0}
    requeued = set()
    real_dispatch = ClusterSimulator._dispatch
    real_preempt = ClusterSimulator._preempt

    def dispatch(self):
        assert in_close_order(self._pending)
        seen["dispatches"] += 1
        real_dispatch(self)

    def preempt(self, victim):
        # A remainder requeues under the next batch seq.
        first = self._batch_seq
        real_preempt(self, victim)
        requeued.update(range(first, self._batch_seq))

    def checked(hook):
        def wrapper(policy, pending, *args):
            assert in_close_order(pending)
            seen["hooks"] += 1
            seen["requeued"] += len(pending) > 1 and any(
                pb.seq in requeued for pb in pending)
            return hook(policy, pending, *args)
        return wrapper

    monkeypatch.setattr(ClusterSimulator, "_dispatch", dispatch)
    monkeypatch.setattr(ClusterSimulator, "_preempt", preempt)
    for cls, name in ((FewestSwapsPolicy, "next_placement"),
                      (EdfPolicy, "next_placement"),
                      (EdfPolicy, "preemption"),
                      (EnergyGovernor, "next_placement")):
        monkeypatch.setattr(cls, name, checked(getattr(cls, name)))
    seen["fifo"] = fifo_calls
    return seen


class TestPendingInCloseOrder:
    @pytest.mark.parametrize("policy", ["fifo", "affinity", "edf",
                                        "energy"])
    def test_event_core(self, registry, bursty, order_checks, policy):
        report = ClusterSimulator(registry, hw_configs=reference_pool(),
                                  policy=policy).run_events(bursty)
        assert order_checks["dispatches"] > 0
        placed = (order_checks["fifo"]["calls"] if policy == "fifo"
                  else order_checks["hooks"])
        assert placed >= report.num_batches
        if policy == "edf":
            assert report.preemptions > 0
            assert order_checks["requeued"] > 0

    @pytest.mark.parametrize("policy", ["fifo", "affinity", "energy"])
    def test_vector_core(self, registry, bursty, order_checks, policy):
        report = ClusterSimulator(registry, hw_configs=reference_pool(),
                                  policy=policy,
                                  energy_budget_mw=50.0).run(bursty)
        assert report.engine == "vector"
        placed = (order_checks["fifo"]["calls"] if policy == "fifo"
                  else order_checks["hooks"])
        assert placed == report.num_batches

"""Replays at tight ``lai`` targets on both cluster cores.

At the 50/75/100 ms targets of the reference traces every per-sentence
``lai`` plan sits on the bottom V/F row, so a price table built at the
wrong target prices the same rows as the right one, and a deadline plan
never has a row to lower. A diurnal trace at 2/3/5 ms targets lifts
per-sentence rows off the floor. A batch's budget never exceeds one
target, so its plan can only rise above the floor when some members
have no post-front work: the registry sends half of its sentences out
at layer 1. Budgets fall on the simulator's 0.5 ms slack grid, and this
pool, rate and window put them in every regime: the replays reach the
water-fill's coupled-level, prefix, decoupled-front and fallback
branches. Under the energy governor and fifo, with deadline-aware
pricing on and off, ``run()`` and ``run_events()`` must give identical
reports, every deadline-priced batch must equal ``simulate_dataset`` on
its own slice at its dispatch budget, and every other row the
per-batch kernel.
"""

import json
import os
import sys
from dataclasses import astuple

import pytest

import repro.cluster.simulator as simulator_module
from repro.cluster import ClusterSimulator, generate_diurnal_trace
from repro.config import HwConfig
from repro.core.engine import lai_exit_columns
from repro.dvfs import DeadlineBudget
from repro.serving import Batch, synthetic_registry

HERE = os.path.dirname(__file__)
sys.path.insert(0, os.path.join(HERE, "..", "serving"))
sys.path.insert(0, os.path.join(HERE, "..", "dvfs"))
from deadline_reference import (  # noqa: E402
    plan_batch_deadline as reference_plan,
)
from pricing_reference import (  # noqa: E402
    per_batch_kernel,
    with_layer1_exits,
)

TASKS = ("sst2",)
TARGETS_MS = (2.0, 3.0, 5.0)
POOL = (HwConfig(mac_vector_size=64),) * 4
#: The water-fill's branches as the loop reference names them, grouped
#: the way a replay must reach them.
BRANCHES = {
    "level": {"level0", "prefix-none"},
    "prefix": {"prefix-partial", "prefix-full"},
    "decoupled": {"decoupled"},
    "fallback": {"fallback"},
}


@pytest.fixture(scope="module")
def registry():
    return with_layer1_exits(synthetic_registry(TASKS, n=32, seed=0))


@pytest.fixture(scope="module")
def trace():
    return generate_diurnal_trace(600, seed=3, tasks=TASKS,
                                  targets_ms=TARGETS_MS, n_sentences=32,
                                  mean_interarrival_ms=0.1,
                                  modes=("lai", "lai", "lai", "ee"))


def _same_rows(got, want):
    return len(got) == len(want) and all(
        type(a) is type(b) and a == b
        for x, y in zip(got, want) for a, b in zip(astuple(x), astuple(y)))


def _branch(profile, batch, deadline_ms):
    """The loop reference's branch for a deadline batch of two or more."""
    tables = profile.engine.pricing_tables()
    idx = batch.sentence_indices
    columns = lai_exit_columns(tables, profile.entropies[:, idx],
                               profile.lut, profile.entropy_threshold,
                               deadline=True)
    trace = {}
    reference_plan(
        profile.engine.dvfs, columns["remaining"],
        DeadlineBudget(max(float(deadline_ms), 0.0) * 1e6,
                       batch.target_ms * 1e6),
        tables.embed_time_ns + tables.layer_time_ns, trace=trace,
        layer_cycles=tables.layer_cycles,
        point_time_ns=tables.rail_layer_time_ns[1:],
        front_point_time_ns=tables.rail_front_time_ns[1:],
        nominal_layer_time_ns=tables.layer_time_ns)
    return trace["branch"]


def _records(report):
    return [(r.request.request_id, r.accel_id, r.dispatch_ms,
             r.completion_ms, r.result) for r in report.records]


@pytest.mark.parametrize("deadline_aware", [False, True])
@pytest.mark.parametrize("policy", ["fifo", "energy"])
def test_tight_targets_price_like_the_kernels(registry, trace, policy,
                                              deadline_aware, monkeypatch):
    priced = simulator_module.price_batch
    reached = set()
    deadline_batches = []

    def checked(profile, batch, mode, vectorized=True, deadline_ms=None):
        report = priced(profile, batch, mode, vectorized=vectorized,
                        deadline_ms=deadline_ms)
        if deadline_ms is not None:
            idx = batch.sentence_indices
            want = profile.engine.simulate_dataset(
                mode, profile.logits[:, idx], profile.entropies[:, idx],
                lut=profile.lut,
                entropy_threshold=profile.entropy_threshold,
                target_ms=batch.target_ms, deadline_ms=deadline_ms)
            assert _same_rows(report.results, want.results), (
                batch.sentence_indices, deadline_ms)
            deadline_batches.append(len(batch.requests))
            if len(batch.requests) > 1:
                reached.add(_branch(profile, batch, deadline_ms))
        return report

    monkeypatch.setattr(simulator_module, "price_batch", checked)
    reports = {}
    for engine in ("vector", "event"):
        sim = ClusterSimulator(registry, policy=policy, hw_configs=POOL,
                               max_batch_size=8, batch_timeout_ms=0.5,
                               deadline_aware=deadline_aware)
        report = sim.run(trace) if engine == "vector" \
            else sim.run_events(trace)
        assert report.engine == engine
        assert report.num_requests == len(trace)
        assert report.energy.reconcile(report.serving, tol=1e-9)
        reports[engine] = report

        # Every row not priced from a deadline plan is the per-batch
        # kernel's row for its sentence at its target, on its device.
        for record in report.records:
            request = record.request
            if deadline_aware and request.mode == "lai":
                continue
            profile = registry.profile_for(
                request.task, sim.accelerators[record.accel_id].hw_config)
            alone = Batch(task=request.task, target_ms=request.target_ms,
                          requests=(request,))
            assert _same_rows([record.result], per_batch_kernel(
                profile, alone, request.mode)), request

    vector, event = reports["vector"], reports["event"]
    assert json.dumps(vector.summary(), sort_keys=True) \
        == json.dumps(event.summary(), sort_keys=True)
    assert _records(vector) == _records(event)
    assert vector.device_energy == event.device_energy
    if deadline_aware:
        assert 1 in deadline_batches and max(deadline_batches) > 1
        for name, branches in BRANCHES.items():
            assert reached & branches, (name, reached)
    else:
        assert not deadline_batches

"""Layer-1 exits through both cluster cores.

The synthetic profiles send no sentence out at layer 1, so no other
replay reaches a layer-1 row of a price table on either core, the
deadline planner's branch for members with no post-front work, or the
rule that a one-member batch of such a sentence holds the nominal rail.
Over a registry whose threshold sends half of each task's sentences out
at layer 1, ``run()`` and ``run_events()`` must agree on the summary,
the records and the device and budget ledgers, and both must reconcile
their energy at 1e-9, under every vector-eligible policy, with and
without deadline-budget pricing and an energy budget.
"""

import json
import os
import sys

import pytest

from repro.cluster import ClusterSimulator
from repro.config import HwConfig
from repro.serving import synthetic_registry, synthetic_traffic

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "serving"))
from pricing_reference import with_layer1_exits  # noqa: E402

TASKS = ("sst2", "mnli")
POOL = tuple(HwConfig(mac_vector_size=n) for n in (32, 16, 8))


@pytest.fixture(scope="module")
def registry():
    return with_layer1_exits(synthetic_registry(TASKS, n=32, seed=0))


@pytest.fixture(scope="module")
def trace(registry):
    return synthetic_traffic(registry, 240, seed=6,
                             mean_interarrival_ms=0.4,
                             modes=("base", "ee", "lai"))


def _records(report):
    return [(r.request.request_id, r.accel_id, r.dispatch_ms,
             r.completion_ms, r.result) for r in report.records]


@pytest.mark.parametrize("budget_mw", [None, 2.0])
@pytest.mark.parametrize("deadline_aware", [False, True])
@pytest.mark.parametrize("policy", ["fifo", "affinity", "energy"])
def test_cores_agree_on_layer1_exits(registry, trace, policy,
                                     deadline_aware, budget_mw):
    reports = {}
    for engine in ("vector", "event"):
        sim = ClusterSimulator(registry, policy=policy, hw_configs=POOL,
                               max_batch_size=8, batch_timeout_ms=1.0,
                               deadline_aware=deadline_aware,
                               energy_budget_mw=budget_mw,
                               budget_window_ms=50.0)
        report = sim.run(trace) if engine == "vector" \
            else sim.run_events(trace)
        assert report.engine == engine
        assert report.energy.reconcile(report.serving, tol=1e-9)
        exits = [r.request.mode for r in report.records
                 if r.result.exit_layer == 1]
        assert "lai" in exits and "ee" in exits
        reports[engine] = report
    vector, event = reports["vector"], reports["event"]
    assert json.dumps(vector.summary(), sort_keys=True) \
        == json.dumps(event.summary(), sort_keys=True)
    assert _records(vector) == _records(event)
    assert vector.device_energy == event.device_energy
    assert vector.budget == event.budget
    if budget_mw is not None:
        assert vector.budget.throttle_events > 0

"""Fleet replay equivalence: the chunked site drain must be
event-for-event identical to the per-event fleet merge
(:func:`fleet_reference.naive_drain`), on synthetic traffic and on the
reference bursty trace, with scalar-site oracles reconciling their
energy ledgers."""

import json
import os

import pytest
from fleet_reference import run_reference

from repro.cluster import load_trace
from repro.config import HwConfig
from repro.errors import ClusterError
from repro.fleet import FleetOrchestrator, SiteConfig
from repro.serving import synthetic_registry, synthetic_traffic

TASKS = ("sst2", "mnli", "qqp", "qnli")


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(TASKS, n=64, seed=0)


@pytest.fixture(scope="module")
def trace(registry):
    return synthetic_traffic(registry, 100, seed=0,
                             mean_interarrival_ms=1.0,
                             modes=("base", "lai"))


@pytest.fixture(scope="module")
def bursty():
    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "benchmarks", "traces", "reference_bursty.jsonl")
    return [r for r in load_trace(os.path.abspath(path))
            if r.arrival_ms < 150.0]


def site_configs(vectorized=True):
    # Scalar sites are the fleet determinism oracle; the deadline-aware
    # planner needs the vectorized kernels, so the oracle runs without.
    deadline = vectorized
    return (
        SiteConfig(site_id="edge", rtt_ms=2.0, policy="fifo",
                   num_accelerators=2, vectorized=vectorized,
                   deadline_aware=deadline),
        SiteConfig(site_id="metro", rtt_ms=5.0, policy="affinity",
                   hw_configs=(HwConfig(mac_vector_size=16),
                               HwConfig(mac_vector_size=8)),
                   vectorized=vectorized, deadline_aware=deadline),
        SiteConfig(site_id="core", rtt_ms=9.0, policy="energy",
                   num_accelerators=2, vectorized=vectorized,
                   deadline_aware=deadline),
    )


def run_fleet(registry, trace, vectorized=True, naive=False,
              routing="least-loaded"):
    orch = FleetOrchestrator(registry, site_configs(vectorized),
                             routing=routing)
    return run_reference(orch, trace) if naive else orch.run(trace)


def canonical(report):
    return json.dumps(report.summary(), sort_keys=True)


class TestChunkedDrainEquivalence:
    @pytest.mark.parametrize("routing", ["least-loaded", "energy"])
    def test_chunked_matches_per_event_merge(self, registry, trace,
                                             routing):
        chunked = run_fleet(registry, trace, routing=routing)
        naive = run_fleet(registry, trace, routing=routing, naive=True)
        assert canonical(chunked) == canonical(naive)

    def test_reference_bursty_fleet_bit_identical(self, registry,
                                                  bursty):
        chunked = run_fleet(registry, bursty)
        naive = run_fleet(registry, bursty, naive=True)
        assert canonical(chunked) == canonical(naive)
        for a, b in zip(chunked.records, naive.records):
            assert a.request.request_id == b.request.request_id
            assert a.site_id == b.site_id

    def test_scalar_sites_replay_identically_too(self, registry,
                                                 bursty):
        chunked = run_fleet(registry, bursty, vectorized=False)
        naive = run_fleet(registry, bursty, vectorized=False,
                          naive=True)
        assert canonical(chunked) == canonical(naive)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_site_energy_ledgers_reconcile(self, registry, bursty,
                                           vectorized):
        report = run_fleet(registry, bursty, vectorized=vectorized)
        for outcome in report.sites:
            site_report = outcome.report
            assert site_report.energy.reconcile(site_report.serving,
                                                tol=1e-9)


class TestScalarSiteConfig:
    def test_scalar_site_with_deadline_awareness_rejected(self,
                                                          registry):
        config = SiteConfig(site_id="edge", num_accelerators=1,
                            vectorized=False, deadline_aware=True)
        with pytest.raises(ClusterError, match="vectorized"):
            FleetOrchestrator(registry, (config,)).run(
                synthetic_traffic(registry, 5, seed=0))

"""End-to-end cluster-simulator tests: determinism, accounting, EDF."""

import json
import math

import numpy as np
import pytest

from repro.cluster import ClusterSimulator
from repro.cluster.__main__ import run_smoke
from repro.errors import ClusterError, ServingError
from repro.serving import Request, synthetic_registry, synthetic_traffic

TASKS = ("sst2", "mnli")


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(TASKS, n=64, seed=0)


@pytest.fixture(scope="module")
def trace(registry):
    return synthetic_traffic(registry, 120, seed=3,
                             mean_interarrival_ms=1.0)


@pytest.fixture(scope="module")
def report(registry, trace):
    return ClusterSimulator(registry, num_accelerators=2,
                            policy="fifo").run(trace)


class TestConservation:
    def test_every_request_served_once(self, report, trace):
        assert report.num_requests == len(trace)
        served = sorted(rec.request.request_id for rec in report.records)
        assert served == sorted(r.request_id for r in trace)

    def test_record_lookup(self, report):
        rec = report.record_for(report.records[7].request.request_id)
        assert rec is report.records[7]
        with pytest.raises(ClusterError):
            report.record_for(10_000)

    def test_makespan_is_last_completion(self, report):
        assert report.makespan_ms == max(rec.completion_ms
                                         for rec in report.records)
        assert report.throughput_rps > 0


class TestQueueingAccounting:
    def test_delay_is_start_minus_arrival_and_nonnegative(self, report):
        for rec in report.records:
            assert rec.queueing_delay_ms == pytest.approx(
                rec.dispatch_ms - rec.request.arrival_ms)
            assert rec.queueing_delay_ms >= -1e-9

    def test_time_in_system_covers_compute(self, report):
        for rec in report.records:
            assert rec.time_in_system_ms >= rec.result.latency_ms - 1e-9
            assert rec.completion_ms > rec.dispatch_ms

    def test_breakdown_partitions_the_trace(self, report):
        breakdown = report.violation_breakdown()
        assert sum(breakdown.values()) == report.num_requests
        assert (breakdown["compute"] + breakdown["queueing"]
                == report.deadline_violations)

    def test_zero_timeout_disables_batching(self, registry, trace):
        report = ClusterSimulator(registry, num_accelerators=2,
                                  batch_timeout_ms=0.0).run(trace)
        # Every window closes at its opening instant: singleton batches.
        assert report.num_batches == len(trace)

    def test_windows_batch_bursts(self, registry, trace):
        report = ClusterSimulator(registry, num_accelerators=2,
                                  batch_timeout_ms=5.0).run(trace)
        assert report.num_batches < len(trace)


class TestDeterminism:
    def test_identical_summaries_across_runs(self, registry, trace):
        def summary():
            sim = ClusterSimulator(registry, num_accelerators=3,
                                   policy="edf")
            record = sim.run(trace).summary()
            record.pop("wall_seconds", None)
            return json.dumps(record, sort_keys=True)

        assert summary() == summary()

    def test_scalar_and_vectorized_pricing_agree(self, registry, trace):
        reports = {
            vectorized: ClusterSimulator(
                registry, num_accelerators=2, policy="affinity",
                vectorized=vectorized).run(trace)
            for vectorized in (True, False)
        }
        for a, b in zip(reports[True].records, reports[False].records):
            assert a.request.request_id == b.request.request_id
            assert a.result.exit_layer == b.result.exit_layer
            assert abs(a.result.energy_mj - b.result.energy_mj) <= 1e-9
            assert abs(a.completion_ms - b.completion_ms) <= 1e-9


class TestSwapAccounting:
    def test_single_task_pays_one_cold_load_per_used_accelerator(
            self, registry):
        trace = [Request(request_id=i, task="sst2", sentence=i,
                         target_ms=100.0, arrival_ms=float(i))
                 for i in range(24)]
        report = ClusterSimulator(registry, num_accelerators=2,
                                  policy="fifo").run(trace)
        used = [a for a in report.accelerators if a.batches > 0]
        assert all(a.swaps == 1 for a in used)  # cold load only
        assert report.serving.task_switches == len(used)

    def test_affinity_pins_tasks_to_accelerators(self, registry):
        # Alternating tasks, pool of 2: affinity converges to one task
        # per accelerator (2 cold loads, plus the odd work-conserving
        # steal when the matching device is backed up), while FIFO
        # swaps on a large fraction of its placements.
        trace = [Request(request_id=i, task=TASKS[i % 2], sentence=i // 2,
                         target_ms=100.0, arrival_ms=float(i))
                 for i in range(40)]
        kwargs = dict(num_accelerators=2, batch_timeout_ms=0.0)
        affinity = ClusterSimulator(registry, policy="affinity",
                                    **kwargs).run(trace)
        fifo = ClusterSimulator(registry, policy="fifo",
                                **kwargs).run(trace)
        assert affinity.serving.task_switches <= 4
        assert fifo.serving.task_switches >= 10
        assert fifo.serving.task_switches > affinity.serving.task_switches

    def test_swap_totals_compose_into_serving_report(self, report):
        serving = report.serving
        assert serving.task_switches == sum(a.swaps
                                            for a in report.accelerators)
        assert serving.switch_energy_mj == pytest.approx(
            sum(a.swap_energy_mj for a in report.accelerators))
        assert serving.total_energy_mj > serving.switch_energy_mj > 0


class TestEdfPreemption:
    @pytest.fixture(scope="class")
    def preempted(self, registry):
        # A long relaxed base batch occupies the only accelerator; tight
        # lai singles arrive mid-run and must evict it.
        trace = [Request(request_id=i, task="sst2", sentence=i,
                         target_ms=1000.0, arrival_ms=0.0, mode="base")
                 for i in range(32)]
        trace += [Request(request_id=100 + i, task="sst2", sentence=i,
                          target_ms=8.0, arrival_ms=10.0 + i, mode="lai")
                  for i in range(4)]
        sim = ClusterSimulator(registry, num_accelerators=1, policy="edf",
                               max_batch_size=32, batch_timeout_ms=2.0)
        return sim.run(trace), trace

    def test_preemption_happens_and_everyone_still_finishes(
            self, preempted):
        report, trace = preempted
        assert report.preemptions > 0
        assert report.num_requests == len(trace)
        assert report.wasted_compute_ms > 0

    def test_lai_traffic_overtakes_the_preempted_base_tail(
            self, preempted):
        report, _ = preempted
        lai_done = max(rec.completion_ms for rec in report.records
                       if rec.request.mode == "lai")
        base_done = max(rec.completion_ms for rec in report.records
                        if rec.request.mode == "base")
        assert lai_done < base_done

    def test_completed_prefix_survives_preemption(self, registry,
                                                  preempted):
        report, _ = preempted
        # Base sentences finished before the eviction keep their results:
        # every base request has exactly one record, priced identically
        # to an undisturbed base run.
        base_recs = {rec.request.request_id: rec
                     for rec in report.records
                     if rec.request.mode == "base"}
        assert len(base_recs) == 32
        profile = registry.profile("sst2")
        direct = profile.engine.simulate_dataset(
            "base", profile.logits[:, :32], profile.entropies[:, :32])
        for i, expected in enumerate(direct.results):
            assert base_recs[i].result.energy_mj == pytest.approx(
                expected.energy_mj, abs=1e-12)

    def test_mid_swap_preemption_resets_residency(self, registry):
        # The base batch closes via timeout at t=2.0 and starts its
        # encoder swap (~0.013 ms); the lai single (arrived at t=0.005,
        # 6 ms target — still comfortably feasible after the eviction)
        # times out at t=2.005, inside the swap window. The aborted load
        # must waste the partial swap time and cost the device its
        # residency, so the re-dispatched work pays the swap again.
        trace = [Request(request_id=i, task="sst2", sentence=i,
                         target_ms=1000.0, arrival_ms=0.0, mode="base")
                 for i in range(8)]
        trace += [Request(request_id=100, task="sst2", sentence=0,
                          target_ms=6.0, arrival_ms=0.005, mode="lai")]
        report = ClusterSimulator(registry, num_accelerators=1,
                                  policy="edf", batch_timeout_ms=2.0,
                                  ).run(trace)
        assert report.preemptions == 1
        accel = report.accelerators[0]
        swap = registry.switch_cost(None, "sst2")
        assert report.records[0].dispatch_ms == pytest.approx(2.005)
        assert accel.swaps >= 2  # aborted cold load + the re-load
        assert report.wasted_compute_ms == pytest.approx(0.005)
        assert 0 < report.wasted_compute_ms < swap.latency_ms
        # The aborted attempt charges only its elapsed 0.005 ms (the
        # unspent remainder is refunded); the re-load pays in full.
        assert accel.swap_latency_ms == pytest.approx(
            0.005 + (accel.swaps - 1) * swap.latency_ms)
        assert accel.swap_energy_mj < accel.swaps * swap.energy_mj
        # The refund ledger records exactly the unspent fraction.
        assert accel.swap_refunds == 1
        assert accel.swap_energy_refunded_mj == pytest.approx(
            swap.energy_mj * (1.0 - 0.005 / swap.latency_ms))

    def test_doomed_lai_request_does_not_preempt(self, registry):
        # Same shape, but the lai single's deadline (t=1.005) is long
        # gone by the time the dispatcher could evict (t=2.005): the
        # feasibility test must skip the pointless preemption and let
        # the base batch keep its completed work.
        trace = [Request(request_id=i, task="sst2", sentence=i,
                         target_ms=1000.0, arrival_ms=0.0, mode="base")
                 for i in range(8)]
        trace += [Request(request_id=100, task="sst2", sentence=0,
                          target_ms=1.0, arrival_ms=0.005, mode="lai")]
        sim = ClusterSimulator(registry, num_accelerators=1,
                               policy="edf", batch_timeout_ms=2.0)
        report = sim.run(trace)
        assert report.preemptions == 0
        assert report.wasted_compute_ms == 0.0
        assert sim.policy.infeasible_skips > 0
        assert report.num_requests == len(trace)  # still served, late

    def test_mixed_mode_synthetic_traffic_runs_under_edf(self, registry):
        trace = synthetic_traffic(registry, 60, seed=7,
                                  mean_interarrival_ms=1.0,
                                  modes=("base", "lai"))
        assert {r.mode for r in trace} == {"base", "lai"}
        report = ClusterSimulator(registry, num_accelerators=2,
                                  policy="edf").run(trace)
        assert report.num_requests == 60

    def test_fifo_never_preempts(self, registry):
        trace = [Request(request_id=i, task="sst2", sentence=i,
                         target_ms=1000.0, arrival_ms=0.0, mode="base")
                 for i in range(16)]
        trace += [Request(request_id=100, task="sst2", sentence=0,
                          target_ms=5.0, arrival_ms=10.0, mode="lai")]
        report = ClusterSimulator(registry, num_accelerators=1,
                                  policy="fifo").run(trace)
        assert report.preemptions == 0


class TestValidation:
    def test_empty_trace_raises(self, registry):
        with pytest.raises(ClusterError):
            ClusterSimulator(registry).run([])

    def test_duplicate_ids_raise(self, registry):
        trace = [Request(request_id=0, task="sst2", sentence=0,
                         target_ms=50.0)] * 2
        with pytest.raises(ClusterError):
            ClusterSimulator(registry).run(trace)

    def test_mode_override_validated_at_intake(self):
        local = synthetic_registry(("sst2",), n=8, seed=0)
        local.profile("sst2").lut = None
        trace = [Request(request_id=0, task="sst2", sentence=0,
                         target_ms=50.0, mode="lai")]
        with pytest.raises(ServingError):
            ClusterSimulator(local, mode="base").run(trace)
        # Without the override the base default serves fine.
        base = [Request(request_id=0, task="sst2", sentence=0,
                        target_ms=50.0)]
        assert ClusterSimulator(local, mode="base").run(base) \
            .num_requests == 1

    def test_bad_configuration_raises(self, registry):
        with pytest.raises(ClusterError):
            ClusterSimulator(registry, num_accelerators=0)
        with pytest.raises(ClusterError):
            ClusterSimulator(registry, mode="warp")
        with pytest.raises(ClusterError):
            ClusterSimulator(registry, policy="warp")
        with pytest.raises(ClusterError):
            ClusterSimulator(registry, batch_timeout_ms=-1.0)
        # Non-finite values fail no ordered guard by themselves.
        for bad in ({"batch_timeout_ms": math.nan},
                    {"batch_timeout_ms": math.inf},
                    {"energy_budget_mw": math.nan},
                    {"energy_budget_mw": math.inf},
                    {"budget_window_ms": math.nan},
                    {"budget_window_ms": math.inf},
                    {"standby_timeout_ms": math.nan},
                    {"standby_timeout_ms": math.inf}):
            with pytest.raises(ClusterError, match="finite"):
                ClusterSimulator(registry, **bad)


def test_smoke_target():
    run_smoke(num_requests=120, n_sentences=32, verbose=False)

"""Cluster-side energy integration: hetero pricing, reports, budgets."""

import pytest

from repro.cluster import ClusterSimulator
from repro.config import HwConfig
from repro.energy import DeviceEnergyModel
from repro.errors import ClusterError, EnergyError
from repro.serving import Request, synthetic_registry, synthetic_traffic

TASKS = ("sst2", "qqp")
POOL = tuple(HwConfig(mac_vector_size=n) for n in (32, 16, 16, 8))


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(TASKS, n=64, seed=0)


@pytest.fixture(scope="module")
def trace(registry):
    return synthetic_traffic(registry, 150, seed=2,
                             mean_interarrival_ms=1.0,
                             modes=("base", "lai"))


@pytest.fixture(scope="module")
def report(registry, trace):
    return ClusterSimulator(registry, policy="affinity",
                            hw_configs=POOL).run(trace)


class TestHeterogeneousPricing:
    def test_same_batch_prices_differently_per_device(self, registry):
        # The registry's per-device profile variants must make the same
        # sentence cost different joules/latency on n=32 vs n=8.
        base = registry.profile("sst2")
        big = registry.profile_for("sst2", HwConfig(mac_vector_size=32))
        small = registry.profile_for("sst2", HwConfig(mac_vector_size=8))
        logits, entropies = base.logits[:, :4], base.entropies[:, :4]
        reports = {
            name: profile.engine.simulate_dataset("base", logits,
                                                  entropies)
            for name, profile in (("big", big), ("small", small))
        }
        assert reports["big"].total_latency_ms \
            < reports["small"].total_latency_ms
        assert reports["big"].total_energy_mj \
            != pytest.approx(reports["small"].total_energy_mj)

    def test_variants_are_cached_and_share_artifacts(self, registry):
        hw = HwConfig(mac_vector_size=32)
        first = registry.profile_for("sst2", hw)
        assert registry.profile_for("sst2", hw) is first
        assert first is not registry.profile("sst2")
        assert first.logits is registry.profile("sst2").logits
        assert first.lut is registry.profile("sst2").lut

    def test_matching_hw_returns_the_registered_profile(self, registry):
        profile = registry.profile("sst2")
        assert registry.profile_for("sst2") is profile
        assert registry.profile_for(
            "sst2", profile.engine.hw_config) is profile

    def test_pool_size_mismatch_raises(self, registry):
        with pytest.raises(ClusterError):
            ClusterSimulator(registry, num_accelerators=3,
                             hw_configs=POOL)
        # An explicit 1 is a mismatch too (not "unset").
        with pytest.raises(ClusterError):
            ClusterSimulator(registry, num_accelerators=1,
                             hw_configs=POOL)
        with pytest.raises(ClusterError):
            ClusterSimulator(registry, hw_configs=())

    def test_matching_explicit_pool_size_accepted(self, registry):
        sim = ClusterSimulator(registry, num_accelerators=len(POOL),
                               hw_configs=POOL)
        assert sim.num_accelerators == len(POOL)

    def test_pool_size_derives_from_hw_configs(self, registry):
        sim = ClusterSimulator(registry, hw_configs=POOL)
        assert sim.num_accelerators == len(POOL)


class TestEnergyReport:
    def test_breakdowns_sum_to_cluster_total(self, report):
        energy = report.energy
        by_device = sum(d.total_mj for d in energy.devices)
        by_column = (energy.compute_mj + energy.swap_mj + energy.idle_mj
                     + energy.transition_mj)
        assert energy.total_mj == pytest.approx(by_device, abs=1e-9)
        assert energy.total_mj == pytest.approx(by_column, abs=1e-9)
        for device in energy.devices:
            assert device.total_mj == pytest.approx(
                device.compute_mj + device.swap_mj + device.idle_mj
                + device.transition_mj, abs=1e-12)

    def test_reconciles_with_serving_to_1e9(self, report):
        energy, serving = report.energy, report.serving
        assert energy.reconcile(serving, tol=1e-9)
        assert energy.compute_mj == pytest.approx(
            serving.compute_energy_mj, abs=1e-9)
        assert energy.swap_mj == pytest.approx(
            serving.switch_energy_mj, abs=1e-9)
        # Idle + transition are what the serving view cannot see.
        assert energy.total_mj > serving.total_energy_mj

    def test_reconcile_detects_drift(self, report):
        serving = report.serving
        original = serving.compute_energy_mj
        try:
            serving.compute_energy_mj = original + 1e-6
            with pytest.raises(EnergyError):
                report.energy.reconcile(serving, tol=1e-9)
        finally:
            serving.compute_energy_mj = original

    def test_per_class_partitions_served_requests(self, report, trace):
        per_class = report.energy.per_class
        assert sum(c["requests"] for c in per_class.values()) == len(trace)
        for stats in per_class.values():
            assert stats["mj_per_request"] == pytest.approx(
                stats["energy_mj"] / stats["requests"])
        modes = {c["mode"] for c in per_class.values()}
        assert modes == {"base", "lai"}

    def test_device_lookup(self, report):
        device = report.energy.device(0)
        assert device.accel_id == 0
        assert device.mac_vector_size == POOL[0].mac_vector_size
        with pytest.raises(EnergyError):
            report.energy.device(99)

    def test_idle_plus_busy_covers_the_makespan(self, report):
        # Per device: idle time accrued by the energy model plus busy
        # time accounted by the simulator spans the whole run.
        for stats, device in zip(report.accelerators,
                                 report.energy.devices):
            assert stats.busy_ms + device.idle_ms == pytest.approx(
                report.makespan_ms, rel=1e-9)

    def test_summary_is_json_friendly(self, report):
        import json
        json.dumps(report.summary(), sort_keys=True)


class TestEnergyBudget:
    def test_tight_budget_throttles_and_recovers(self, registry, trace):
        free = ClusterSimulator(registry, policy="energy",
                                hw_configs=POOL).run(trace)
        avg_power_mw = free.energy.total_mj / free.makespan_ms * 1e3
        budgeted = ClusterSimulator(
            registry, policy="energy", hw_configs=POOL,
            energy_budget_mw=avg_power_mw * 0.4,
            budget_window_ms=50.0).run(trace)
        assert budgeted.budget is not None
        assert budgeted.budget.throttle_events > 0
        assert budgeted.budget.throttled_ms > 0
        # Recovery: the whole trace is still served, just later.
        assert budgeted.num_requests == len(trace)
        assert budgeted.makespan_ms > free.makespan_ms
        assert budgeted.energy.reconcile(budgeted.serving, tol=1e-9)

    def test_generous_budget_never_binds(self, registry, trace):
        free = ClusterSimulator(registry, policy="energy",
                                hw_configs=POOL).run(trace)
        avg_power_mw = free.energy.total_mj / free.makespan_ms * 1e3
        roomy = ClusterSimulator(
            registry, policy="energy", hw_configs=POOL,
            energy_budget_mw=avg_power_mw * 100.0).run(trace)
        assert roomy.budget.throttle_events == 0
        assert roomy.energy.total_mj == pytest.approx(
            free.energy.total_mj)

    def test_budget_works_with_any_policy(self, registry, trace):
        report = ClusterSimulator(
            registry, policy="fifo", hw_configs=POOL,
            energy_budget_mw=0.05, budget_window_ms=50.0).run(trace)
        assert report.num_requests == len(trace)
        assert report.budget.admitted == report.num_batches

    def test_invalid_budget_raises(self, registry):
        with pytest.raises(ClusterError):
            ClusterSimulator(registry, energy_budget_mw=0.0)

    @pytest.mark.parametrize("engine", ["vector", "event"])
    def test_commits_the_wake_each_start_charged(self, registry, trace,
                                                 engine, monkeypatch):
        # The budget commits the wake the device charged at begin, so
        # each batch start prices its wake once, and the window's spend
        # is exactly what the devices charged: compute, paid swaps and
        # wakes (no standby timeout, so every transition is a wake).
        calls = []
        estimate = DeviceEnergyModel.estimate_transition

        def counted(self, *args, **kwargs):
            calls.append(args)
            return estimate(self, *args, **kwargs)

        monkeypatch.setattr(DeviceEnergyModel, "estimate_transition",
                            counted)
        sim = ClusterSimulator(registry, policy="fifo", hw_configs=POOL,
                               energy_budget_mw=2.0, budget_window_ms=50.0)
        report = sim.run(trace) if engine == "vector" \
            else sim.run_events(trace)
        assert report.engine == engine
        assert report.budget.throttle_events > 0
        assert len(calls) == report.num_batches > 0
        charged = sum(d.compute_mj + d.swap_mj + d.transition_mj
                      for d in report.device_energy)
        assert report.budget.spent_mj == pytest.approx(charged, abs=1e-9)


class TestHomogeneousDefault:
    def test_default_pool_still_reports_energy(self, registry, trace):
        report = ClusterSimulator(registry, num_accelerators=2,
                                  policy="fifo").run(trace)
        energy = report.energy
        assert len(energy.devices) == 2
        assert energy.reconcile(report.serving, tol=1e-9)
        expected_n = registry.profile("sst2").engine \
            .hw_config.mac_vector_size
        assert all(d.mac_vector_size == expected_n
                   for d in energy.devices)

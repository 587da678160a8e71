"""Device sleep states: idle-timeout standby, wake pricing, cluster use."""

import math

import pytest

from repro.cluster import ClusterSimulator
from repro.energy import DeviceEnergyModel
from repro.errors import EnergyError
from repro.serving import synthetic_registry, synthetic_traffic

TASKS = ("sst2", "mnli")


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(TASKS, n=64, seed=0)


def parked_at_nominal(model, now_ms=0.0):
    """Run a zero-length batch so the device parks at the nominal rail."""
    model.on_run_begin(now_ms)
    model.on_run_end(now_ms)
    return model


class TestStandbyAccrual:
    def test_validation(self):
        with pytest.raises(EnergyError):
            DeviceEnergyModel(standby_timeout_ms=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(EnergyError, match="finite"):
                DeviceEnergyModel(standby_timeout_ms=bad)

    def test_no_timeout_parks_forever(self):
        model = parked_at_nominal(DeviceEnergyModel())
        model.finalize(1000.0)
        assert model.standby_entries == 0
        assert model.parked_vdd == model.nominal_vdd

    def test_idle_past_timeout_drops_to_standby(self):
        model = parked_at_nominal(
            DeviceEnergyModel(standby_timeout_ms=10.0))
        model.finalize(1000.0)
        assert model.standby_entries == 1
        assert model.parked_vdd == model.standby_vdd
        assert model.standby_ms == pytest.approx(990.0)
        assert model.idle_ms == pytest.approx(1000.0)

    def test_standby_leakage_is_cheaper(self):
        sleeper = parked_at_nominal(
            DeviceEnergyModel(standby_timeout_ms=10.0))
        insomniac = parked_at_nominal(DeviceEnergyModel())
        sleeper.finalize(1000.0)
        insomniac.finalize(1000.0)
        # The sleeper pays a down-transition but leaks at the retention
        # voltage for 990 ms: total overhead must come out lower.
        assert sleeper.overhead_energy_mj < insomniac.overhead_energy_mj

    def test_short_idle_does_not_sleep(self):
        model = parked_at_nominal(
            DeviceEnergyModel(standby_timeout_ms=10.0))
        model.on_run_begin(5.0)
        model.on_run_end(6.0)
        assert model.standby_entries == 0

    def test_down_transition_is_charged(self):
        model = parked_at_nominal(
            DeviceEnergyModel(standby_timeout_ms=10.0))
        before = model.transitions
        model.finalize(1000.0)
        assert model.transitions == before + 1
        assert model.transition_energy_mj > 0


class TestWakePricing:
    def test_asleep_device_prices_a_pricier_wake(self):
        model = parked_at_nominal(
            DeviceEnergyModel(standby_timeout_ms=10.0))
        awake_ms, awake_mj = model.estimate_transition(now_ms=5.0)
        asleep_ms, asleep_mj = model.estimate_transition(now_ms=500.0)
        assert asleep_mj > awake_mj
        assert asleep_ms > awake_ms
        # Estimating must not mutate the ledger.
        assert model.standby_entries == 0

    def test_wake_after_sleep_charges_from_standby(self):
        slept = parked_at_nominal(
            DeviceEnergyModel(standby_timeout_ms=10.0))
        predicted = slept.estimate_transition(now_ms=500.0)
        base = slept.transition_energy_mj
        slept.on_run_begin(500.0)
        # begin charges the down transition (at the crossing) plus the
        # standby→nominal wake, which must match the prediction.
        down = slept.estimate_transition(slept.standby_vdd,
                                         slept.standby_freq_ghz)
        charged = slept.transition_energy_mj - base
        assert charged == pytest.approx(down[1] + predicted[1])

    def test_initial_retention_state_unaffected(self):
        # Fresh devices already sit at the retention point; the timeout
        # must not double-charge a drop that never happens.
        model = DeviceEnergyModel(standby_timeout_ms=10.0)
        model.on_run_begin(100.0)
        model.on_run_end(101.0)
        assert model.standby_entries == 0


class TestClusterIntegration:
    def test_standby_run_reconciles_and_saves_idle_energy(self, registry):
        trace = synthetic_traffic(registry, 60, seed=4,
                                  mean_interarrival_ms=5.0,
                                  modes=("base", "lai"))
        base = ClusterSimulator(registry, num_accelerators=2,
                                policy="energy").run(trace)
        slept = ClusterSimulator(registry, num_accelerators=2,
                                 policy="energy",
                                 standby_timeout_ms=2.0).run(trace)
        slept.energy.reconcile(slept.serving, tol=1e-9)
        assert slept.num_requests == len(trace)
        assert slept.energy.idle_mj < base.energy.idle_mj

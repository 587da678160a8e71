"""Tests for the DVFS subsystem (V/F table, LDO, ADPLL, controller)."""

import numpy as np
import pytest

from repro.config import DvfsConfig
from repro.dvfs import (
    AdpllModel,
    DvfsController,
    LdoModel,
    VoltageFrequencyTable,
    VoltageTrace,
    max_frequency_ghz,
)
from repro.errors import DvfsError


class TestVfTable:
    def test_nominal_point_is_1ghz(self):
        assert max_frequency_ghz(0.8) == pytest.approx(1.0)

    def test_frequency_monotone_in_voltage(self):
        table = VoltageFrequencyTable()
        assert np.all(np.diff(table.frequencies) > 0)

    def test_13_operating_points(self):
        # 0.5 V to 0.8 V in 25 mV steps.
        assert len(VoltageFrequencyTable()) == 13

    def test_below_threshold_raises(self):
        with pytest.raises(DvfsError):
            max_frequency_ghz(0.2)

    def test_lowest_voltage_for_small_request(self):
        table = VoltageFrequencyTable()
        vdd, freq = table.lowest_voltage_for(0.1)
        assert vdd == 0.5
        assert freq >= 0.1

    def test_lowest_voltage_exact_top(self):
        table = VoltageFrequencyTable()
        vdd, _ = table.lowest_voltage_for(1.0)
        assert vdd == pytest.approx(0.8)

    def test_infeasible_request_raises(self):
        with pytest.raises(DvfsError):
            VoltageFrequencyTable().lowest_voltage_for(1.5)

    def test_lut_fits_in_aux_buffer(self):
        assert VoltageFrequencyTable().size_bytes < 64


#: The default config and one with a different row count (25 rows).
MEMO_CONFIGS = [DvfsConfig(), DvfsConfig(vdd_step=0.0125)]


class TestSharedVfTable:
    """One V/F table per DvfsConfig, shared read-only."""

    @pytest.mark.parametrize("config", MEMO_CONFIGS)
    def test_frequencies_match_per_voltage_loop(self, config):
        table = VoltageFrequencyTable(config)
        loop = [max_frequency_ghz(v, config) for v in table.voltages]
        assert table.frequencies.tolist() == loop
        assert table.voltages[0] == config.vdd_min
        assert table.voltages[-1] == config.vdd_max

    @pytest.mark.parametrize("config", MEMO_CONFIGS)
    def test_equal_configs_share_arrays(self, config):
        a = VoltageFrequencyTable(config)
        # An equal but distinct config object hits the same entry.
        b = VoltageFrequencyTable(DvfsConfig(vdd_step=config.vdd_step))
        assert a.voltages is b.voltages
        assert a.frequencies is b.frequencies
        assert a.nominal_point() is b.nominal_point()
        assert a.standby_point() is b.standby_point()
        other = VoltageFrequencyTable(
            DvfsConfig(vdd_step=config.vdd_step, vdd_min=0.55))
        assert other.voltages is not a.voltages

    @pytest.mark.parametrize("config", MEMO_CONFIGS)
    def test_shared_arrays_are_read_only(self, config):
        table = VoltageFrequencyTable(config)
        before = table.frequencies.copy()
        with pytest.raises(ValueError):
            table.frequencies[0] = 0.0
        with pytest.raises(ValueError):
            table.voltages[-1] = 0.0
        assert np.array_equal(VoltageFrequencyTable(config).frequencies,
                              before)

    @pytest.mark.parametrize("config", MEMO_CONFIGS)
    def test_rail_codes_and_moves(self, config):
        # Code 0 is the nominal point, code i + 1 row i; the move matrix
        # is the controller's own settle time over every pair of codes,
        # shared read-only by every controller on an equal config.
        controller = DvfsController(config)
        table = controller.table
        vdd, freq = table.rail_voltages, table.rail_frequencies
        assert (vdd[0], freq[0]) == table.nominal_point()
        assert vdd[1:].tolist() == table.voltages.tolist()
        assert freq[1:].tolist() == table.frequencies.tolist()
        moves = controller.rail_move_ns
        for a in range(vdd.size):
            np.testing.assert_array_equal(
                moves[a], controller.transition_overhead_ns_batch(
                    vdd[a], vdd, freq[a], freq))
        twin = DvfsController(DvfsConfig(vdd_step=config.vdd_step))
        assert twin.rail_move_ns is moves
        assert twin.table.rail_voltages is vdd
        with pytest.raises(ValueError):
            moves[0, 1] = 0.0

    @pytest.mark.parametrize("config", MEMO_CONFIGS)
    def test_nominal_and_standby_points(self, config):
        table = VoltageFrequencyTable(config)
        assert table.nominal_point() == (
            config.vdd_nominal,
            max_frequency_ghz(config.vdd_nominal, config))
        assert table.standby_point() == (
            config.vdd_standby,
            max_frequency_ghz(config.vdd_standby, config))


class TestLdo:
    def test_table4_slew(self):
        ldo = LdoModel()
        # Full 0.5 -> 0.8 V swing: 300 mV / 50 mV * 3.8 ns = 22.8 ns.
        assert ldo.transition_time_ns(0.5, 0.8) == pytest.approx(22.8)

    def test_settles_within_100ns(self):
        # The paper: "the LDO stabilizes voltage transitions within 100ns".
        ldo = LdoModel()
        assert ldo.transition_time_ns(0.5, 0.8) < 100.0

    def test_quantize_snaps_up_to_step(self):
        ldo = LdoModel()
        assert ldo.quantize(0.712) == pytest.approx(0.725)
        assert ldo.quantize(0.725) == pytest.approx(0.725)

    def test_quantize_clamps_range(self):
        ldo = LdoModel()
        assert ldo.quantize(0.3) == 0.5
        assert ldo.quantize(0.95) == 0.8

    def test_efficiency_near_peak(self):
        ldo = LdoModel()
        assert 0.95 < ldo.efficiency(0.5) <= ldo.efficiency(0.8) < 1.0

    def test_overhead_energy_small(self):
        ldo = LdoModel()
        overhead = ldo.overhead_energy_pj(1000.0, 0.8)
        assert 0.0 < overhead < 30.0

    def test_trace_append_monotonic(self):
        trace = VoltageTrace()
        trace.append(0.0, 0.8)
        trace.append(10.0, 0.5)
        with pytest.raises(DvfsError):
            trace.append(5.0, 0.8)

    def test_trace_interpolation(self):
        trace = VoltageTrace()
        trace.append(0.0, 0.5)
        trace.append(10.0, 0.7)
        assert trace.voltage_at(5.0) == pytest.approx(0.6)


class TestAdpll:
    def test_table4_power(self):
        assert AdpllModel().power_mw(1.0) == pytest.approx(2.46)

    def test_power_linear_in_frequency(self):
        adpll = AdpllModel()
        assert adpll.power_mw(0.5) == pytest.approx(1.23)

    def test_relock_zero_for_same_freq(self):
        assert AdpllModel().relock_time_ns(1.0, 1.0) == 0.0

    def test_relock_bounded(self):
        adpll = AdpllModel()
        assert adpll.relock_time_ns(1.0, 0.37) <= 100.0

    def test_energy_is_power_times_time(self):
        adpll = AdpllModel()
        assert adpll.energy_pj(1.0, 1000.0) == pytest.approx(2460.0)

    def test_invalid_frequency(self):
        with pytest.raises(DvfsError):
            AdpllModel().relock_time_ns(0.0, 1.0)


class TestController:
    def test_plan_meets_relaxed_target(self):
        controller = DvfsController()
        # 5M cycles in 40 ms -> 0.125 GHz -> lowest voltage.
        point = controller.plan(5e6, target_ns=50e6, elapsed_ns=10e6)
        assert point.meets_target
        assert point.vdd == 0.5

    def test_plan_tight_target_higher_voltage(self):
        controller = DvfsController()
        relaxed = controller.plan(10e6, 50e6, 10e6)
        tight = controller.plan(35e6, 50e6, 10e6)
        assert tight.vdd > relaxed.vdd

    def test_plan_infeasible_falls_back_nominal(self):
        controller = DvfsController()
        point = controller.plan(100e6, 50e6, 10e6)  # needs 2.5 GHz
        assert not point.meets_target
        assert point.vdd == 0.8

    def test_plan_blown_budget(self):
        controller = DvfsController()
        point = controller.plan(1e6, 50e6, 60e6)
        assert not point.meets_target

    def test_plan_no_remaining_work(self):
        point = DvfsController().plan(0, 50e6, 10e6)
        assert point.meets_target

    def test_frequency_sufficient_for_deadline(self):
        controller = DvfsController()
        remaining, target, elapsed = 8e6, 50e6, 5e6
        point = controller.plan(remaining, target, elapsed)
        finish = elapsed + remaining / point.freq_ghz
        assert finish <= target + 1e-6

    def test_transition_overhead_under_100ns(self):
        controller = DvfsController()
        overhead = controller.transition_overhead_ns(0.8, 0.5, 1.0, 0.37)
        assert overhead < 100.0

    def test_schedule_trace_shape(self):
        controller = DvfsController()
        plans = [
            {"layer1_ns": 4e6, "opt_vdd": 0.7, "rest_ns": 30e6},
            {"layer1_ns": 4e6, "opt_vdd": 0.65, "rest_ns": 25e6},
        ]
        trace = controller.schedule_trace(plans, target_ns=50e6)
        times, volts = trace.as_arrays()
        assert times[0] == 0.0
        assert volts[0] == controller.ldo.standby_voltage
        assert volts[-1] == controller.ldo.standby_voltage
        assert volts.max() == pytest.approx(0.8)
        assert times[-1] >= 100e6  # two sentence slots

    def test_schedule_trace_visits_scaled_voltages(self):
        controller = DvfsController()
        plans = [{"layer1_ns": 4e6, "opt_vdd": 0.65, "rest_ns": 30e6}]
        trace = controller.schedule_trace(plans, target_ns=50e6)
        assert 0.65 in trace.volts


class TestScheduleTraceVectorization:
    @staticmethod
    def random_plans(n, seed, table):
        rng = np.random.default_rng(seed)
        voltages = table.voltages
        return [
            {"layer1_ns": float(rng.uniform(1e6, 8e6)),
             "opt_vdd": float(voltages[rng.integers(len(voltages))]),
             "rest_ns": float(rng.uniform(5e6, 60e6))}
            for _ in range(n)
        ]

    @pytest.mark.parametrize("n,seed", [(1, 0), (7, 1), (200, 2)])
    def test_matches_scalar_oracle(self, n, seed):
        controller = DvfsController()
        plans = self.random_plans(n, seed, controller.table)
        for target_ns in (50e6, 20e6):  # padded slots and overrun slots
            fast = controller.schedule_trace(plans, target_ns=target_ns)
            slow = controller.schedule_trace_scalar(plans,
                                                    target_ns=target_ns)
            t_fast, v_fast = fast.as_arrays()
            t_slow, v_slow = slow.as_arrays()
            assert t_fast.shape == t_slow.shape
            # Times are O(1e8) ns sums, so the bound is relative there;
            # voltages are O(1) and held to the absolute 1e-9.
            np.testing.assert_allclose(t_fast, t_slow, rtol=1e-12,
                                       atol=1e-9)
            np.testing.assert_allclose(v_fast, v_slow, atol=1e-9)

    def test_zero_standby_gap_long_trace(self):
        # Regression: the tail points start from the post-clamp end time,
        # so a zero gap after overrun slots must not reverse the trace.
        controller = DvfsController()
        plans = self.random_plans(300, 6, controller.table)
        fast = controller.schedule_trace(plans, target_ns=20e6,
                                         standby_gap_ns=0.0)
        slow = controller.schedule_trace_scalar(plans, target_ns=20e6,
                                                standby_gap_ns=0.0)
        np.testing.assert_allclose(fast.as_arrays()[0],
                                   slow.as_arrays()[0],
                                   rtol=1e-12, atol=1e-9)

    def test_empty_plan_list_matches_scalar(self):
        controller = DvfsController()
        fast = controller.schedule_trace([], target_ns=50e6)
        slow = controller.schedule_trace_scalar([], target_ns=50e6)
        assert fast.times_ns == slow.times_ns
        assert fast.volts == slow.volts

    def test_from_arrays_rejects_time_reversal(self):
        from repro.dvfs import VoltageTrace
        with pytest.raises(DvfsError):
            VoltageTrace.from_arrays([0.0, 10.0, 5.0], [0.5, 0.6, 0.5])
        with pytest.raises(DvfsError):
            VoltageTrace.from_arrays([0.0, 1.0], [0.5])

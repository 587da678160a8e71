"""Voltage/frequency operating points (the "DVFS LUT", Sec. 7.4.3).

The accelerator's maximum clock frequency at a supply voltage follows the
alpha-power law

    f_max(V) ∝ (V − V_t)^α / V

normalized so that ``f_max(vdd_nominal) = freq_max_ghz``. The table holds
one row per LDO step (25 mV from 0.5 V to 0.8 V); the DVFS controller
indexes it to find the lowest voltage whose f_max meets a frequency
request — exactly the V/F LUT the paper stores in the SFU auxiliary
buffer.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.config import DvfsConfig
from repro.errors import DvfsError


def max_frequency_ghz(vdd, config=None):
    """Alpha-power-law maximum clock frequency at ``vdd`` (GHz)."""
    config = config or DvfsConfig()
    vdd = np.asarray(vdd, dtype=np.float64)
    if np.any(vdd <= config.vt_volts):
        raise DvfsError(
            f"vdd must exceed the threshold voltage {config.vt_volts}"
        )
    shape = (vdd - config.vt_volts) ** config.alpha_velocity / vdd
    nominal = ((config.vdd_nominal - config.vt_volts)
               ** config.alpha_velocity / config.vdd_nominal)
    result = config.freq_max_ghz * shape / nominal
    return float(result) if np.isscalar(vdd) or vdd.ndim == 0 else result


@functools.lru_cache(maxsize=None)
def _vf_points(config):
    """One config's V/F columns, nominal point and standby point.

    Computed once per (frozen, hashable) :class:`DvfsConfig` and shared
    read-only by every table built from an equal config — every device
    and engine of a pool carries its own controller, all with the same
    13 rows. The per-voltage loop is kept on purpose: a single
    array-valued :func:`max_frequency_ghz` call may round ``power``
    differently across NumPy builds and CPUs.
    """
    steps = int(round((config.vdd_max - config.vdd_min)
                      / config.vdd_step)) + 1
    voltages = np.round(
        config.vdd_min + np.arange(steps) * config.vdd_step, 6)
    frequencies = np.array(
        [max_frequency_ghz(v, config) for v in voltages])
    voltages.flags.writeable = False
    frequencies.flags.writeable = False
    nominal = (config.vdd_nominal,
               max_frequency_ghz(config.vdd_nominal, config))
    standby = (config.vdd_standby,
               max_frequency_ghz(config.vdd_standby, config))
    return voltages, frequencies, nominal, standby


@functools.lru_cache(maxsize=None)
def _rail_points(config):
    """One config's V/F columns in *rail codes*, shared read-only.

    Code 0 is the nominal point and code ``i + 1`` is table row ``i``,
    so a planner's ``table_index`` (−1 = nominal) becomes a code by
    adding one, and every per-operating-point value is a plain gather.
    """
    voltages, frequencies, nominal, _ = _vf_points(config)
    rail_vdd = np.concatenate(([nominal[0]], voltages))
    rail_freq = np.concatenate(([nominal[1]], frequencies))
    rail_vdd.flags.writeable = False
    rail_freq.flags.writeable = False
    return rail_vdd, rail_freq


class VoltageFrequencyTable:
    """Discrete (vdd, f_max) operating points at the LDO's step size.

    ``voltages`` and ``frequencies`` are built once per
    :class:`DvfsConfig` and shared, read-only, by every table on an
    equal config (writing into them raises ``ValueError``); so are the
    :meth:`nominal_point` and :meth:`standby_point` pairs and the
    rail-coded ``rail_voltages`` / ``rail_frequencies`` columns (the
    nominal point at index 0, row ``i`` at index ``i + 1``).
    """

    def __init__(self, config=None):
        self.config = config or DvfsConfig()
        (self.voltages, self.frequencies, self._nominal,
         self._standby) = _vf_points(self.config)
        self.rail_voltages, self.rail_frequencies = _rail_points(
            self.config)

    def __len__(self):
        return self.voltages.size

    def rows(self):
        """Iterate (vdd, f_max_ghz) rows, lowest voltage first."""
        return list(zip(self.voltages.tolist(), self.frequencies.tolist()))

    def lowest_voltage_for(self, freq_ghz):
        """Lowest vdd whose f_max meets ``freq_ghz``.

        Returns ``(vdd, f_max)``; raises :class:`DvfsError` if the request
        exceeds the table's top frequency.
        """
        idx = int(self.row_index_for(freq_ghz))
        if idx >= len(self):
            raise DvfsError(
                f"requested {freq_ghz:.3f} GHz exceeds f_max "
                f"{self.frequencies[-1]:.3f} GHz at vdd_max"
            )
        return float(self.voltages[idx]), float(self.frequencies[idx])

    def row_index_for(self, freq_ghz):
        """Row lookup: index of the lowest feasible voltage.

        ``freq_ghz`` is one frequency request (a float) or an array of
        them; the result holds, per request, the index of the first
        table row whose f_max meets it (the row
        :meth:`lowest_voltage_for` returns), or ``len(self)`` where the
        request exceeds f_max at vdd_max (infeasible). The one home of
        the row rule: the controller's scalar and batch planners both
        call it.
        """
        # frequencies are strictly increasing in vdd, so the first feasible
        # row is a sorted insertion point.
        return self.frequencies.searchsorted(freq_ghz - 1e-12, side="left")

    def nominal_point(self):
        """(vdd_nominal, freq at nominal) — where every sentence starts."""
        return self._nominal

    def standby_point(self):
        """(vdd_standby, freq at standby) — where an idle device parks."""
        return self._standby

    @property
    def size_bytes(self):
        """Auxiliary-buffer footprint: 2 bytes (V code + F code) per row."""
        return 2 * len(self)

"""The EdgeBERT accelerator system model (paper Sec. 7, Fig. 6/10).

Combines the PU and SFU models with supply-voltage scaling, per-block
clock/leakage power and the area model, and produces the layer- and
sentence-level latency/energy numbers the evaluation benches consume.

Energy accounting at an operating point (V, f):

* activity energy (MACs, codecs, SRAM, SFU lane-ops) scales (V/V0)²;
* per-block clock-tree energy is charged per cycle and scales (V/V0)²
  (clock power ∝ C·V²·f, so energy/cycle is frequency-independent);
* leakage power scales ≈ (V/V0)³ and is charged over wall-clock time;
* the ADPLL burns 2.46 mW/GHz — a fixed energy per cycle.

This makes DVFS savings quadratic in V with a small time-dependent
leakage correction — the paper's Energy ∝ αCV²·N_cycles abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import HwConfig
from repro.dvfs import AdpllModel
from repro.errors import HardwareError
from repro.hw.pu import ProcessingUnit, PuMetrics
from repro.hw.sfu import SfuMetrics, SpecialFunctionUnit
from repro.hw.tech import TechnologyParams

#: Per-cycle clock-tree energy (pJ) per block at n=16, calibrated so that
#: design at 0.8 V / 1 GHz reproduces Fig. 10's power breakdown. The PU
#: clock scales with its flop count (∝ n²) and the SRAM clock with port
#: width (∝ n); SFU and ReRAM clocks are design-point independent.
CLOCK_PJ_PER_CYCLE_N16 = {
    "pu": 1.5,
    "sram": 4.0,
    "sfu": 9.3,
    "reram": 3.4,
}


def clock_pj_per_cycle(n):
    """Per-block clock energy per cycle at vector size ``n``."""
    scale = n / 16.0
    base = CLOCK_PJ_PER_CYCLE_N16
    return {
        "pu": base["pu"] * scale * scale,
        "sram": base["sram"] * scale,
        "sfu": base["sfu"],
        "reram": base["reram"],
    }


@dataclass
class LayerMetrics:
    """Latency/energy of one encoder layer at one operating point."""

    cycles: int
    time_ns: float
    energy_pj: float
    vdd: float
    freq_ghz: float
    latency_breakdown: dict = field(default_factory=dict)
    energy_breakdown: dict = field(default_factory=dict)

    @property
    def energy_mj(self):
        return self.energy_pj * 1e-9

    @property
    def time_ms(self):
        return self.time_ns * 1e-6


@dataclass(frozen=True)
class LayerActivity:
    """One workload's PU/SFU simulation, independent of the V/F point."""

    pu: PuMetrics
    sfu: SfuMetrics


class AcceleratorModel:
    """Cycle-approximate, energy-calibrated model of the full accelerator."""

    def __init__(self, hw_config=None, tech=None):
        self.hw_config = hw_config or HwConfig()
        self.tech = tech or TechnologyParams()
        self.pu = ProcessingUnit(self.hw_config, self.tech)
        self.sfu = SpecialFunctionUnit(self.hw_config, self.tech)
        self.adpll = AdpllModel(self.hw_config.dvfs)
        # Pure-function memos: area is fixed at construction and leakage
        # depends only on vdd, but both sit on per-event hot paths (idle
        # accrual prices leakage at every run boundary of a replay).
        self._area_mm2 = None
        self._leakage_mw = {}

    # -- area ------------------------------------------------------------------

    def area_breakdown(self):
        """mm² per block (Fig. 10b's table)."""
        tech = self.tech
        n = self.hw_config.mac_vector_size
        sram_kb = (2 * self.hw_config.weight_buffer_kb
                   + 2 * self.hw_config.mask_buffer_kb
                   + self.hw_config.aux_buffer_kb)
        return {
            "pu_datapaths": (n * n * tech.area_mac_mm2
                             + tech.area_codec_mm2 * (n / 16.0)),
            "sfu_datapaths": tech.area_sfu_mm2,
            "sram_buffers": sram_kb * tech.area_sram_mm2_per_kb,
            "reram_buffers": self.hw_config.envm.capacity_mb * 0.08,
            "adpll": tech.area_adpll_mm2,
        }

    def total_area_mm2(self):
        if self._area_mm2 is None:
            self._area_mm2 = sum(self.area_breakdown().values())
        return self._area_mm2

    # -- per-layer simulation -----------------------------------------------------

    def _voltage_scale(self, vdd):
        return (vdd / self.tech.vdd_nominal) ** 2

    def leakage_mw(self, vdd):
        """Static power at ``vdd`` (V³ scaling)."""
        mw = self._leakage_mw.get(vdd)
        if mw is None:
            scale = (vdd / self.tech.vdd_nominal) ** 3
            mw = (self.tech.leakage_mw_per_mm2
                  * self.total_area_mm2() * scale)
            self._leakage_mw[vdd] = mw
        return mw

    def layer_metrics(self, workload, vdd=None, freq_ghz=None,
                      sparse_execution=True):
        """Simulate one layer's workload at an operating point."""
        return self.metrics_at(
            self.simulate_activity(workload,
                                   sparse_execution=sparse_execution),
            vdd=vdd, freq_ghz=freq_ghz)

    def simulate_activity(self, workload, sparse_execution=True):
        """The PU and SFU activity of one layer's workload.

        Cycle counts and nominal-voltage datapath energies: neither reads
        the operating point, so a caller pricing one workload at many
        V/F points simulates it once and evaluates each point with
        :meth:`metrics_at`.
        """
        return LayerActivity(
            pu=self.pu.simulate(workload.matmuls,
                                sparse_execution=sparse_execution),
            sfu=self.sfu.simulate(workload.sfu_ops))

    def metrics_at(self, activity, vdd=None, freq_ghz=None):
        """:class:`LayerMetrics` of simulated ``activity`` at (vdd, f)."""
        vdd = vdd if vdd is not None else self.hw_config.dvfs.vdd_nominal
        freq_ghz = freq_ghz if freq_ghz is not None \
            else self.hw_config.dvfs.freq_max_ghz
        if freq_ghz <= 0:
            raise HardwareError("frequency must be positive")
        pu, sfu = activity.pu, activity.sfu
        cycles = pu.cycles + sfu.cycles
        time_ns = cycles / freq_ghz
        v2 = self._voltage_scale(vdd)

        clock_total_pj_per_cycle = sum(
            clock_pj_per_cycle(self.hw_config.mac_vector_size).values())
        energy = {
            "pu_macs": pu.mac_energy_pj * v2,
            "pu_decode": pu.decode_energy_pj * v2,
            "pu_encode": pu.encode_energy_pj * v2,
            "sram": pu.sram_energy_pj * v2,
            "sfu": sfu.energy_pj * v2,
            "clock": clock_total_pj_per_cycle * cycles * v2,
            "leakage": self.leakage_mw(vdd) * time_ns,
            "adpll": self.adpll.energy_pj(freq_ghz, time_ns),
        }
        latency = {
            "macs": pu.mac_cycles,
            "bitmask_decode": pu.decode_cycles,
            "bitmask_encode": pu.encode_cycles,
        }
        for name, cyc in sfu.cycles_by_kind.items():
            latency[name] = cyc
        return LayerMetrics(
            cycles=cycles,
            time_ns=time_ns,
            energy_pj=sum(energy.values()),
            vdd=vdd,
            freq_ghz=freq_ghz,
            latency_breakdown=latency,
            energy_breakdown=energy,
        )

    # -- Fig. 10 summaries --------------------------------------------------------

    def power_breakdown_mw(self, workload, sparse_execution=True):
        """Average power per block at the nominal point (Fig. 10b)."""
        metrics = self.layer_metrics(workload,
                                     sparse_execution=sparse_execution)
        t = metrics.time_ns
        e = metrics.energy_breakdown
        cycles = metrics.cycles
        per_cycle = clock_pj_per_cycle(self.hw_config.mac_vector_size)
        clock = {k: per_cycle[k] * cycles for k in per_cycle}
        leak_share = e["leakage"] / 4.0  # spread across the four blocks
        return {
            "pu_datapaths": (e["pu_macs"] + e["pu_decode"] + e["pu_encode"]
                             + clock["pu"] + leak_share) / t,
            "sfu_datapaths": (e["sfu"] + clock["sfu"] + leak_share) / t,
            "sram_buffers": (e["sram"] + clock["sram"] + leak_share) / t,
            "reram_buffers": (clock["reram"] + leak_share) / t,
            "adpll": e["adpll"] / t,
        }

    def latency_fractions(self, workload):
        """Fraction of cycles per datapath activity (Fig. 10a latency row)."""
        metrics = self.layer_metrics(workload)
        total = sum(metrics.latency_breakdown.values())
        return {k: v / total for k, v in metrics.latency_breakdown.items()}

    def energy_fractions(self, workload):
        """Datapath-energy fractions (Fig. 10a energy row).

        Matches the paper's accounting: PU/SFU *datapath* energies only
        (clock/leakage/ADPLL excluded), MACs vs codecs vs SFU units.
        """
        metrics = self.layer_metrics(workload)
        e = metrics.energy_breakdown
        sfu = self.sfu.simulate(workload.sfu_ops)
        parts = {
            "macs": e["pu_macs"],
            "bitmask_decode": e["pu_decode"],
            "bitmask_encode": e["pu_encode"],
        }
        for name, value in sfu.energy_by_kind.items():
            parts[name] = value
        total = sum(parts.values())
        return {k: v / total for k, v in parts.items()}

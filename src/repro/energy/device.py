"""Per-accelerator energy governor state: the device-side DVFS ledger.

The cluster simulator knows *when* a device computes; this model knows
what the device's supply rail is doing the rest of the time. Each
:class:`DeviceEnergyModel` tracks the **parked operating point** — the
(vdd, freq) the last batch left the rail at, starting from the LDO's
standby/retention voltage — and charges the two energy terms the
post-hoc ``swap + compute`` sums of PR 2 ignored:

* **idle/leakage energy** — while the device waits for work it burns
  static power at the parked voltage (V³-scaled leakage of the device's
  own :class:`~repro.hw.accelerator.AcceleratorModel`; compute-time
  leakage is already inside the engine's per-layer energy, so idle
  accrual runs strictly between runs);
* **DVFS transition energy** — waking a parked device back to the
  nominal point (every batch's front end runs at nominal V/F) burns
  dead time at the higher rail: leakage plus ADPLL power over the
  LDO-slew ∥ ADPLL-relock settle window.

The settle window itself (≲ a few hundred ns) is three to four orders
of magnitude below per-sentence latencies, so — like the paper's Fig. 7
argument — it is charged as energy only and never perturbs the event
schedule; a cluster run with energy tracking is event-for-event
identical to one without.

Everything here is deterministic and observable: the
:class:`~repro.energy.EnergyGovernor` reads ``parked_vdd`` and
:meth:`estimate_transition` when scoring placements, and the final
totals flow into the per-accelerator
:class:`~repro.energy.DeviceEnergyBreakdown`.
"""

from __future__ import annotations

from repro.config import HwConfig
from repro.dvfs import DvfsController
from repro.errors import EnergyError
from repro.hw.accelerator import AcceleratorModel
from repro.telemetry.tracer import NULL_TRACER


class DeviceEnergyModel:
    """Parked-operating-point, idle, standby and transition accounting.

    ``standby_timeout_ms`` arms the sleep state: a device idle longer
    than the timeout drops its rail from the parked point to the LDO's
    standby/retention voltage — cheaper leakage from then on, but the
    next wake pays the full standby→nominal transition through the same
    LDO-slew ∥ ADPLL-relock path (and the drop itself is charged as one
    more transition). ``None`` keeps the legacy park-forever behavior.
    The crossing is applied retroactively when the idle interval is
    accrued, so accounting stays deterministic and event-schedule-free.
    """

    def __init__(self, hw_config=None, start_ms=0.0,
                 standby_timeout_ms=None):
        if standby_timeout_ms is not None and standby_timeout_ms < 0:
            raise EnergyError("standby_timeout_ms must be non-negative")
        self.hw_config = hw_config or HwConfig.energy_optimal()
        self.accelerator = AcceleratorModel(self.hw_config)
        self.dvfs = DvfsController(self.hw_config.dvfs)
        self.nominal_vdd, self.nominal_freq_ghz = \
            self.dvfs.table.nominal_point()
        # The retention point: standby voltage, and the fastest clock
        # that voltage sustains. Devices power up parked there.
        self.standby_vdd, self.standby_freq_ghz = \
            self.dvfs.table.standby_point()
        self.parked_vdd = self.standby_vdd
        self.parked_freq_ghz = self.standby_freq_ghz
        self.standby_timeout_ms = (None if standby_timeout_ms is None
                                   else float(standby_timeout_ms))
        self._idle_since_ms = float(start_ms)
        self._busy = False
        self._finalized_ms = None
        # Transition memo: (from_vdd, from_freq, to_vdd, to_freq) →
        # (settle_ms, energy_mj). The rail moves between a handful of
        # operating points but is priced at every run begin/park of a
        # replay; the memo returns the identical floats either way.
        self._transition_cache = {}

        # Telemetry: idle spans and transition instants land on _track;
        # emission reuses the exact floats added to the ledgers below,
        # so a traced run's span rollup reconciles at 1e-9 by identity.
        # Rows buffer locally (_trows) and drain in one bulk pass at
        # finalization — the rail hooks sit on the replay hot path, and
        # Tracer.extend_rows is an order of magnitude cheaper per row
        # than span()/instant() calls.
        self._tracer = NULL_TRACER
        self._track = "device"
        self._trows = []

        self.idle_energy_mj = 0.0
        self.idle_ms = 0.0
        self.standby_ms = 0.0
        self.standby_entries = 0
        self.transition_energy_mj = 0.0
        self.transition_ms = 0.0
        self.transitions = 0

    def attach_tracer(self, tracer, track):
        """Observe this device's rail on ``track`` (strictly read-only).

        Idle intervals become ``"idle"`` spans and every rail move
        (wake, standby drop, forced park) a ``"transition"`` instant,
        each carrying the identical millijoules the ledger accrued — the
        telemetry rollup and :class:`~repro.energy.DeviceEnergyBreakdown`
        agree float-for-float.
        """
        self._tracer = tracer
        self._track = track

    # -- power laws ---------------------------------------------------------------

    def idle_power_mw(self, vdd=None):
        """Static power while parked (clock-gated: leakage only)."""
        return self.accelerator.leakage_mw(
            self.parked_vdd if vdd is None else vdd)

    def would_be_standby(self, now_ms):
        """Has an idle device crossed its standby timeout by ``now_ms``?"""
        return (self.standby_timeout_ms is not None
                and not self._busy
                and self.parked_vdd != self.standby_vdd
                and float(now_ms) - self._idle_since_ms
                > self.standby_timeout_ms)

    def estimate_transition(self, to_vdd=None, to_freq_ghz=None,
                            now_ms=None):
        """(settle_ms, energy_mj) of moving the parked rail to a point.

        Defaults to the nominal point — the move every batch start pays.
        The settle window is dead time at the *higher* of the two rails
        (the LDO header charges before compute resumes) with the ADPLL
        burning its relock power at the target frequency. ``now_ms``,
        when given, accounts for the standby timeout: a device that
        would be asleep by then is priced waking from the retention
        point — the pricier wake the governor weighs against routing to
        an awake device.
        """
        to_vdd = self.nominal_vdd if to_vdd is None else to_vdd
        to_freq = self.nominal_freq_ghz if to_freq_ghz is None \
            else to_freq_ghz
        from_vdd, from_freq = self.parked_vdd, self.parked_freq_ghz
        if now_ms is not None and self.would_be_standby(now_ms):
            from_vdd, from_freq = self.standby_vdd, self.standby_freq_ghz
        key = (from_vdd, from_freq, to_vdd, to_freq)
        cached = self._transition_cache.get(key)
        if cached is None:
            settle_ns = self.dvfs.transition_overhead_ns(
                from_vdd, to_vdd, from_freq, to_freq)
            power_mw = (self.accelerator.leakage_mw(max(from_vdd, to_vdd))
                        + self.dvfs.adpll.power_mw(to_freq))
            cached = (settle_ns * 1e-6, power_mw * settle_ns * 1e-9)
            self._transition_cache[key] = cached  # (ms, mJ)
        return cached

    # -- run lifecycle hooks (driven by AcceleratorSim) ---------------------------

    def on_run_begin(self, now_ms):
        """Close the idle interval and wake the rail to nominal."""
        if self._busy:
            raise EnergyError("device energy model saw begin while busy")
        self._accrue_idle(now_ms)
        settle_ms, energy_mj = self.estimate_transition()
        if settle_ms > 0.0 or energy_mj > 0.0:
            self.transition_ms += settle_ms
            self.transition_energy_mj += energy_mj
            self.transitions += 1
            if self._tracer.enabled:
                self._trows.append(
                    ("wake", "transition", float(now_ms), None,
                     self._track, energy_mj,
                     {"settle_ms": settle_ms,
                      "from_vdd": self.parked_vdd,
                      "to_vdd": self.nominal_vdd}))
        self.parked_vdd = self.nominal_vdd
        self.parked_freq_ghz = self.nominal_freq_ghz
        self._busy = True

    def on_run_end(self, now_ms, vdd=None, freq_ghz=None):
        """Park the rail where the run left it; idle accrual resumes."""
        if not self._busy:
            raise EnergyError("device energy model saw end while idle")
        self.parked_vdd = self.nominal_vdd if vdd is None else float(vdd)
        self.parked_freq_ghz = self.nominal_freq_ghz if freq_ghz is None \
            else float(freq_ghz)
        self._idle_since_ms = float(now_ms)
        self._busy = False

    def force_standby(self, now_ms):
        """Drop an idle device's rail to retention *now* (device parking).

        The fleet autoscaler's hook: parking a whole device should not
        wait for the standby timeout, but it must still pay the real
        DVFS cost — idle leakage at the old parked point up to
        ``now_ms``, then one charged down-transition to the retention
        voltage. The next :meth:`on_run_begin` prices the full
        standby→nominal wake, so a scale-up decision pays its true
        energy bill too. No-op when the rail already sits at retention.
        """
        if self._busy:
            raise EnergyError("cannot force a busy device into standby")
        self._accrue_idle(now_ms)
        if self.parked_vdd == self.standby_vdd:
            return
        settle_ms, energy_mj = self.estimate_transition(
            self.standby_vdd, self.standby_freq_ghz)
        self.transition_ms += settle_ms
        self.transition_energy_mj += energy_mj
        self.transitions += 1
        self.standby_entries += 1
        if self._tracer.enabled:
            self._trows.append(
                ("park", "transition", float(now_ms), None,
                 self._track, energy_mj,
                 {"settle_ms": settle_ms,
                  "from_vdd": self.parked_vdd,
                  "to_vdd": self.standby_vdd}))
        self.parked_vdd = self.standby_vdd
        self.parked_freq_ghz = self.standby_freq_ghz

    def finalize(self, end_ms):
        """Accrue the tail idle interval up to the run's makespan.

        A device whose ledger already advanced past ``end_ms`` (an
        autoscaler parked it at a tick after the last completion) has
        nothing left to accrue — the horizon clamps forward, never
        backwards.
        """
        if self._busy:
            raise EnergyError("cannot finalize a busy device")
        end_ms = max(float(end_ms), self._idle_since_ms)
        self._accrue_idle(end_ms)
        self._finalized_ms = end_ms

    def drain_trace_rows(self):
        """Hand the buffered telemetry rows over and reset the buffer.

        The simulator's finalization bulk-emits these through
        :meth:`~repro.telemetry.Tracer.extend_rows` once the ledgers are
        settled; exporters order by timestamp, so deferred emission is
        invisible downstream.
        """
        rows = self._trows
        self._trows = []
        return rows

    def _accrue_idle(self, now_ms):
        interval_ms = float(now_ms) - self._idle_since_ms
        if interval_ms < -1e-9:
            raise EnergyError(
                f"idle accrual moving backwards: {self._idle_since_ms} ->"
                f" {now_ms} ms")
        interval_ms = max(0.0, interval_ms)
        if self.would_be_standby(now_ms):
            # The rail dropped to retention partway through the interval:
            # leakage at the parked point until the timeout, one charged
            # down-transition at the crossing, standby leakage after.
            awake_ms = min(self.standby_timeout_ms, interval_ms)
            asleep_ms = interval_ms - awake_ms
            awake_mj = self.idle_power_mw() * awake_ms * 1e-3
            self.idle_energy_mj += awake_mj
            settle_ms, energy_mj = self.estimate_transition(
                self.standby_vdd, self.standby_freq_ghz)
            self.transition_ms += settle_ms
            self.transition_energy_mj += energy_mj
            self.transitions += 1
            self.standby_entries += 1
            from_vdd = self.parked_vdd
            self.parked_vdd = self.standby_vdd
            self.parked_freq_ghz = self.standby_freq_ghz
            asleep_mj = (self.idle_power_mw() * asleep_ms
                         * 1e-3)
            self.idle_energy_mj += asleep_mj
            self.standby_ms += asleep_ms
            if self._tracer.enabled:
                crossing_ms = self._idle_since_ms + awake_ms
                self._trows.append(
                    ("idle", "idle", self._idle_since_ms, awake_ms,
                     self._track, awake_mj, None))
                self._trows.append(
                    ("standby-drop", "transition", crossing_ms, None,
                     self._track, energy_mj,
                     {"settle_ms": settle_ms, "from_vdd": from_vdd,
                      "to_vdd": self.standby_vdd}))
                self._trows.append(
                    ("standby", "idle", crossing_ms, asleep_ms,
                     self._track, asleep_mj, None))
        else:
            # mW * ms = µJ; scale to mJ.
            idle_mj = self.idle_power_mw() * interval_ms * 1e-3
            self.idle_energy_mj += idle_mj
            if self._tracer.enabled and interval_ms > 0.0:
                self._trows.append(
                    ("idle", "idle", self._idle_since_ms, interval_ms,
                     self._track, idle_mj, None))
        self.idle_ms += interval_ms
        self._idle_since_ms = float(now_ms)

    @property
    def overhead_energy_mj(self):
        """Idle + transition energy (everything beyond compute/swap)."""
        return self.idle_energy_mj + self.transition_energy_mj

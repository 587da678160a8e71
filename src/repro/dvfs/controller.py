"""Sentence-level DVFS controller (paper Sec. 5.2, Algorithm 2).

Per sentence: layer 1 runs at nominal V/F; once the EE predictor forecasts
the exit layer, the remaining cycle count is known, so

    Freq_opt = N_cycles / (T − T_elapsed)

and the V/F LUT gives the lowest voltage sustaining that frequency. The
controller also produces the Fig. 7-style voltage schedule (transition to
the optimal point, return to nominal between sentences, standby when
idle).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.config import DvfsConfig
from repro.dvfs.adpll import AdpllModel
from repro.dvfs.ldo import LdoModel, VoltageTrace
from repro.dvfs.vf_table import VoltageFrequencyTable
from repro.errors import DvfsError


@dataclass(frozen=True)
class OperatingPoint:
    """One DVFS decision."""

    vdd: float
    freq_ghz: float
    meets_target: bool
    requested_freq_ghz: float

    @property
    def is_nominal(self):
        return not self.meets_target or self.requested_freq_ghz <= 0


@dataclass(frozen=True)
class BatchPlan:
    """Vectorized DVFS decisions for a batch of sentences.

    Mirrors :class:`OperatingPoint` field-for-field with one addition:
    ``table_index`` holds the V/F-table row backing each decision, or −1
    where the controller fell back to the nominal point (no remaining
    work, blown budget, or infeasible request) — callers can use it to
    index precomputed per-row layer metrics without matching floats.
    """

    vdd: np.ndarray
    freq_ghz: np.ndarray
    meets_target: np.ndarray
    requested_freq_ghz: np.ndarray
    table_index: np.ndarray

    def __len__(self):
        return self.vdd.size

    def point(self, i):
        """The ``i``-th decision as a scalar :class:`OperatingPoint`."""
        return OperatingPoint(float(self.vdd[i]), float(self.freq_ghz[i]),
                              bool(self.meets_target[i]),
                              float(self.requested_freq_ghz[i]))

    @property
    def rail_codes(self):
        """Each decision's rail code: 0 = nominal, ``i + 1`` = row ``i``.

        Indexes rail-coded per-operating-point arrays (the nominal value
        at index 0, row ``i``'s at ``i + 1``) with one gather, and keeps
        the sentinel encoding private to :class:`BatchPlan`.
        """
        return self.table_index + 1


def _settle_ns(ldo, adpll, v_from, v_to, f_from, f_to):
    """Elementwise settling time before compute may resume (LDO ∥ ADPLL)."""
    return np.maximum(ldo.transition_time_ns(v_from, v_to),
                      adpll.relock_time_ns_batch(f_from, f_to))


@functools.lru_cache(maxsize=None)
def _rail_move_ns(config):
    """Settle time of every rail move, built once per :class:`DvfsConfig`.

    Entry ``[a, b]`` is the move from rail code ``a`` to rail code ``b``
    (code 0 = nominal, code ``i + 1`` = table row ``i``), evaluated
    elementwise over every pair of points and shared read-only by every
    controller on an equal config.
    """
    table = VoltageFrequencyTable(config)
    vdd, freq = table.rail_voltages, table.rail_frequencies
    moves = _settle_ns(LdoModel(config), AdpllModel(config),
                       vdd[:, None], vdd[None, :],
                       freq[:, None], freq[None, :])
    moves.flags.writeable = False
    return moves


class DvfsController:
    """Plans per-sentence operating points and voltage schedules."""

    def __init__(self, config=None):
        self.config = config or DvfsConfig()
        self.table = VoltageFrequencyTable(self.config)
        self.ldo = LdoModel(self.config)
        self.adpll = AdpllModel(self.config)
        #: ``rail_move_ns[a, b]`` is :meth:`transition_overhead_ns_batch`
        #: from rail code ``a`` to rail code ``b`` (code 0 = nominal,
        #: code ``i + 1`` = table row ``i``), shared per config.
        self.rail_move_ns = _rail_move_ns(self.config)

    def plan(self, remaining_cycles, target_ns, elapsed_ns):
        """Choose (vdd, freq) for the remaining work of one sentence.

        Implements ``Freq_opt = N_cycles / (T − T_elapsed)``. When the
        budget is already blown (or infeasible at f_max), the controller
        falls back to the nominal point and flags ``meets_target=False`` —
        the paper's remedy for such targets is a larger MAC vector size.
        """
        nominal_vdd, nominal_freq = self.table.nominal_point()
        slack_ns = target_ns - elapsed_ns
        if remaining_cycles <= 0:
            return OperatingPoint(nominal_vdd, nominal_freq, True, 0.0)
        if slack_ns <= 0:
            return OperatingPoint(nominal_vdd, nominal_freq, False,
                                  float("inf"))
        freq_request = remaining_cycles / slack_ns  # cycles per ns = GHz
        try:
            vdd, freq = self.table.lowest_voltage_for(freq_request)
        except DvfsError:
            return OperatingPoint(nominal_vdd, nominal_freq, False,
                                  freq_request)
        return OperatingPoint(vdd, freq, True, freq_request)

    def plan_batch(self, remaining_cycles, target_ns, elapsed_ns):
        """Vectorized :meth:`plan` over arrays of sentences.

        ``remaining_cycles`` is an (N,) array; ``target_ns`` and
        ``elapsed_ns`` broadcast against it (typically scalars: every
        sentence starts from the same nominal front end). Semantics match
        the scalar planner decision-for-decision; see :class:`BatchPlan`
        for the fallback encoding.
        """
        # Elementwise throughout, so scalar targets and front-end times
        # broadcast against the (N,) remaining work without copies.
        remaining = np.asarray(remaining_cycles, dtype=np.float64)
        slack = (np.asarray(target_ns, dtype=np.float64)
                 - np.asarray(elapsed_ns, dtype=np.float64))

        active = remaining > 0
        planned = active & (slack > 0)
        blown = active & (slack <= 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            request = np.where(planned, remaining / slack,
                               np.where(blown, np.inf, 0.0))

        row = self.table.row_index_for(request)
        hit = planned & (row < len(self.table))
        idx = np.where(hit, row, -1)
        code = idx + 1
        return BatchPlan(vdd=self.table.rail_voltages[code],
                         freq_ghz=self.table.rail_frequencies[code],
                         meets_target=hit | ~active,
                         requested_freq_ghz=request, table_index=idx)

    def plan_batch_deadline(self, remaining_cycles, budget, elapsed_ns,
                            **kwargs):
        """Plan a whole batch against one shared deadline budget.

        Earliest-deadline water-filling over the V/F table (see
        :mod:`repro.dvfs.deadline`): give early sentences slower
        operating points while the batch has slack, tighten as the
        deadline approaches, and fall back to :meth:`plan_batch` — the
        per-sentence oracle — when the budget grants no slack.

        ``budget`` is a :class:`~repro.dvfs.deadline.DeadlineBudget`, or
        a ``deadline_ns`` scalar together with a ``target_ns`` keyword;
        ``remaining_cycles`` / ``elapsed_ns`` are as in
        :meth:`plan_batch`. Callers pricing with engine tables pass the
        rail-coded ``rail_layer_ns`` (per sentence) and
        ``rail_front_ns`` so the plan predicts with the exact per-row
        costs the engine charges. Returns a
        :class:`~repro.dvfs.deadline.DeadlineBatchPlan`.
        """
        # Imported lazily: the deadline module subclasses this module's
        # BatchPlan, so a top-level import would be circular.
        from repro.dvfs.deadline import plan_batch_deadline
        return plan_batch_deadline(self, remaining_cycles, budget,
                                   elapsed_ns, **kwargs)

    def transition_overhead_ns(self, v_from, v_to, f_from, f_to):
        """Settling time before compute may resume (LDO ∥ ADPLL)."""
        return max(self.ldo.transition_time_ns(v_from, v_to),
                   self.adpll.relock_time_ns(f_from, f_to))

    def transition_overhead_ns_batch(self, v_from, v_to, f_from, f_to):
        """Vectorized :meth:`transition_overhead_ns` over V/F arrays."""
        return _settle_ns(self.ldo, self.adpll, v_from, v_to, f_from, f_to)

    def schedule_trace(self, sentence_plans, target_ns, standby_gap_ns=100.0):
        """Fig. 7-style V(t) trace over consecutive sentence inferences.

        ``sentence_plans`` is a list of dicts with keys ``layer1_ns``
        (front-end time at nominal), ``opt_vdd`` and ``rest_ns`` (remaining
        compute time at the scaled point). Each sentence slot is padded to
        ``target_ns`` (the real-time arrival period), then the trace drops
        to standby after the last sentence.

        The whole trace is built with NumPy array ops — the per-sentence
        point layout is fixed (seven points per slot), and the only
        sequential dependency, the slot start times, is a cumulative sum
        of per-slot durations clamped to the arrival period. The original
        per-sentence loop survives as :meth:`schedule_trace_scalar`, the
        oracle the tests hold this path to at 1e-9.
        """
        if not sentence_plans:
            return self.schedule_trace_scalar(sentence_plans, target_ns,
                                              standby_gap_ns)
        layer1 = np.array([float(p["layer1_ns"]) for p in sentence_plans])
        opt_vdd = np.array([float(p["opt_vdd"]) for p in sentence_plans])
        rest = np.array([float(p["rest_ns"]) for p in sentence_plans])

        nominal_vdd, _ = self.table.nominal_point()
        settle_in = self.ldo.transition_time_ns(self.ldo.standby_voltage,
                                                nominal_vdd)
        down = self.ldo.transition_time_ns(nominal_vdd, opt_vdd)
        up = self.ldo.transition_time_ns(opt_vdd, nominal_vdd)

        # Slot i occupies [start_i, start_i + max(duration_i, target)).
        duration = layer1 + down + rest + up
        slot = np.maximum(duration, target_ns)
        start = np.concatenate([[0.0], np.cumsum(slot)[:-1]])
        t_layer1 = start + layer1
        t_scaled = t_layer1 + down
        t_rest = t_scaled + rest
        t_back = t_rest + up
        t_hold = start + slot
        # Seven points per sentence, matching the scalar path exactly
        # (extend_trace re-appends the current point before each ramp).
        times = np.column_stack([t_layer1, t_layer1, t_scaled, t_rest,
                                 t_rest, t_back, t_hold]).ravel()
        # start+slot and the chained per-point sums can disagree by a few
        # 1e-8 ns at long-trace magnitudes; clamp the rounding jitter so
        # coincident points stay exactly non-decreasing.
        times = np.maximum.accumulate(times)
        nominal = np.full(len(sentence_plans), nominal_vdd)
        volts = np.column_stack([nominal, nominal, opt_vdd, opt_vdd,
                                 opt_vdd, nominal, nominal]).ravel()

        t_end = float(times[-1])  # post-clamp, so the tail never reverses
        settle_out = self.ldo.transition_time_ns(nominal_vdd,
                                                 self.ldo.standby_voltage)
        times = np.concatenate([
            [0.0, settle_in], times,
            [t_end + standby_gap_ns, t_end + standby_gap_ns + settle_out]])
        volts = np.concatenate([
            [self.ldo.standby_voltage, nominal_vdd], volts,
            [nominal_vdd, self.ldo.standby_voltage]])
        return VoltageTrace.from_arrays(times, volts)

    def schedule_trace_scalar(self, sentence_plans, target_ns,
                              standby_gap_ns=100.0):
        """Per-sentence reference implementation of :meth:`schedule_trace`."""
        trace = VoltageTrace()
        nominal_vdd, _ = self.table.nominal_point()
        t = 0.0
        trace.append(t, self.ldo.standby_voltage)
        settle = self.ldo.transition_time_ns(self.ldo.standby_voltage,
                                             nominal_vdd)
        trace.append(t + settle, nominal_vdd)
        for plan in sentence_plans:
            start = t
            t += float(plan["layer1_ns"])
            trace.append(t, nominal_vdd)
            settle = self.ldo.extend_trace(trace, t, nominal_vdd,
                                           plan["opt_vdd"])
            t += settle + float(plan["rest_ns"])
            trace.append(t, plan["opt_vdd"])
            settle = self.ldo.extend_trace(trace, t, plan["opt_vdd"],
                                           nominal_vdd)
            t += settle
            # Hold at nominal until the next sentence arrives.
            t = max(t, start + target_ns)
            trace.append(t, nominal_vdd)
        settle = self.ldo.extend_trace(
            trace, t + standby_gap_ns, nominal_vdd, self.ldo.standby_voltage)
        return trace

"""Cluster-wide rolling-window energy budget (Camel-style admission).

Edge deployments cap the power envelope, not just per-request latency:
Camel (arXiv:2508.09173) schedules LLM inference under an explicit
energy budget and throttles admission when it is exhausted. The
:class:`EnergyBudget` models that as a joules-per-second cap enforced
over a rolling window: every batch the dispatcher admits *commits* its
predicted energy (compute + swap + wake transition) at its start time;
while the committed energy inside the trailing window has reached the
cap, the dispatcher stops placing batches and re-arms at the instant
the oldest commitment slides out of the window.

Semantics chosen for determinism and liveness:

* admission is gated on *exhausted*, not *would-exceed*: a batch is
  admitted whenever the window still has headroom, even if its own
  energy overshoots the cap — otherwise a batch larger than the whole
  window budget could never run. Each such overshoot is counted
  (``overshoots``) as a budget violation.
* preempted work **is refunded**: :meth:`commit` returns a ledger
  token, and :meth:`refund` hands back the never-executed share of a
  commitment the same way the accelerator's swap-refund ledger does —
  the re-queued remainder commits afresh on re-dispatch, so without the
  refund an aborted batch would leave the window overcharged and
  throttle admission spuriously. A commitment that has already slid out
  of the window refunds nothing (that energy no longer gates anyone).

Fleet-level shaping reads the window through :meth:`headroom_mj` /
:meth:`headroom_fraction` — the router's signal for preferring cheaper
sites and deferring relaxed-SLO traffic *before* the hard throttle
engages.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.errors import EnergyError
from repro.telemetry.tracer import NULL_TRACER


@dataclass
class BudgetStats:
    """What the budget did during one run (for the EnergyReport)."""

    power_mw: float
    window_ms: float
    spent_mj: float = 0.0
    admitted: int = 0
    throttle_events: int = 0
    throttled_ms: float = 0.0
    overshoots: int = 0
    refunds: int = 0
    refunded_mj: float = 0.0

    @property
    def cap_mj(self):
        """Energy allowance of one full window (mW * ms = µJ → mJ)."""
        return self.power_mw * self.window_ms * 1e-3

    def summary(self):
        return {
            "power_mw": self.power_mw,
            "window_ms": self.window_ms,
            "cap_mj_per_window": self.cap_mj,
            "spent_mj": self.spent_mj,
            "admitted": self.admitted,
            "throttle_events": self.throttle_events,
            "throttled_ms": self.throttled_ms,
            "overshoots": self.overshoots,
            "refunds": self.refunds,
            "refunded_mj": self.refunded_mj,
        }


class EnergyBudget:
    """Joules/sec cap over a rolling window of committed batch energy."""

    def __init__(self, power_mw, window_ms=100.0):
        # Chained bounds reject NaN and infinite values too.
        if not 0 < power_mw < math.inf:
            raise EnergyError("energy budget power must be finite and > 0")
        if not 0 < window_ms < math.inf:
            raise EnergyError("energy budget window must be finite and > 0")
        self.power_mw = float(power_mw)
        self.window_ms = float(window_ms)
        self.cap_mj = self.power_mw * self.window_ms * 1e-3
        self._ledger = deque()  # [commit_ms, energy_mj, token], time-ordered
        self._live = {}  # token -> ledger entry still inside the window
        self._next_token = 0
        self._window_mj = 0.0
        self.stats = BudgetStats(power_mw=self.power_mw,
                                 window_ms=self.window_ms)
        # Telemetry: commits/refunds become instants and throttle stalls
        # spans on _track. Their energy rides in args only (category
        # "budget"), so the ledger-reconciled rollup stays unpolluted —
        # a commit is a *prediction*, not burned energy.
        self._tracer = NULL_TRACER
        self._track = "budget"

    def attach_tracer(self, tracer, track):
        """Observe this budget's window on ``track`` (read-only)."""
        self._tracer = tracer
        self._track = track

    def _expire(self, now_ms):
        cutoff = now_ms - self.window_ms
        while self._ledger and self._ledger[0][0] <= cutoff + 1e-12:
            entry = self._ledger.popleft()
            self._window_mj -= entry[1]
            self._live.pop(entry[2], None)
        if not self._ledger:
            self._window_mj = 0.0  # squash float drift at empty window

    def window_spent_mj(self, now_ms):
        """Committed energy inside the trailing window at ``now_ms``."""
        self._expire(now_ms)
        return self._window_mj

    def headroom_mj(self, now_ms):
        """Energy the window can still admit before the hard throttle."""
        return max(0.0, self.cap_mj - self.window_spent_mj(now_ms))

    def headroom_fraction(self, now_ms):
        """Remaining window allowance in [0, 1] — the shaping signal.

        1.0 means the window is empty, 0.0 means admission is stalled;
        routers use intermediate values to *shape* (prefer cheaper
        placements, defer relaxed traffic) before throttling bites.
        """
        return self.headroom_mj(now_ms) / self.cap_mj

    def exhausted(self, now_ms):
        """True while admission must stall (window spend at the cap)."""
        return self.window_spent_mj(now_ms) >= self.cap_mj - 1e-12

    def commit(self, now_ms, energy_mj):
        """Record an admitted batch's predicted energy at ``now_ms``.

        Returns a token identifying the commitment — hand it to
        :meth:`refund` if the batch is later aborted before finishing.
        """
        energy_mj = float(energy_mj)
        if energy_mj < 0:
            raise EnergyError("cannot commit negative energy")
        if self._ledger and now_ms < self._ledger[-1][0] - 1e-9:
            raise EnergyError("budget commits must be time-ordered")
        self._expire(now_ms)
        token = self._next_token
        self._next_token += 1
        entry = [float(now_ms), energy_mj, token]
        self._ledger.append(entry)
        self._live[token] = entry
        self._window_mj += energy_mj
        self.stats.spent_mj += energy_mj
        self.stats.admitted += 1
        if self._window_mj > self.cap_mj + 1e-12:
            self.stats.overshoots += 1
        if self._tracer.enabled:
            self._tracer.instant(
                "commit", "budget", float(now_ms), self._track,
                args={"committed_mj": energy_mj,
                      "window_mj": self._window_mj,
                      "cap_mj": self.cap_mj})
        return token

    def refund(self, now_ms, token, energy_mj):
        """Hand back the unexecuted share of an aborted commitment.

        Mirrors the accelerator's swap-refund ledger: the refund reduces
        the original ledger entry in place (never below zero), so the
        window stops charging for work that will re-commit when the
        preempted remainder re-dispatches. A commitment that already
        expired out of the window is a no-op. Returns the millijoules
        actually refunded.
        """
        energy_mj = float(energy_mj)
        if energy_mj < 0:
            raise EnergyError("cannot refund negative energy")
        self._expire(now_ms)
        entry = self._live.get(token)
        if entry is None or energy_mj == 0.0:
            return 0.0
        amount = min(energy_mj, entry[1])
        entry[1] -= amount
        self._window_mj -= amount
        self.stats.refunds += 1
        self.stats.refunded_mj += amount
        if self._tracer.enabled:
            self._tracer.instant(
                "refund", "budget", float(now_ms), self._track,
                args={"refunded_mj": amount,
                      "window_mj": self._window_mj})
        return amount

    def next_relief_ms(self, now_ms):
        """Earliest instant the window stops being exhausted.

        That is when enough of the oldest commitments slide out of the
        window for spend to drop below the cap — the dispatcher's retry
        timestamp while throttled.
        """
        self._expire(now_ms)
        if not self.exhausted(now_ms):
            return float(now_ms)
        running = self._window_mj
        for commit_ms, energy_mj, _ in self._ledger:
            running -= energy_mj
            if running < self.cap_mj - 1e-12:
                return self._relief_instant(commit_ms)
        # Unreachable: dropping every commitment empties the window.
        return self._relief_instant(self._ledger[-1][0])

    def _relief_instant(self, commit_ms):
        """Smallest float instant at which ``commit_ms`` has expired.

        ``commit_ms + window_ms`` alone is not safe: at large clock
        values ``(commit + window) - window`` can round to below
        ``commit - 1e-12`` (one ulp of the sum exceeds the epsilon past
        ~4000 s of sim time), so the promised relief instant would not
        actually expire the entry and a throttled dispatcher would
        re-arm at the same instant forever. Nudge upward by ulps until
        :meth:`_expire`'s cutoff test accepts the entry — at most a few
        steps, and liveness becomes exact instead of probabilistic.
        """
        relief = commit_ms + self.window_ms
        while relief - self.window_ms < commit_ms - 1e-12:
            relief = math.nextafter(relief, math.inf)
        return relief

    def note_throttle(self, now_ms, until_ms):
        """Record one dispatcher stall for the report."""
        self.stats.throttle_events += 1
        self.stats.throttled_ms += max(0.0, float(until_ms) - float(now_ms))
        if self._tracer.enabled:
            self._tracer.span(
                "throttle", "budget", float(now_ms),
                max(0.0, float(until_ms) - float(now_ms)), self._track,
                args={"window_mj": self._window_mj,
                      "cap_mj": self.cap_mj})

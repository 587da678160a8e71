"""Anomaly watchdogs: throttle storms, queue blowups, thrash, flapping.

Where :mod:`repro.telemetry.monitor.rules` watches the SLO itself,
watchdogs watch the *mechanisms* that usually break it first: the
energy budget throttling in bursts, the admission queue growing without
bound, a device swapping task weights back and forth instead of
serving, the autoscaler parking and waking the same accelerator in a
tight loop. Each is a frozen dataclass with the same
``matches``/``kind`` protocol as the SLO rules, so one rule list mixes
both kinds, and each fires a typed alert carrying span-locator
evidence (the throttle/swap/transition instants that tripped it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import TelemetryError
from repro.telemetry.monitor.alerts import severity_rank
from repro.telemetry.monitor.rules import _positive


@dataclass(frozen=True)
class ThrottleStormRule:
    """Too many budget throttle events inside one sliding window.

    The energy budget emits one ``throttle`` span per deferred batch;
    occasional throttles are the budget working as designed, but
    ``threshold`` of them within ``window_ms`` on one scope means the
    power cap and the offered load have crossed — a storm.
    """

    name: str
    window_ms: float = 100.0
    threshold: int = 8
    severity: str = "page"
    scope: str | None = None

    kind = "throttle_storm"

    def __post_init__(self):
        severity_rank(self.severity)
        _positive("window_ms", self.window_ms)
        _positive("threshold", self.threshold)

    def matches(self, scope, task=None, slo_ms=None):
        return self.scope is None or self.scope == scope


@dataclass(frozen=True)
class QueueDepthRule:
    """Admission queue above ``depth`` for at least ``sustain_ms``.

    Depth is sampled at enqueue/dispatch events (the only instants it
    can change); the sustain requirement keeps a single burst that
    drains immediately from paging anyone.
    """

    name: str
    depth: int = 512
    sustain_ms: float = 50.0
    severity: str = "ticket"
    scope: str | None = None

    kind = "queue_depth"

    def __post_init__(self):
        severity_rank(self.severity)
        _positive("depth", self.depth)
        # NaN and infinity fail the chained bound: either would build a
        # rule that never fires.
        if not 0 <= self.sustain_ms < math.inf:
            raise TelemetryError(
                f"sustain_ms must be finite and >= 0, got {self.sustain_ms}")

    def matches(self, scope, task=None, slo_ms=None):
        return self.scope is None or self.scope == scope


@dataclass(frozen=True)
class SwapThrashRule:
    """One device swapping task weights ``threshold`` times per window.

    Swaps cost time and energy; a device that keeps alternating tasks
    is a scheduling-affinity failure (the policy is bouncing work
    instead of batching it), tracked per ``(scope, accel_id)``.
    """

    name: str
    window_ms: float = 100.0
    threshold: int = 6
    severity: str = "warn"
    scope: str | None = None

    kind = "swap_thrash"

    def __post_init__(self):
        severity_rank(self.severity)
        _positive("window_ms", self.window_ms)
        _positive("threshold", self.threshold)

    def matches(self, scope, task=None, slo_ms=None):
        return self.scope is None or self.scope == scope


@dataclass(frozen=True)
class FlapRule:
    """Autoscaler park/wake flapping on one device.

    Counts online/offline transitions per ``(scope, accel_id)`` in a
    sliding window; ``threshold`` transitions means the utilization
    signal is oscillating around the scaler's hysteresis band and the
    fleet is paying wake latency for nothing.
    """

    name: str
    window_ms: float = 200.0
    threshold: int = 4
    severity: str = "warn"
    scope: str | None = None

    kind = "park_wake_flap"

    def __post_init__(self):
        severity_rank(self.severity)
        _positive("window_ms", self.window_ms)
        _positive("threshold", self.threshold)

    def matches(self, scope, task=None, slo_ms=None):
        return self.scope is None or self.scope == scope

"""The monitor engine: windowed rule evaluation on the simulated clock.

:class:`TelemetryMonitor` is the control plane's state machine. The
cluster/fleet engines *feed* it read-only observations at the instants
things happen — completions, queue-depth samples, throttle/swap/scale
events — and it maintains sliding-window state per rule, opening a
typed :class:`~repro.telemetry.monitor.Alert` when a rule's condition
starts holding and closing it at the first observation where it stops.
Everything runs on the simulated clock and touches no simulator state,
so a monitored run is bit-identical to an unmonitored one and the
alert stream is bit-identical across the event and vector engines
(the feeds fire at corresponding commit points with identical floats).

Two deliberate semantics fall out of being event-driven rather than
timer-driven:

* windows only advance at observation instants — a stream that goes
  quiet keeps its last state until the next observation or
  :meth:`TelemetryMonitor.finalize` (which closes every active alert
  at the run horizon);
* the SLO burn-rate predicate is deadline-based
  (``finish > (arrival + target) + 1e-9``) on both engines, computed
  from the same float64 values, so the violation *count* entering a
  window is identical however the run was executed.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import TelemetryError
from repro.telemetry.metrics import DEFAULT_BUCKETS_MS, estimate_quantile
from repro.telemetry.monitor.alerts import (Alert, IncidentReport,
                                            check_join_gap,
                                            group_incidents)
from repro.telemetry.monitor.rules import (BurnRateRule,
                                           LatencyQuantileRule,
                                           default_rules)
from repro.telemetry.monitor.watchdogs import (FlapRule, QueueDepthRule,
                                               SwapThrashRule,
                                               ThrottleStormRule)

#: Health deduction per active alert, by severity.
SEVERITY_PENALTY = {"warn": 0.1, "ticket": 0.25, "page": 0.5}

#: Span-locator evidence entries kept per alert.
EVIDENCE_MAX = 3

_BUCKETS = np.asarray(DEFAULT_BUCKETS_MS, dtype=np.float64)
_NBUCKETS = len(DEFAULT_BUCKETS_MS) + 1  # +Inf overflow


class _BurnState:
    """Fast+slow sliding (t, n, nv) windows for one rule on one stream."""

    __slots__ = ("rule", "akey", "fast", "slow", "fn", "fnv", "sn",
                 "snv")

    def __init__(self, rule, akey):
        self.rule = rule
        self.akey = akey  # the monitor's active-alert key, prebuilt
        self.fast = deque()
        self.slow = deque()
        self.fn = self.fnv = self.sn = self.snv = 0

    def observe(self, t, n, nv):
        """Returns (fires, fast_burn_multiple) after folding in (t, n, nv)."""
        rule = self.rule
        fast, slow = self.fast, self.slow
        entry = (t, n, nv)
        fast.append(entry)
        slow.append(entry)
        self.fn += n
        self.fnv += nv
        self.sn += n
        self.snv += nv
        cut = t - rule.fast_window_ms
        while fast[0][0] <= cut:
            _, en, env = fast.popleft()
            self.fn -= en
            self.fnv -= env
        cut = t - rule.slow_window_ms
        while slow[0][0] <= cut:
            _, en, env = slow.popleft()
            self.sn -= en
            self.snv -= env
        if self.fn < rule.min_samples or not self.sn:
            return False, 0.0
        budget = rule.error_budget
        fast_mult = (self.fnv / self.fn) / budget
        slow_mult = (self.snv / self.sn) / budget
        return (fast_mult >= rule.fast_burn
                and slow_mult >= rule.slow_burn), fast_mult


class _LatencyState:
    """One sliding latency window for one rule, evaluated in rank space.

    ``fires`` means exactly "the interpolated window quantile exceeds
    ``threshold_ms``" — but the full histogram is never built per
    batch. The estimator is piecewise-linear and increasing in rank,
    so its output passes the threshold precisely when the q-rank
    passes the threshold's fixed position inside its own bucket:

        q * n  >  below + frac * at

    with ``below`` the window count in buckets wholly at or under the
    threshold bucket's lower edge, ``at`` the count inside the
    threshold's bucket, and ``frac`` the threshold's static offset
    within it (the same inequality as ``estimate > threshold``,
    rearranged). Each batch therefore costs one two-edge bucketing;
    the full bucket vector and window max are only materialized — from
    the retained batch arrays — when an alert actually opens.

    ``q == 0`` (the estimate is a bucket lower edge, not a rank
    crossing) and thresholds past the last finite bucket edge (the
    overflow bucket's upper edge moves with the observed max) fall
    back to evaluating the estimator per batch; no stock rule hits
    either.
    """

    __slots__ = ("rule", "akey", "entries", "n", "below", "at",
                 "bins", "frac")

    def __init__(self, rule, akey):
        self.rule = rule
        self.akey = akey  # the monitor's active-alert key, prebuilt
        self.entries = deque()  # (t, latency_array, n, below, at)
        self.n = 0
        self.below = 0
        self.at = 0
        k = int(_BUCKETS.searchsorted(rule.threshold_ms, side="left"))
        if k >= _BUCKETS.size or rule.q == 0.0:
            self.bins = None
            self.frac = 0.0
        else:
            lower = 0.0 if k == 0 else float(_BUCKETS[k - 1])
            # -inf low edge: nothing lands "below" bucket 0.
            self.bins = np.asarray(
                [-np.inf if k == 0 else lower, float(_BUCKETS[k])])
            self.frac = ((rule.threshold_ms - lower)
                         / (float(_BUCKETS[k]) - lower))

    def observe(self, t, arr, n):
        """True iff the window quantile now exceeds the threshold,
        after folding in one batch of latencies (a float64 array)."""
        rule = self.rule
        entries = self.entries
        if self.bins is None:
            entries.append((t, arr, n, 0, 0))
            self.n += n
            cut = t - rule.window_ms
            while entries[0][0] <= cut:
                self.n -= entries.popleft()[2]
            if self.n < rule.min_samples:
                return False
            return self.quantile() > rule.threshold_ms
        small = np.bincount(self.bins.searchsorted(arr, side="left"),
                            minlength=3)
        nb = int(small[0])
        nk = int(small[1])
        entries.append((t, arr, n, nb, nk))
        self.n += n
        self.below += nb
        self.at += nk
        cut = t - rule.window_ms
        while entries[0][0] <= cut:
            _, _, en, eb, ek = entries.popleft()
            self.n -= en
            self.below -= eb
            self.at -= ek
        if self.n < rule.min_samples:
            return False
        return rule.q * self.n > self.below + self.at * self.frac

    def quantile(self):
        """The exact interpolated estimate over the current window."""
        window = np.concatenate([e[1] for e in self.entries])
        counts = np.bincount(
            _BUCKETS.searchsorted(window, side="left"),
            minlength=_NBUCKETS).tolist()
        hi = float(window.max()) if window.size else 0.0
        return estimate_quantile(DEFAULT_BUCKETS_MS, counts, self.n,
                                 self.rule.q, hi=hi)


class _CountWindow:
    """Sliding window of event instants (throttles, swaps, flaps)."""

    __slots__ = ("window_ms", "times")

    def __init__(self, window_ms):
        self.window_ms = window_ms
        self.times = deque()

    def add(self, t):
        self.times.append(t)
        return self.prune(t)

    def prune(self, t):
        times = self.times
        cut = t - self.window_ms
        while times and times[0] <= cut:
            times.popleft()
        return len(times)


def _decay_at(window, threshold, t):
    """First instant ``window``'s count can fall below ``threshold``.

    The window only changes when an event is added (which re-derives
    this), so between mutations the count decays on a known schedule:
    it drops below ``threshold`` exactly when the ``threshold``-th
    newest event ages out. With fewer than ``threshold`` events the
    count is already below — any tick at or after ``t`` may close.
    """
    times = window.times
    if len(times) < threshold:
        return t
    return times[-threshold] + window.window_ms


class TelemetryMonitor:
    """Deterministic alerting over the simulators' telemetry feeds.

    Construct with a rule tuple (:func:`default_rules` when omitted)
    and optionally a :class:`~repro.telemetry.MetricsRegistry` to
    receive ``health_score`` gauges; hand it to
    :class:`~repro.cluster.ClusterSimulator` /
    :class:`~repro.fleet.FleetOrchestrator` via their ``monitor=``
    argument. After the run, :meth:`finalize` closes open alerts at
    the horizon and :meth:`report` yields the
    :class:`~repro.telemetry.monitor.IncidentReport`.
    """

    def __init__(self, rules=None, registry=None, join_gap_ms=10.0):
        check_join_gap(join_gap_ms)
        self.rules = default_rules() if rules is None else tuple(rules)
        names = [r.name for r in self.rules]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise TelemetryError(f"duplicate rule names: {dupes}")
        self.registry = registry
        self.join_gap_ms = float(join_gap_ms)
        self._burn_rules = [r for r in self.rules
                            if isinstance(r, BurnRateRule)]
        self._lat_rules = [r for r in self.rules
                           if isinstance(r, LatencyQuantileRule)]
        self._throttle_rules = [r for r in self.rules
                                if isinstance(r, ThrottleStormRule)]
        self._queue_rules = [r for r in self.rules
                             if isinstance(r, QueueDepthRule)]
        self._swap_rules = [r for r in self.rules
                            if isinstance(r, SwapThrashRule)]
        self._flap_rules = [r for r in self.rules
                            if isinstance(r, FlapRule)]
        self._streams = {}    # (scope, task, slo) -> (burn, lat, labels)
        self._counts = {}     # (rule_name, key) -> _CountWindow
        self._above = {}      # (rule_name, scope) -> above_since | None
        self._active = {}     # (rule_name, key) -> Alert
        #: Count-window alerts awaiting decay, keyed like ``_active``,
        #: valued ``(alert, close_at_ms)`` — the earliest instant the
        #: window can have decayed below threshold, recomputed whenever
        #: the window gains an event. ``_watch_due`` caches the min of
        #: the close instants, so a tick with nothing due is a single
        #: float compare.
        self._watch = {}
        self._watch_due = float("inf")
        self._queue_matched = {}  # scope -> [(QueueDepthRule, key)]
        self._swap_cache = {}     # (scope, accel) -> [(rule, win, akey)]
        self._alerts = []
        self._scopes = set()
        self._devices = set()  # (scope, accel_id)
        self._last_ms = 0.0
        self._report = None

    # -- alert bookkeeping ----------------------------------------------------------

    def _open(self, rule, key, scope, t, value, labels=(), evidence=()):
        alert = Alert(
            alert_id=len(self._alerts), rule=rule.name, kind=rule.kind,
            severity=rule.severity, scope=scope, opened_ms=t,
            value=float(value), threshold=float(
                getattr(rule, "threshold_ms", None)
                or getattr(rule, "threshold", None)
                or getattr(rule, "depth", None)
                or getattr(rule, "fast_burn", 0.0)),
            labels=tuple(labels), evidence=tuple(evidence))
        self._active[(rule.name, key)] = alert
        self._alerts.append(alert)
        return alert

    def _close(self, rule_name, key, t):
        alert = self._active.pop((rule_name, key), None)
        if alert is not None:
            alert.closed_ms = t
            if self._watch.pop((rule_name, key), None) is not None:
                self._refresh_watch_due()

    def _watch_put(self, akey, alert, close_at):
        self._watch[akey] = (alert, close_at)
        self._refresh_watch_due()

    def _refresh_watch_due(self):
        watch = self._watch
        self._watch_due = (min(e[1] for e in watch.values())
                           if watch else float("inf"))

    def _touch(self, scope, t):
        self._scopes.add(scope)
        if t > self._last_ms:
            self._last_ms = t

    # -- feeds ----------------------------------------------------------------------

    def observe_completions(self, scope, task, slo_ms, t, n, nv,
                            latencies, viol_ids=()):
        """One batch of completions: ``n`` served, ``nv`` of them past
        deadline, with per-request ``latencies`` (time in system, ms)
        and the violators' request ids for evidence linkage.
        ``viol_ids`` may be a zero-arg callable returning the ids —
        they are only resolved if an alert actually opens, so a hot
        caller can defer the gather."""
        if t > self._last_ms:
            self._last_ms = t
        key = (scope, task, slo_ms)
        states = self._streams.get(key)
        if states is None:
            self._scopes.add(scope)
            burn = [_BurnState(r, (r.name, key))
                    for r in self._burn_rules
                    if r.matches(scope, task, slo_ms)]
            lat = [_LatencyState(r, (r.name, key))
                   for r in self._lat_rules
                   if r.matches(scope, task, slo_ms)]
            states = self._streams[key] = (
                burn, lat, (("slo_ms", slo_ms), ("task", task)))
        burn_states, lat_states, labels = states
        active_map = self._active
        for state in burn_states:
            fires, mult = state.observe(t, n, nv)
            active = state.akey in active_map
            if fires and not active:
                ids = viol_ids() if callable(viol_ids) else viol_ids
                evidence = tuple(
                    {"span": f"req:{int(rid)}", "t_ms": t}
                    for rid in list(ids)[:EVIDENCE_MAX])
                self._open(state.rule, key, scope, t, mult, labels,
                           evidence)
            elif active and not fires:
                self._close(state.rule.name, key, t)
        if lat_states:
            arr = latencies if isinstance(latencies, np.ndarray) \
                else np.asarray(latencies, dtype=np.float64)
            for state in lat_states:
                fires = state.observe(t, arr, n)
                active = state.akey in active_map
                if fires and not active:
                    rule = state.rule
                    self._open(rule, key, scope, t, state.quantile(),
                               labels,
                               ({"metric": "time_in_system_ms",
                                 "q": rule.q, "t_ms": t},))
                elif active and not fires:
                    self._close(state.rule.name, key, t)
        if active_map:
            self._tick_scope(scope, t)

    def observe_queue_depth(self, scope, t, depth):
        """Queue-depth sample (requests in closed, undispatched batches)."""
        if t > self._last_ms:
            self._last_ms = t
        matched = self._queue_matched.get(scope)
        if matched is None:
            self._scopes.add(scope)
            matched = self._queue_matched[scope] = [
                (r, (r.name, scope)) for r in self._queue_rules
                if r.matches(scope)]
        for rule, key in matched:
            if depth > rule.depth:
                since = self._above.get(key)
                if since is None:
                    since = self._above[key] = t
                if key not in self._active \
                        and t - since >= rule.sustain_ms:
                    self._open(rule, scope, scope, t, depth,
                               (("depth", depth),),
                               ({"span": "dispatch-wait",
                                 "track": f"{scope}/queue",
                                 "t_ms": t},))
            else:
                self._above[key] = None
                if key in self._active:
                    self._close(rule.name, scope, t)
        self._tick_scope(scope, t)

    def observe_throttle(self, scope, t, until_ms=None):
        """One budget throttle event (admission stalled until relief)."""
        self._touch(scope, t)
        for rule in self._throttle_rules:
            if not rule.matches(scope):
                continue
            key = (rule.name, scope)
            window = self._counts.get(key)
            if window is None:
                window = self._counts[key] = _CountWindow(rule.window_ms)
            count = window.add(t)
            if count >= rule.threshold and key not in self._active:
                self._open(rule, scope, scope, t, count, (),
                           ({"span": "throttle",
                             "track": f"{scope}/budget", "t_ms": t},))
            if key in self._active:
                self._watch_put(key, self._active[key],
                                _decay_at(window, rule.threshold, t))

    def observe_swap(self, scope, t, task, accel_id):
        """One weight swap on one device."""
        if t > self._last_ms:
            self._last_ms = t
        key = (scope, accel_id)
        cached = self._swap_cache.get(key)
        if cached is None:
            self._scopes.add(scope)
            self._devices.add(key)
            cached = self._swap_cache[key] = []
            for rule in self._swap_rules:
                if rule.matches(scope):
                    window = self._counts.setdefault(
                        (rule.name,) + key, _CountWindow(rule.window_ms))
                    cached.append((rule, window, (rule.name, key)))
        active = self._active
        for rule, window, akey in cached:
            count = window.add(t)
            if count >= rule.threshold and akey not in active:
                self._open(rule, key, scope, t, count,
                           (("accel", accel_id),),
                           ({"span": f"swap:{task}",
                             "track": f"{scope}/accel{accel_id}",
                             "t_ms": t},))
            if akey in active:
                self._watch_put(akey, active[akey],
                                _decay_at(window, rule.threshold, t))

    def observe_scale(self, scope, t, accel_id, action):
        """One autoscaler transition (``"park"`` or ``"wake"``)."""
        self._touch(scope, t)
        self._devices.add((scope, accel_id))
        for rule in self._flap_rules:
            if not rule.matches(scope):
                continue
            key = (scope, accel_id)
            window = self._counts.get((rule.name,) + key)
            if window is None:
                window = self._counts[(rule.name,) + key] = \
                    _CountWindow(rule.window_ms)
            count = window.add(t)
            akey = (rule.name, key)
            if count >= rule.threshold and akey not in self._active:
                self._open(rule, key, scope, t, count,
                           (("accel", accel_id),),
                           ({"span": f"{action}-device",
                             "track": f"{scope}/accel{accel_id}",
                             "t_ms": t},))
            if akey in self._active:
                self._watch_put(akey, self._active[akey],
                                _decay_at(window, rule.threshold, t))

    def _tick_scope(self, scope, t):
        """Give count-window watchdogs in this scope a chance to close."""
        if t < self._watch_due:
            return
        due = [wkey for wkey, (alert, close_at) in self._watch.items()
               if close_at <= t and alert.scope == scope]
        for rule_name, key in due:
            self._close(rule_name, key, t)

    # -- span-log replay ------------------------------------------------------------

    def observe_spans(self, spans):
        """Feed a recorded span log (offline / ``--replay`` mode).

        Reconstructs the watchdog feeds from span names — ``throttle``,
        ``swap:*``, ``park-device``/``wake-device`` instants, and queue
        depth from ``window`` closes (+size) against ``dispatch-wait``
        ends (−size). SLO burn rules get no signal here: span logs are
        batch-granular on both cores and carry no per-request deadline
        outcome, so burn/latency rules need the live feeds.
        Spans may be :class:`~repro.telemetry.Span` objects, dict rows,
        or a JSONL path (anything
        :func:`repro.telemetry.render_timeline` accepts).
        """
        from repro.telemetry.timeline import _spans_of
        events = []  # (t, seq, feedfn, args)
        for seq, span in enumerate(_spans_of(spans)):
            scope = span.scope
            name = span.name
            cat = span.cat
            if cat == "budget" and name == "throttle":
                events.append((span.start_ms, seq,
                               self.observe_throttle, (scope,)))
            elif cat == "swap" and name.startswith("swap:"):
                accel = _accel_of(span.track)
                if accel is not None:
                    events.append((span.start_ms, seq, self.observe_swap,
                                   (scope, name[5:], accel)))
            elif cat == "scale" and name in ("park-device",
                                             "wake-device"):
                accel = _accel_of(span.track)
                if accel is not None:
                    events.append((span.start_ms, seq,
                                   self.observe_scale,
                                   (scope, accel, name.split("-")[0])))
            elif cat == "window" and span.dur_ms is not None:
                size = (span.args or {}).get("size", 0)
                events.append((span.end_ms, seq, "_queue",
                               (scope, int(size))))
            elif cat == "queue" and name == "dispatch-wait":
                size = (span.args or {}).get("size", 0)
                events.append((span.end_ms, seq, "_queue",
                               (scope, -int(size))))
        events.sort(key=lambda e: (e[0], e[1]))
        depths = {}
        for t, _seq, feed, fargs in events:
            if feed == "_queue":
                scope, delta = fargs
                depth = depths.get(scope, 0) + delta
                depths[scope] = depth
                self.observe_queue_depth(scope, t, depth)
            else:
                scope = fargs[0]
                feed(scope, t, *fargs[1:])
        return len(events)

    # -- health ---------------------------------------------------------------------

    def health(self, scope):
        """Scope health in [0, 1]: 1.0 minus active-alert penalties."""
        penalty = 0.0
        for alert in self._active.values():
            if alert.scope == scope:
                penalty += SEVERITY_PENALTY[alert.severity]
        return max(0.0, 1.0 - penalty)

    def device_health(self, scope, accel_id):
        """Device health: scope-wide alerts plus this device's own."""
        penalty = 0.0
        target = ("accel", accel_id)
        for alert in self._active.values():
            if alert.scope != scope:
                continue
            accel_labels = [pair for pair in alert.labels
                            if pair[0] == "accel"]
            if not accel_labels or target in accel_labels:
                penalty += SEVERITY_PENALTY[alert.severity]
        return max(0.0, 1.0 - penalty)

    def sample_health(self, t):
        """Write ``health_score`` gauges for every scope/device seen."""
        if self.registry is None:
            return
        for scope in sorted(self._scopes):
            self.registry.gauge("health_score", scope=scope).set(
                t, self.health(scope))
        for scope, accel_id in sorted(self._devices):
            self.registry.gauge(
                "health_score", scope=scope,
                accel=f"accel{accel_id}").set(
                    t, self.device_health(scope, accel_id))

    # -- lifecycle ------------------------------------------------------------------

    @property
    def num_alerts(self):
        return len(self._alerts)

    def active_alerts(self):
        return sorted(self._active.values(),
                      key=lambda a: a.alert_id)

    def finalize(self, end_ms=None):
        """Close every active alert at the horizon; freeze the report.

        The report's health dict (and the final ``health_score`` gauge
        sample) snapshots the *horizon* state — alerts still active at
        ``end_ms`` count against it — before the sweep closes them.
        """
        end = self._last_ms if end_ms is None else float(end_ms)
        if end > self._last_ms:
            self._last_ms = end
        health = {scope: self.health(scope)
                  for scope in sorted(self._scopes)}
        self.sample_health(end)
        for alert in list(self._active.values()):
            alert.closed_ms = end
        self._active.clear()
        self._watch.clear()
        self._watch_due = float("inf")
        self._above.clear()
        self._report = IncidentReport(
            alerts=list(self._alerts),
            incidents=group_incidents(self._alerts, self.join_gap_ms,
                                      end_ms=end),
            health=health,
            end_ms=end)
        return self._report

    def report(self):
        """The :class:`IncidentReport` (finalizing at the last instant
        seen if :meth:`finalize` has not run yet)."""
        if self._report is None:
            return self.finalize()
        return self._report


def _accel_of(track):
    """Device index from an ``"{scope}/accelN"`` track, else None."""
    slash = track.rfind("/accel")
    if slash < 0:
        return None
    try:
        return int(track[slash + 6:])
    except ValueError:
        return None

"""The serving facade: submit requests, run the priced simulation.

``Server`` drains its queue through the :class:`Scheduler`, prices each
batch with :func:`price_batch` — a gather from the profile's
whole-profile :class:`PriceTable`, or one deadline-budget plan priced
from the profile's per-sentence lists
(:meth:`~repro.core.LatencyAwareEngine.price_deadline_members`) —
charges an encoder-weight swap whenever the resident task changes, and
returns a :class:`ServingReport` with per-request results plus aggregate
throughput / energy / SLO-violation statistics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from operator import itemgetter

import numpy as np

from repro.core.engine import (
    EngineReport,
    price_latency_aware_columns,
    results_from_arrays,
)
from repro.errors import ServingError
from repro.serving.request import (
    MODES,
    SERVING_MODES,
    Request,
    RequestResult,
)
from repro.serving.scheduler import Scheduler


def validate_request(registry, request, mode):
    """Check that ``request`` is serveable in ``mode``; return its profile.

    Fails at submission, not mid-run: the sentence index must exist, lai
    needs a LUT, and both exit modes need a calibrated entropy threshold.
    Shared by :meth:`Server.submit` and the cluster simulator's intake.
    """
    if mode not in SERVING_MODES:
        raise ServingError(
            f"unknown mode {mode!r}; expected one of {SERVING_MODES}")
    profile = registry.profile(request.task)
    if request.sentence >= profile.num_sentences:
        raise ServingError(
            f"sentence {request.sentence} out of range for task "
            f"{request.task!r} ({profile.num_sentences} sentences)")
    if mode == "lai" and profile.lut is None:
        raise ServingError(
            f"task {request.task!r} has no exit-predictor LUT; "
            "required for lai mode")
    if mode in ("ee", "lai") and profile.entropy_threshold is None:
        raise ServingError(
            f"task {request.task!r} has no entropy threshold; "
            f"required for {mode} mode")
    return profile


def serving_columns(registry, tasks):
    """:func:`validate_request`'s per-task tests as two lookup tables.

    ``sentences[t]`` is task ``tasks[t]``'s sentence count (-1 when it
    is not registered, so every sentence is out of range) and
    ``serves[t, m]`` whether it can serve mode ``MODES[m]``; column 0,
    the mode a request inherits, reads False. Whole-trace intakes index
    both with a trace's code columns, so the registry is asked once per
    task, not once per request.
    """
    sentences = np.full(len(tasks), -1, dtype=np.int64)
    serves = np.zeros((len(tasks), len(MODES)), dtype=bool)
    for t, task in enumerate(tasks):
        if task not in registry:
            continue  # every row of it offends
        profile = registry.profile(task)
        sentences[t] = profile.num_sentences
        threshold = profile.entropy_threshold is not None
        serves[t] = (False, True, threshold,
                     threshold and profile.lut is not None)
    return sentences, serves


def batch_deadline_ms(batch, now_ms=None):
    """A batch's remaining sequential-compute budget, in milliseconds.

    The budget runs from the batch's reference start — ``now_ms`` when a
    clock is given (the cluster passes its dispatch instant, so queueing
    delay already spent comes off the top), else the last member's
    arrival (the earliest the batch could have started) — to the
    *earliest* member's absolute deadline, so a plan that fits it
    completes every member inside its own SLO. Clamped at zero: a batch
    that is already late gets no budget, which the deadline planner
    treats as "plan per-sentence, exactly as today".
    """
    if not batch.requests:
        raise ServingError("an empty batch has no deadline")
    start = (max(r.arrival_ms for r in batch.requests)
             if now_ms is None else float(now_ms))
    return max(min(r.deadline_ms for r in batch.requests) - start, 0.0)


def within_target(latency_ms, target_ms):
    """The serving SLO judged on ``base``/``ee`` latencies.

    Those engine modes have no latency-target concept (they always
    report ``met_target=True``), so the serving layer judges them
    against the batch's target to keep violations visible. Works on one
    latency or elementwise on a column: the scalar path of
    :func:`price_batch` applies it per row, :func:`build_price_table`
    per column.
    """
    return latency_ms <= target_ms + 1e-9


class PriceTable:
    """Every sentence of one (task, target, mode, hardware) priced once.

    Kept as the kernel's columns: ``latency_ms`` / ``energy_mj`` are
    float64 arrays indexed by sentence, and a sentence's
    :class:`~repro.core.SentenceResult` row is boxed only the first time
    a served batch asks for it (:meth:`rows`) — most rows of a routing
    table are never served. Scalar-oracle tables arrive already boxed
    and fill every row up front.
    """

    __slots__ = ("latency_ms", "energy_mj", "_priced", "_predictions",
                 "_rows", "_unboxed")

    def __init__(self, priced, predictions):
        self.latency_ms = priced["latency_ms"]
        self.energy_mj = priced["energy_mj"]
        self._priced = priced
        self._predictions = predictions
        self._rows = [None] * predictions.size
        self._unboxed = predictions.size

    @classmethod
    def from_results(cls, results):
        """A table whose rows are already boxed (the scalar oracle)."""
        table = cls.__new__(cls)
        n = len(results)
        table.latency_ms = np.fromiter(
            (r.latency_ms for r in results), dtype=np.float64, count=n)
        table.energy_mj = np.fromiter(
            (r.energy_mj for r in results), dtype=np.float64, count=n)
        table._rows = list(results)
        table._unboxed = 0
        return table

    def rows(self, sentences):
        """The rows of ``sentences`` (Python ints), in order.

        Boxes each sentence once; later calls return that same object.
        """
        rows = self._rows
        if self._unboxed:
            missing = list(dict.fromkeys(
                i for i in sentences if rows[i] is None))
            if missing:
                for i, row in zip(missing, results_from_arrays(
                        self._priced, self._predictions, missing)):
                    rows[i] = row
                self._unboxed -= len(missing)
        if len(sentences) == 1:
            return [rows[sentences[0]]]
        return list(itemgetter(*sentences)(rows))


def build_price_table(profile, mode, target_ms, vectorized=True):
    """Price all of ``profile``'s sentences in one kernel dispatch.

    Per-sentence pricing is composition-invariant: row ``i`` is
    bit-identical to pricing sentence ``i`` alone, or inside any other
    batch at ``target_ms``, with the same kernels — including its
    base/ee SLO judgement (:func:`within_target`, applied here as one
    column operation). The vectorized build keeps the kernel's columns
    and builds no request, batch or engine report. A ``lai`` table
    splits Algorithm 2 as the paper does: the exit columns read no
    target, so they come from the profile's memoized
    :meth:`~repro.serving.TaskProfile.deadline_columns`, and only the
    per-sentence V/F plan is priced at ``target_ms``
    (:func:`~repro.core.engine.price_latency_aware_columns`).
    ``base``/``ee`` tables price the whole profile through
    :meth:`~repro.core.LatencyAwareEngine.price_columns`.
    ``vectorized=False`` (the fleet router on a scalar-kernel site)
    takes every row from the scalar oracle. The profile memoizes its
    vectorized builds (:meth:`~repro.serving.TaskProfile.price_table`).
    """
    if not vectorized:
        return PriceTable.from_results(_scalar_oracle(
            profile, np.arange(profile.num_sentences), mode,
            target_ms).results)
    if mode == "lai":
        columns = profile.deadline_columns()
        engine = profile.engine
        return PriceTable(price_latency_aware_columns(
            engine.pricing_tables(), engine.dvfs, columns, target_ms),
            columns["taken"])
    priced, predictions = profile.engine.price_columns(
        mode, profile.logits, profile.entropies, lut=profile.lut,
        entropy_threshold=profile.entropy_threshold, target_ms=target_ms)
    priced["met_target"] = priced["met_target"] & within_target(
        priced["latency_ms"], target_ms)
    return PriceTable(priced, predictions)


def _scalar_oracle(profile, idx, mode, target_ms, deadline_ms=None):
    """Sentences ``idx`` priced by the scalar loop, SLO-judged."""
    report = profile.engine.simulate_dataset(
        mode, profile.logits[:, idx], profile.entropies[:, idx],
        lut=profile.lut, entropy_threshold=profile.entropy_threshold,
        target_ms=target_ms, vectorized=False, deadline_ms=deadline_ms)
    if mode != "lai":
        report.results = [
            r if within_target(r.latency_ms, target_ms)
            else replace(r, met_target=False)
            for r in report.results
        ]
    return report


def price_batch(profile, batch, mode, vectorized=True, deadline_ms=None):
    """Price one same-task batch against its profile.

    Returns the engine's :class:`~repro.core.engine.EngineReport` with one
    :class:`~repro.core.SentenceResult` per request, in batch order. This
    is the pricing entry point of the queue-draining :class:`Server`;
    the cluster simulator calls it for deadline plans and scalar
    batches, and reads tables itself otherwise.

    Without a deadline budget, a vectorized batch gathers its members'
    rows from the profile's table at the batch's target
    (:meth:`~repro.serving.TaskProfile.price_table`);
    ``vectorized=False`` prices the batch's slice with the scalar oracle.

    ``deadline_ms`` (``lai`` only) prices the batch with the
    deadline-budget DVFS plan instead of per-sentence targets: the whole
    batch's sequential compute is planned to fit the budget
    (:func:`batch_deadline_ms` derives it from the members'
    ``Request.deadline_ms``), with per-sentence planning as the
    zero-slack fallback. No sentence's exit is derived again: a batch of
    two or more reads its members' planner inputs and row fields from
    the profile's per-sentence lists
    (:meth:`~repro.serving.TaskProfile.deadline_lists`), plans through
    :meth:`~repro.dvfs.DvfsController.plan_batch_deadline`, and builds
    its rows from the plan in Python floats; a fallback plan gathers the
    members' exit columns and prices them per sentence
    (:meth:`~repro.core.LatencyAwareEngine.price_deadline_members`). A
    one-member batch has no co-member to share slack with, so it is one
    pick over the profile's per-rail-code columns and one boxed row, at
    every budget
    (:meth:`~repro.core.LatencyAwareEngine.price_deadline_alone`).
    """
    if not vectorized:
        return _scalar_oracle(profile, batch.sentence_indices, mode,
                              batch.target_ms, deadline_ms)
    if mode == "lai" and deadline_ms is not None:
        deadline_ms = max(float(deadline_ms), 0.0)
        if len(batch.requests) == 1:
            return profile.engine.price_deadline_alone(
                profile.singleton_columns(), batch.requests[0].sentence,
                batch.target_ms, deadline_ms)
        return profile.engine.price_deadline_members(
            profile.deadline_columns(), profile.deadline_lists(),
            batch.sentence_indices.tolist(), batch.target_ms, deadline_ms)
    return EngineReport(profile.price_table(mode, batch.target_ms).rows(
        batch.sentence_indices.tolist()))


@dataclass
class ServingReport:
    """Outcome of one ``Server.run``: per-request results + aggregates."""

    mode: str
    results: list = field(default_factory=list)  # RequestResult rows
    num_batches: int = 0
    task_switches: int = 0
    switch_latency_ms: float = 0.0
    switch_energy_mj: float = 0.0
    compute_latency_ms: float = 0.0
    compute_energy_mj: float = 0.0
    wall_seconds: float = 0.0

    @property
    def num_requests(self):
        return len(self.results)

    @property
    def slo_violations(self):
        return sum(not r.result.met_target for r in self.results)

    @property
    def total_energy_mj(self):
        return self.compute_energy_mj + self.switch_energy_mj

    @property
    def simulated_time_ms(self):
        """Accelerator-occupancy time: sequential sentences + swaps."""
        return self.compute_latency_ms + self.switch_latency_ms

    @property
    def simulated_sentences_per_s(self):
        """Modeled hardware throughput over the simulated timeline."""
        if self.simulated_time_ms <= 0:
            return 0.0
        return self.num_requests / (self.simulated_time_ms * 1e-3)

    @property
    def pricing_sentences_per_s(self):
        """Host-side pricing throughput (what the batch kernels speed up)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.num_requests / self.wall_seconds

    def result_for(self, request_id):
        for row in self.results:
            if row.request.request_id == request_id:
                return row.result
        raise ServingError(f"no result for request id {request_id}")

    def per_task(self):
        """Per-task aggregates: count, mean energy/latency, violations."""
        out = {}
        for row in self.results:
            stats = out.setdefault(row.request.task, {
                "requests": 0, "energy_mj": 0.0, "latency_ms": 0.0,
                "slo_violations": 0, "exit_layers": 0.0})
            stats["requests"] += 1
            stats["energy_mj"] += row.result.energy_mj
            stats["latency_ms"] += row.result.latency_ms
            stats["exit_layers"] += row.result.exit_layer
            stats["slo_violations"] += int(not row.result.met_target)
        for stats in out.values():
            n = stats["requests"]
            stats["avg_energy_mj"] = stats.pop("energy_mj") / n
            stats["avg_latency_ms"] = stats.pop("latency_ms") / n
            stats["avg_exit_layer"] = stats.pop("exit_layers") / n
        return out

    def summary(self):
        """JSON-friendly aggregate view."""
        return {
            "mode": self.mode,
            "requests": self.num_requests,
            "batches": self.num_batches,
            "task_switches": self.task_switches,
            "slo_violations": self.slo_violations,
            "total_energy_mj": self.total_energy_mj,
            "switch_energy_mj": self.switch_energy_mj,
            "simulated_time_ms": self.simulated_time_ms,
            "simulated_sentences_per_s": self.simulated_sentences_per_s,
            "pricing_sentences_per_s": self.pricing_sentences_per_s,
            "per_task": self.per_task(),
        }


class Server:
    """Multi-task serving facade over a :class:`TaskRegistry`."""

    def __init__(self, registry, scheduler=None, mode="lai",
                 vectorized=True, deadline_aware=False):
        if mode not in SERVING_MODES:
            raise ServingError(
                f"unknown mode {mode!r}; expected one of {SERVING_MODES}")
        self.registry = registry
        self.scheduler = scheduler or Scheduler()
        self.mode = mode
        self.vectorized = vectorized
        if deadline_aware and not vectorized:
            # Fail at construction, not mid-drain: the deadline path is
            # batch-level and has no scalar reference loop.
            raise ServingError(
                "deadline_aware pricing needs the vectorized kernels")
        if deadline_aware and mode != "lai":
            # The server's mode is fixed for the whole queue; a
            # deadline budget only steers the lai DVFS plan, so any
            # other combination would be a silent no-op.
            raise ServingError(
                f"deadline_aware pricing requires lai mode, not {mode!r}")
        #: Plan lai batches against their shared deadline budget
        #: (derived per batch by :func:`batch_deadline_ms`) instead of
        #: per-sentence targets. Default off: the per-sentence path.
        self.deadline_aware = bool(deadline_aware)
        self._queue = []
        self._queued_ids = set()
        self._next_id = 0

    @property
    def pending(self):
        return len(self._queue)

    def submit(self, request=None, *, task=None, sentence=None,
               target_ms=50.0, arrival_ms=0.0):
        """Queue a request (or build one from keyword fields).

        Returns the queued :class:`Request`; ids are assigned
        monotonically when built here.
        """
        if request is None:
            if task is None or sentence is None:
                raise ServingError("submit needs a Request or task+sentence")
            request = Request(request_id=self._next_id, task=task,
                              sentence=int(sentence), target_ms=target_ms,
                              arrival_ms=arrival_ms)
        # Ids must be unique within a run (result_for looks them up) —
        # reject external duplicates and keep auto-assigned ids ahead of
        # externally supplied ones.
        if request.request_id in self._queued_ids:
            raise ServingError(
                f"request id {request.request_id} already queued")
        self._next_id = max(self._next_id, request.request_id + 1)
        validate_request(self.registry, request, self.mode)
        self._queue.append(request)
        self._queued_ids.add(request.request_id)
        return request

    def submit_many(self, requests):
        """Queue a sequence of requests atomically.

        If any request is invalid, none of the sequence stays queued, so
        the caller can correct and resubmit the whole list.
        """
        checkpoint = len(self._queue)
        try:
            for request in requests:
                self.submit(request)
        except Exception:
            for queued in self._queue[checkpoint:]:
                self._queued_ids.discard(queued.request_id)
            del self._queue[checkpoint:]
            raise
        return self.pending

    def run(self):
        """Drain the queue and price it; returns a :class:`ServingReport`.

        The first batch pays a task switch too (cold encoder buffers);
        after that, switches occur only when the scheduler changes task.
        """
        if not self._queue:
            raise ServingError("no pending requests; submit() first")
        started = time.perf_counter()
        # The queue is drained only after pricing succeeds, so a mid-run
        # failure leaves every request queued and resubmittable.
        batches = self.scheduler.build_batches(self._queue)
        report = ServingReport(mode=self.mode, num_batches=len(batches))

        resident = None
        for batch in batches:
            profile = self.registry.profile(batch.task)
            if batch.task != resident:
                cost = self.registry.switch_cost(resident, batch.task)
                report.task_switches += 1
                report.switch_latency_ms += cost.latency_ms
                report.switch_energy_mj += cost.energy_mj
                resident = batch.task
            engine_report = self._price_batch(profile, batch,
                                              report.simulated_time_ms)
            for request, result in zip(batch.requests,
                                       engine_report.results):
                report.results.append(RequestResult(request, result))
            report.compute_latency_ms += engine_report.total_latency_ms
            report.compute_energy_mj += engine_report.total_energy_mj

        self._queue = []
        self._queued_ids = set()
        report.wall_seconds = time.perf_counter() - started
        return report

    def _price_batch(self, profile, batch, elapsed_ms=0.0):
        deadline = None
        if self.deadline_aware and self.mode == "lai":
            # The queue drains serially, so earlier batches' compute and
            # switches have already consumed slack on the simulated
            # timeline; the budget runs from whichever is later — that
            # timeline instant or the batch's own last arrival.
            start = max(float(elapsed_ms),
                        max(r.arrival_ms for r in batch.requests))
            deadline = batch_deadline_ms(batch, now_ms=start)
        return price_batch(profile, batch, self.mode,
                           vectorized=self.vectorized,
                           deadline_ms=deadline)

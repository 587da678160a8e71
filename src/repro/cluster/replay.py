"""The vectorized replay engine: million-request traces in seconds.

The per-event simulator (:class:`~repro.cluster.ClusterSimulator`'s
heap loop) pays Python-object overhead per *request*: an ``Arrival``
dataclass, a handler dispatch, a ``BatchFormer.add``, a dispatcher pass
and a pricing call per batch member. This module replays the same trace
with per-*batch* cost instead, in four moves:

1. **Struct-of-arrays intake** — the trace arrives as a
   :class:`~repro.serving.RequestTrace` (the generator and the loaders
   return one; any other request iterable is converted) and is read as
   its columns. Former keys are numbered from the code columns, and one
   column check (:func:`_check_intake`) finds the first row the
   per-event loop would refuse — duplicate ids, unknown tasks,
   out-of-range sentences, modes a task cannot serve, arrivals before
   the clock — and hands that row to ``inject``, so it raises the
   per-event loop's own error. A batch's members stay a lazy
   :class:`~repro.serving.TraceRows` view: fifo and affinity replays
   build no request until ``report.records`` is read (the governor,
   deadline-budget pricing and the adaptive/sizing formers read
   members, and build them once each).
2. **Window planning** — with static size/timeout triggers, batch
   composition per (task, SLO class, mode) key depends only on that
   key's arrival instants, so :func:`repro.cluster.batcher.plan_batches`
   computes every window close for the whole trace with one
   ``searchsorted`` per key, and one ``np.minimum.reduceat`` gives
   every window's earliest member deadline. Under ``adaptive_timeout`` /
   ``deadline_sizing`` the close of the *currently open* window depends
   on dispatch history, so planning turns incremental: each window is
   planned when it opens — one real :class:`BatchFormer` per key is fed
   the window's members at plan time, reading the adaptive controller
   at the exact arming instant the event loop would — and the next
   window's open re-enters the heap. One plan step per window either
   way.
3. **A batch-granular event core** — only *interesting* instants (window
   opens, closes, batch completions, budget-relief rechecks) enter the
   heap, as plain ``(time, seq, kind, payload)`` tuples. Arrivals that
   merely join an open window never become events: with a
   non-preemptive policy the dispatcher provably cannot act on them
   (after any dispatch pass, pending batches and free devices never
   coexist unless admission is throttled — and then the armed relief
   event is the next instant dispatch can change). Device idle accrual
   advances lazily inside :class:`~repro.energy.DeviceEnergyModel` at
   those same instants, so N idle devices cost nothing per skipped tick.
4. **Price tables** — per-sentence pricing is composition-invariant for
   the per-sentence engine modes (each column of a batch is priced
   elementwise), so a batch without a deadline budget gathers its
   members' rows from its profile's whole-profile table
   (:meth:`~repro.serving.TaskProfile.price_table`: every sentence of
   a (task, target, mode, hardware) priced in one kernel dispatch,
   rows boxed on first read). The deadline-budget ``lai`` path is
   batch-coupled (water-filling over the shared slack), so no table
   row applies; it prices each batch by gathering its members' rows
   of the profile's exit columns and planning them in one pass. Both
   cores start every batch from ``ClusterSimulator._price``.

Observation happens after the drain. The hot loop appends one tuple to
one log at each commit point an observer reads: the queue depth after
an enqueue and after a dispatch, a swap, a finished run (with the
free-device count), a throttle, the budget headroom and a window close.
Once the heap is dry, :func:`_feed_observers` feeds the monitor and then
the metrics from that log, each in commit order, doing the per-run
latency, queueing-delay and violation math once over concatenated
columns; :func:`_emit_spans` builds the spans from the same log in one
bulk pass. Nothing reads observer state mid-replay: the monitor
feedback of ``health_routing`` lives in the fleet loop, which drives the
per-event loop.

The core keeps no run state of its own beside the simulator's: free
devices come from and return to the simulator's
:class:`~repro.cluster.pool.PoolIndex`, batch formers from
``_new_former``, and every batch is priced by ``_price`` and starts
through ``_begin``, as on the per-event loop.

Energy-budget admission (``energy_budget_mw``) replays exactly: the
same :class:`~repro.energy.EnergyBudget` object is driven at the same
instants — ``_begin`` commits before each ``begin``, ``note_throttle`` +
``DispatchRetry`` arming mirrored as ``_RETRY`` heap events consuming
the same schedule seqs — so throttle spans, budget ledgers and
``BudgetStats`` agree with the event loop bit-for-bit.

Event ordering — and therefore every report float — is bit-identical to
the per-event loop: arrival events keep their inject-order seqs, and the
dynamic-event seq counter is mirrored exactly (a timer seq is consumed
at each window open, a completion seq at each batch start, a retry seq
at each throttle arming, in the same processing order the heap loop
would schedule them). Equivalence is enforced by tests on the reference
bursty trace and on randomized property traces
(``ClusterSimulator.run_events`` drives the per-event loop for them);
the scalar loop stays available as the determinism oracle
(``vectorized=False``).

Eligibility is a property of the configuration alone: ``run()`` uses
this core under a non-preemptive built-in policy (fifo, affinity or the
energy governor) with vectorized pricing. Each of them places a batch
whenever a device is free. Preemptive policies run the per-event loop
(their dispatch state can change at arbitrary arrival instants), and so
do custom policies (one may return None and wait) and the scalar
kernels; :func:`replay_ineligible_reason` names the reason on the
report.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import attrgetter, itemgetter

import numpy as np

from repro.cluster.batcher import PendingBatch, plan_batches
from repro.cluster.policies import (
    FewestSwapsPolicy,
    FifoPolicy,
    fifo_placement,
)
from repro.cluster.report import ClusterRecord, LazyRecords
from repro.errors import ClusterError
from repro.serving.request import MODES, Batch, RequestTrace, TraceRows
from repro.serving.server import serving_columns
# Unused here: bound only so the e2e benchmark's layer tracer
# (benchmarks/e2e/layertrace.py) still resolves its
# ``serving.server.price_batch`` boundary in this module.
from repro.serving.server import price_batch  # noqa: F401

#: Event kinds in the batch-granular heap. OPEN marks a window opening
#: (it consumes a timer seq and plans the close); CLOSE enqueues the
#: dispatchable batch; DONE completes a run; RETRY is a budget-relief
#: recheck (the event loop's DispatchRetry). Heap entries are
#: (time_ms, seq, kind, payload) — (time, seq) is already unique, so
#: kind/payload never get compared.
_OPEN, _CLOSE, _DONE, _RETRY = 0, 1, 2, 3

#: Observation-log kinds, one per commit point an observer reads:
#: ``(_QUEUED, t, depth)`` after an enqueue, ``(_DISPATCHED, t, depth)``
#: after a dispatch, ``(_SWAPPED, t, task, accel_id)``,
#: ``(_HEADROOM, t, fraction)``, ``(_THROTTLED, t, relief_ms)``,
#: ``(_FINISHED, t, run, energies, pos, free_devices)`` and
#: ``(_WINDOW, opened, closed, task, mode, trigger, target, pos)``.
(_QUEUED, _DISPATCHED, _SWAPPED, _HEADROOM, _THROTTLED, _FINISHED,
 _WINDOW) = range(7)


def replay_ineligible_reason(sim):
    """Why this configuration cannot use the batch-granular core.

    Returns None when the vector core applies: vectorized pricing under
    a non-preemptive built-in policy (fifo, affinity or the energy
    governor). Each always places a batch when a device is free, so
    dispatch state provably changes only at close/done/budget-relief
    instants. Otherwise returns a human-readable reason — surfaced as
    ``ClusterReport.engine_fallback_reason`` so silent vector→event
    downgrades are diagnosable.
    """
    # Imported here: repro.energy.governor imports repro.cluster.policies.
    from repro.energy.governor import EnergyGovernor

    if not sim.vectorized:
        return "scalar (non-vectorized) pricing kernels"
    if type(sim.policy) not in (FifoPolicy, FewestSwapsPolicy,
                                EnergyGovernor):
        return (f"policy {sim.policy.name!r} (preemptive or custom "
                "policies can act on arbitrary arrival instants)")
    return None


class _Planned:
    """One offline-planned window: member positions + close trigger."""

    __slots__ = ("pos", "task", "target_ms", "mode", "by_size",
                 "deadline_ms")

    def __init__(self, pos, task, target_ms, mode, by_size):
        self.pos = pos  # positions into the time-ordered columns
        self.task = task
        self.target_ms = target_ms
        self.mode = mode
        self.by_size = by_size
        self.deadline_ms = None  # earliest member deadline, set at plan


class _KeyPlan:
    """Incremental per-key planning state (adaptive / sizing triggers).

    Wraps one real :class:`BatchFormer` — the reference trigger
    implementation — plus the key's members in event-processing order.
    ``cursor`` is the index of the first member not yet fed to the
    former; the former's own state carries any window a pre-close
    reopened.
    """

    __slots__ = ("former", "times", "seqs", "pos", "reqs", "cursor", "n")

    def __init__(self, former, times, seqs, pos, reqs):
        self.former = former
        self.times = times  # member arrival instants (Python floats)
        self.seqs = seqs  # member inject seqs (Python ints)
        self.pos = pos  # positions into the time-ordered trace columns
        self.reqs = reqs  # member requests
        self.cursor = 0
        self.n = len(times)


def _feed_observers(sim, log, arr_o, dead_o, ids_o):
    """Feed the monitor, then the metrics, from the replay's log.

    Each observer sees its feeds in commit order, with the values the
    per-event loop hands it live. The per-run arithmetic runs once over
    whole-trace arrays: chaining the runs' finish instants into one
    column and gathering arrivals and deadlines once yields,
    elementwise, the same float64 subtracts and compares a per-run pass
    would do. Latency slices handed to the monitor are views into one
    contiguous array. One ``observe_many`` over the run-ordered
    concatenation folds the same left-to-right histogram total as one
    call per run, and one counter increment by the sum equals the
    per-run increments.
    """
    runs = [e for e in log if e[0] == _FINISHED]
    if runs:
        lengths = np.fromiter((len(e[4]) for e in runs),
                              dtype=np.intp, count=len(runs))
        all_pos = np.concatenate([e[4] for e in runs])
        finish_all = np.fromiter(
            chain.from_iterable(e[2].finish_ms for e in runs),
            dtype=np.float64, count=all_pos.size)
        arr_all = arr_o[all_pos]
        lat_all = finish_all - arr_all
        vm_all = finish_all > dead_o[all_pos] + 1e-9
        offsets = np.zeros(len(runs), dtype=np.intp)
        np.cumsum(lengths[:-1], out=offsets[1:])
        nv_all = np.add.reduceat(vm_all.astype(np.int64), offsets)

    mon = sim._mon
    if mon is not None:
        scope = sim.trace_scope
        observe_done = mon.observe_completions
        observe_queue = mon.observe_queue_depth
        observe_swap = mon.observe_swap
        observe_throttle = mon.observe_throttle
        i = 0
        for event in log:
            kind = event[0]
            if kind == _FINISHED:
                start = offsets[i]
                stop = start + lengths[i]
                nv = int(nv_all[i])
                # Violator ids feed alert evidence, which only
                # materializes if a burn alert opens: hand the monitor
                # a thunk instead of gathering ids per run.
                viol = ((lambda s=start, e=stop:
                         ids_o[all_pos[s:e]][vm_all[s:e]])
                        if nv else ())
                run = event[2]
                observe_done(scope, run.pending.task,
                             float(run.pending.batch.target_ms),
                             event[1], int(lengths[i]), nv,
                             lat_all[start:stop], viol)
                i += 1
            elif kind == _QUEUED or kind == _DISPATCHED:
                observe_queue(scope, event[1], event[2])
            elif kind == _SWAPPED:
                observe_swap(scope, event[1], event[2], event[3])
            elif kind == _THROTTLED:
                observe_throttle(scope, event[1], event[2])

    if sim._m_served is not None:
        set_queue = sim._m_queue.set
        set_free = sim._m_free.set
        set_headroom = sim._m_headroom.set
        throttles = 0
        for event in log:
            kind = event[0]
            if kind == _QUEUED:
                set_queue(event[1], event[2])
            elif kind == _FINISHED:
                set_free(event[1], event[5])
            elif kind == _HEADROOM:
                set_headroom(event[1], event[2])
            elif kind == _THROTTLED:
                throttles += 1
        if throttles:
            sim._m_throttles.inc(throttles)
        if runs:
            starts = np.fromiter((e[2].start_ms for e in runs),
                                 dtype=np.float64, count=len(runs))
            sim._m_served.inc(int(lengths.sum()))
            sim._m_latency.observe_many(lat_all)
            sim._m_qdelay.observe_many(np.repeat(starts, lengths)
                                       - arr_all)
            sim._m_violations.inc(int(np.count_nonzero(vm_all)))


def _compute_span(task, start_ms, finish_ms, track, seq, rids, energies):
    """One run's compute span row: the shape both cores emit.

    ``batch:<task>`` from ``start_ms`` (the end of the swap) to the last
    member's finish. Its args carry the members' ids, their exact
    finish instants (``start + dur`` would re-round them) and their
    energies, and its energy is their left-to-right sum, the ledger's
    order. The journey stitcher decomposes the run from these columns.
    """
    return (f"batch:{task}", "compute", start_ms,
            float(finish_ms[-1]) - start_ms, track, sum(energies),
            {"requests": len(energies), "batch": seq, "rids": rids,
             "finish": finish_ms, "energy": energies})


def _emit_spans(sim, log, ids_o, arr_o):
    """Build the batch-granular spans from the replay's log in one pass.

    Windows first, then per run its dispatch wait, swap and one compute
    span, each group in commit order. Every float is the exact value
    the per-event loop emits (dispatch, ready and finish instants are
    shared plan state; the batch energy is the same left-to-right sum),
    so the two cores' span logs agree and the 1e-9 rollup
    reconciliation holds while the hot loop pays only a tuple append
    per batch.
    """
    windows = [e for e in log if e[0] == _WINDOW]
    runs = [e for e in log if e[0] == _FINISHED]
    accels = sim._accels
    trk_former = sim._trk_former
    trk_queue = sim._trk_queue
    swap_names = {task: f"swap:{task}" for task in {e[3] for e in windows}}
    tracks = [a.track for a in accels]
    hw_of = [a.hw_config.mac_vector_size
             if a.hw_config is not None else None for a in accels]
    # Span args carry the plan's columns as-is (member ids and
    # arrivals as numpy views, each run's finish instants as its
    # ``array("d")``): the serialization boundaries — ``Span.to_dict``,
    # the spill writer, the Chrome exporter — convert them to plain
    # lists on demand via ``jsonable_args``, and the journey stitcher
    # reads them as columns, so the traced replay never pays a
    # per-member scalar boxing. Each run's member set is its window's (the same ``pos``
    # array object flows from window close to dispatch), so all member
    # columns come from two whole-run gathers sliced into one view per
    # window.
    member_cache = {}
    if windows:
        window_pos = [e[7] for e in windows]
        big = np.concatenate(window_pos)
        ids_all = ids_o[big]
        arr_all = arr_o[big]
        offset = 0
        for pos in window_pos:
            end = offset + pos.size
            member_cache[id(pos)] = (ids_all[offset:end],
                                     arr_all[offset:end])
            offset = end

    rows = []
    emit = rows.append
    for _, opened, closed, task, mode, trigger, target, pos in windows:
        rids, arrivals = member_cache[id(pos)]
        emit(("window", "window", opened, closed - opened, trk_former,
              0.0,
              {"task": task, "mode": mode, "size": len(rids),
               "trigger": trigger, "target": target, "rids": rids,
               "arrivals": arrivals}))
    # Columnize at C speed: one attrgetter call per run replaces ~20
    # interpreted attribute chases across the span builds.
    fields = attrgetter("pending.ready_ms", "start_ms", "swap_ms",
                        "swap_energy_mj", "accel_id", "pending.task",
                        "pending.seq", "finish_ms")
    for (ready, start, swap_ms, swap_mj, accel_id, task, seq,
         finish), (_, _, _, engs, pos, _) in zip(
            map(fields, map(itemgetter(2), runs)), runs):
        rids = member_cache[id(pos)][0]
        emit(("dispatch-wait", "queue", ready, start - ready, trk_queue,
              0.0,
              {"batch": seq, "size": len(engs), "accel": accel_id,
               "rids": rids, "hw": hw_of[accel_id]}))
        track = tracks[accel_id]
        if swap_ms > 0.0 or swap_mj != 0.0:
            emit((swap_names[task], "swap", start, swap_ms, track,
                  swap_mj, {"batch": seq}))
        # ``engs`` is already a plain float list (the plan's pricing
        # column); share it rather than copy it.
        emit(_compute_span(task, start + swap_ms, finish, track, seq,
                           rids, engs))
    sim.tracer.extend_rows(rows)


def _number_keys(trace, mode_code):
    """Former key per row, numbered in first-appearance order.

    A row's key is (task, target, resolved mode); ``mode_code`` is the
    trace's mode column with the simulator's mode filled in. Returns
    the per-row key ids and the ``{key: id}`` map, built from the code
    columns with no per-request loop.
    """
    targets, target_code = np.unique(trace.target_ms, return_inverse=True)
    combined = ((trace.task_code * targets.size + target_code)
                * len(MODES) + mode_code)
    codes, first, inverse = np.unique(combined, return_index=True,
                                      return_inverse=True)
    by_first = np.argsort(first, kind="stable")
    rank = np.empty(codes.size, dtype=np.int64)
    rank[by_first] = np.arange(codes.size)
    keymap = {}
    for code in codes[by_first].tolist():
        rest, mode = divmod(code, len(MODES))
        task, target = divmod(rest, targets.size)
        keymap[(trace.tasks[task], float(targets[target]),
                MODES[mode])] = len(keymap)
    return rank[inverse], keymap


def _check_intake(sim, trace, mode_code):
    """Refuse the trace as the per-event loop would, from its columns.

    Finds the first row in trace order that ``inject`` refuses —
    a duplicate id, an unknown task, an out-of-range sentence, a mode
    the task cannot serve, an arrival before the clock's start — with
    whole-column checks (task and mode tests run once per task). That
    row then goes through ``sim.inject`` itself after the ids before it,
    so it raises exactly the error the per-event loop raises. Should
    ``inject`` accept it, the two intakes disagree, and that raises too.
    """
    n = len(trace)
    ids = trace.request_id
    bad = trace.arrival_ms < -1e-9
    # Generated and loaded traces carry consecutive ids; one vectorized
    # compare settles uniqueness without the np.unique sort.
    if not (ids == np.arange(ids[0], ids[0] + n)).all():
        unique, first = np.unique(ids, return_index=True)
        if unique.size != n:
            repeat = np.ones(n, dtype=bool)
            repeat[first] = False
            bad |= repeat
    # ``mode_code`` is resolved: it never reads the inherited column.
    sentences, serves = serving_columns(sim.registry, trace.tasks)
    bad |= trace.sentence >= sentences[trace.task_code]
    bad |= ~serves[trace.task_code, mode_code]
    if not bad.any():
        return
    row = int(np.argmax(bad))
    sim._seen = {request.request_id for request in trace[:row]}
    sim.inject(trace[row])
    raise ClusterError(
        "vector intake rejected a trace that per-request intake "
        "accepts")


def run_vectorized(sim, requests):
    """Replay ``requests`` through the batch-granular event core.

    ``requests`` is any request iterable; a
    :class:`~repro.serving.RequestTrace` is read as it stands, anything
    else is converted into one. Returns the finished
    :class:`~repro.cluster.ClusterReport` (with ``engine="vector"``). A
    trace the per-event loop would refuse raises the same error here,
    from the same request (see :func:`_check_intake`).
    """
    trace = RequestTrace.from_requests(requests)
    n = len(trace)
    if not n:
        raise ClusterError("no requests to simulate")
    sim.start()
    policy = sim.policy
    accels = sim._accels
    report = sim._report

    # -- struct-of-arrays intake: the trace's columns, checked whole ---------------
    mode_code = trace.mode_code
    mode_code = np.where(mode_code == 0, MODES.index(sim.mode), mode_code)
    key_ids, keymap = _number_keys(trace, mode_code)
    _check_intake(sim, trace, mode_code)

    # Event-processing order: arrivals fire by (time, inject seq); a
    # stable time sort keeps inject order inside equal instants.
    # Generated and loaded traces are already in that order.
    arrivals = trace.arrival_ms
    if (arrivals[1:] >= arrivals[:-1]).all():
        order = np.arange(n)
    else:
        order = np.argsort(arrivals, kind="stable")
        trace = trace.take(order)
        key_ids = key_ids[order]
    arr_o = trace.arrival_ms
    dead_o = arr_o + trace.target_ms

    # -- window planning per key --------------------------------------------------
    korder = np.argsort(key_ids, kind="stable")
    kid_sorted = key_ids[korder]
    key_range = np.arange(len(keymap))
    k_starts = np.searchsorted(kid_sorted, key_range, side="left")
    k_ends = np.searchsorted(kid_sorted, key_range, side="right")
    timeout_ms = sim.batch_timeout_ms
    max_batch = sim.max_batch_size
    # Adaptive timeouts and deadline sizing couple a window's close to
    # dispatch history (the controller's EWMA) or to per-member work
    # estimates: those keys plan incrementally — each window at its own
    # open instant — through a real BatchFormer per key, the reference
    # trigger implementation. Static keys keep the offline scan.
    incremental = sim.adaptive_timeout or sim.deadline_sizing

    events = []
    windows = []
    window_starts = []  # each window's first member, in korder
    for key, kid in keymap.items():
        task, target_ms, mode = key
        first = int(k_starts[kid])
        pos_k = korder[first:k_ends[kid]]
        times_k = arr_o[pos_k]
        tlist = times_k.tolist()
        slist = order[pos_k].tolist()
        if incremental:
            # The former holds its members, so the key's requests are
            # built here, once each. The simulator's own former
            # registry: _begin feeds it the dispatch delays, and
            # post-run inspection (controller state, deadline-close
            # counters) works identically on both cores.
            kp = _KeyPlan(sim._new_former(key), tlist, slist, pos_k,
                          trace.rows_at(pos_k))
            events.append((tlist[0], slist[0], _OPEN, kp))
            continue
        for start, end, by_size in plan_batches(times_k, max_batch,
                                                timeout_ms):
            planned = _Planned(pos_k[start:end], task, target_ms, mode,
                               by_size)
            windows.append(planned)
            window_starts.append(first + start)
            if by_size and end - start == 1:
                # The opening add itself hits the size trigger
                # (max_batch_size == 1): the window closes before any
                # timer is armed, so no dynamic seq is consumed.
                events.append((tlist[start], slist[start], _CLOSE,
                               planned))
                continue
            events.append((tlist[start], slist[start], _OPEN, planned))
            if by_size:
                events.append((tlist[end - 1], slist[end - 1], _CLOSE,
                               planned))
    if windows:
        # Windows tile each key's members in korder, so one reduceat
        # yields every window's earliest member deadline.
        for planned, deadline in zip(windows, np.minimum.reduceat(
                dead_o[korder], window_starts).tolist()):
            planned.deadline_ms = deadline
    heapify(events)

    # The per-event loop's schedule seq sits at n after injecting the
    # trace; every timer armed at a window open, every completion
    # scheduled at a batch start and every DispatchRetry armed at a
    # throttle consumes the next value, in processing order — mirrored
    # here so equal-instant ties break identically.
    dyn_seq = n
    budget = sim._budget
    budget_armed = False
    # Window spend only *decays* between commits, so once exhausted()
    # reads False it stays False until the next commit: gate the
    # per-dispatch recheck on that, saving a ledger walk per event in
    # the common unthrottled case.
    budget_recheck = budget is not None
    # Batches enqueue in close order; FIFO places the head
    # (:func:`fifo_placement`), which a deque drops in O(1) under
    # multi-thousand-batch budget backlogs.
    fifo = sim._fifo
    pending = deque() if fifo else []
    index = sim._index
    free = index.free
    take = index.take
    release = index.release
    pend_pos = {}
    done_batches = []
    served_pos = []
    makespan = 0.0
    # Observers read the commit-ordered ``log`` only after the drain
    # (see the module docstring), so an observed replay's report stays
    # bit-identical to an unobserved one.
    traced = sim.tracer.enabled
    metered = sim._m_served is not None
    monitored = sim._mon is not None
    # Monitor feeds and the queue gauge both need the running
    # closed-batch request count.
    sampled = metered or monitored
    log = []
    log_append = log.append
    queued_reqs = 0  # running total of requests across `pending`

    def start_batch(pending_batch, accel, now):
        nonlocal dyn_seq, budget_recheck
        pos = pend_pos.pop(pending_batch.seq)
        results = sim._price(pending_batch, accel, now)
        energies = [r.energy_mj for r in results]
        run = sim._begin(pending_batch, accel, now, results,
                         [r.latency_ms for r in results], energies)[0]
        # A budget commit can exhaust the window: recheck it before the
        # next placement.
        budget_recheck = budget is not None
        if monitored \
                and (run.swap_ms > 0.0 or run.swap_energy_mj != 0.0):
            log_append((_SWAPPED, now, pending_batch.task,
                        accel.accel_id))
        if metered and budget is not None:
            # Pure read: _begin's commit already expired the window at
            # `now`, so headroom_fraction re-expires nothing.
            log_append((_HEADROOM, now, budget.headroom_fraction(now)))
        heappush(events, (run.end_ms, dyn_seq, _DONE,
                          (accel, run, energies, pos)))
        dyn_seq += 1

    def arm_retry(now):
        # Mirror of ClusterSimulator._budget_throttled's arming arm:
        # the DispatchRetry seq is consumed here, at the instant the
        # throttle is first observed.
        nonlocal dyn_seq, budget_armed
        relief = budget.next_relief_ms(now)
        budget.note_throttle(now, relief)
        heappush(events, (relief if relief > now else now, dyn_seq,
                          _RETRY, None))
        dyn_seq += 1
        budget_armed = True
        if sampled:
            log_append((_THROTTLED, now, relief))

    def dispatch(now):
        nonlocal queued_reqs, budget_recheck
        while pending:
            if budget_recheck:
                if budget.exhausted(now):
                    if not budget_armed:
                        arm_retry(now)
                    return
                budget_recheck = False
            if not free:
                return
            if fifo:
                pending_batch, accel = fifo_placement(pending, index,
                                                      accels)
            else:
                pending_batch, accel = policy.next_placement(
                    pending, [accels[i] for i in free], now)
            pending.remove(pending_batch)
            take(accel)
            if sampled:
                queued_reqs -= len(pending_batch)
                if monitored:
                    log_append((_DISPATCHED, now, queued_reqs))
            start_batch(pending_batch, accel, now)

    def enqueue(pending_batch, pos, now):
        # Shared closed-window bookkeeping: positions for the batch's
        # later column gathers, the queue-depth sample both engines
        # maintain identically, and the pending append itself.
        nonlocal queued_reqs
        pend_pos[pending_batch.seq] = pos
        pending.append(pending_batch)
        if sampled:
            queued_reqs += len(pending_batch)
            log_append((_QUEUED, now, queued_reqs))

    def plan_key_window(kp):
        """Plan the window opening now; push its _CLOSE into the heap.

        Runs at the exact instant the event loop would arm the window's
        timer — the opening arrival's (time, seq), or the pre-close
        _CLOSE that reopened the former — so the adaptive controller is
        read with precisely the dispatch history the event loop would
        have seen. Members are fed to the real former ahead of the
        clock; that is sound because every trigger input (member
        deadlines, work estimates, the already-armed timer) is
        arrival-determined once the timeout is fixed.
        """
        nonlocal dyn_seq
        former = kp.former
        times = kp.times
        c = kp.cursor
        if not former.is_open:
            win_start = c
            opened = times[c]
            closed = former.add(kp.reqs[c], opened)
            c += 1
            if closed is not None:
                # Closed on the opening add (max_batch_size == 1): no
                # timer is armed; the close fires at the opener's own
                # (time, seq).
                kp.cursor = c
                heappush(events, (opened, kp.seqs[c - 1], _CLOSE,
                                  (kp, closed, kp.pos[win_start:c],
                                   opened, "size", False)))
                return
        else:
            # A pre-close reopened the former with the newcomer as the
            # fresh window's only member.
            win_start = c - 1
            opened = former.opened_ms
        timer_seq = dyn_seq
        dyn_seq += 1
        deadline = former.timeout_deadline_ms()
        # An arrival at the very instant the timer fires carries a
        # smaller event seq than the timer, so it joins first (<=).
        while c < kp.n and times[c] <= deadline:
            at = times[c]
            closed = former.add(kp.reqs[c], at)
            c += 1
            if closed is None:
                continue
            kp.cursor = c
            if former.is_open:
                # Deadline-sizing pre-close: the closed batch holds the
                # prior members; the newcomer reopened the window and
                # its timer arms inside the _CLOSE processing.
                heappush(events, (at, kp.seqs[c - 1], _CLOSE,
                                  (kp, closed, kp.pos[win_start:c - 1],
                                   opened, "preclose", True)))
            else:
                trigger = ("size" if len(closed) >= former.max_batch_size
                           else "deadline")
                heappush(events, (at, kp.seqs[c - 1], _CLOSE,
                                  (kp, closed, kp.pos[win_start:c],
                                   opened, trigger, False)))
            return
        # Timeout close at the armed timer's (deadline, seq).
        closed = former.on_timeout(former.generation, deadline)
        kp.cursor = c
        heappush(events, (deadline, timer_seq, _CLOSE,
                          (kp, closed, kp.pos[win_start:c], opened,
                           "timeout", False)))

    # -- the batch-granular drain --------------------------------------------------
    processed = 0
    while events:
        now, _seq, kind, payload = heappop(events)
        processed += 1
        if processed > sim.MAX_EVENTS:
            raise ClusterError(
                f"event loop exceeded {sim.MAX_EVENTS} events; "
                "likely a scheduling cycle")
        if kind == _OPEN:
            if incremental:
                plan_key_window(payload)
            else:
                timer_seq = dyn_seq
                dyn_seq += 1
                if not payload.by_size:
                    heappush(events, (now + timeout_ms, timer_seq,
                                      _CLOSE, payload))
        elif kind == _CLOSE:
            if incremental:
                kp, members, pos, opened, trigger, reopened = payload
                pending_batch = kp.former.make_pending(
                    members, now, sim._next_batch_seq())
                enqueue(pending_batch, pos, now)
                if traced:
                    log_append((_WINDOW, opened, pending_batch.ready_ms,
                                kp.former.task, kp.former.mode, trigger,
                                float(kp.former.target_ms), pos))
                if reopened:
                    # The newcomer's window arms its timer now — the
                    # same processing point _on_arrival re-arms at —
                    # before the dispatch pass consumes further seqs.
                    plan_key_window(kp)
                elif kp.cursor < kp.n:
                    nxt = kp.cursor
                    heappush(events, (kp.times[nxt], kp.seqs[nxt],
                                      _OPEN, kp))
                dispatch(now)
            else:
                pos = payload.pos
                # The members stay columns until something reads them.
                batch = Batch(task=payload.task,
                              target_ms=payload.target_ms,
                              requests=TraceRows(trace, pos))
                pending_batch = PendingBatch(
                    batch=batch, mode=payload.mode, ready_ms=float(now),
                    deadline_ms=payload.deadline_ms,
                    seq=sim._next_batch_seq())
                enqueue(pending_batch, pos, now)
                if traced:
                    log_append((_WINDOW, float(arr_o[pos[0]]),
                                pending_batch.ready_ms, payload.task,
                                payload.mode,
                                "size" if payload.by_size else "timeout",
                                float(payload.target_ms), pos))
                dispatch(now)
        elif kind == _DONE:
            accel, run, energies, pos = payload
            accel.complete(now)
            # After complete(): the class key reads the resting state.
            release(accel)
            stats = accel.stats
            total = stats.compute_energy_mj
            for energy in energies:
                total += energy
            stats.compute_energy_mj = total
            pending_batch = run.pending
            done_batches.append(
                (pending_batch.batch.requests, run.results, run.accel_id,
                 run.start_ms, run.finish_ms, pending_batch.task,
                 pending_batch.batch.target_ms, pending_batch.mode))
            served_pos.append(pos)
            if run.end_ms > makespan:
                makespan = run.end_ms
            if traced or sampled:
                log_append((_FINISHED, now, run, energies, pos,
                            len(free)))
            dispatch(now)
        else:  # _RETRY — the budget's DispatchRetry recheck
            budget_armed = False
            dispatch(now)

    # Traced spans carry member request ids (the journey stitcher links
    # legs with them), and so does alert evidence.
    ids_o = trace.request_id
    if sampled:
        _feed_observers(sim, log, arr_o, dead_o, ids_o)
    if traced:
        _emit_spans(sim, log, ids_o, arr_o)

    # -- finalization (column-wise) ------------------------------------------------
    served = (np.sort(np.concatenate(served_pos))
              if served_pos else np.empty(0, dtype=np.int64))
    if served.size != n or not np.array_equal(served, np.arange(n)) \
            or pending or pend_pos \
            or any(a.run is not None for a in accels):
        raise ClusterError(
            "simulation ended with unserved or duplicated requests")
    sim._seen = set(ids_o.tolist())

    def build_records():
        trace.rows()  # box every member in one pass, once
        rows = []
        for members, results, accel_id, start_ms, finish, *_ \
                in done_batches:
            rows.extend(
                ClusterRecord(request=request, result=result,
                              accel_id=accel_id, dispatch_ms=start_ms,
                              completion_ms=float(at))
                for request, result, at in zip(members, results, finish))
        return rows

    def ledger_rows():
        # The ledgers read each record's class and result only, and the
        # batch carries the class: no request is built for them.
        return [(task, target_ms, mode, result)
                for _, results, _, _, _, task, target_ms, mode
                in done_batches for result in results]

    report.records = LazyRecords(build_records, n, ledger_rows)
    report.makespan_ms = makespan
    report.engine = "vector"
    sim._common_finalize(report)
    return report

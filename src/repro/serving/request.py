"""Request, trace and batch types for the multi-task serving layer.

A :class:`Request` asks the server to price one sentence inference for a
registered task under a latency target (the SLO class). The scheduler
groups compatible requests into :class:`Batch` objects — same task, same
latency-target class — which is the unit the vectorized engine kernels
price in one shot.

A whole trace is a :class:`RequestTrace`: the same seven fields stored
as read-only columns, one entry per request. It is a
``Sequence[Request]`` that builds a request only when an element is
read, so generating, loading and replaying a million-request trace
costs arrays, not objects; :class:`TraceRows` is the same lazy view
over a subset of rows (a batch's members on the vector replay core).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from repro.errors import ServingError

#: Execution modes a request can be priced in (see the engine's module
#: docs). Lives here (not in ``server``) so the request type can validate
#: its own ``mode`` override without a circular import.
SERVING_MODES = ("base", "ee", "lai")

#: A trace's mode codes index this tuple; code 0 (no override) inherits
#: the simulator's mode.
MODES = (None,) + SERVING_MODES


@dataclass(frozen=True, slots=True)
class Request:
    """One sentence inference to serve.

    ``sentence`` indexes the task profile's precomputed per-layer
    logits/entropies (the serving layer prices inference; the heavy
    forward pass was captured once by
    :func:`repro.earlyexit.collect_layer_outputs`).

    ``mode`` optionally overrides the serving layer's execution mode for
    this request (the :class:`~repro.serving.Server` ignores it — its
    constructor mode applies to the whole queue — but the cluster
    simulator honors it, which is what lets tight-SLO ``lai`` traffic
    preempt long ``base`` batches).

    ``site`` optionally pins the request to one fleet site (data
    residency, session stickiness): the :mod:`repro.fleet` router
    honors the affinity when that site can still meet the deadline and
    falls back to free routing otherwise. Single-cluster serving
    ignores it.
    """

    request_id: int
    task: str
    sentence: int
    target_ms: float
    arrival_ms: float = 0.0
    mode: str | None = None
    site: str | None = None

    def __post_init__(self):
        if self.sentence < 0:
            raise ServingError("sentence index must be non-negative")
        if not self.target_ms > 0:
            raise ServingError("target_ms must be positive")
        if not -math.inf < self.arrival_ms < math.inf:
            raise ServingError("arrival_ms must be finite")
        if self.mode is not None and self.mode not in SERVING_MODES:
            raise ServingError(
                f"unknown mode {self.mode!r}; expected one of "
                f"{SERVING_MODES}")

    @property
    def deadline_ms(self):
        """Absolute completion deadline (arrival + latency target)."""
        return self.arrival_ms + self.target_ms


_FIELD_SETTERS = tuple(Request.__dict__[name].__set__ for name in (
    "request_id", "task", "sentence", "target_ms", "arrival_ms", "mode",
    "site"))


def retimed(request, arrival_ms, target_ms):
    """``request`` with a new arrival and target, built unchecked.

    For callers that derive both values from an already valid request
    and validate the result themselves (fleet admission rewrites a
    request into site-local time, and the site's ``inject`` validates
    it): one object, no second pass through ``__post_init__``.
    """
    set_id, set_task, set_sentence, set_target, set_arrival, set_mode, \
        set_site = _FIELD_SETTERS
    local = object.__new__(Request)
    set_id(local, request.request_id)
    set_task(local, request.task)
    set_sentence(local, request.sentence)
    set_target(local, target_ms)
    set_arrival(local, arrival_ms)
    set_mode(local, request.mode)
    set_site(local, request.site)
    return local


def _encode(values, vocab):
    """Codes of ``values`` into ``vocab`` (a list, extended in place).

    New values are appended in first-appearance order; unhashable ones
    (which no valid field holds) get a fresh code each.
    """
    index = {}
    for code, value in enumerate(vocab):
        index.setdefault(value, code)
    codes = []
    append = codes.append
    for value in values:
        try:
            code = index.get(value)
        except TypeError:
            code = None
            vocab.append(value)
            append(len(vocab) - 1)
            continue
        if code is None:
            code = index[value] = len(vocab)
            vocab.append(value)
        append(code)
    return np.array(codes, dtype=np.int64)


def invalid_row(sentence, target_ms, arrival_ms, mode_code, modes):
    """``(row, message)`` of the first row :class:`Request` would refuse.

    Runs ``Request.__post_init__``'s checks as column operations: the
    offender is the lowest row failing any of them, and its message is
    the one its first failing check raises. ``mode_code`` indexes
    ``modes``, whose entries past :data:`MODES` are unknown modes.
    Returns None when every row is valid.
    """
    checks = (sentence < 0, ~(target_ms > 0), ~np.isfinite(arrival_ms),
              mode_code >= len(MODES))
    bad = checks[0] | checks[1] | checks[2] | checks[3]
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    messages = ("sentence index must be non-negative",
                "target_ms must be positive", "arrival_ms must be finite",
                f"unknown mode {modes[mode_code[row]]!r}; expected one of "
                f"{SERVING_MODES}")
    return row, next(message for check, message in zip(checks, messages)
                     if check[row])


def _readonly(column, dtype):
    column = np.array(column, dtype=dtype)
    column.flags.writeable = False
    return column


class RequestTrace(Sequence):
    """A read-only request trace stored as columns (struct of arrays).

    One entry per request, in trace order, in seven NumPy columns:
    ``request_id`` (int64), ``task_code`` (indexes :attr:`tasks`),
    ``sentence`` (int64), ``target_ms`` and ``arrival_ms`` (float64),
    ``mode_code`` (indexes :data:`MODES`; 0 inherits the simulator's
    mode) and ``site_code`` (indexes :attr:`sites`, whose entry 0 is
    None, no pin). Every row holds values :class:`Request` accepts.

    As a ``Sequence[Request]`` it boxes a row into a :class:`Request`
    (Python ``int``/``float``/``str``/``None`` fields) only when that
    element is read, and keeps the object, so each row is built at most
    once. A trace built from request objects keeps those objects as its
    rows. It compares with ``==`` against any request sequence; slices
    and :meth:`take` return traces over the selected rows.

    Build one with :meth:`from_requests` (any iterable of requests),
    :meth:`from_columns` (per-row field values) or :meth:`from_codes`
    (integer codes into value menus); the generator and the loaders of
    :mod:`repro.cluster.trace` return one.
    """

    __slots__ = ("request_id", "task_code", "sentence", "target_ms",
                 "arrival_ms", "mode_code", "site_code", "tasks", "sites",
                 "_rows", "_unboxed")

    def __init__(self, request_id, task_code, tasks, sentence, target_ms,
                 arrival_ms, mode_code, site_code, sites, rows=None):
        # Columns arrive validated; the constructors below are the checks.
        self.request_id = _readonly(request_id, np.int64)
        self.task_code = _readonly(task_code, np.int64)
        self.tasks = tuple(tasks)
        self.sentence = _readonly(sentence, np.int64)
        self.target_ms = _readonly(target_ms, np.float64)
        self.arrival_ms = _readonly(arrival_ms, np.float64)
        self.mode_code = _readonly(mode_code, np.int8)
        self.site_code = _readonly(site_code, np.int64)
        self.sites = tuple(sites)
        self._rows = rows
        self._unboxed = len(self.request_id) if rows is None else 0

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_requests(cls, requests):
        """The trace of ``requests`` (any iterable of :class:`Request`).

        A :class:`RequestTrace` is returned unchanged. Otherwise the
        request objects become the trace's rows, so reading an element
        returns the caller's own object; they were validated when built.
        """
        if isinstance(requests, RequestTrace):
            return requests
        rows = list(requests)
        n = len(rows)
        tasks = {}
        sites = {None: 0}
        return cls(
            np.fromiter((r.request_id for r in rows), np.int64, n),
            np.fromiter((tasks.setdefault(r.task, len(tasks))
                         for r in rows), np.int64, n), tasks,
            np.fromiter((r.sentence for r in rows), np.int64, n),
            np.fromiter((r.target_ms for r in rows), np.float64, n),
            np.fromiter((r.arrival_ms for r in rows), np.float64, n),
            np.fromiter((MODES.index(r.mode) for r in rows), np.int8, n),
            np.fromiter((sites.setdefault(r.site, len(sites))
                         for r in rows), np.int64, n), sites, rows)

    @classmethod
    def from_columns(cls, request_id, task, sentence, target_ms,
                     arrival_ms, mode=None, site=None):
        """A trace from per-row field values, validated like :class:`Request`.

        ``task``, ``mode`` and ``site`` hold one value per row (``mode``
        and ``site`` default to None throughout). The first row
        :class:`Request` would refuse raises the same
        :class:`~repro.errors.ServingError`, whose ``row`` attribute
        holds its position.
        """
        n = len(request_id)
        tasks = []
        task_code = _encode(task, tasks)
        modes = list(MODES)
        mode_code = _encode([None] * n if mode is None else mode, modes)
        sites = [None]
        site_code = np.zeros(n, np.int64) if site is None \
            else _encode(site, sites)
        return cls._checked(request_id, task_code, tasks, sentence,
                            target_ms, arrival_ms, mode_code, modes,
                            site_code, sites)

    @classmethod
    def from_codes(cls, request_id, task_code, tasks, sentence, target_ms,
                   arrival_ms, mode_code=None, modes=MODES):
        """A trace from integer codes into value menus, with no per-row loop.

        Row ``i``'s task is ``tasks[task_code[i]]`` and its mode
        ``modes[mode_code[i]]`` (None throughout when ``mode_code`` is
        None); no row is pinned to a site. Menus may repeat values.
        Validated like :meth:`from_columns`.
        """
        task_menu = []
        task_code = _encode(tasks, task_menu)[np.asarray(task_code)]
        mode_menu = list(MODES)
        mode_code = np.zeros(len(task_code), np.int64) if mode_code is None \
            else _encode(modes, mode_menu)[np.asarray(mode_code)]
        return cls._checked(request_id, task_code, task_menu, sentence,
                            target_ms, arrival_ms, mode_code, mode_menu,
                            np.zeros(len(task_code), np.int64), (None,))

    @classmethod
    def _checked(cls, request_id, task_code, tasks, sentence, target_ms,
                 arrival_ms, mode_code, modes, site_code, sites):
        sentence = np.asarray(sentence, dtype=np.int64)
        target_ms = np.asarray(target_ms, dtype=np.float64)
        arrival_ms = np.asarray(arrival_ms, dtype=np.float64)
        lengths = {len(c) for c in (request_id, task_code, sentence,
                                    target_ms, arrival_ms, mode_code,
                                    site_code)}
        if len(lengths) != 1:
            raise ServingError("trace columns differ in length")
        offender = invalid_row(sentence, target_ms, arrival_ms, mode_code,
                               modes)
        if offender is not None:
            error = ServingError(offender[1])
            error.row = offender[0]
            raise error
        return cls(request_id, task_code, tasks, sentence, target_ms,
                   arrival_ms, mode_code, site_code, sites)

    # -- rows ----------------------------------------------------------------

    def __len__(self):
        return len(self.request_id)

    def rows_at(self, positions):
        """The requests at ``positions`` (ints), boxing each row once."""
        rows = self._rows
        if rows is None:
            rows = self._rows = [None] * len(self)
        positions = positions.tolist() \
            if isinstance(positions, np.ndarray) else list(positions)
        if self._unboxed:
            missing = np.array(list(dict.fromkeys(
                p for p in positions if rows[p] is None)), dtype=np.int64)
            if missing.size:
                tasks, sites = self.tasks, self.sites
                for p, request in zip(missing.tolist(), map(
                        Request,
                        self.request_id[missing].tolist(),
                        [tasks[c] for c in self.task_code[missing].tolist()],
                        self.sentence[missing].tolist(),
                        self.target_ms[missing].tolist(),
                        self.arrival_ms[missing].tolist(),
                        [MODES[c] for c in self.mode_code[missing].tolist()],
                        [sites[c] for c in self.site_code[missing].tolist()],
                )):
                    rows[p] = request
                self._unboxed -= missing.size
        if len(positions) == 1:
            return [rows[positions[0]]]
        return list(itemgetter(*positions)(rows)) if positions else []

    def rows(self):
        """Every request, in trace order (a new list)."""
        if self._unboxed:
            return self.rows_at(range(len(self)))
        return list(self._rows) if self._rows is not None else []

    def __iter__(self):
        return iter(self.rows())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        n = len(self)
        index = int(index)
        if not -n <= index < n:
            raise IndexError("trace index out of range")
        return self.rows_at((index % n,))[0]

    def take(self, positions):
        """The trace of the rows at ``positions``, in that order."""
        positions = np.asarray(positions, dtype=np.int64)
        rows = self._rows
        if rows is not None:
            rows = [rows[p] for p in positions.tolist()]
        trace = RequestTrace(
            self.request_id[positions], self.task_code[positions],
            self.tasks, self.sentence[positions],
            self.target_ms[positions], self.arrival_ms[positions],
            self.mode_code[positions], self.site_code[positions],
            self.sites, rows)
        if rows is not None and self._unboxed:
            # Rows already built carry over; the rest box on access.
            trace._unboxed = sum(1 for row in rows if row is None)
        return trace

    # -- comparison ----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self):
        return f"RequestTrace({len(self)} requests, tasks={self.tasks!r})"


class TraceRows(Sequence):
    """A lazy view of some rows of a :class:`RequestTrace`.

    Knows its length and its members' sentence column without building
    a request; iterating or indexing boxes the rows through the trace,
    each at most once. The vector replay core holds a batch's members
    as one. Equality is identity: each view stands for one batch.
    """

    __slots__ = ("trace", "positions")

    def __init__(self, trace, positions):
        self.trace = trace
        self.positions = positions  # int64 row positions into `trace`

    def __len__(self):
        return len(self.positions)

    @property
    def sentence_indices(self):
        return self.trace.sentence[self.positions]

    def __iter__(self):
        return iter(self.trace.rows_at(self.positions))

    def __getitem__(self, index):
        return self.trace[int(self.positions[index])]


@dataclass(frozen=True)
class Batch:
    """A schedulable group: one task, one latency-target class."""

    task: str
    target_ms: float
    requests: tuple = field(default_factory=tuple)

    def __len__(self):
        return len(self.requests)

    @property
    def sentence_indices(self):
        """Column indices into the task's (L, N) entropy/logit arrays."""
        if isinstance(self.requests, TraceRows):
            return self.requests.sentence_indices
        return np.array([r.sentence for r in self.requests], dtype=np.int64)


@dataclass(frozen=True)
class RequestResult:
    """A served request paired with its priced outcome."""

    request: Request
    result: object  # repro.core.SentenceResult

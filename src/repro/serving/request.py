"""Request and batch types for the multi-task serving layer.

A :class:`Request` asks the server to price one sentence inference for a
registered task under a latency target (the SLO class). The scheduler
groups compatible requests into :class:`Batch` objects — same task, same
latency-target class — which is the unit the vectorized engine kernels
price in one shot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ServingError

#: Execution modes a request can be priced in (see the engine's module
#: docs). Lives here (not in ``server``) so the request type can validate
#: its own ``mode`` override without a circular import.
SERVING_MODES = ("base", "ee", "lai")


@dataclass(frozen=True)
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
        return np.array([r.sentence for r in self.requests], dtype=np.int64)


@dataclass(frozen=True)
class RequestResult:
    """A served request paired with its priced outcome."""

    request: Request
    result: object  # repro.core.SentenceResult

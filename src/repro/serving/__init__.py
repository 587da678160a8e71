"""Multi-task serving over the vectorized pricing engine.

The subsystem turns the per-sentence engine into a request/batch server
(the ROADMAP's "production-scale serving" direction):

* :class:`Request` / :class:`Batch` — the traffic units, and
  :class:`RequestTrace`, a whole trace as read-only columns that builds
  a request only when an element is read;
* :class:`TaskRegistry` / :class:`TaskProfile` — per-task artifacts
  around one shared, eNVM-resident embedding store, so task switches
  price only encoder-weight swaps (:meth:`TaskRegistry.switch_cost`),
  and batches gather rows from whole-profile price tables
  (:meth:`TaskProfile.price_table`);
* :class:`Scheduler` — groups the queue by (task, latency-target class)
  and orders batches to minimize encoder swaps;
* :class:`Server` — ``submit()`` / ``run()`` facade returning per-request
  :class:`~repro.core.SentenceResult` rows plus aggregate throughput,
  energy and SLO-violation statistics (:class:`ServingReport`).

``python -m repro.serving --smoke`` runs a self-checking end-to-end pass
(synthetic four-task traffic, scalar-vs-vectorized cross-check).
"""

from repro.serving.registry import (
    SwitchCost,
    TaskProfile,
    TaskRegistry,
    encoder_weight_bytes,
)
from repro.serving.request import (
    MODES,
    SERVING_MODES,
    Batch,
    Request,
    RequestResult,
    RequestTrace,
    TraceRows,
)
from repro.serving.scheduler import Scheduler
from repro.serving.server import (
    Server,
    ServingReport,
    batch_deadline_ms,
    build_price_table,
    price_batch,
    validate_request,
)
from repro.serving.synthetic import (
    synthetic_embedding_table,
    synthetic_layer_outputs,
    synthetic_registry,
    synthetic_task_profile,
    synthetic_traffic,
    task_profile_from_artifact,
)

__all__ = [
    "Batch",
    "MODES",
    "Request",
    "RequestResult",
    "RequestTrace",
    "Scheduler",
    "Server",
    "ServingReport",
    "SERVING_MODES",
    "SwitchCost",
    "TaskProfile",
    "TaskRegistry",
    "TraceRows",
    "batch_deadline_ms",
    "build_price_table",
    "encoder_weight_bytes",
    "price_batch",
    "validate_request",
    "synthetic_embedding_table",
    "synthetic_layer_outputs",
    "synthetic_registry",
    "synthetic_task_profile",
    "synthetic_traffic",
    "task_profile_from_artifact",
]

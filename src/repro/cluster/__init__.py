"""Discrete-event multi-accelerator serving simulation.

Where :mod:`repro.serving` drains a static queue on one accelerator,
this subsystem models the traffic dynamics of a pool (the ROADMAP's
multi-accelerator sharding + async-ingestion items in one layer):

* :class:`EventLoop` — a deterministic heap of typed events
  (:class:`Arrival`, :class:`BatchTimeout`, :class:`BatchDone`);
* :class:`BatchFormer` / :class:`PendingBatch` — per-(task, SLO class,
  mode) dynamic batching with size and timeout triggers;
* :class:`AcceleratorSim` — one priced accelerator with a resident task
  (encoder swaps charged per device) and a busy-until horizon;
* :class:`FifoPolicy` / :class:`FewestSwapsPolicy` / :class:`EdfPolicy`
  — pluggable dispatchers, EDF preempting long ``base`` batches with
  tight-SLO ``lai`` traffic;
* :class:`ClusterSimulator` — ``run(trace)`` →
  :class:`ClusterReport`, which composes the serving layer's
  :class:`~repro.serving.ServingReport` aggregates with queueing delay,
  time-in-system, per-accelerator utilization, an SLO-violation
  breakdown (compute vs. queueing misses), and the
  :class:`~repro.energy.EnergyReport` device ledgers.

Heterogeneous pools pass per-accelerator ``hw_configs`` (per-device
pricing tables); the :mod:`repro.energy` subsystem supplies the
``"energy"`` placement policy, per-device DVFS/idle accounting and the
cluster-wide joules/sec budget; :mod:`repro.cluster.trace` replays
measured CSV/JSONL request logs instead of synthetic arrivals (and
streams them — ``iter_trace`` — when the log doesn't fit the
load-everything idiom).

``run()`` picks its core from the configuration alone: eligible
configurations replay through the vectorized batch-granular core
(:mod:`repro.cluster.replay`) — bit-identical reports at per-batch
instead of per-request cost — and the rest run the per-event loop,
which ``run_events()`` drives for any configuration.
``vectorized=False`` keeps the scalar per-event loop as the
determinism reference.

``python -m repro.cluster --smoke`` runs the self-checking gate;
``python -m repro.cluster --trace FILE`` replays a trace file
(``--oracle`` forces the scalar loop);
``python -m repro.cluster --gen-trace N`` writes a deterministic
diurnal benchmark trace.
"""

from repro.cluster.accelerator import (
    AcceleratorSim,
    AcceleratorStats,
    ActiveRun,
    PlacementEstimate,
)
from repro.cluster.batcher import (
    AdaptiveTimeout,
    BatchFormer,
    PendingBatch,
    plan_batches,
)
from repro.cluster.events import (
    Arrival,
    BatchDone,
    BatchTimeout,
    DispatchRetry,
    EventLoop,
)
from repro.cluster.policies import (
    POLICIES,
    EdfPolicy,
    FewestSwapsPolicy,
    FifoPolicy,
    SchedulingPolicy,
    make_policy,
)
from repro.cluster.replay import replay_ineligible_reason, run_vectorized
from repro.cluster.report import ClusterRecord, ClusterReport, LazyRecords
from repro.cluster.simulator import ClusterSimulator
from repro.cluster.trace import (
    generate_diurnal_trace,
    iter_trace,
    iter_trace_csv,
    iter_trace_jsonl,
    load_trace,
    load_trace_csv,
    load_trace_jsonl,
    save_trace,
    save_trace_csv,
    save_trace_jsonl,
)

__all__ = [
    "AcceleratorSim",
    "AdaptiveTimeout",
    "AcceleratorStats",
    "ActiveRun",
    "Arrival",
    "BatchDone",
    "BatchFormer",
    "BatchTimeout",
    "ClusterRecord",
    "ClusterReport",
    "ClusterSimulator",
    "DispatchRetry",
    "EdfPolicy",
    "EventLoop",
    "FewestSwapsPolicy",
    "FifoPolicy",
    "LazyRecords",
    "POLICIES",
    "PendingBatch",
    "PlacementEstimate",
    "SchedulingPolicy",
    "generate_diurnal_trace",
    "iter_trace",
    "iter_trace_csv",
    "iter_trace_jsonl",
    "load_trace",
    "load_trace_csv",
    "load_trace_jsonl",
    "make_policy",
    "plan_batches",
    "replay_ineligible_reason",
    "run_vectorized",
    "save_trace",
    "save_trace_csv",
    "save_trace_jsonl",
]

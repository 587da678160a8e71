"""Per-layer host time, measured from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer (the
:data:`BOUNDARIES` table) for the duration of one traced run and
restores every original object afterwards. Nothing inside ``src/`` is
edited or instrumented: a wrapper replaces the attribute a caller looks
up — a class method, or the name a module bound at import time — so the
spans cover exactly the calls that cross that boundary.

Each call records one span: the boundary name, start and end on
``time.perf_counter``, the enclosing wrapped call as its parent, and
the request id when the call carries a request. A span's *self time*
is its duration minus the time covered by its children, so the self
times of all spans under a root sum to the root's duration.

A boundary whose target no longer exists (a later refactor may delete
or rename it) is skipped and reports zero calls; the benchmark keeps
running on the layers that remain.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time


def _request_id(args):
    return args[1].request_id


def _batch_size(args):
    return len(args[1].requests)


#: (layer metric name, module, attribute path in that module,
#: request-id getter, per-call unit counter). Names repeat where one
#: boundary is reached through several bindings.
BOUNDARIES = (
    ("fleet.orchestrator.run", "repro.fleet.orchestrator",
     "FleetOrchestrator.run", None, None),
    ("fleet.router.route", "repro.fleet.router",
     "EnergyDeadlineRouting.route", _request_id, None),
    # The object ``EnergyDeadlineRouting.bulk_scorer`` returns.
    ("fleet.router.route", "repro.fleet.router",
     "_BulkEnergyScorer.route", _request_id, None),
    ("fleet.site.admit", "repro.fleet.site", "FleetSite.admit",
     _request_id, None),
    ("fleet.site.run_until", "repro.fleet.site", "FleetSite.run_until",
     None, None),
    ("fleet.site.estimate_request", "repro.fleet.site",
     "FleetSite.estimate_request", _request_id, None),
    ("fleet.site.finish", "repro.fleet.site", "FleetSite.finish",
     None, None),
    ("fleet.site.price_batch", "repro.fleet.site", "price_batch",
     None, None),
    ("cluster.simulator.run", "repro.cluster.simulator",
     "ClusterSimulator.run", None, None),
    ("cluster.simulator.run_until", "repro.cluster.simulator",
     "ClusterSimulator.run_until", None, None),
    ("cluster.simulator.finish", "repro.cluster.simulator",
     "ClusterSimulator.finish", None, None),
    ("cluster.replay.run_vectorized", "repro.cluster.simulator",
     "run_vectorized", None, None),
    ("cluster.batcher.plan_batches", "repro.cluster.replay",
     "plan_batches", None, None),
    ("cluster.accelerator.estimate", "repro.cluster.accelerator",
     "AcceleratorSim.estimate", None, None),
    ("energy.governor.next_placement", "repro.energy.governor",
     "EnergyGovernor.next_placement", None, None),
    ("energy.budget.commit", "repro.energy.budget", "EnergyBudget.commit",
     None, None),
    ("serving.server.price_batch", "repro.cluster.simulator",
     "price_batch", None, _batch_size),
    ("serving.server.price_batch", "repro.cluster.replay", "price_batch",
     None, _batch_size),
    ("core.engine.simulate_dataset", "repro.core.engine",
     "LatencyAwareEngine.simulate_dataset", None, None),
    ("dvfs.controller.plan_batch", "repro.dvfs.controller",
     "DvfsController.plan_batch", None, None),
    ("dvfs.controller.plan_batch_deadline", "repro.dvfs.controller",
     "DvfsController.plan_batch_deadline", None, None),
    ("telemetry.analysis.analyze", "repro.telemetry.analysis", "analyze",
     None, None),
    ("telemetry.analysis.hot_paths", "repro.telemetry.analysis",
     "hot_paths", None, None),
)

#: Every layer metric name, in table order, without repeats.
LAYER_NAMES = tuple(dict.fromkeys(b[0] for b in BOUNDARIES))


def _resolve(module_name, path):
    """(owner, attribute name) for ``path`` in ``module_name``, or None."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class LayerTracer:
    """Spans and per-boundary totals of one traced run."""

    def __init__(self):
        #: One ``[name, start_s, end_s, parent_index, request_id]`` per
        #: call, in call order; parent -1 marks a root.
        self.spans = []
        #: name -> [calls, self_s, total_s, units]
        self.stats = {}
        self._stack = []  # [span index, child seconds] per open call
        self._restore = []

    def wrap(self, name, fn, rid_of=None, units_of=None):
        """``fn`` with every call recorded as a span named ``name``."""
        spans = self.spans
        stack = self._stack
        cell = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0.0, parent[0] if parent else -1,
                    rid_of(args) if rid_of else None]
            frame = [len(spans), 0.0]
            spans.append(span)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                span[1] = start
                span[2] = end
                cell[0] += 1
                cell[1] += dur - frame[1]
                cell[2] += dur
                if units_of is not None:
                    cell[3] += units_of(args)
                if parent is not None:
                    parent[1] += dur

        return traced

    def install(self):
        """Wrap every resolvable boundary; returns the names skipped."""
        skipped = []
        for name, module, path, rid_of, units_of in BOUNDARIES:
            target = _resolve(module, path)
            if target is None:
                skipped.append(f"{module}:{path}")
                continue
            owner, attr = target
            raw = inspect.getattr_static(owner, attr)
            # An inherited method is wrapped on ``owner`` and restored by
            # deleting the wrapper again.
            owned = attr in vars(owner)
            setattr(owner, attr, self.wrap(name, raw, rid_of, units_of))
            self._restore.append((owner, attr, raw if owned else None))
        for name in LAYER_NAMES:
            self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        return skipped

    def uninstall(self):
        """Put every original object back, last wrapped first."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def write_jsonl(self, path):
        """One span per line, times in seconds relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, rid) in \
                    enumerate(self.spans):
                row = {"id": i, "name": name, "parent": parent,
                       "start_s": start - t0, "end_s": end - t0}
                if rid is not None:
                    row["request_id"] = rid
                f.write(json.dumps(row))
                f.write("\n")

"""Shared plumbing for the ``python -m repro.<pkg> --smoke`` gates.

Each package's ``__main__`` keeps its own gate, drivers and flags; what
they share lives here:

* :func:`check`, the one explicit smoke check;
* the reference fixtures the gates, benches, examples and tests replay:
  :func:`reference_workload`, :func:`reference_pool` and
  :func:`reference_fleet`;
* the telemetry gates' runs: :func:`run_cluster`,
  :func:`run_reference_fleet` and the :func:`canonical` report key;
* :func:`trace_registry`, the registry both trace-replay drivers build;
* the CLI skeleton: :func:`cli_parser` and :func:`run_cli`.

No package ``__init__`` imports this module, so importing the library
does not pull in the fixtures.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cluster import ClusterSimulator
from repro.config import GLUE_TASKS, HwConfig
from repro.errors import FleetError, ReproError
from repro.fleet import FleetAutoscaler, FleetOrchestrator, SiteConfig
from repro.serving import synthetic_registry, synthetic_traffic

#: The reference heterogeneous pool: one big device for tight SLOs, two
#: energy-optimal n=16 devices, one small low-power device.
REFERENCE_POOL = (32, 16, 16, 8)

#: The reference fleet: a close-by site with the big tight-SLO device,
#: a mid-distance energy-optimal site, and a far small site under a
#: power cap — the heterogeneous topology every fleet gate runs against.
REFERENCE_SITES = (
    ("edge-a", (32, 16), 2.0, None),
    ("edge-b", (16, 16), 5.0, None),
    ("edge-c", (16, 8), 8.0, 30.0),  # power-capped (mW over 100 ms)
)


def check(condition, message):
    """Raise ``ReproError("smoke check failed: ...")`` unless it holds.

    An explicit check, not an ``assert``: a smoke gate must still gate
    under ``python -O``, which strips assert statements.
    """
    if not condition:
        raise ReproError(f"smoke check failed: {message}")


def reference_workload(num_requests=400, n_sentences=64, seed=0):
    """Registry + mixed-SLO mixed-criticality trace for the gates."""
    registry = synthetic_registry(GLUE_TASKS, n=n_sentences, seed=seed)
    trace = synthetic_traffic(registry, num_requests, seed=seed,
                              mean_interarrival_ms=1.0,
                              modes=("base", "lai"))
    return registry, trace


def reference_pool():
    """Per-accelerator ``HwConfig``s of the reference pool."""
    return tuple(HwConfig(mac_vector_size=n) for n in REFERENCE_POOL)


def reference_fleet(num_sites=3, policy="energy"):
    """``SiteConfig``s of the reference fleet (cycled past 3 sites)."""
    if num_sites < 1:
        raise FleetError("num_sites must be >= 1")
    configs = []
    for i in range(num_sites):
        name, sizes, rtt_ms, cap_mw = REFERENCE_SITES[
            i % len(REFERENCE_SITES)]
        if i >= len(REFERENCE_SITES):
            name = f"{name}-{i // len(REFERENCE_SITES) + 1}"
        configs.append(SiteConfig(
            site_id=name,
            hw_configs=tuple(HwConfig(mac_vector_size=n) for n in sizes),
            rtt_ms=rtt_ms,
            policy=policy,
            energy_budget_mw=cap_mw,
            budget_window_ms=100.0,
            deadline_aware=True,
        ))
    return tuple(configs)


def trace_registry(trace, seed=0, error=ReproError):
    """Synthetic GLUE registry covering every sentence ``trace`` names.

    Real deployments would register trained artifacts instead. Raises
    ``error`` when the trace references a task outside the GLUE set.
    """
    unknown = sorted({r.task for r in trace} - set(GLUE_TASKS))
    if unknown:
        raise error(
            f"trace references unregistered task(s) {unknown}; "
            f"known tasks: {GLUE_TASKS}")
    n_sentences = max(r.sentence for r in trace) + 1
    return synthetic_registry(GLUE_TASKS, n=max(8, n_sentences),
                              seed=seed)


def canonical(report):
    """A report summary as sorted JSON, the bit-identity key."""
    return json.dumps(report.summary(), sort_keys=True)


def run_cluster(registry, trace, engine, tracer=None, metrics=None,
                monitor=None):
    """Replay ``trace`` on the ``"vector"`` or ``"event"`` core."""
    sim = ClusterSimulator(registry, num_accelerators=4,
                           policy="affinity", standby_timeout_ms=20.0,
                           tracer=tracer, metrics=metrics, monitor=monitor)
    report = sim.run(trace) if engine == "vector" else sim.run_events(trace)
    check(report.engine == engine, f"{engine}: {report.engine} core ran")
    return report


def run_reference_fleet(registry, trace, tracer=None, metrics=None,
                        monitor=None):
    """Energy-routed, autoscaled reference fleet run; returns the report."""
    fleet = FleetOrchestrator(registry, reference_fleet(), routing="energy",
                              autoscaler=FleetAutoscaler(), tracer=tracer,
                              metrics=metrics, monitor=monitor)
    return fleet.run(trace)


def cli_parser(prog, description, smoke_help):
    """The parser every gate CLI starts from: ``--smoke`` and ``--quiet``."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("--smoke", action="store_true", help=smoke_help)
    parser.add_argument("--quiet", action="store_true")
    return parser


def run_cli(parser, args, gate, body, asked=None, usage="--smoke"):
    """Run a gate CLI's ``body()`` and return its exit code.

    ``asked`` says whether the command line asked for anything (default:
    ``args.smoke``); when it did not, the parser exits with ``nothing to
    do; pass <usage>``. An ``AssertionError``, ``ReproError`` or
    ``OSError`` out of ``body`` prints ``RUN FAILED: ...`` on stderr and
    returns 1. A passing smoke run prints ``<gate> smoke: OK`` unless
    ``--quiet``.
    """
    if not (args.smoke if asked is None else asked):
        parser.error(f"nothing to do; pass {usage}")
    try:
        body()
    except (AssertionError, ReproError, OSError) as exc:
        print(f"RUN FAILED: {exc}", file=sys.stderr)
        return 1
    if args.smoke and not args.quiet:
        print(f"{gate} smoke: OK")
    return 0

"""Shared fixtures and plumbing for the benchmarks.

Each bench regenerates one table or figure of the paper and writes its
output (paper-style rows) to ``benchmarks/results/`` while also printing
it, so `pytest benchmarks/ --benchmark-only -s` shows the reproduction
next to the timing numbers.

The record-writing benches share one runner, :func:`run_bench`, which
documents the bench-module convention, and the helpers their gates and
timings use: :func:`require`, :func:`require_throughput_floor`,
:func:`load_baseline`, :func:`best_of` and :func:`peak_rss_mb`.
"""

import gc
import json
import os
import resource
import sys
import time

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

#: Paper Table 1 learned spans (used by the paper-scale hardware benches).
PAPER_SPANS = {
    "mnli": (20, 0, 0, 0, 0, 0, 36, 81, 0, 0, 0, 10),
    "qqp": (16, 0, 0, 0, 0, 0, 40, 75, 0, 0, 0, 2),
    "sst2": (31, 0, 0, 0, 0, 101, 14, 5, 0, 36, 0, 0),
    "qnli": (39, 0, 0, 0, 0, 105, 22, 19, 0, 51, 0, 0),
}

#: Paper Table 3 encoder sparsity per task.
PAPER_ENCODER_SPARSITY = {"mnli": 0.50, "qqp": 0.80, "sst2": 0.50,
                          "qnli": 0.60}


def emit(name, text):
    """Print a reproduction table and persist it under results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name + ".txt"), "w",
              encoding="utf-8") as f:
        f.write(text + "\n")
    print("\n" + text)


def require(condition, message):
    """Fail a bench gate with ``AssertionError(message)``.

    An explicit check, not an ``assert``: the gate must still fire under
    ``python -O``.
    """
    if not condition:
        raise AssertionError(message)


def peak_rss_mb():
    """Peak resident set size of this process, in MB."""
    # ru_maxrss is KB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def best_of(run, repeats=1, setup=None):
    """Best-of-``repeats`` wall clock; returns ``(seconds, result)``.

    Each round times ``run()``, or ``run(setup())`` when ``setup`` is
    given (``setup`` builds the simulator or fleet outside the timed
    window). ``result`` is the last round's. The runs are deterministic,
    so only the fastest reflects the code rather than the machine. The
    garbage collector runs before each round and stays off inside it: a
    cyclic-GC pass over the host process's heap (pytest holds a big one)
    lands arbitrarily inside short windows.
    """
    best = None
    for _ in range(repeats):
        args = () if setup is None else (setup(),)
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            result = run(*args)
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def require_throughput_floor(label, record, baseline, tolerance):
    """Fail when the 1M replay's req/s fell more than ``tolerance``.

    Compares ``record["replay_1m"]`` with the committed ``baseline``'s;
    no baseline, no floor.
    """
    if baseline is None:
        return
    base_rps = baseline["replay_1m"]["requests_per_second"]
    fresh_rps = record["replay_1m"]["requests_per_second"]
    floor = base_rps * (1.0 - tolerance)
    require(fresh_rps >= floor,
            f"{label} throughput regressed: {fresh_rps:,.0f} req/s "
            f"vs baseline {base_rps:,.0f} (floor {floor:,.0f})")


def load_baseline(path):
    """The committed JSON baseline at ``path``, or None if there is none."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def run_bench(module):
    """Run a record-writing bench module: its script and test entry.

    A bench module defines ``run_benchmark(seed=0)``, returning its JSON
    record; ``_check_gates(record)``, raising ``AssertionError`` on a
    violated gate; and ``_build_table(record)``. A *gated* bench also
    sets ``BASELINE_PATH``, its committed ``BENCH_<name>.json``
    perf-trajectory artifact. Its ``_check_gates(record, baseline)``
    then takes the committed record too (``None`` when none exists),
    and a passing record replaces it. ``bench_index.py`` relies on the
    same convention.

    The run loads the baseline, runs the bench and checks its gates, so
    a violation fails before anything is written. It then writes the
    record to ``results/<name>.json`` (``<name>`` is the file name
    without ``bench_``), and to the baseline for a gated bench, and
    emits the table.
    """
    name = os.path.basename(module.__file__)[len("bench_"):-len(".py")]
    baseline_path = getattr(module, "BASELINE_PATH", None)
    gate_args = (() if baseline_path is None
                 else (load_baseline(baseline_path),))
    record = module.run_benchmark()
    module._check_gates(record, *gate_args)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    paths = [os.path.join(RESULTS_DIR, name + ".json")]
    if baseline_path is not None:
        paths.append(baseline_path)
    for path in paths:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=2, sort_keys=True)
    emit(name, module._build_table(record))
    print("\nwrote " + ", ".join(paths))


@pytest.fixture(scope="session")
def artifacts():
    """Trained tiny-EdgeBERT models for all four tasks (cached on disk)."""
    from repro.core import load_all_artifacts

    return load_all_artifacts()


@pytest.fixture(scope="session")
def fault_trials():
    """Monte-Carlo trial count for the eNVM bench (env-overridable)."""
    return int(os.environ.get("REPRO_BENCH_FAULT_TRIALS", "8"))

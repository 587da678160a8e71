"""Perf-trajectory index: one machine-readable view of BENCH_*.json.

Each perf bench that gates a trajectory persists its committed
artifact as ``benchmarks/BENCH_<name>.json`` (the five benches in
:data:`GATED_BENCHES`). This script folds every such artifact into
``benchmarks/BENCH_index.json`` so tooling can read the whole
trajectory from one file — per artifact it records the source
file and the flattened scalar leaves (dotted keys), which is exactly
the set of numbers a trend plot or regression diff would want.

The index is deterministic: artifacts sort by name, keys sort within
each artifact, and no timestamps are stamped (the sim-clock rule —
artifacts change only when a bench reruns and commits new numbers).

``--check`` turns the index into a gatekeeper: every gated bench
(the modules in :data:`GATED_BENCHES`, which follow the gated-bench
convention documented on ``conftest.run_bench``) is re-run fresh and
its gates re-evaluated; any violation exits 1.
``--check --quick`` skips the fresh runs and instead re-evaluates each
committed baseline against its own absolute gates — a seconds-fast
parse-and-validate pass suited to tier-1 CI (a committed artifact that
violates its own gates, or a gated bench with no committed artifact,
still fails).

Run:  pytest benchmarks/bench_index.py -s
 or:  python benchmarks/bench_index.py [--check [--quick]]
"""

import argparse
import glob
import importlib
import json
import os
import sys

from conftest import RESULTS_DIR, emit, load_baseline
from repro.utils import format_table

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
INDEX_PATH = os.path.join(BENCH_DIR, "BENCH_index.json")

#: Committed artifact name -> bench module that gates it (a gated bench
#: in the sense of ``conftest.run_bench``).
GATED_BENCHES = {
    "replay": "bench_replay_engine",
    "replay_budget": "bench_replay_budget",
    "fleet_replay": "bench_fleet_replay",
    "telemetry": "bench_telemetry_overhead",
    "trace_analysis": "bench_trace_analysis",
}


def _flatten(value, prefix=""):
    """Yield (dotted_key, scalar) leaves of a JSON value, depth-first.

    Lists flatten by index; only scalar leaves (numbers, strings,
    booleans, null) are emitted — the index carries every measured
    number without guessing which ones matter.
    """
    if isinstance(value, dict):
        for key in sorted(value):
            dotted = f"{prefix}.{key}" if prefix else str(key)
            yield from _flatten(value[key], dotted)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{prefix}.{i}" if prefix
                                else str(i))
    else:
        yield prefix, value


def build_index():
    """Read every committed BENCH_*.json; return the index record."""
    artifacts = {}
    pattern = os.path.join(BENCH_DIR, "BENCH_*.json")
    for path in sorted(glob.glob(pattern)):
        if os.path.abspath(path) == INDEX_PATH:
            continue
        name = os.path.basename(path)[len("BENCH_"):-len(".json")]
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
        artifacts[name] = {
            "file": os.path.basename(path),
            "metrics": dict(_flatten(record)),
        }
    return {"artifacts": artifacts, "num_artifacts": len(artifacts)}


def _write_index(index):
    with open(INDEX_PATH, "w", encoding="utf-8") as f:
        json.dump(index, f, indent=2, sort_keys=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "bench_index.json"), "w",
              encoding="utf-8") as f:
        json.dump(index, f, indent=2, sort_keys=True)
    return INDEX_PATH


def _build_table(index):
    rows = [[name, entry["file"], str(len(entry["metrics"]))]
            for name, entry in sorted(index["artifacts"].items())]
    return format_table(
        ["Artifact", "File", "Scalar metrics"], rows,
        title=f"Perf-trajectory index — "
              f"{index['num_artifacts']} committed artifacts")


def check_gates(quick=False):
    """Re-evaluate every gated bench; return (rows, failures).

    ``quick`` checks each committed baseline against its own absolute
    gates without re-running anything (the baseline doubles as the
    fresh record, so regression floors compare it to itself and pass
    trivially — the absolute gates still bite). A missing baseline is
    a failure either way: a gated trajectory with no committed
    artifact is a broken trajectory.
    """
    rows, failures = [], []
    for name in sorted(GATED_BENCHES):
        module = importlib.import_module(GATED_BENCHES[name])
        baseline = load_baseline(module.BASELINE_PATH)
        if baseline is None:
            detail = f"missing {os.path.basename(module.BASELINE_PATH)}"
            rows.append([name, "FAIL", detail])
            failures.append(f"{name}: {detail}")
            continue
        try:
            record = baseline if quick else module.run_benchmark()
            module._check_gates(record, baseline)
        except AssertionError as exc:
            rows.append([name, "FAIL", str(exc)])
            failures.append(f"{name}: {exc}")
        else:
            rows.append([name, "ok",
                         "baseline gates hold" if quick
                         else "fresh run within gates"])
    return rows, failures


def _check_table(rows, quick):
    mode = "committed baselines" if quick else "fresh runs"
    return format_table(["Artifact", "Gates", "Detail"], rows,
                        title=f"Perf gates — {mode}")


def test_bench_index():
    index = build_index()
    # The trajectory must not read as empty: the replay and telemetry
    # benches both commit artifacts.
    assert index["num_artifacts"] >= 2
    for entry in index["artifacts"].values():
        assert entry["metrics"], f"{entry['file']} flattened to nothing"
    _write_index(index)
    emit("bench_index", _build_table(index))
    # Round-trip: the committed index re-reads to the built one.
    with open(INDEX_PATH, encoding="utf-8") as f:
        assert json.load(f) == index


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="fold committed BENCH_*.json artifacts into the "
                    "perf-trajectory index")
    parser.add_argument(
        "--check", action="store_true",
        help="re-run every gated bench and exit 1 if any committed "
             "gate is violated")
    parser.add_argument(
        "--quick", action="store_true",
        help="with --check: validate the committed baselines against "
             "their own gates without re-running the benches")
    args = parser.parse_args(argv)

    if args.check:
        rows, failures = check_gates(quick=args.quick)
        print(_check_table(rows, args.quick))
        if failures:
            print(f"\n{len(failures)} gate violation(s):",
                  file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"\nall {len(rows)} gated trajectories hold")
        return 0

    result = build_index()
    path = _write_index(result)
    print(_build_table(result))
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

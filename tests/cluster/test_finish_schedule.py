"""A batch's finish schedule, and what the vector core pays per batch.

``AcceleratorSim.begin`` turns the members' latencies into absolute
finish instants with a left-to-right running sum in plain floats, kept
as an ``array("d")``. It must stay bit-identical to
``now + swap + np.cumsum(latencies)`` (the float64 accumulation NumPy
does sequentially), both when called directly and through either
core's start path. The vector core's
per-batch path calls no NumPy on a batch's few members and computes no
pool-index class key: the NumPy window search and schedule run once per
former key, not once per batch.
"""

from array import array

import numpy as np
import pytest

import repro.cluster.pool as pool
from repro.cluster import ClusterSimulator, generate_diurnal_trace
from repro.cluster.accelerator import AcceleratorSim
from repro.serving import Request, synthetic_registry
from repro.serving.registry import SwitchCost

TASKS = ("sst2", "mnli", "qqp", "qnli")


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(TASKS, n=64, seed=0)


def numpy_schedule(now_ms, swap_ms, latencies):
    return now_ms + swap_ms + np.cumsum(
        np.asarray(latencies, dtype=np.float64))


def assert_bit_identical(run, expected):
    assert isinstance(run.finish_ms, array) and run.finish_ms.typecode == "d"
    assert run.finish_ms.tobytes() == expected.tobytes()
    assert run.end_ms == run.finish_ms[-1]
    assert np.float64(run.end_ms).tobytes() == expected[-1:].tobytes()


class _Pending:
    def __init__(self, task):
        self.task = task


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("seed", range(20))
def test_begin_matches_numpy_cumsum(seed, swap):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 257))
    latencies = rng.lognormal(0.0, 1.5, size=n).tolist()
    now_ms = float(rng.uniform(0.0, 1e7))
    accel = AcceleratorSim(0)
    accel.resident_task = "sst2" if swap else "mnli"
    cost = SwitchCost(latency_ns=float(rng.uniform(1e5, 3e6)),
                      energy_pj=5e8)
    run = accel.begin(_Pending("mnli"), [None] * n, latencies, now_ms, cost)
    assert (run.swap_ms > 0.0) is swap
    assert_bit_identical(run, numpy_schedule(now_ms, run.swap_ms,
                                             latencies))
    assert accel.busy_until_ms == run.end_ms


def shifted_trace(n, seed, offset_ms):
    """A bursty multi-task trace whose clock starts near ``offset_ms``.

    Dense bursts fill large batches; the quiet gaps between them leave
    windows of one or a few requests.
    """
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.0, 0.01, size=n)
    gaps[rng.random(n) < 0.004] = 60.0
    arrivals = offset_ms + np.cumsum(gaps)
    tasks = rng.choice(len(TASKS), size=n, p=(0.7, 0.1, 0.1, 0.1))
    return [Request(request_id=i, task=TASKS[tasks[i]],
                    sentence=int(rng.integers(64)), target_ms=50.0,
                    arrival_ms=float(at))
            for i, at in enumerate(arrivals)]


@pytest.mark.parametrize("core", ["vector", "event"])
def test_both_start_paths_match_numpy_cumsum(registry, monkeypatch, core):
    real_begin = AcceleratorSim.begin
    runs = []

    def begin(self, pending, results, latencies_ms, now_ms, swap_cost):
        run = real_begin(self, pending, results, latencies_ms, now_ms,
                         swap_cost)
        assert_bit_identical(run, numpy_schedule(now_ms, run.swap_ms,
                                                 latencies_ms))
        runs.append(run)
        return run

    monkeypatch.setattr(AcceleratorSim, "begin", begin)
    trace = shifted_trace(2000, 7, 1e7 - 500.0)
    sim = ClusterSimulator(registry, num_accelerators=2, policy="fifo",
                           max_batch_size=256, batch_timeout_ms=20.0)
    report = sim.run(trace) if core == "vector" else sim.run_events(trace)
    assert report.engine == core
    sizes = [len(run.finish_ms) for run in runs]
    assert len(runs) == report.num_batches
    assert min(sizes) == 1 and max(sizes) == 256
    assert any(run.swap_ms > 0.0 for run in runs)
    assert any(run.swap_ms == 0.0 for run in runs)
    assert min(run.start_ms for run in runs) > 1e7 - 500.0
    completions = {rec.request.request_id: rec.completion_ms
                   for rec in report.records}
    assert len(completions) == len(trace)
    assert max(completions.values()) == report.makespan_ms


def test_budgeted_fifo_replay_pays_per_key_not_per_batch(registry,
                                                         monkeypatch):
    counts = {"searchsorted": 0, "cumsum": 0, "class_key": 0}

    def counting(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    trace = generate_diurnal_trace(4000, seed=3, tasks=TASKS,
                                   n_sentences=64,
                                   mean_interarrival_ms=0.25)
    sim = ClusterSimulator(registry, num_accelerators=16, policy="fifo",
                           energy_budget_mw=150.0)
    monkeypatch.setattr(np, "searchsorted",
                        counting("searchsorted", np.searchsorted))
    monkeypatch.setattr(np, "cumsum", counting("cumsum", np.cumsum))
    monkeypatch.setattr(pool, "class_key",
                        counting("class_key", pool.class_key))
    report = sim.run(trace)
    monkeypatch.undo()
    keys = len({(r.task, r.target_ms, r.mode) for r in trace})
    assert report.engine == "vector"
    assert report.budget.throttle_events > 0
    assert report.num_batches > 10 * keys
    assert counts["class_key"] == 0
    # One window search per key, plus the intake's two key-range
    # searches; no schedule cumsum per batch.
    assert counts["searchsorted"] <= keys + 2, counts
    assert counts["cumsum"] <= keys, counts

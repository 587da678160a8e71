"""The batch-forming layer: limits, and the offline window scan.

``plan_batches`` is the vector core's static-trigger former scan: one
``searchsorted`` per key over the whole arrival column. It must close
exactly the windows a :class:`BatchFormer` closes when fed the same
arrivals one event at a time, with the event loop's tie rule (an
arrival at the very instant the timer fires joins the window first).
The batch-size limit and every time the layer takes are checked up
front: an integer size >= 1, and finite non-negative times.
"""

import math

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, plan_batches
from repro.cluster.batcher import AdaptiveTimeout, BatchFormer
from repro.errors import ClusterError, SiteConfigError
from repro.fleet import FleetOrchestrator, SiteConfig
from repro.serving import synthetic_registry

KEY = ("sst2", 50.0, "lai")


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(("sst2",), n=8, seed=0)


BAD_LIMITS = {
    "sim-size-nan": lambda reg: ClusterSimulator(
        reg, max_batch_size=math.nan),
    "sim-size-inf": lambda reg: ClusterSimulator(
        reg, max_batch_size=math.inf),
    "sim-size-fraction": lambda reg: ClusterSimulator(
        reg, max_batch_size=2.5),
    "plan-timeout-nan": lambda reg: plan_batches(
        [0.0, 1.0, 2.0, 30.0], 32, math.nan),
    "plan-timeout-inf": lambda reg: plan_batches(
        [0.0, 1.0, 2.0, 30.0], 32, math.inf),
    "plan-size-fraction": lambda reg: plan_batches([0.0, 1.0], 1.5, 5.0),
    "former-timeout-nan": lambda reg: BatchFormer(KEY, timeout_ms=math.nan),
    "former-size-inf": lambda reg: BatchFormer(KEY,
                                               max_batch_size=math.inf),
    "adaptive-base-nan": lambda reg: AdaptiveTimeout(base_ms=math.nan,
                                                     target_ms=50.0),
    "adaptive-floor-nan": lambda reg: AdaptiveTimeout(
        base_ms=5.0, target_ms=50.0, floor_ms=math.nan),
    "adaptive-floor-inf": lambda reg: AdaptiveTimeout(
        base_ms=5.0, target_ms=50.0, floor_ms=math.inf),
    "adaptive-gain-nan": lambda reg: AdaptiveTimeout(
        base_ms=5.0, target_ms=50.0, gain=math.nan),
    "adaptive-target-inf": lambda reg: AdaptiveTimeout(
        base_ms=5.0, target_ms=math.inf),
}


@pytest.mark.parametrize("build", list(BAD_LIMITS.values()),
                         ids=list(BAD_LIMITS))
def test_bad_limits_raise_cluster_error(registry, build):
    with pytest.raises(ClusterError,
                       match="max_batch_size must be an integer|finite"):
        build(registry)


def test_bad_site_batch_size_names_the_site(registry):
    with pytest.raises(SiteConfigError,
                       match="site 'edge-x': max_batch_size must be an "
                             "integer >= 1, got nan"):
        FleetOrchestrator(registry, [SiteConfig("edge-x",
                                                max_batch_size=math.nan)])


def test_integer_limits_still_accepted(registry):
    assert ClusterSimulator(registry,
                            max_batch_size=np.int64(4)).max_batch_size == 4
    assert BatchFormer(KEY, max_batch_size=1, timeout_ms=0).timeout_ms == 0.0
    assert AdaptiveTimeout(base_ms=0, target_ms=50.0).timeout_ms == 0.25


def former_windows(times, max_batch_size, timeout_ms):
    """The windows a real :class:`BatchFormer` closes, one event at a time.

    Member ``i`` arrives at ``times[i]``; the armed timer fires before an
    arrival only when its instant is strictly earlier (an arrival at the
    timer's instant carries the smaller event seq and joins first).
    Returns ``(start, end, by_size)`` slices, as ``plan_batches`` does.
    """
    former = BatchFormer(KEY, max_batch_size=max_batch_size,
                         timeout_ms=timeout_ms)
    windows = []
    timer = None  # (deadline, generation) of the armed timeout

    def record(members, by_size):
        windows.append((members[0], members[-1] + 1, by_size))

    for i, at in enumerate(times):
        if timer is not None and timer[0] < at:
            closed = former.on_timeout(timer[1], timer[0])
            if closed is not None:
                record(closed, False)
            timer = None
        was_open = former.is_open
        closed = former.add(i, at)
        if closed is not None:
            record(closed, True)
            timer = None
        elif not was_open:
            timer = (former.timeout_deadline_ms(), former.generation)
    if timer is not None:
        closed = former.on_timeout(timer[1], timer[0])
        if closed is not None:
            record(closed, False)
    return windows


def arrival_columns(seed):
    """Sorted arrival columns with repeated instants and exact ties.

    Half the draws sit on a 0.25 ms grid, so ``t + timeout_ms`` lands
    exactly on later arrivals; the rest are arbitrary floats, whose
    ``t + timeout_ms`` rounds the way the former's own add does.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    if seed % 2:
        gaps = rng.integers(0, 9, size=n) * 0.25
    else:
        gaps = rng.exponential(rng.uniform(0.1, 4.0), size=n)
        gaps[rng.random(n) < 0.2] = 0.0  # repeated instants
    return (float(rng.uniform(0.0, 1e6)) + np.cumsum(gaps)).tolist()


@pytest.mark.parametrize("max_batch_size", [1, 2, 32])
@pytest.mark.parametrize("timeout_ms", [0.0, 0.75, 5.0, 3.3])
@pytest.mark.parametrize("seed", range(8))
def test_plan_matches_per_arrival_former(seed, timeout_ms, max_batch_size):
    times = arrival_columns(seed)
    plan = plan_batches(np.asarray(times), max_batch_size, timeout_ms)
    assert plan == former_windows(times, max_batch_size, timeout_ms)
    # The windows tile the key's members in order.
    assert [w[0] for w in plan] == [0] + [w[1] for w in plan[:-1]]
    assert plan[-1][1] == len(times)


def test_plan_ties_at_the_timer_instant():
    # 5.0 arrives exactly when the first window's 5 ms timer fires and
    # joins it; 10.25 misses the second window's timer at 10.0.
    times = [0.0, 0.0, 5.0, 5.0, 10.25]
    assert plan_batches(times, 32, 5.0) == [(0, 4, False), (4, 5, False)]
    assert former_windows(times, 32, 5.0) == [(0, 4, False),
                                              (4, 5, False)]
    # The size trigger wins at the tie instant and the timer fires
    # stale; the second 5.0 opens a window whose timer misses 10.25.
    sized = [(0, 3, True), (3, 4, False), (4, 5, False)]
    assert plan_batches(times, 3, 5.0) == sized
    assert former_windows(times, 3, 5.0) == sized
    # A zero timeout still gathers the arrivals of its opening instant.
    assert plan_batches(times, 32, 0.0) == [(0, 2, False), (2, 4, False),
                                            (4, 5, False)]

"""Event-loop and batch-former unit tests: ordering, staleness, triggers."""

import pytest

from repro.cluster import (
    Arrival,
    BatchFormer,
    BatchTimeout,
    EventLoop,
)
from repro.errors import ClusterError
from repro.serving import Request


def req(i, task="sst2", sentence=0, target_ms=50.0, arrival_ms=0.0,
        mode=None):
    return Request(request_id=i, task=task, sentence=sentence,
                   target_ms=target_ms, arrival_ms=arrival_ms, mode=mode)


class TestEventLoop:
    def test_fires_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.on(Arrival, lambda ev: fired.append(ev.request.request_id))
        loop.schedule(5.0, Arrival(req(1)))
        loop.schedule(1.0, Arrival(req(0)))
        loop.schedule(9.0, Arrival(req(2)))
        assert loop.drain_until() == 3
        assert fired == [0, 1, 2]
        assert loop.now_ms == 9.0

    def test_same_time_fires_in_schedule_order(self):
        loop = EventLoop()
        fired = []
        loop.on(Arrival, lambda ev: fired.append(ev.request.request_id))
        for i in (3, 1, 2):
            loop.schedule(4.0, Arrival(req(i)))
        loop.drain_until()
        assert fired == [3, 1, 2]  # seq breaks the tie, not request id

    def test_handlers_can_schedule_future_events(self):
        loop = EventLoop()
        fired = []

        def chain(ev):
            fired.append(loop.now_ms)
            if len(fired) < 3:
                loop.schedule(loop.now_ms + 10.0, Arrival(ev.request))

        loop.on(Arrival, chain)
        loop.schedule(0.0, Arrival(req(0)))
        loop.drain_until()
        assert fired == [0.0, 10.0, 20.0]

    def test_scheduling_in_the_past_raises(self):
        loop = EventLoop()
        loop.on(Arrival, lambda ev: None)
        loop.schedule(5.0, Arrival(req(0)))
        loop.drain_until()
        with pytest.raises(ClusterError):
            loop.schedule(1.0, Arrival(req(1)))

    def test_missing_handler_raises(self):
        loop = EventLoop()
        loop.schedule(0.0, Arrival(req(0)))
        with pytest.raises(ClusterError):
            loop.drain_until()

    def test_runaway_guard(self):
        loop = EventLoop()
        loop.on(Arrival,
                lambda ev: loop.schedule(loop.now_ms + 1.0, Arrival(req(0))))
        loop.schedule(0.0, Arrival(req(0)))
        with pytest.raises(ClusterError):
            loop.drain_until(max_events=100)


class TestBatchFormer:
    KEY = ("sst2", 50.0, "lai")

    def test_size_trigger_closes_immediately(self):
        former = BatchFormer(self.KEY, max_batch_size=3, timeout_ms=5.0)
        assert former.add(req(0), 0.0) is None
        assert former.add(req(1), 1.0) is None
        closed = former.add(req(2), 2.0)
        assert [r.request_id for r in closed] == [0, 1, 2]
        assert not former.is_open

    def test_timeout_trigger_closes_partial_window(self):
        former = BatchFormer(self.KEY, max_batch_size=100, timeout_ms=5.0)
        former.add(req(0), 10.0)
        generation = former.generation
        assert former.timeout_deadline_ms() == 15.0
        closed = former.on_timeout(generation, 15.0)
        assert [r.request_id for r in closed] == [0]

    def test_stale_timeout_is_ignored(self):
        former = BatchFormer(self.KEY, max_batch_size=2, timeout_ms=5.0)
        former.add(req(0), 0.0)
        stale = former.generation
        former.add(req(1), 1.0)  # closes by size, bumps generation
        former.add(req(2), 2.0)  # reopens: new window, new generation
        assert former.on_timeout(stale, 5.0) is None
        assert len(former) == 1  # the new window is untouched

    def test_pending_batch_carries_earliest_deadline(self):
        former = BatchFormer(self.KEY, max_batch_size=2, timeout_ms=5.0)
        former.add(req(0, arrival_ms=10.0), 10.0)
        closed = former.add(req(1, arrival_ms=12.0), 12.0)
        pending = former.make_pending(closed, 12.0, seq=0)
        assert pending.deadline_ms == 60.0  # min(10, 12) + 50
        assert pending.task == "sst2"
        assert pending.mode == "lai"
        assert len(pending) == 2

    def test_invalid_parameters(self):
        with pytest.raises(ClusterError):
            BatchFormer(self.KEY, max_batch_size=0)
        with pytest.raises(ClusterError):
            BatchFormer(self.KEY, timeout_ms=-1.0)

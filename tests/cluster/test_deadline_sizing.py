"""Deadline-aware batch sizing: the early-close trigger and its payoff."""

import pytest

from repro.cluster import BatchFormer, ClusterSimulator
from repro.config import GLUE_TASKS, HwConfig
from repro.errors import ClusterError
from repro.serving import Batch, Request, price_batch, synthetic_registry


def request(i, target_ms=100.0, arrival_ms=0.0):
    return Request(request_id=i, task="t", sentence=i,
                   target_ms=target_ms, arrival_ms=arrival_ms, mode="lai")


def former(work_ms, slack_share=0.8, max_batch_size=32):
    return BatchFormer(("t", 100.0, "lai"),
                       max_batch_size=max_batch_size, timeout_ms=50.0,
                       work_estimator=lambda req: work_ms,
                       sizing_slack_share=slack_share)


class TestEarlyCloseTrigger:
    def test_closes_when_planned_work_approaches_slack(self):
        f = former(work_ms=15.0)  # slack 100 ms, close at >= 80 planned
        closed = None
        for i in range(10):
            closed = f.add(request(i), now_ms=0.0)
            if closed is not None:
                break
        # 15 * 6 = 90 >= 0.8 * 100 and still <= 100: closes at 6.
        assert closed is not None and len(closed) == 6
        assert f.deadline_closes == 1

    def test_oversized_arrival_pre_closes_the_fitting_members(self):
        """One coarse-grained arrival that would blow the budget must
        not drag the whole window into fallback: the fitting members
        close first and the newcomer opens a fresh window."""
        work = iter([30.0, 30.0, 50.0])  # slack 100; third blows it
        f = BatchFormer(("t", 100.0, "lai"), max_batch_size=32,
                        timeout_ms=50.0,
                        work_estimator=lambda req: next(work))
        assert f.add(request(0), 0.0) is None
        assert f.add(request(1), 0.0) is None
        closed = f.add(request(2), 0.0)  # 60 + 50 > 100, but 60 <= 100
        assert closed is not None and len(closed) == 2
        assert f.deadline_closes == 1
        # The oversized newcomer opened a fresh window of its own.
        assert f.is_open and len(f) == 1

    def test_blown_window_does_not_close_early(self):
        # Each member alone overruns the slack: the early close cannot
        # rescue a deadline plan that never existed, so only size or
        # timeout close the window.
        f = former(work_ms=200.0, max_batch_size=4)
        assert f.add(request(0), 0.0) is None
        assert f.add(request(1), 0.0) is None
        assert f.add(request(2), 0.0) is None
        closed = f.add(request(3), 0.0)  # the size trigger
        assert closed is not None and len(closed) == 4
        assert f.deadline_closes == 0

    def test_never_closes_a_singleton_early(self):
        f = former(work_ms=90.0)  # one member is already at 90% slack
        assert f.add(request(0), 0.0) is None
        assert f.deadline_closes == 0

    def test_no_estimator_keeps_size_and_timeout_behavior(self):
        f = BatchFormer(("t", 100.0, "lai"), max_batch_size=4,
                        timeout_ms=5.0)
        for i in range(3):
            assert f.add(request(i), 0.0) is None
        assert len(f.add(request(3), 0.0)) == 4

    def test_slack_measured_from_now_not_window_open(self):
        g = former(work_ms=20.0)
        g.add(request(0, target_ms=100.0, arrival_ms=0.0), now_ms=0.0)
        closed = g.add(request(1, target_ms=100.0, arrival_ms=0.0),
                       now_ms=50.0)
        # The earliest member has 50 ms left by the second arrival:
        # planned 40 >= 0.8 * 50 — the trigger fires on *remaining*
        # slack, not the slack the window opened with.
        assert closed is not None and len(closed) == 2

    def test_bad_slack_share_raises(self):
        with pytest.raises(ClusterError):
            BatchFormer(("t", 100.0, "lai"), sizing_slack_share=0.0)
        with pytest.raises(ClusterError):
            BatchFormer(("t", 100.0, "lai"), sizing_slack_share=1.5)


class TestSimulatorIntegration:
    @pytest.fixture(scope="class")
    def registry(self):
        return synthetic_registry(GLUE_TASKS[:1], n=64, seed=0)

    def workload(self, registry, target_ms=150.0):
        return [Request(request_id=i, task=registry.tasks[0],
                        sentence=i % 64, target_ms=target_ms,
                        arrival_ms=0.1 * i, mode="lai")
                for i in range(48)]

    def run(self, registry, sizing):
        sim = ClusterSimulator(registry, num_accelerators=2,
                               policy="fifo", max_batch_size=48,
                               batch_timeout_ms=10.0,
                               deadline_aware=True,
                               deadline_sizing=sizing)
        report = sim.run(self.workload(registry))
        closes = sum(f.deadline_closes for f in sim._formers.values())
        return report, closes

    def test_sizing_keeps_deadline_path_savings(self, registry):
        """The satellite's claim end-to-end: without sizing, the big
        relaxed window outgrows its earliest member's slack and falls
        back to per-sentence sprinting (violations + nominal-front
        energy); with sizing the windows close early, stay deadline-
        plannable, and the same trace gets cheaper AND misses less."""
        baseline, baseline_closes = self.run(registry, sizing=False)
        sized, sized_closes = self.run(registry, sizing=True)
        assert baseline_closes == 0
        assert sized_closes > 0
        assert sized.num_batches > baseline.num_batches
        assert sized.deadline_violations < baseline.deadline_violations
        assert sized.serving.total_energy_mj \
            < baseline.serving.total_energy_mj

    def test_sizing_requires_deadline_aware(self, registry):
        with pytest.raises(ClusterError):
            ClusterSimulator(registry, deadline_sizing=True)

    def test_sizing_only_arms_lai_formers(self, registry):
        sim = ClusterSimulator(registry, num_accelerators=2,
                               policy="fifo", deadline_aware=True,
                               deadline_sizing=True)
        trace = [Request(request_id=i, task=registry.tasks[0],
                         sentence=i, target_ms=150.0,
                         arrival_ms=float(i),
                         mode="base" if i % 2 else "lai")
                 for i in range(8)]
        sim.run(trace)
        for key, f in sim._formers.items():
            if key[2] == "lai":
                assert f.work_estimator is not None
            else:
                assert f.work_estimator is None

    def test_estimates_are_singleton_prices(self, registry):
        """Each estimate is its sentence's latency priced alone — on the
        registry's default hardware even in a heterogeneous pool."""
        sim = ClusterSimulator(registry, policy="fifo",
                               hw_configs=(HwConfig(mac_vector_size=8),
                                           HwConfig(mac_vector_size=32)),
                               deadline_aware=True, deadline_sizing=True)
        sim.start()
        task = registry.tasks[0]
        profile = registry.profile(task)
        for target_ms in (0.5, 3.0, 150.0):
            estimate = sim._work_estimator((task, target_ms, "lai"))
            for sentence in range(profile.num_sentences):
                member = Request(request_id=sentence, task=task,
                                 sentence=sentence, target_ms=target_ms,
                                 mode="lai")
                alone = price_batch(profile, Batch(
                    task=task, target_ms=target_ms, requests=(member,)),
                    "lai")
                assert estimate(member) == alone.results[0].latency_ms

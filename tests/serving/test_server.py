"""End-to-end server tests: submission, pricing, SLO accounting, smoke."""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import (
    Scheduler,
    Server,
    synthetic_registry,
    synthetic_traffic,
)
from repro.serving.__main__ import run_smoke

TASKS = ("sst2", "mnli")


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(TASKS, n=64, seed=0)


@pytest.fixture(scope="module")
def report(registry):
    server = Server(registry, mode="lai")
    server.submit_many(synthetic_traffic(registry, 80, seed=2))
    return server.run()


class TestServer:
    def test_every_request_gets_a_result(self, registry, report):
        assert report.num_requests == 80
        served = sorted(r.request.request_id for r in report.results)
        assert served == list(range(80))

    def test_results_match_direct_engine_pricing(self, registry, report):
        # A served request's row equals pricing that sentence directly.
        row = report.results[0]
        profile = registry.profile(row.request.task)
        idx = np.array([row.request.sentence])
        direct = profile.engine.simulate_dataset(
            "lai", profile.logits[:, idx], profile.entropies[:, idx],
            lut=profile.lut, entropy_threshold=profile.entropy_threshold,
            target_ms=row.request.target_ms)
        expected = direct.results[0]
        assert row.result.exit_layer == expected.exit_layer
        assert row.result.energy_mj == pytest.approx(expected.energy_mj,
                                                     abs=1e-12)

    def test_aggregates_are_consistent(self, report):
        assert report.num_batches >= len(TASKS)
        assert report.task_switches == len(TASKS)  # one run per task
        assert report.total_energy_mj > report.switch_energy_mj > 0
        assert report.simulated_sentences_per_s > 0
        assert report.pricing_sentences_per_s > 0
        per_task = report.per_task()
        assert sum(s["requests"] for s in per_task.values()) == 80

    def test_result_lookup_by_id(self, report):
        result = report.result_for(report.results[5].request.request_id)
        assert result is report.results[5].result

    def test_missing_id_raises(self, report):
        with pytest.raises(ServingError):
            report.result_for(10_000)

    def test_base_mode_runs_full_depth(self, registry):
        server = Server(registry, mode="base")
        server.submit(task="sst2", sentence=0)
        server.submit(task="sst2", sentence=1)
        result = server.run()
        assert all(r.result.exit_layer == 12 for r in result.results)
        assert result.slo_violations == 0

    def test_auto_ids_never_collide_with_external_ids(self, registry):
        from repro.serving import Request
        server = Server(registry, mode="base")
        server.submit(Request(request_id=7, task="sst2", sentence=0,
                              target_ms=50.0))
        auto = server.submit(task="sst2", sentence=1)
        assert auto.request_id == 8
        with pytest.raises(ServingError):
            server.submit(Request(request_id=7, task="sst2", sentence=2,
                                  target_ms=50.0))
        report = server.run()
        assert report.result_for(7) is not report.result_for(8)
        # The id space resets with the drained queue.
        server.submit(Request(request_id=7, task="sst2", sentence=3,
                              target_ms=50.0))

    def test_submit_validates_task_and_sentence(self, registry):
        server = Server(registry)
        with pytest.raises(ServingError):
            server.submit(task="warp", sentence=0)
        with pytest.raises(ServingError):
            server.submit(task="sst2", sentence=10_000)

    def test_lai_mode_requires_lut_at_submission(self):
        local = synthetic_registry(("sst2",), n=8, seed=0)
        local.profile("sst2").lut = None
        server = Server(local, mode="lai")
        with pytest.raises(ServingError):
            server.submit(task="sst2", sentence=0)
        # base mode never consults the LUT and still serves.
        base = Server(local, mode="base")
        base.submit(task="sst2", sentence=0)
        assert base.run().num_requests == 1

    def test_submit_many_is_atomic(self, registry):
        from repro.serving import Request
        server = Server(registry)
        trace = [Request(request_id=i, task="sst2", sentence=i,
                         target_ms=50.0) for i in range(3)]
        trace.append(Request(request_id=3, task="sst2", sentence=10_000,
                             target_ms=50.0))
        with pytest.raises(ServingError):
            server.submit_many(trace)
        assert server.pending == 0
        trace[-1] = Request(request_id=3, task="sst2", sentence=3,
                            target_ms=50.0)
        assert server.submit_many(trace) == 4

    def test_profile_depth_mismatch_rejected_at_registration(self):
        from repro.serving import TaskProfile, synthetic_layer_outputs
        deep = synthetic_registry(("sst2",), n=8, seed=0)
        profile = deep.profile("sst2")
        logits, entropies, _ = synthetic_layer_outputs(8, num_layers=6)
        with pytest.raises(ServingError):
            TaskProfile(task="qqp", engine=profile.engine, logits=logits,
                        entropies=entropies, lut=profile.lut,
                        entropy_threshold=0.25)

    @pytest.mark.parametrize("field, value, message", [
        ("arrival_ms", float("nan"), "arrival_ms must be finite"),
        ("arrival_ms", float("inf"), "arrival_ms must be finite"),
        ("arrival_ms", float("-inf"), "arrival_ms must be finite"),
        ("target_ms", float("nan"), "target_ms must be positive"),
    ])
    def test_request_rejects_non_finite_times(self, field, value,
                                              message):
        from repro.serving import Request
        fields = {"request_id": 0, "task": "sst2", "sentence": 0,
                  "target_ms": 50.0, field: value}
        with pytest.raises(ServingError, match=message):
            Request(**fields)

    @pytest.mark.parametrize("mean_interarrival_ms", [
        -1.0, float("nan"), float("inf")])
    def test_synthetic_traffic_rejects_bad_interarrival(
            self, registry, mean_interarrival_ms):
        with pytest.raises(ServingError, match="mean_interarrival_ms"):
            synthetic_traffic(registry, 4,
                              mean_interarrival_ms=mean_interarrival_ms)

    def test_run_empty_queue_raises(self, registry):
        with pytest.raises(ServingError):
            Server(registry).run()

    def test_unknown_mode_raises(self, registry):
        with pytest.raises(ServingError):
            Server(registry, mode="warp")


class TestSloAccounting:
    def test_tight_targets_are_counted_not_hidden(self):
        # A target far below the front-end latency is infeasible for
        # never-exiting sentences; those must surface as violations.
        local = synthetic_registry(("sst2",), n=8, seed=0)
        profile = local.profile("sst2")
        profile.entropies[:] = 0.7  # entropy never crosses the threshold
        front_end_ms = (profile.engine._embed_nominal.time_ns
                        + profile.engine._layer_nominal.time_ns) * 1e-6
        server = Server(local, mode="lai")
        for i in range(4):
            server.submit(task="sst2", sentence=i,
                          target_ms=front_end_ms * 0.5)
        report = server.run()
        assert report.slo_violations == 4

    def test_base_mode_judges_slo_against_target(self, registry):
        # The engine's base mode has no target concept; the server must
        # still count a full-depth inference that overruns the SLO.
        profile = registry.profile("sst2")
        full_depth_ms = (profile.engine._embed_nominal.time_ns
                         + 12 * profile.engine._layer_nominal.time_ns) * 1e-6
        server = Server(registry, mode="base")
        server.submit(task="sst2", sentence=0, target_ms=full_depth_ms * 0.5)
        server.submit(task="sst2", sentence=1, target_ms=full_depth_ms * 2.0)
        report = server.run()
        assert report.slo_violations == 1

    def test_relaxed_targets_have_no_violations(self, registry):
        server = Server(registry, mode="lai")
        for i in range(8):
            server.submit(task="mnli", sentence=i, target_ms=1000.0)
        assert server.run().slo_violations == 0


class TestScalarVectorizedParity:
    def test_server_paths_agree(self, registry):
        trace = synthetic_traffic(registry, 40, seed=5)
        reports = {}
        for vectorized in (True, False):
            server = Server(registry, mode="lai", vectorized=vectorized,
                            scheduler=Scheduler(max_batch_size=16))
            server.submit_many(trace)
            reports[vectorized] = server.run()
        for a, b in zip(reports[True].results, reports[False].results):
            assert a.request.request_id == b.request.request_id
            assert a.result.exit_layer == b.result.exit_layer
            assert abs(a.result.energy_mj - b.result.energy_mj) <= 1e-9
            assert abs(a.result.latency_ms - b.result.latency_ms) <= 1e-9


def test_smoke_target():
    run_smoke(num_requests=40, n_sentences=32, verbose=False)

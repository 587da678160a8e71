"""Smoke test of the end-to-end benchmark: all workloads at ~300 requests.

Runs every workload in this process, untraced and traced, and checks
that the benchmark reports exactly the metrics ``BENCHMARK.json``
declares, that every correctness check passes, and that the traced run
leaves every wrapped function exactly as it found it.
"""

import inspect
import json
import os

import layertrace
import run as bench

BENCHMARK_JSON = os.path.join(bench.ROOT, "BENCHMARK.json")


def _bound_objects():
    """(owner, attribute, object) for every resolvable boundary."""
    found = []
    for _, module, path, _, _ in layertrace.BOUNDARIES:
        target = layertrace._resolve(module, path)
        if target is not None:
            owner, attr = target
            found.append((owner, attr, inspect.getattr_static(owner, attr)))
    return found


def test_all_workloads_report_declared_metrics_and_pass_checks():
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == {n: u for n, u, _ in bench.END_TO_END}
    assert {m["name"]: m["better"] for m in spec["end_to_end"]} \
        == {n: b for n, _, b in bench.END_TO_END}
    assert declared_layer == bench.PER_LAYER

    before = _bound_objects()
    assert len(before) == len(layertrace.BOUNDARIES)
    calls = {}
    for name, workload in bench.WORKLOADS.items():
        n = workload.quick_requests
        untraced = bench.run_once(name, 0, n)
        traced = bench.run_once(name, 0, n, traced=True)
        record = bench.aggregate(name, 0, n, [untraced], traced)
        assert record["errors"] == []
        assert record["correct"], record["checks"]
        assert record["failed"] == 0
        assert record["failed_share"] == 0.0
        assert record["checks"]["digest_identical"]
        e2e = bench._metric_entries(record, trace=False)
        layer = bench._metric_entries(record, trace=True)
        assert {k: v["unit"] for k, v in e2e.items()} == declared_e2e
        assert {k: v["unit"] for k, v in layer.items()} == declared_layer
        assert all(v["value"] > 0 for v in e2e.values()), e2e
        calls[name] = {k: v[0] for k, v in record["layers"].items()}
    assert _bound_objects() == before

    # Each workload exercises its own layers and bypasses the others'.
    assert calls["fleet_flagship"]["energy.governor.next_placement"] > 0
    assert calls["fleet_flagship"]["dvfs.controller.plan_batch_deadline"] > 0
    assert calls["fleet_wide"]["fleet.router.route"] >= n
    assert calls["fleet_wide"]["energy.governor.next_placement"] == 0
    assert calls["cluster_budget"]["energy.budget.commit"] > 0
    assert calls["cluster_budget"]["fleet.router.route"] == 0
    assert calls["cluster_traced"]["telemetry.analysis.analyze"] == 1
    assert calls["cluster_budget"]["telemetry.analysis.analyze"] == 0

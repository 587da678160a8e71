"""Scalar-vs-vectorized equivalence for the batch pricing kernels.

The vectorized `simulate_dataset` path must reproduce the scalar
reference loop's per-sentence `SentenceResult` rows to 1e-9 across all
three modes — including the sparse/adaptive-span engine variant and the
DVFS corner cases (blown budgets, infeasible requests, layer-1 exits).
"""

import dataclasses

import numpy as np
import pytest

from repro.config import HwConfig, ModelConfig
from repro.core import LatencyAwareEngine
from repro.dvfs import DvfsController
from repro.earlyexit import (
    ExitPredictorLUT,
    bounded_exit_layers,
    true_exit_layers,
)
from repro.serving import synthetic_layer_outputs

CONFIG = ModelConfig.albert_base()
MNLI_SPANS = np.array([20, 0, 0, 0, 0, 0, 36, 81, 0, 0, 0, 10], dtype=float)
THRESHOLD = 0.25
EXACT_FIELDS = ("exit_layer", "predicted_layer", "prediction", "met_target")
CLOSE_FIELDS = ("latency_ms", "energy_mj", "vdd", "freq_ghz")


@pytest.fixture(scope="module")
def engine():
    return LatencyAwareEngine(CONFIG, HwConfig(mac_vector_size=16))


@pytest.fixture(scope="module")
def data():
    return synthetic_layer_outputs(60, num_layers=12, num_classes=2, seed=3)


@pytest.fixture(scope="module")
def lut(data):
    _, entropies, _ = data
    exits = true_exit_layers(entropies, THRESHOLD)
    return ExitPredictorLUT.from_samples(entropies[0], exits, 2, 12,
                                         margin=1)


def assert_reports_match(scalar, vectorized):
    assert len(scalar.results) == len(vectorized.results)
    for a, b in zip(scalar.results, vectorized.results):
        for name in EXACT_FIELDS:
            assert getattr(a, name) == getattr(b, name), name
        for name in CLOSE_FIELDS:
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-9, name


class TestModeEquivalence:
    def test_base(self, engine, data):
        logits, entropies, _ = data
        assert_reports_match(
            engine.simulate_dataset("base", logits, entropies,
                                    vectorized=False),
            engine.simulate_dataset("base", logits, entropies,
                                    vectorized=True))

    def test_ee(self, engine, data):
        logits, entropies, _ = data
        assert_reports_match(
            engine.simulate_dataset("ee", logits, entropies,
                                    entropy_threshold=THRESHOLD,
                                    vectorized=False),
            engine.simulate_dataset("ee", logits, entropies,
                                    entropy_threshold=THRESHOLD,
                                    vectorized=True))

    @pytest.mark.parametrize("target_ms", [40.0, 50.0, 52.0, 75.0, 100.0])
    def test_lai_across_targets(self, engine, data, lut, target_ms):
        # 40 ms is infeasible for deep sentences (nominal fallback path);
        # 100 ms bottoms out the V/F table — both corners must match.
        logits, entropies, _ = data
        kwargs = dict(lut=lut, entropy_threshold=THRESHOLD,
                      target_ms=target_ms)
        assert_reports_match(
            engine.simulate_dataset("lai", logits, entropies,
                                    vectorized=False, **kwargs),
            engine.simulate_dataset("lai", logits, entropies,
                                    vectorized=True, **kwargs))

    def test_lai_sparse_adaptive_span_engine(self, data, lut):
        logits, entropies, _ = data
        optimized = LatencyAwareEngine(
            CONFIG, HwConfig(mac_vector_size=16), spans=MNLI_SPANS,
            use_adaptive_span=True, sparse_execution=True,
            weight_density=0.5)
        kwargs = dict(lut=lut, entropy_threshold=THRESHOLD, target_ms=75.0)
        assert_reports_match(
            optimized.simulate_dataset("lai", logits, entropies,
                                       vectorized=False, **kwargs),
            optimized.simulate_dataset("lai", logits, entropies,
                                       vectorized=True, **kwargs))

    def test_immediate_layer1_exits(self, engine, lut):
        # Every sentence below threshold at layer 1: the vectorized path
        # must keep them on the nominal front end, untouched by DVFS.
        entropies = np.full((12, 5), 0.01)
        logits = np.zeros((12, 5, 2))
        logits[:, :, 1] = 5.0
        report = engine.simulate_dataset(
            "lai", logits, entropies, lut=lut, entropy_threshold=THRESHOLD,
            target_ms=75.0)
        for r in report.results:
            assert r.exit_layer == 1
            assert r.vdd == pytest.approx(0.8)
            assert r.met_target

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_layer1_exit_still_misses_infeasible_target(self, engine, lut,
                                                        vectorized):
        # The front end runs at nominal V/F before the entropy check, so
        # a target below the front-end latency is missed even on an
        # immediate exit — both pricing paths must agree.
        entropies = np.full((12, 3), 0.01)
        logits = np.zeros((12, 3, 2))
        front_ms = (engine._embed_nominal.time_ns
                    + engine._layer_nominal.time_ns) * 1e-6
        report = engine.simulate_dataset(
            "lai", logits, entropies, lut=lut, entropy_threshold=THRESHOLD,
            target_ms=front_ms * 0.5, vectorized=vectorized)
        assert report.target_violations == 3
        assert all(r.exit_layer == 1 for r in report.results)


class TestDepthValidation:
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_wrong_logit_depth_raises(self, engine, vectorized):
        from repro.errors import PipelineError
        logits = np.zeros((6, 4, 2))
        entropies = np.full((6, 4), 0.5)
        with pytest.raises(PipelineError):
            engine.simulate_dataset("base", logits, entropies,
                                    vectorized=vectorized)


class TestBatchPlan:
    def test_matches_scalar_plan(self):
        dvfs = DvfsController()
        rng = np.random.default_rng(0)
        remaining = rng.integers(0, 5_000_000, size=200).astype(float)
        remaining[:10] = 0.0  # no-work fallback
        target_ns = 5e6
        elapsed = rng.uniform(0, 1.2e7, size=200)  # some budgets blown
        plan = dvfs.plan_batch(remaining, target_ns, elapsed)
        for i in range(200):
            assert plan.point(i) == dvfs.plan(remaining[i], target_ns,
                                              elapsed[i])
            # The scalar decision as a table row (-1 = nominal).
            assert dvfs.plan_row(float(remaining[i]), target_ns,
                                 float(elapsed[i]))[:2] \
                == (plan.table_index[i], plan.meets_target[i])

    def test_table_index_points_at_planned_row(self):
        dvfs = DvfsController()
        plan = dvfs.plan_batch(np.array([1e6, 2e6, 3e6]), 5e6, 1e6)
        for i in range(3):
            if plan.table_index[i] >= 0:
                assert dvfs.table.voltages[plan.table_index[i]] \
                    == plan.vdd[i]

    def test_transition_overhead_matches_scalar(self):
        dvfs = DvfsController()
        nominal_vdd, nominal_freq = dvfs.table.nominal_point()
        vdd = dvfs.table.voltages
        freq = dvfs.table.frequencies
        batch = dvfs.transition_overhead_ns_batch(nominal_vdd, vdd,
                                                  nominal_freq, freq)
        for i in range(vdd.size):
            assert batch[i] == pytest.approx(dvfs.transition_overhead_ns(
                nominal_vdd, vdd[i], nominal_freq, freq[i]), abs=1e-12)


def tables_from_layer_metrics(engine):
    """:class:`PricingTables` fields built from one layer_metrics call
    (a fresh PU/SFU simulation) per workload and operating point."""
    table = engine.dvfs.table
    points = [table.nominal_point()] + table.rows()

    def at(workload):
        return [engine.accelerator.layer_metrics(
            workload, vdd=vdd, freq_ghz=freq,
            sparse_execution=engine.sparse_execution)
            for vdd, freq in points]

    layer, embed = at(engine.layer_workload), at(engine.embed_workload)
    layer_energy = np.array([m.energy_pj for m in layer])
    read = engine._embedding_read_energy_pj()
    return {
        "num_layers": CONFIG.num_layers,
        "nominal_vdd": points[0][0],
        "nominal_freq_ghz": points[0][1],
        "embed_time_ns": embed[0].time_ns,
        "embed_energy_pj": embed[0].energy_pj,
        "embedding_read_pj": read,
        "layer_time_ns": layer[0].time_ns,
        "layer_energy_pj": layer[0].energy_pj,
        "layer_cycles": layer[0].cycles,
        "rail_layer_time_ns": np.array([m.time_ns for m in layer]),
        "rail_layer_energy_pj": layer_energy,
        "rail_overhead_pj": engine.dvfs.ldo.overhead_energy_pj(
            layer_energy * 0.02, table.rail_voltages),
        "rail_front_time_ns": np.array(
            [e.time_ns + m.time_ns for m, e in zip(layer, embed)]),
        "rail_front_energy_pj": np.array(
            [e.energy_pj + m.energy_pj for m, e in zip(layer, embed)])
        + read,
    }


class TestPricingTables:
    @pytest.mark.parametrize("mac", [8, 16, 32])
    def test_one_simulation_per_workload(self, monkeypatch, mac):
        from repro.hw.pu import ProcessingUnit

        calls = []
        simulate = ProcessingUnit.simulate

        def counting(self, *args, **kwargs):
            calls.append(1)
            return simulate(self, *args, **kwargs)

        monkeypatch.setattr(ProcessingUnit, "simulate", counting)
        engine = LatencyAwareEngine(CONFIG, HwConfig(mac_vector_size=mac),
                                    spans=MNLI_SPANS, use_adaptive_span=True,
                                    sparse_execution=True)
        tables = engine.pricing_tables()
        # Layer and embedding workloads, each simulated once, for the
        # nominal point and every V/F row.
        assert len(calls) <= 2
        monkeypatch.undo()

        want = tables_from_layer_metrics(engine)
        for field in dataclasses.fields(tables):
            got = getattr(tables, field.name)
            assert np.array_equal(got, want[field.name]), field.name


class TestBoundedExitLayers:
    def test_matches_scalar_search(self):
        rng = np.random.default_rng(1)
        entropies = rng.uniform(0, 0.7, size=(12, 100))
        predicted = rng.integers(1, 13, size=100)
        exits = bounded_exit_layers(entropies, THRESHOLD, predicted)
        for i in range(100):
            expected = int(predicted[i])
            for layer in range(1, int(predicted[i]) + 1):
                if entropies[layer - 1, i] < THRESHOLD:
                    expected = layer
                    break
            assert exits[i] == expected

    def test_cap_of_one_wins(self):
        entropies = np.full((12, 3), 0.01)  # everything below threshold
        exits = bounded_exit_layers(entropies, THRESHOLD,
                                    np.array([1, 1, 1]))
        assert (exits == 1).all()

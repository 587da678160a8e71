"""Serving-throughput bench: per-sentence loop vs. vectorized kernels.

Prices N = 2000 sentences of paper-scale (ALBERT-base) LAI inference two
ways — the scalar reference loop and the batch kernels — and records
sentences/sec for each plus the speedup in
``benchmarks/results/serving_throughput.json``. The vectorized path is
required to be at least 5x faster; the two paths are also cross-checked
for result equality, so a correctness regression in either fails the
bench before any timing does.

Run:  pytest benchmarks/bench_serving_throughput.py -s
 or:  python benchmarks/bench_serving_throughput.py
"""

import sys
import time

from conftest import require, run_bench
from repro.config import HwConfig, ModelConfig
from repro.core import LatencyAwareEngine
from repro.earlyexit import ExitPredictorLUT, true_exit_layers
from repro.serving import synthetic_layer_outputs
from repro.utils import format_table

N_SENTENCES = 2000
TARGET_MS = 75.0
THRESHOLD = 0.25
MIN_SPEEDUP = 5.0


def _setup(n=N_SENTENCES, seed=0):
    logits, entropies, _ = synthetic_layer_outputs(n, num_layers=12,
                                                   num_classes=2, seed=seed)
    engine = LatencyAwareEngine(ModelConfig.albert_base(),
                                HwConfig(mac_vector_size=16))
    exits = true_exit_layers(entropies, THRESHOLD)
    lut = ExitPredictorLUT.from_samples(entropies[0], exits, 2, 12, margin=1)
    return engine, logits, entropies, lut


def _time_mode(engine, logits, entropies, lut, vectorized):
    engine.pricing_tables()  # exclude one-time table build from both paths
    start = time.perf_counter()
    report = engine.simulate_dataset(
        "lai", logits, entropies, lut=lut, entropy_threshold=THRESHOLD,
        target_ms=TARGET_MS, vectorized=vectorized)
    elapsed = time.perf_counter() - start
    return report, elapsed


def run_benchmark(n=N_SENTENCES, seed=0):
    """Time both paths, verify equivalence, return the JSON record."""
    engine, logits, entropies, lut = _setup(n, seed)
    loop_report, loop_s = _time_mode(engine, logits, entropies, lut,
                                     vectorized=False)
    vec_report, vec_s = _time_mode(engine, logits, entropies, lut,
                                   vectorized=True)

    for a, b in zip(loop_report.results, vec_report.results):
        require(a.exit_layer == b.exit_layer, "exit layer diverged")
        require(abs(a.energy_mj - b.energy_mj) <= 1e-9, "energy diverged")
        require(abs(a.latency_ms - b.latency_ms) <= 1e-9,
                "latency diverged")

    return {
        "n_sentences": n,
        "mode": "lai",
        "target_ms": TARGET_MS,
        "loop_seconds": loop_s,
        "vectorized_seconds": vec_s,
        "loop_sentences_per_s": n / loop_s,
        "vectorized_sentences_per_s": n / vec_s,
        "speedup": loop_s / vec_s,
    }


def _check_gates(record):
    require(record["speedup"] >= MIN_SPEEDUP, record)


def _build_table(record):
    rows = [
        ["per-sentence loop", f"{record['loop_sentences_per_s']:,.0f}",
         f"{record['loop_seconds']:.3f}"],
        ["vectorized kernels",
         f"{record['vectorized_sentences_per_s']:,.0f}",
         f"{record['vectorized_seconds']:.3f}"],
    ]
    return format_table(
        ["Pricing path", "Sentences/s", "Seconds"], rows,
        title=f"Serving throughput — N={record['n_sentences']} LAI "
              f"sentences, speedup {record['speedup']:.1f}x")


def test_serving_throughput():
    run_bench(sys.modules[__name__])


if __name__ == "__main__":
    test_serving_throughput()

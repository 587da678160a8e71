"""Synthetic task profiles and traffic traces for serving experiments.

Real profiles come from trained artifacts
(:func:`repro.core.load_task_artifact` →
:func:`task_profile_from_artifact`), but training takes minutes per task;
examples, benchmarks and the smoke target use these generators instead:
per-layer logits whose entropy decays with depth at a per-sentence
difficulty (the same shape the trained models produce), a shared sparse
FP8 embedding table, and a mixed-task Poisson-ish arrival trace.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from repro.config import GLUE_TASKS, TASK_NUM_LABELS, HwConfig, ModelConfig
from repro.core.engine import LatencyAwareEngine
from repro.earlyexit import (
    ExitPredictorLUT,
    entropy_from_logits,
    true_exit_layers,
)
from repro.errors import ServingError
from repro.serving.registry import TaskProfile, TaskRegistry
from repro.serving.request import Request


def synthetic_layer_outputs(n, num_layers=12, num_classes=2, seed=0):
    """Per-layer logits/entropies with depth-sharpening confidence.

    Returns ``(logits, entropies, labels)`` shaped (L, N, C), (L, N),
    (N,). Each sentence has a difficulty drawn uniformly; its logits
    sharpen toward the true label as depth crosses that difficulty —
    easy sentences become exit-confident early, hard ones late.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(num_classes, size=n)
    difficulty = rng.uniform(0, 1, n)
    logits = np.zeros((num_layers, n, num_classes))
    for layer in range(num_layers):
        progress = (layer + 1) / num_layers
        sharp = np.clip(10.0 * (progress - 0.9 * difficulty), -0.5, None)
        logits[layer] = rng.normal(0, 0.2, (n, num_classes))
        logits[layer, np.arange(n), labels] += sharp
    return logits, entropy_from_logits(logits), labels


def synthetic_embedding_table(vocab_size=1000, embedding_size=48,
                              density=0.40, seed=0):
    """A pruned FP8-friendly embedding table shared across tasks."""
    rng = np.random.default_rng(seed)
    table = rng.normal(0, 0.05, size=(vocab_size, embedding_size))
    table[rng.random(table.shape) >= density] = 0.0
    return table


def synthetic_task_profile(task, n=256, num_layers=12, seed=None,
                           hw_config=None, model_config=None,
                           entropy_threshold=0.25, lut_margin=1):
    """A ready-to-register :class:`TaskProfile` with generated traffic.

    The LUT is built empirically from the generated entropies (the same
    :meth:`~repro.earlyexit.ExitPredictorLUT.from_samples` path the tests
    use), so Algorithm 2's behaviour is fully exercised without any
    training.
    """
    if task not in TASK_NUM_LABELS:
        raise ServingError(f"unknown task {task!r}")
    if n < 1:
        raise ServingError(f"a task profile needs n >= 1 sentences, "
                           f"got {n}")
    num_classes = TASK_NUM_LABELS[task]
    if seed is None:
        # Stable per-task default (str hash is randomized per process).
        seed = zlib.crc32(task.encode()) % (2**16)
    logits, entropies, labels = synthetic_layer_outputs(
        n, num_layers=num_layers, num_classes=num_classes, seed=seed)
    config = model_config or ModelConfig.tiny(num_labels=num_classes,
                                              num_layers=num_layers)
    engine = LatencyAwareEngine(config,
                                hw_config or HwConfig(mac_vector_size=16))
    exits = true_exit_layers(entropies, entropy_threshold)
    lut = ExitPredictorLUT.from_samples(entropies[0], exits, num_classes,
                                        num_layers, margin=lut_margin)
    return TaskProfile(task=task, engine=engine, logits=logits,
                       entropies=entropies, lut=lut,
                       entropy_threshold=entropy_threshold, labels=labels)


def synthetic_registry(tasks=GLUE_TASKS, n=256, num_layers=12, seed=0,
                       hw_config=None, **profile_kwargs):
    """A registry of synthetic profiles around one shared eNVM image."""
    registry = TaskRegistry(
        embedding_table=synthetic_embedding_table(seed=seed))
    for i, task in enumerate(tasks):
        registry.register(synthetic_task_profile(
            task, n=n, num_layers=num_layers, seed=seed + i,
            hw_config=hw_config, **profile_kwargs))
    return registry


def synthetic_traffic(registry, num_requests, targets_ms=(50.0, 75.0, 100.0),
                      seed=0, mean_interarrival_ms=10.0, modes=None):
    """A mixed-task request trace over ``registry``'s tasks.

    Tasks and latency classes are drawn uniformly; arrivals accumulate
    exponential gaps (a Poisson process), so the trace interleaves tasks
    the way real assistant traffic would — worst case for a naive
    per-request switcher, exactly what the scheduler's grouping fixes.

    ``modes``, when given, is a tuple of execution modes sampled uniformly
    per request (e.g. ``("base", "lai")`` for the cluster simulator's
    mixed-criticality traffic); by default requests carry no mode override
    and inherit the server's.
    """
    if num_requests <= 0:
        raise ServingError("num_requests must be positive")
    # NaN and infinity fail the chained bound.
    if not 0 <= mean_interarrival_ms < math.inf:
        raise ServingError("mean_interarrival_ms must be finite and >= 0")
    tasks = registry.tasks
    if not tasks:
        raise ServingError("registry has no tasks")
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(mean_interarrival_ms, num_requests))
    requests = []
    for i in range(num_requests):
        task = tasks[int(rng.integers(len(tasks)))]
        profile = registry.profile(task)
        requests.append(Request(
            request_id=i,
            task=task,
            sentence=int(rng.integers(profile.num_sentences)),
            target_ms=float(targets_ms[int(rng.integers(len(targets_ms)))]),
            arrival_ms=float(arrivals[i]),
            mode=(None if modes is None
                  else modes[int(rng.integers(len(modes)))]),
        ))
    return requests


def task_profile_from_artifact(artifact, hw_config=None,
                               accuracy_budget_pct=1.0, use_mlp=False,
                               mlp_epochs=120):
    """Build a :class:`TaskProfile` from a trained task artifact.

    Calibrates the entropy threshold on the artifact's eval split (the
    Fig. 9 recipe) and distills the LUT from its training entropies.
    """
    from repro.earlyexit import build_lut_for_threshold, \
        calibrate_conventional

    calibration = calibrate_conventional(
        artifact.eval_logits, artifact.eval_entropies, artifact.eval_labels,
        accuracy_budget_pct)
    lut = build_lut_for_threshold(
        artifact.train_entropies, calibration.threshold,
        artifact.eval_logits.shape[-1], use_mlp=use_mlp,
        mlp_epochs=mlp_epochs)
    engine = LatencyAwareEngine(artifact.model_config,
                                hw_config or HwConfig(mac_vector_size=16))
    return TaskProfile(task=artifact.task, engine=engine,
                       logits=artifact.eval_logits,
                       entropies=artifact.eval_entropies, lut=lut,
                       entropy_threshold=calibration.threshold,
                       labels=artifact.eval_labels)

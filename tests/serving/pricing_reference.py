"""Test helpers for whole-profile price tables.

Imported by the serving, cluster and fleet tests (``from
pricing_reference import ...``; the cluster and fleet tests put this
directory on ``sys.path`` first).

* :func:`per_batch_kernel` prices one batch with one engine call over
  its own slice of the profile — the per-batch path ``price_batch``
  took before it read whole-profile tables. It never touches a table,
  so it is the independent oracle table rows are held to.
* :func:`with_layer1_exits` gives a registry or a profile a threshold
  that sends half of each task's sentences out at layer 1. The
  synthetic profiles have none: every layer-1 entropy sits above their
  threshold.
"""

import dataclasses

import numpy as np

from repro.serving import TaskRegistry
from repro.serving.server import within_target


def per_batch_kernel(profile, batch, mode, vectorized=True):
    """``batch``'s result rows from one kernel call over its slice.

    :meth:`~repro.core.LatencyAwareEngine.simulate_dataset` on the
    members' (L, n) logits and entropies at the batch's target, then the
    serving SLO judgement (:func:`within_target`) on ``base``/``ee``
    rows, whose engine modes always report the target met.
    """
    idx = batch.sentence_indices
    results = profile.engine.simulate_dataset(
        mode, profile.logits[:, idx], profile.entropies[:, idx],
        lut=profile.lut, entropy_threshold=profile.entropy_threshold,
        target_ms=batch.target_ms, vectorized=vectorized).results
    if mode == "lai":
        return results
    return [r if within_target(r.latency_ms, batch.target_ms)
            else dataclasses.replace(r, met_target=False)
            for r in results]


def with_layer1_exits(target):
    """``target`` with half of each task's sentences exiting at layer 1.

    The threshold becomes the median layer-1 entropy. A
    :class:`TaskRegistry` is changed in place and returned; it must not
    have built a hardware variant or a table yet, so every variant and
    table built later reads the new threshold. A profile is returned as
    a copy, which has built nothing.
    """
    if isinstance(target, TaskRegistry):
        assert not target._hw_variants and not target._route_tables
        for task in target.tasks:
            profile = target.profile(task)
            assert profile._deadline_columns is None \
                and profile._singleton_columns is None \
                and not profile._tables
            profile.entropy_threshold = _median_threshold(profile)
        return target
    return dataclasses.replace(
        target, entropy_threshold=_median_threshold(target))


def _median_threshold(profile):
    return float(np.median(profile.entropies[0]))

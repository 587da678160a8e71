"""Per-request reference for :func:`repro.cluster.generate_diurnal_trace`.

The generator fills a :class:`~repro.serving.RequestTrace` from its
random draws as columns. This oracle makes the same draws, in the same
order, and builds one :class:`~repro.serving.Request` per row, so tests
can hold the columnar trace to it field by field and type by type.
"""

import math

import numpy as np

from repro.serving import Request


def reference_diurnal_trace(num_requests, seed=0, tasks=None,
                            targets_ms=(50.0, 75.0, 100.0),
                            n_sentences=64, mean_interarrival_ms=1.0,
                            diurnal_amplitude=0.6, num_epochs=48,
                            modes=(None,)):
    """The diurnal trace as a list of requests (no argument checks)."""
    if tasks is None:
        tasks = ("sst2", "mnli", "qqp", "qnli")
    rng = np.random.default_rng(seed)
    span_ms = float(num_requests) * float(mean_interarrival_ms)
    epoch_ms = span_ms / num_epochs
    phase = (np.arange(num_epochs) + 0.5) / num_epochs
    weights = 1.0 + diurnal_amplitude * np.sin(2.0 * math.pi * phase)
    weights /= weights.sum()
    counts = rng.multinomial(num_requests, weights)
    times = np.concatenate([
        np.sort(rng.uniform(e * epoch_ms, (e + 1) * epoch_ms,
                            size=int(count)))
        for e, count in enumerate(counts) if count
    ])
    task_idx = rng.integers(0, len(tasks), size=num_requests)
    sentence = rng.integers(0, int(n_sentences), size=num_requests)
    target_idx = rng.integers(0, len(targets_ms), size=num_requests)
    mode_idx = rng.integers(0, len(modes), size=num_requests)
    return [
        Request(request_id=i, task=tasks[task_idx[i]],
                sentence=int(sentence[i]),
                target_ms=float(targets_ms[target_idx[i]]),
                arrival_ms=float(times[i]), mode=modes[mode_idx[i]])
        for i in range(num_requests)
    ]

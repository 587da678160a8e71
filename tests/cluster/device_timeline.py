"""Device-timeline audit of a finished ``ClusterReport``.

Imported by the cluster tests (``from device_timeline import ...``).
The cross-core identity tests hold the vector core to the per-event
loop, but both cores build a run's finish instants through the same
``AcceleratorSim.begin``, so a fault in that arithmetic moves both
sides at once. This audit reads one report on its own and checks each
device's timeline:

* no completion comes before its batch's dispatch;
* completions within a batch never decrease, in batch order;
* no two batches on one device overlap: a batch dispatches no earlier
  than the previous batch on that device completed its last member.

A batch is the records that share a device and a dispatch instant: a
device starts at most one batch per instant, and a run preempted before
any member finished leaves no record.
"""

#: A preempted run keeps every member finished within 1e-9 ms of the
#: preemption (``ActiveRun.completed_by``), and the next batch on that
#: device dispatches at the preemption instant itself.
TOLERANCE_MS = 1e-9


def check_device_timelines(report):
    """Raise ``AssertionError`` on the first timeline fault in ``report``.

    Returns the number of batches audited, so callers can assert the
    audit was not vacuous.
    """
    batches = {}  # (accel_id, dispatch_ms) -> completions, record order
    for rec in report.records:
        batches.setdefault((rec.accel_id, rec.dispatch_ms), []).append(
            rec.completion_ms)
    previous = {}  # accel_id -> (dispatch_ms, last completion)
    for (accel, dispatch), completions in sorted(batches.items()):
        where = f"device {accel}, batch dispatched at {dispatch!r} ms"
        early = [at for at in completions if at < dispatch]
        assert not early, (
            f"{where}: completion {early[0]!r} ms precedes the dispatch")
        for before, after in zip(completions, completions[1:]):
            assert after >= before, (
                f"{where}: completions decrease, {before!r} -> {after!r}")
        if accel in previous:
            prior_dispatch, prior_end = previous[accel]
            assert dispatch >= prior_end - TOLERANCE_MS, (
                f"{where}: overlaps the batch dispatched at "
                f"{prior_dispatch!r} ms, which ran until {prior_end!r} ms")
        previous[accel] = (dispatch, completions[-1])
    return len(batches)

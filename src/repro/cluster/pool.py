"""The event core's device-pool index: who is dispatchable, by class.

Dispatch, fleet routing and autoscaling all ask the same questions of a
pool — which devices are free, which distinct kinds of free device
exist, how many devices are online — once per decision. A
:class:`PoolIndex` answers them without walking the pool. Both cores of
:class:`~repro.cluster.ClusterSimulator` keep it current at the only
four transitions that change the answers:

* **dispatch** (:meth:`PoolIndex.take`) — a free device starts a batch;
* **completion** (:meth:`PoolIndex.release`) — a device finishes its
  run and rests with a new resident task and parked rail;
* **park** / **wake** (:meth:`PoolIndex.park` / :meth:`PoolIndex.wake`)
  — the autoscaler takes a device offline or brings it back.

An EDF preemption victim goes from busy to busy, so it never touches the
index. While a device sits in the index its class key cannot move: the
rail parks only at a run's end and drops to retention only when the
idle interval is accrued, which happens at the next begin or park.

The classes are kept from their first read on. Only a fleet site's
routing estimate reads them, so the first estimate builds them from the
free ids and the transitions maintain them after that; a standalone
replay never computes a class key.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from repro.errors import ClusterError


def class_key(accel):
    """Everything a placement estimate reads off one idle device.

    A routing estimate is a price-table row (pure in task, slack
    bucket, mode and hardware slot) + the switch cost from the resident
    task + the wake transition from the parked rail point to the
    slot's nominal one, so two idle devices agreeing on this key price
    every request identically. (A standby timeout makes the wake term
    depend on the clock as well; sites with one do not use classes.)
    """
    energy = accel.energy
    return (accel.hw_slot, accel.resident_task, energy.parked_vdd,
            energy.parked_freq_ghz)


class PoolIndex:
    """Free device ids, free ids per class key, and the online count.

    ``free`` holds the dispatchable (idle and online) device ids in
    ascending order; ``classes`` maps each class key present among them
    to its ascending ids; ``online`` counts online devices, busy or
    not. Built from one walk of ``accels``; :meth:`check` compares it
    with a fresh walk.

    ``classes`` are kept from their first read on: that read builds
    them from ``free``, and :meth:`take`/:meth:`release` maintain them
    after it. Until then no class key is computed.
    """

    def __init__(self, accels):
        self._accels = accels
        self.free = []
        self.online = 0
        self._classes = None
        self._keys = [None] * len(accels)
        for accel in accels:
            if accel.online:
                self.online += 1
                if accel.idle:
                    self.release(accel)

    @property
    def classes(self):
        """``{class key: ascending free ids}``, tracked from this read on."""
        if self._classes is None:
            self._classes = {}
            for i in self.free:
                self._classify(self._accels[i])
        return self._classes

    def take(self, accel):
        """``accel`` leaves the free set (dispatch or park)."""
        i = accel.accel_id
        free = self.free
        del free[bisect_left(free, i)]
        classes = self._classes
        if classes is not None:
            key = self._keys[i]
            ids = classes[key]
            if len(ids) == 1:
                del classes[key]
            else:
                del ids[bisect_left(ids, i)]

    def release(self, accel):
        """``accel`` joins the free set under its current class key."""
        insort(self.free, accel.accel_id)
        if self._classes is not None:
            self._classify(accel)

    def _classify(self, accel):
        """File free ``accel`` under its current class key."""
        i = accel.accel_id
        key = self._keys[i] = class_key(accel)
        ids = self._classes.get(key)
        if ids is None:
            self._classes[key] = [i]
        else:
            insort(ids, i)

    def park(self, accel):
        self.online -= 1
        self.take(accel)

    def wake(self, accel):
        self.online += 1
        self.release(accel)

    def check(self):
        """Raise :class:`~repro.errors.ClusterError` unless the index
        equals a fresh walk of the pool.

        ``classes`` are compared only once something has read them: an
        index that never tracked them has none to drift.
        """
        fresh = PoolIndex(self._accels)
        names = ("free", "online") if self._classes is None \
            else ("free", "classes", "online")
        for name in names:
            if getattr(self, name) != getattr(fresh, name):
                raise ClusterError(
                    f"device-pool index drifted: {name} is "
                    f"{getattr(self, name)!r}, a walk of the pool reads "
                    f"{getattr(fresh, name)!r}")

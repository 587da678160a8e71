"""Trace intake off the happy path, and the vector core's no-boxing
contract.

Hostile traces go through both intakes: building the trace as a list of
:class:`Request` objects and as :class:`RequestTrace` columns must raise
the same error (class and message) for the same row, and a trace that
builds must be refused by ``run()`` (the vector core's column check)
and ``run_events()`` (per-request ``inject``) with the same error for
the first offender in trace order.
"""

import pytest

from repro.cluster import ClusterSimulator, generate_diurnal_trace
from repro.serving import Request, RequestTrace, synthetic_registry

TASKS = ("sst2", "mnli")
FIELDS = ("request_id", "task", "sentence", "target_ms", "arrival_ms",
          "mode", "site")


@pytest.fixture(scope="module")
def registry():
    registry = synthetic_registry(TASKS, n=32, seed=0)
    # "mnli" cannot serve lai: it has no exit-predictor LUT.
    registry.profile("mnli").lut = None
    return registry


def row(request_id, task="sst2", sentence=0, target_ms=50.0,
        arrival_ms=None, mode=None, site=None):
    return (request_id, task, sentence, target_ms,
            float(request_id) if arrival_ms is None else arrival_ms, mode,
            site)


#: One offending row per case: (name, row overrides).
HOSTILE = [
    ("duplicate id", {"request_id": 1}),
    ("negative arrival", {"arrival_ms": -5.0}),
    ("nan arrival", {"arrival_ms": float("nan")}),
    ("inf arrival", {"arrival_ms": float("inf")}),
    ("-inf arrival", {"arrival_ms": float("-inf")}),
    ("negative sentence", {"sentence": -1}),
    ("sentence out of range", {"sentence": 32}),
    ("unknown task", {"task": "cola"}),
    ("unknown mode", {"mode": "fast"}),
    ("zero target", {"target_ms": 0.0}),
    ("negative target", {"target_ms": -3.0}),
    ("nan target", {"target_ms": float("nan")}),
    ("lai without a LUT", {"task": "mnli", "mode": "lai"}),
]


def hostile_rows(overrides, at=3, n=6):
    rows = [row(i, task=TASKS[i % 2], sentence=i, mode="base")
            for i in range(n)]
    fields = dict(zip(FIELDS, rows[at]))
    fields.update(overrides)
    rows[at] = tuple(fields[name] for name in FIELDS)
    return rows


def outcome(build):
    """``(error class, message)`` of ``build()``, or its result."""
    try:
        return build()
    except Exception as exc:  # compared across intakes below
        return type(exc), str(exc)


def as_list(rows):
    return [Request(*fields) for fields in rows]


def as_columns(rows):
    return RequestTrace.from_columns(*zip(*rows))


def simulator(registry):
    return ClusterSimulator(registry, num_accelerators=2, policy="fifo",
                            max_batch_size=4, mode="lai")


class TestHostileTraces:
    @pytest.mark.parametrize("name, overrides", HOSTILE,
                             ids=[name for name, _ in HOSTILE])
    def test_both_intakes_refuse_alike(self, registry, name, overrides):
        rows = hostile_rows(overrides)
        listed, columns = outcome(lambda: as_list(rows)), \
            outcome(lambda: as_columns(rows))
        if isinstance(listed, tuple):
            # Refused while building, by both, with one message.
            assert columns == listed
            return
        assert columns == listed
        want = outcome(lambda: simulator(registry).run_events(listed))
        assert isinstance(want, tuple), f"{name}: run_events accepted it"
        for trace in (listed, columns, iter(listed)):
            assert outcome(lambda: simulator(registry).run(trace)) == want
        assert outcome(lambda: simulator(registry).run_events(columns)) \
            == want

    @pytest.mark.parametrize("first, second", [
        ("duplicate id", "negative arrival"),
        ("negative arrival", "duplicate id"),
        ("sentence out of range", "unknown task"),
        ("unknown task", "lai without a LUT"),
        ("lai without a LUT", "sentence out of range"),
    ])
    def test_first_offender_in_trace_order_wins(self, registry, first,
                                                second):
        cases = dict(HOSTILE)
        rows = hostile_rows(cases[first], at=2)
        fields = dict(zip(FIELDS, rows[4]))
        fields.update(cases[second])
        rows[4] = tuple(fields[name] for name in FIELDS)
        trace = as_columns(rows)
        want = outcome(lambda: simulator(registry).run_events(trace))
        assert isinstance(want, tuple)
        # The offender is row 2: its id or its values name it.
        alone = outcome(lambda: simulator(registry).run_events(
            as_columns(hostile_rows(cases[first], at=2))))
        assert want == alone
        assert outcome(lambda: simulator(registry).run(trace)) == want

    def test_column_errors_carry_the_row(self):
        rows = hostile_rows({"target_ms": -1.0}, at=4)
        with pytest.raises(Exception) as info:
            as_columns(rows)
        assert info.value.row == 4


class TestNoBoxing:
    """A fifo or affinity vector replay builds no request until its
    records are read (``cluster_budget``'s configuration, reduced), and
    neither does a governor replay that prices from tables."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = []
        init = Request.__init__

        def counting(self, *args, **kwargs):
            count.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Request, "__init__", counting)
        return count

    @pytest.mark.parametrize("policy", ["fifo", "affinity"])
    def test_budgeted_replay_builds_requests_only_for_records(self, built,
                                                              policy):
        tasks = ("sst2", "mnli", "qqp", "qnli")
        registry = synthetic_registry(tasks, n=64, seed=0)
        trace = generate_diurnal_trace(3000, seed=0, tasks=tasks,
                                       mean_interarrival_ms=0.25)
        sim = ClusterSimulator(registry, num_accelerators=64,
                               policy=policy, max_batch_size=32,
                               batch_timeout_ms=5.0,
                               energy_budget_mw=270.0,
                               budget_window_ms=100.0)
        report = sim.run(trace)
        assert report.engine == "vector"
        assert len(report.records) == len(trace) == 3000
        assert report.budget.admitted == report.num_batches > 0
        report.energy.reconcile(report.serving, 1e-9)
        assert report.serving.num_requests == 3000
        assert sum(c["requests"] for c in report.energy.per_class.values()) \
            == 3000
        assert not built
        first = report.records[0]
        assert len(built) == 3000
        assert sorted(r.request.request_id for r in report.records) \
            == list(range(3000))
        assert first.request is trace[first.request.request_id]
        assert list(trace) == [r.request for r in sorted(
            report.records, key=lambda r: r.request.request_id)]
        assert len(built) == 3000

    def test_governor_table_pricing_builds_requests_only_for_records(
            self, built):
        # The governor prices each candidate placement through
        # ``ClusterSimulator._price``, which gathers table rows by the
        # batch's sentence column.
        tasks = ("sst2", "mnli", "qqp", "qnli")
        registry = synthetic_registry(tasks, n=64, seed=0)
        trace = generate_diurnal_trace(3000, seed=0, tasks=tasks)
        sim = ClusterSimulator(registry, num_accelerators=16,
                               policy="energy")
        report = sim.run(trace)
        assert report.engine == "vector"
        assert report.serving.num_requests == 3000
        assert not built
        assert len(report.records) == 3000
        assert sorted(r.request.request_id for r in report.records) \
            == list(range(3000))
        assert len(built) == 3000

    def test_forbidden_construction_still_replays(self, monkeypatch):
        tasks = ("sst2", "mnli")
        registry = synthetic_registry(tasks, n=16, seed=0)
        trace = generate_diurnal_trace(500, seed=1, tasks=tasks,
                                       n_sentences=16)

        def forbidden(self, *args, **kwargs):
            raise AssertionError("a Request was built")

        monkeypatch.setattr(Request, "__init__", forbidden)
        report = ClusterSimulator(registry, num_accelerators=4,
                                  energy_budget_mw=300.0).run(trace)
        assert len(report.records) == 500
        report.energy.reconcile(report.serving, 1e-9)
        with pytest.raises(AssertionError, match="was built"):
            report.records[0]

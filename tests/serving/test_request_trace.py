"""The columnar request trace: the generator held to its per-request
oracle, sequence behaviour, and save/load round trips."""

import os
import sys

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    generate_diurnal_trace,
    iter_trace_jsonl,
    load_trace,
    save_trace,
    save_trace_csv,
    save_trace_jsonl,
)
from repro.cluster.__main__ import main
from repro.serving import (
    MODES,
    Request,
    RequestTrace,
    TraceRows,
    synthetic_registry,
    synthetic_traffic,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "cluster"))
from diurnal_reference import reference_diurnal_trace  # noqa: E402

FIELDS = ("request_id", "task", "sentence", "target_ms", "arrival_ms",
          "mode", "site")
PYTHON_TYPES = (int, float, str, type(None))

MENUS = [
    {},
    {"tasks": ("sst2",), "targets_ms": (40.0,), "n_sentences": 8},
    {"tasks": ("sst2", "mnli", "sst2"), "targets_ms": (30.0, 60.0, 30.0),
     "modes": (None, "base", "lai")},
    {"modes": ("lai", "ee"), "num_epochs": 5, "diurnal_amplitude": 0.0},
]


def assert_rows_match(got, want):
    """Same requests, field by field and type by type."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert type(x) is type(y), (name, x, y)
            assert type(x) in PYTHON_TYPES, (name, type(x))
            assert x == y, (name, x, y)


class TestGeneratorOracle:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("menu", range(len(MENUS)))
    def test_columns_match_the_per_request_generator(self, seed, menu):
        kwargs = MENUS[menu]
        trace = generate_diurnal_trace(300, seed=seed, **kwargs)
        want = reference_diurnal_trace(300, seed=seed, **kwargs)
        assert isinstance(trace, RequestTrace)
        assert_rows_match(list(trace), want)
        assert_rows_match([trace[i] for i in range(len(trace))], want)
        assert trace == want and want == trace

    @pytest.mark.parametrize("kwargs", [
        {"targets_ms": (50.0, -1.0)},
        {"targets_ms": (50.0, float("nan"))},
        {"modes": (None, "fast")},
    ])
    @pytest.mark.parametrize("size", [1, 2, 50])
    def test_menu_errors_match_the_first_drawing_row(self, kwargs, size):
        # A bad menu entry raises at the first row that draws it, and
        # nowhere when no row does, exactly as per-row construction.
        for seed in range(4):
            try:
                want = reference_diurnal_trace(size, seed=seed, **kwargs)
            except Exception as exc:  # the oracle's own error
                with pytest.raises(type(exc)) as got:
                    generate_diurnal_trace(size, seed=seed, **kwargs)
                assert str(got.value) == str(exc)
            else:
                assert generate_diurnal_trace(size, seed=seed,
                                              **kwargs) == want


class TestSequence:
    @pytest.fixture
    def trace(self):
        return generate_diurnal_trace(50, seed=2, modes=(None, "base"))

    def test_elements_box_once_and_index_like_a_list(self, trace):
        assert trace[3] is trace[3]
        assert trace[-1] == trace[len(trace) - 1]
        with pytest.raises(IndexError):
            trace[len(trace)]
        rows = list(trace)
        assert all(a is b for a, b in zip(rows, trace))
        assert rows.index(trace[5]) == trace.index(trace[5]) == 5
        assert trace[7] in trace

    def test_slices_and_take_are_traces(self, trace):
        head = trace[:10]
        assert isinstance(head, RequestTrace)
        assert head == list(trace)[:10]
        assert trace[::-3] == list(trace)[::-3]
        assert trace.take([4, 1]) == [trace[4], trace[1]]
        fresh = generate_diurnal_trace(50, seed=2, modes=(None, "base"))
        built = fresh[4]
        part = fresh.take([4, 1, 4])
        assert part[0] is built and part[2] is built
        assert part[1] == trace[1]

    def test_columns_are_read_only(self, trace):
        for name in ("request_id", "task_code", "sentence", "target_ms",
                     "arrival_ms", "mode_code", "site_code"):
            with pytest.raises(ValueError):
                getattr(trace, name)[0] = 1

    def test_equality_against_traces_lists_and_other_values(self, trace):
        other = generate_diurnal_trace(50, seed=2, modes=(None, "base"))
        assert trace == other and trace == tuple(other)
        assert trace != generate_diurnal_trace(50, seed=3)
        assert trace != list(trace)[:-1]
        assert (trace == 5) is False

    def test_request_lists_keep_their_objects(self):
        registry = synthetic_registry(("sst2", "mnli"), n=16, seed=0)
        requests = synthetic_traffic(registry, 20, seed=1,
                                     modes=("lai", "ee"))
        trace = RequestTrace.from_requests(requests)
        assert RequestTrace.from_requests(trace) is trace
        assert all(a is b for a, b in zip(trace, requests))
        assert trace == requests
        assert [MODES[c] for c in trace.mode_code.tolist()] \
            == [r.mode for r in requests]

    def test_member_views_read_sentences_without_boxing(self, trace):
        view = TraceRows(trace, np.array([5, 2, 9]))
        fresh = generate_diurnal_trace(50, seed=2, modes=(None, "base"))
        lazy = TraceRows(fresh, np.array([5, 2, 9]))
        assert len(lazy) == 3 and fresh._unboxed == len(fresh)
        assert lazy.sentence_indices.tolist() \
            == [trace[5].sentence, trace[2].sentence, trace[9].sentence]
        assert fresh._unboxed == len(fresh)
        assert list(lazy) == list(view) == [trace[5], trace[2], trace[9]]
        assert lazy[1] is fresh[2]


class TestRoundTrips:
    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    def test_generated_trace_round_trips_through_load_trace(self, tmp_path,
                                                            ext):
        trace = generate_diurnal_trace(200, seed=4, modes=(None, "lai"))
        for save in (save_trace, {"csv": save_trace_csv,
                                  "jsonl": save_trace_jsonl}[ext]):
            path = save(trace, str(tmp_path / f"t.{ext}"))
            loaded = load_trace(path)
            assert isinstance(loaded, RequestTrace)
            assert_rows_match(list(loaded), list(trace))

    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    def test_gen_trace_cli_writes_what_its_extension_names(self, tmp_path,
                                                           capsys, ext):
        out = str(tmp_path / f"diurnal.{ext}")
        assert main(["--gen-trace", "50", "--out", out, "--trace", out,
                     "--quiet"]) == 0
        assert load_trace(out) == generate_diurnal_trace(50, seed=0)
        with open(out, encoding="utf-8") as handle:
            first = handle.readline()
        assert first.startswith("request_id,") == (ext == "csv")

    def test_streamed_and_loaded_replays_agree(self, tmp_path):
        registry = synthetic_registry(("sst2", "mnli", "qqp", "qnli"),
                                      n=64, seed=0)
        path = save_trace_jsonl(
            generate_diurnal_trace(400, seed=6, modes=(None, "base")),
            str(tmp_path / "t.jsonl"))

        def replay(trace):
            return ClusterSimulator(registry, num_accelerators=4,
                                    policy="affinity").run(trace)

        streamed = replay(iter_trace_jsonl(path))
        loaded = replay(load_trace(path))
        assert streamed.engine == loaded.engine == "vector"
        assert streamed.summary() == loaded.summary()
        assert [(r.request, r.completion_ms) for r in streamed.records] \
            == [(r.request, r.completion_ms) for r in loaded.records]


def test_request_is_slotted():
    request = Request(request_id=0, task="sst2", sentence=0, target_ms=5.0)
    assert not hasattr(request, "__dict__")

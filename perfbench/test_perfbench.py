"""Tests of the benchmark's own arithmetic and its registration."""

from __future__ import annotations

import json
import os
import queue
import threading
from types import SimpleNamespace

import pytest

from perfbench import run
from perfbench.oracle import rows_equal
from perfbench.spans import Span, Tracer, self_times
from perfbench.stats import lateness_ms, percentile, quartile_spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(10, 0, -1)]
        assert percentile(values, 50) == 5.0
        assert percentile(values, 90) == 9.0
        assert percentile(values, 91) == 10.0
        assert percentile(values, 100) == 10.0

    def test_p99_needs_the_tail_sample(self):
        values = list(range(1, 101))
        assert percentile(values, 99) == 99
        assert percentile(values + [1000], 99) == 100

    def test_single_and_empty(self):
        assert percentile([3.5], 1) == 3.5
        assert percentile([], 50) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestLateness:
    def test_mean_lateness_in_ms(self):
        due = [0.0, 1.0, 2.0, 3.0]
        sent = [0.004, 1.0, 2.002, 2.5]  # the early send counts as on time
        assert lateness_ms(due, sent) == pytest.approx(1.5)

    def test_empty_and_mismatched(self):
        assert lateness_ms([], []) == 0.0
        with pytest.raises(ValueError):
            lateness_ms([0.0], [])


def test_quartile_spread():
    assert quartile_spread([10.0, 10.0, 10.0, 10.0]) == 0.0
    assert quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)


def _span(span_id, start, end, cpu, parent=None, thread=1, name="s"):
    return Span(span_id, name, thread, start, end, cpu, parent)


class TestSelfTimes:
    def test_nested_children_on_one_thread(self):
        spans = [
            _span(0, 0.0, 10.0, 8.0),
            _span(1, 1.0, 4.0, 3.0, parent=0),
            _span(2, 2.0, 3.0, 1.0, parent=1),
            _span(3, 6.0, 7.0, 0.5, parent=0),
        ]
        selfs = self_times(spans)
        assert selfs[0].wall == pytest.approx(6.0)
        assert selfs[0].cpu == pytest.approx(4.5)
        assert selfs[0].wait == pytest.approx(1.5)
        assert selfs[1].wall == pytest.approx(2.0)
        assert selfs[1].cpu == pytest.approx(2.0)
        assert selfs[2].wall == pytest.approx(1.0)

    def test_child_on_another_thread_takes_nothing(self):
        # A coordinator blocked on a pool worker: all its time is self
        # time, and everything but its own CPU is wait.
        spans = [
            _span(0, 0.0, 10.0, 1.0, thread=1),
            _span(1, 2.0, 8.0, 6.0, parent=0, thread=2),
        ]
        selfs = self_times(spans)
        assert selfs[0].wall == pytest.approx(10.0)
        assert selfs[0].wait == pytest.approx(9.0)
        assert selfs[1].wall == pytest.approx(6.0)
        assert selfs[1].wait == pytest.approx(0.0)

    def test_overlapping_children_are_not_double_counted(self):
        spans = [
            _span(0, 0.0, 10.0, 10.0),
            _span(1, 1.0, 5.0, 2.0, parent=0),
            _span(2, 3.0, 7.0, 2.0, parent=0),
            _span(3, 9.0, 12.0, 1.0, parent=0),  # clipped to the parent
        ]
        assert self_times(spans)[0].wall == pytest.approx(10.0 - 6.0 - 1.0)


class _Target:
    def outer(self, tracer_calls):
        tracer_calls.append("outer")
        return self.inner() + 1

    def inner(self):
        return 41


def test_tracer_links_parents_and_restores():
    original_outer = _Target.outer
    tracer = Tracer()
    tracer.wrap(_Target, "outer", "t.outer", note=lambda args, result: result)
    tracer.wrap(_Target, "inner", "t.inner")
    calls = []
    assert _Target().outer(calls) == 42

    worker = threading.Thread(target=_Target().inner)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.restore()

    assert _Target.outer is original_outer
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (outer,) = by_name["t.outer"]
    main_inner, thread_inner = sorted(by_name["t.inner"], key=lambda s: s.parent is None)
    assert outer.info == 42
    assert main_inner.parent == outer.span_id
    assert outer.start <= main_inner.start <= main_inner.end <= outer.end
    assert thread_inner.parent is None
    assert thread_inner.thread != outer.thread


def test_rows_equal_tolerates_float_order_but_not_values():
    assert rows_equal([(1, 0.1 + 0.2)], [(1, 0.3)], ordered=True)
    assert rows_equal([("b", 2), ("a", 1)], [("a", 1), ("b", 2)], ordered=False)
    assert not rows_equal([("b", 2), ("a", 1)], [("a", 1), ("b", 2)], ordered=True)
    assert not rows_equal([(1, 0.3)], [(1, 0.31)], ordered=False)
    assert not rows_equal([(1, None)], [(1, 0.0)], ordered=False)


def test_writer_applies_one_batch_per_due_time_and_drops_the_rest():
    from perfbench.workloads import Write, run_writer

    inserted = []
    served = SimpleNamespace(
        system=SimpleNamespace(gateway=SimpleNamespace(serve_lock=threading.Lock()), turn=7),
        db=SimpleNamespace(insert_rows=lambda table, rows: inserted.append((table, rows))),
    )
    writes = [Write("t", [(i,)]) for i in range(5)]
    due: queue.Queue = queue.Queue()
    for when in (1.0, 2.0, None):
        due.put(when)
    run_writer(served, writes, due)
    assert [w.due for w in writes] == [1.0, 2.0]
    assert inserted == [("t", [(0,)]), ("t", [(1,)])]
    assert all(w.turn == 7 and w.error is None and w.end >= w.sent for w in writes)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    pytest.importorskip("repro")
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

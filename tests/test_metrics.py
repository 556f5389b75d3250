"""Tests for the metrics substrate."""

import pytest

from repro.metrics.counters import CounterSet
from repro.metrics.jitter import FlowMetrics
from repro.metrics.latency import LatencyStat
from repro.metrics.lockstat import LockStat
from repro.metrics.report import ratio, render_table


class TestLatencyStat:
    def test_empty(self):
        stat = LatencyStat()
        assert stat.count == 0
        assert stat.mean == 0.0
        assert stat.min is None and stat.max is None

    def test_aggregates(self):
        stat = LatencyStat()
        for value in (10, 20, 30):
            stat.record(value)
        assert stat.count == 3
        assert stat.mean == 20
        assert stat.min == 10
        assert stat.max == 30

    def test_snapshot(self):
        stat = LatencyStat(name="x")
        stat.record(5)
        snap = stat.snapshot()
        assert snap == {
            "name": "x",
            "count": 1,
            "mean": 5.0,
            "min": 5,
            "max": 5,
        }


class TestCounterSet:
    def test_inc_and_get(self):
        counters = CounterSet()
        counters.inc("a")
        counters.inc("a", 4)
        assert counters.get("a") == 5
        assert counters.get("missing") == 0
        assert counters.get("missing", 7) == 7

    def test_window_deltas(self):
        counters = CounterSet()
        counters.inc("x", 10)
        counters.mark_window()
        counters.inc("x", 3)
        counters.inc("y", 2)
        assert counters.window_delta("x") == 3
        assert counters.window_delta("y") == 2
        deltas = counters.window_deltas()
        assert deltas["x"] == 3 and deltas["y"] == 2

    def test_reset(self):
        counters = CounterSet()
        counters.inc("x", 5)
        counters.mark_window()
        counters.reset()
        assert counters.get("x") == 0
        assert counters.window_delta("x") == 0

    def test_as_dict_isolated_copy(self):
        counters = CounterSet()
        counters.inc("x")
        copy = counters.as_dict()
        copy["x"] = 99
        assert counters.get("x") == 1


class TestLockStat:
    def test_record_and_query(self):
        stats = LockStat()
        stats.record_wait("dentry", 2_000)
        stats.record_wait("dentry", 4_000)
        assert stats.mean_wait_us("dentry") == pytest.approx(3.0)
        assert stats.stat("dentry").count == 2

    def test_unknown_class(self):
        stats = LockStat()
        assert stats.stat("none") is None
        assert stats.mean_wait_us("none") == 0.0

    def test_classes_sorted(self):
        stats = LockStat()
        stats.record_wait("b", 1)
        stats.record_wait("a", 1)
        assert stats.classes() == ["a", "b"]

    def test_snapshot(self):
        stats = LockStat()
        stats.record_wait("rq", 100)
        assert stats.snapshot()["rq"]["count"] == 1


class TestFlowMetrics:
    def test_throughput_over_interval(self):
        flow = FlowMetrics()
        flow.on_delivery(now=0, sent_at=0, size=125_000)
        flow.on_delivery(now=1_000_000_000, sent_at=1_000_000_000, size=125_000)
        # 250 KB over 1 s = 2 Mbit/s
        assert flow.throughput_mbps() == pytest.approx(2.0)

    def test_throughput_explicit_duration(self):
        flow = FlowMetrics()
        flow.on_delivery(now=5, sent_at=0, size=1_250_000)
        assert flow.throughput_mbps(duration_ns=1_000_000_000) == pytest.approx(10.0)

    def test_zero_packets(self):
        flow = FlowMetrics()
        assert flow.throughput_mbps() == 0.0
        assert flow.jitter_ms == 0.0

    def test_constant_transit_zero_jitter(self):
        flow = FlowMetrics()
        for index in range(10):
            flow.on_delivery(now=index * 1_000_000 + 500, sent_at=index * 1_000_000, size=100)
        assert flow.jitter_ms == 0.0
        assert flow.final_jitter_ms == 0.0

    def test_varying_transit_positive_jitter(self):
        flow = FlowMetrics()
        transits = [0, 5_000_000, 0, 5_000_000]  # alternate 0 / 5 ms
        for index, transit in enumerate(transits):
            flow.on_delivery(now=index * 10_000_000 + transit, sent_at=index * 10_000_000, size=100)
        assert flow.jitter_ms == pytest.approx(5.0)
        assert flow.final_jitter_ms > 0

    def test_max_transit_tracked(self):
        flow = FlowMetrics()
        flow.on_delivery(now=9_000_000, sent_at=0, size=10)
        assert flow.max_transit == 9_000_000


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(["name", "value"], [["a", 1], ["long-name", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5
        assert lines[3].startswith("a")

    def test_float_formatting(self):
        text = render_table(["v"], [[0.12345], [123.456], [1.5]])
        assert "0.1234" in text or "0.1235" in text
        assert "123.5" in text
        assert "1.50" in text

    def test_ratio_safe(self):
        assert ratio(10, 5) == 2.0
        assert ratio(10, 0) == 0.0

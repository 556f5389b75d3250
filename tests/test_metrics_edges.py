"""Edge cases for the metric primitives: empty stats, single samples,
histogram merges with empty peers, and zero-observation histogram
export."""

from repro.metrics.histogram import Histogram
from repro.metrics.latency import LatencyStat


class TestLatencyStatEmpty:
    def test_empty_snapshot_is_all_zero(self):
        snap = LatencyStat("empty").snapshot()
        assert snap == {"name": "empty", "count": 0, "mean": 0.0, "min": 0, "max": 0}


class TestLatencyStatSingleSample:
    def test_single_sample_collapses_min_mean_max(self):
        stat = LatencyStat("one")
        stat.record(700)
        snap = stat.snapshot()
        assert snap["count"] == 1
        assert snap["mean"] == 700.0
        assert snap["min"] == snap["max"] == 700


class TestHistogramZeroObservations:
    def test_empty_snapshot_exports_cleanly(self):
        snap = Histogram("empty").snapshot()
        assert snap == {
            "name": "empty", "count": 0, "mean": 0.0,
            "min": 0, "max": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
            "buckets": [],
        }

    def test_empty_merge_with_empty(self):
        hist = Histogram("a")
        hist.merge(Histogram("b"))
        assert hist.snapshot()["count"] == 0
        assert hist.buckets() == []

    def test_merge_with_empty_is_identity(self):
        hist = Histogram("a")
        for value in (3, 70, 900):
            hist.record(value)
        before = hist.snapshot()
        hist.merge(Histogram("b"))
        assert hist.snapshot() == before

    def test_zero_valued_observation_is_not_empty(self):
        hist = Histogram("zeros")
        hist.record(0)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["buckets"] == [[0, 1]]
        assert snap["p99"] == 0.0

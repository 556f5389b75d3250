"""Fixed-bucket log2 histograms.

These are the simulator's only latency tails (:class:`LatencyStat`
keeps exact aggregates, no percentiles). The paper's latency tables
(and the trace ``analyze`` tool) need percentiles that export
deterministically, so :class:`Histogram` buckets values by
``int(value).bit_length()`` — bucket 0 holds exactly ``{0}``, bucket
``i`` holds ``[2^(i-1), 2^i - 1]`` — and answers p50/p95/p99 by walking
the cumulative counts. The result is a pure function of the recorded
multiset: independent of insertion order, merge order, and RNG state.
"""

import math


class Histogram:
    """Streaming log2 histogram with deterministic percentiles."""

    __slots__ = ("name", "count", "total", "min", "max", "_buckets")

    def __init__(self, name=""):
        self.name = name
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self._buckets = {}  # bucket index -> count (sparse)

    @staticmethod
    def bucket_index(value):
        """Bucket for ``value``: 0 for 0, else ``bit_length`` (values are
        clamped at 0 — latencies are never negative by construction)."""
        value = int(value)
        return value.bit_length() if value > 0 else 0

    @staticmethod
    def bucket_bounds(index):
        """Inclusive ``(low, high)`` value range of bucket ``index``."""
        if index <= 0:
            return (0, 0)
        return (1 << (index - 1), (1 << index) - 1)

    def record(self, value):
        value = max(0, int(value))
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = self.bucket_index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, q):
        """The ``q``-th percentile (0..100): the upper edge of the bucket
        containing the rank-``ceil(q/100 * count)`` value, clamped into
        the exact observed ``[min, max]`` range. Deterministic — no
        sampling involved."""
        if not self.count:
            return 0.0
        rank = max(1, math.ceil((q / 100.0) * self.count))
        cumulative = 0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= rank:
                _low, high = self.bucket_bounds(index)
                return float(min(max(high, self.min), self.max))
        return float(self.max)

    def merge(self, other):
        """Fold ``other`` into this histogram. Exact and commutative:
        bucket counts simply add."""
        self.count += other.count
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is None:
                continue
            if self.min is None or bound < self.min:
                self.min = bound
            if self.max is None or bound > self.max:
                self.max = bound
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count

    def buckets(self):
        """Sorted ``[(bucket_index, count), ...]`` (sparse)."""
        return sorted(self._buckets.items())

    @classmethod
    def from_snapshot(cls, snap):
        """Rebuild a mergeable histogram from its :meth:`snapshot` form.

        The inverse is exact for everything percentiles depend on
        (count, min, max, buckets); ``total`` is reconstructed from the
        snapshot mean — a pure function of the snapshot, so replaying
        and merging snapshots stays deterministic. This is how the
        fleet layer folds per-host ``virq_delivery`` histograms (which
        cross a JSON boundary per job) into one fleet-wide tail."""
        hist = cls(name=snap.get("name", ""))
        hist.count = int(snap.get("count", 0))
        total = snap.get("total")
        if total is None:
            total = round(float(snap.get("mean", 0.0)) * hist.count)
        hist.total = int(total)
        if hist.count:
            hist.min = int(snap.get("min", 0))
            hist.max = int(snap.get("max", 0))
        for index, count in snap.get("buckets", ()):
            index = int(index)
            hist._buckets[index] = hist._buckets.get(index, 0) + int(count)
        return hist

    def snapshot(self):
        """JSON-native summary with deterministic tail percentiles."""
        return {
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": [[index, count] for index, count in self.buckets()],
        }

    def __repr__(self):
        return "<Histogram %s n=%d mean=%.1f max=%s>" % (
            self.name,
            self.count,
            self.mean,
            self.max,
        )


class HistogramSet:
    """Named histograms created on first record (the hypervisor's
    latency instrumentation: spinlock waits, TLB-sync completion, IPI
    acks, vIRQ delivery)."""

    def __init__(self):
        self._hists = {}

    def get(self, name):
        hist = self._hists.get(name)
        if hist is None:
            hist = Histogram(name=name)
            self._hists[name] = hist
        return hist

    def record(self, name, value):
        self.get(name).record(value)

    def names(self):
        return sorted(self._hists)

    def snapshot(self):
        return {name: self._hists[name].snapshot() for name in self.names()}

    def reset(self):
        self._hists.clear()

    def __len__(self):
        return len(self._hists)

"""Latency statistics.

:class:`LatencyStat` keeps exact O(1) aggregates (count/total/min/max,
and so the mean) — what every latency table in the paper prints
(spinlock waits, TLB-sync completion times). Latency tails come from
the log2 :class:`~repro.metrics.histogram.Histogram` set instead.
"""


class LatencyStat:
    """Streaming latency aggregate: exact count, total, min and max."""

    def __init__(self, name=""):
        self.name = name
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def record(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def snapshot(self):
        """Plain-dict summary (ns units preserved)."""
        return {
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
        }

    def __repr__(self):
        return "<LatencyStat %s n=%d mean=%.1f>" % (self.name, self.count, self.mean)

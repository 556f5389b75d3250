"""Fleet orchestration benchmark: host-jobs/sec through ``run_fleet``.

The fleet layer compiles every host-epoch into an ordinary ``SimJob``
and fans waves out through ``execute_many``, so its throughput is the
runner's throughput plus the orchestration overhead (arrival stream,
placement, admission, histogram merge). This benchmark measures the
end-to-end rate on a small fixed fleet and folds the headline number
into ``BENCH_engine.json`` alongside the engine/runner rates.

Serial and cache-off so every round pays full simulation cost and the
number is comparable across machines with different core counts.
"""

import functools

from test_simulator_perf import BENCH_JSON, _mean, _record  # noqa: F401

from repro.fleet import FleetSpec, run_fleet
from repro.runner import execute_many

#: Small but non-trivial: enough sessions that placement and the
#: histogram merge are exercised, scaled epochs so a round stays fast.
SPEC = FleetSpec(hosts=4, epochs=3, rate=10.0, seed=42, scale=0.02)


class TestFleetThroughput:
    def test_fleet_host_jobs_per_sec(self, benchmark):
        summaries = benchmark.pedantic(
            run_fleet,
            args=(SPEC, ("first_fit",),
                  functools.partial(execute_many, workers=0, cache=False)),
            rounds=1,
            iterations=1,
        )
        summary = summaries["first_fit"]
        jobs = summary["jobs_planned"]
        assert jobs > 0, summary
        assert summary["virq"]["count"] > 0, summary
        _record("fleet_host_jobs_per_sec", jobs / _mean(benchmark))

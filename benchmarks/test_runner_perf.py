"""Runner scale-out benchmarks over the persistent worker pool.

These benchmarks measure a 16-job cold plan dispatched over the warm
persistent pool at workers=4, the worker scale-up curve, the per-job
payload bytes a worker sends back through the result pipe, and the
warm replay of one cached result (decoded, and reused from the decode
memo), and fold every headline number into ``BENCH_engine.json``.

Every dispatch run has the result cache off so each round pays the
full simulation cost (cold-plan conditions); the pool is measured warm,
i.e. after the one-time spawn that real sessions amortise across every
``execute()`` call.
"""

import json

import pytest
from test_simulator_perf import BENCH_JSON, _mean, _record  # noqa: F401

from repro.experiments.results import RunResult
from repro.obs import telemetry
from repro.runner import SimJob, cache, execute
from repro.runner import pool as pool_mod
from repro.runner.jobs import run_job
from repro.sim.time import ms

#: The A/B plan: 16 distinct physical points (seeds), minimum-floor
#: durations so the benchmark measures dispatch cost, not simulation.
JOB_COUNT = 16
WORKERS = 4

#: Rounds of the decode-path hydration benchmark: each round empties
#: the decode memo first (untimed), so rounds are counted, not timed.
DECODE_ROUNDS = 200


def _plan(prefix):
    return [
        SimJob(
            tag="%s%02d" % (prefix, index),
            scenario="solo",
            scenario_kwargs={"workload_kind": "gmake"},
            seed=100 + index,
            duration_ns=ms(10),
        )
        for index in range(JOB_COUNT)
    ]


class TestRunnerThroughput:
    def test_persistent_pool_warm(self, benchmark):
        """Longest-first streaming dispatch over the warm shared pool
        (spawned once, outside the measured region)."""
        warmup = _plan("warm")[:2]
        execute(warmup, workers=WORKERS, cache=False)
        shared = pool_mod.shared_pool(WORKERS)
        assert shared is not None and shared.alive

        jobs = _plan("pool")
        results = benchmark.pedantic(
            execute, args=(jobs,), kwargs={"workers": WORKERS, "cache": False},
            rounds=1, iterations=1,
        )
        assert len(results) == JOB_COUNT
        _record("runner_pool_jobs_per_sec", JOB_COUNT / _mean(benchmark))


class TestRunnerScaling:
    def test_scaleup_curve(self, benchmark):
        """Jobs/sec at workers 1 (inline serial), 2, and 4 over the warm
        pool — the honest scaling picture for the README curve."""
        import time

        curve = {}
        for workers, prefix in ((1, "s1"), (2, "s2"), (4, "s4")):
            jobs = _plan(prefix)
            if workers > 1:  # warm the pool up to this width first
                execute(jobs[:2], workers=workers, cache=False)
            start = time.perf_counter()
            results = execute(jobs, workers=workers, cache=False)
            curve[workers] = JOB_COUNT / (time.perf_counter() - start)
            assert len(results) == JOB_COUNT
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # satisfy fixture
        for workers, rate in curve.items():
            _record("runner_scaleup_w%d_jobs_per_sec" % workers, rate)


class TestPayloadTransport:
    def test_payload_bytes(self, benchmark):
        """Every pooled job ships its payload back through the result
        queue; record the per-job pipe traffic."""
        job = _plan("x")[0]
        payload = benchmark.pedantic(run_job, args=(job,), rounds=1, iterations=1)
        payload_bytes = len(json.dumps(payload, sort_keys=True).encode())
        assert payload_bytes > 64
        _record("runner_payload_transport_bytes", payload_bytes)


@pytest.fixture(scope="class")
def warm_entry(tmp_path_factory):
    """One stored cache entry: the manifest-scale seed-42 gmake co-run
    baseline, the most shared point in the experiment plans. Returns
    ``(key, directory, payload)``."""
    from repro.tools import payload_manifest

    [job] = [
        job
        for job, tags in payload_manifest.unique_jobs().values()
        if "fig4:gmake:0" in tags
    ]
    key = cache.job_key(job)
    payload = run_job(job)
    directory = tmp_path_factory.mktemp("warm")
    cache.store(key, job, payload, directory)
    return key, directory, payload


class TestWarmHydration:
    def test_load_and_from_dict(self, benchmark, warm_entry):
        """The per-result stage of a process's first warm replay of an
        entry: read, decode and freeze it, then hydrate it (fields a
        reducer reads are decoded later, outside this stage). The
        decode memo is emptied before every round, so this keeps timing
        the JSON decode and its checks."""
        key, directory, payload = warm_entry

        def hydrate():
            return RunResult.from_frozen(cache.load(key, directory))

        result = benchmark.pedantic(
            hydrate, setup=cache.forget_decoded, rounds=DECODE_ROUNDS, iterations=1
        )
        assert result.to_dict() == payload
        _record("runner_warm_hydrate_us", _mean(benchmark) * 1e6)

    def test_rehydrate_from_decode_memo(self, benchmark, warm_entry):
        """Every later replay of the same bytes in one process (serve's
        hit fast path, a test session, a benchmark loop): read the
        entry, compare it with the memoized bytes, hydrate a result
        over the memoized blobs."""
        key, directory, payload = warm_entry
        cache.forget_decoded()
        cache.load(key, directory)
        reuses = telemetry.snapshot()["counters"].get("cache.decode_reuses", 0)

        def hydrate():
            return RunResult.from_frozen(cache.load(key, directory))

        result = benchmark(hydrate)
        assert result.to_dict() == payload
        assert telemetry.snapshot()["counters"]["cache.decode_reuses"] > reuses
        _record("runner_warm_rehydrate_us", _mean(benchmark) * 1e6)

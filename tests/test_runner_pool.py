"""The persistent worker pool: lifetime, scheduling, transport, and
crash resilience.

The contract under test: ``execute()``/``execute_many()`` through the
persistent pool must be byte-identical to serial execution, the parent
must land (and, with the cache on, store) every result itself, the pool must
spawn once and be reused across calls, a crashed worker must cost at
most one retry — never a hang — and every degraded path must fall back
inline instead of failing the run.
"""

import json
import os
import signal
import struct
import threading
import time

import pytest

from repro.errors import WorkerError
from repro.obs import telemetry
from repro.runner import SimJob, execute, execute_many
from repro.runner import executor as executor_mod
from repro.runner import pool as pool_mod
from repro.sim.time import ms


def _job(tag, seed, duration_ms=10):
    return SimJob(
        tag=tag,
        scenario="solo",
        scenario_kwargs={"workload_kind": "gmake"},
        seed=seed,
        duration_ns=ms(duration_ms),
    )


def _norm(results):
    return json.dumps(
        {tag: res.to_dict() for tag, res in results.items()}, sort_keys=True
    )


def _cache_counters():
    counters = telemetry.snapshot()["counters"]
    return {
        name: counters.get("cache." + name, 0)
        for name in ("hits", "misses", "stores", "store_errors")
    }


def _moved(before):
    after = _cache_counters()
    return {name: after[name] - before[name] for name in after}


def _counters(names):
    counters = telemetry.snapshot()["counters"]
    return {name: counters.get(name, 0) for name in names}


def _torn_result_worker(conn, warm):
    """A stand-in for ``pool._worker_main`` that takes one job, writes
    a result frame's length header and a few of its bytes, then dies:
    the torn result a worker killed mid-send leaves on its pipe."""
    warm.value = 1
    conn.recv()
    os.write(conn.fileno(), struct.pack("!i", 1024) + b"torn")
    os._exit(0)


@pytest.fixture
def fresh_pool_env():
    """Tear the shared pool down after a test that changed its spawn
    environment (crash hooks leak into workers via os.environ)."""
    pool_mod.shutdown_shared()
    yield
    pool_mod.shutdown_shared()


class TestDefaultWorkers:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(executor_mod.ENV_WORKERS, raising=False)
        assert executor_mod.default_workers() == 1

    def test_integer(self, monkeypatch):
        monkeypatch.setenv(executor_mod.ENV_WORKERS, "3")
        assert executor_mod.default_workers() == 3

    def test_auto_maps_to_cpu_count(self, monkeypatch):
        monkeypatch.setenv(executor_mod.ENV_WORKERS, "auto")
        assert executor_mod.default_workers() == max(1, os.cpu_count() or 1)

    def test_garbage_warns_instead_of_silently_degrading(self, monkeypatch):
        monkeypatch.setenv(executor_mod.ENV_WORKERS, "banana")
        with pytest.warns(RuntimeWarning, match="banana"):
            assert executor_mod.default_workers() == 1

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_non_positive_warns_like_garbage(self, monkeypatch, raw):
        """One grammar with ``--workers``: a count below 1 is invalid
        there, so here it warns and runs serial instead of silently."""
        monkeypatch.setenv(executor_mod.ENV_WORKERS, raw)
        with pytest.warns(RuntimeWarning, match="positive integer"):
            assert executor_mod.default_workers() == 1


class TestPersistentPool:
    def test_pool_reused_across_execute_calls(self, tmp_path):
        first = execute([_job("a", 1), _job("b", 2)], workers=2, cache=False)
        shared = pool_mod._SHARED
        assert shared is not None and shared.alive
        pids = shared.worker_pids()
        second = execute([_job("c", 3), _job("d", 4)], workers=2, cache=False)
        assert pool_mod._SHARED is shared
        assert shared.worker_pids() == pids  # same processes, no respawn
        assert set(first) == {"a", "b"} and set(second) == {"c", "d"}

    def test_payload_transport_matches_serial(self):
        jobs = [_job("j%d" % i, seed=i) for i in range(4)]
        serial = execute(jobs, workers=1, cache=False)
        pooled = execute(jobs, workers=2, cache=False)
        assert _norm(serial) == _norm(pooled)

    def test_pooled_run_parent_writes_each_cache_entry(self, tmp_path):
        jobs = [_job("j%d" % i, seed=i) for i in range(4)]
        serial = execute(jobs, workers=1, cache=False)
        pooled = execute(jobs, workers=2, cache=True, cache_dir=tmp_path)
        assert _norm(serial) == _norm(pooled)
        # The parent stored each pooled result as it landed: every
        # unique job has exactly one valid entry on disk.
        entries = sorted(tmp_path.glob("*.json"))
        assert len(entries) == len(jobs)
        for entry in entries:
            payload = json.loads(entry.read_text())
            assert payload["key"] == entry.stem
            assert isinstance(payload["result"], dict)
        # ... and the warm replay serves them back bit-identically.
        warm = execute(jobs, workers=2, cache=True, cache_dir=tmp_path)
        assert _norm(warm) == _norm(serial)

    def test_cold_pooled_run_counts_no_cache_hits(self, tmp_path):
        """Simulated jobs are misses that get stored, never hits; only
        the warm replay hits."""
        jobs = [_job("h%d" % i, seed=40 + i) for i in range(4)]
        before = _cache_counters()
        execute(jobs, workers=2, cache=True, cache_dir=tmp_path)
        moved = _moved(before)
        assert (moved["hits"], moved["misses"], moved["stores"]) == (0, 4, 4)
        before = _cache_counters()
        execute(jobs, workers=2, cache=True, cache_dir=tmp_path)
        assert _moved(before)["hits"] == 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_store_failure_warns_and_still_returns_payloads(
        self, tmp_path, monkeypatch, workers
    ):
        jobs = [_job("s%d" % i, seed=60 + i) for i in range(4)]
        reference = execute(jobs, workers=1, cache=False)

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.runner.cache.os.replace", refuse)
        before = _cache_counters()
        with pytest.warns(RuntimeWarning, match="could not write"):
            results = execute(jobs, workers=workers, cache=True, cache_dir=tmp_path)
        assert _moved(before)["store_errors"] == len(jobs)
        assert _norm(results) == _norm(reference)
        assert list(tmp_path.glob("*.json")) == []

    def test_grow_on_larger_request(self):
        execute([_job("a", 1), _job("b", 2)], workers=2, cache=False)
        size_before = pool_mod._SHARED.size
        execute([_job("c", 3), _job("d", 4), _job("e", 5)], workers=3, cache=False)
        assert pool_mod._SHARED.size == max(size_before, 3)

    def test_single_worker_never_spawns(self):
        pool_mod.shutdown_shared()
        results = execute([_job("a", 1), _job("b", 2)], workers=1, cache=False)
        assert pool_mod._SHARED is None
        assert set(results) == {"a", "b"}


class TestWorkerPoolPrimitive:
    def test_chunked_run_returns_input_order(self, fresh_pool_env):
        pool = pool_mod.WorkerPool(2)
        try:
            jobs = [_job("c%d" % i, seed=10 + i) for i in range(5)]
            outcomes = pool.run([job.to_dict() for job in jobs])
            assert [o.kind for o in outcomes] == ["payload"] * 5
            inline = [executor_mod.run_job(job) for job in jobs]
            assert [o.value for o in outcomes] == inline
            assert all(o.seconds > 0 for o in outcomes)
        finally:
            pool.close()

    def test_in_job_exception_surfaces_as_error_outcome(self, fresh_pool_env):
        pool = pool_mod.WorkerPool(1)
        try:
            bad = SimJob(tag="bad", scenario="no-such-scenario", duration_ns=ms(10))
            (outcome,) = pool.run([bad.to_dict()])
            assert outcome.kind == "error"
            assert "no-such-scenario" in outcome.value
        finally:
            pool.close()

    def test_leftover_of_an_aborted_run_is_discarded(self, fresh_pool_env):
        """An ``on_result`` that raises ends the run with the other job
        still in its worker. The next run discards that leftover's
        result and returns only its own outcomes, in input order."""
        pool = pool_mod.WorkerPool(2)

        def abort(_job_id, _outcome):
            raise RuntimeError("abort the run")

        try:
            first = [_job("a0", 51).to_dict(), _job("a1", 52).to_dict()]
            with pytest.raises(RuntimeError, match="abort the run"):
                pool.run(first, on_result=abort)
            names = ("pool.epoch_discards", "pool.jobs_failed")
            before = _counters(names)
            jobs = [_job("n%d" % i, seed=60 + i) for i in range(2)]
            # One worker at a time: the leftover's worker counts as
            # busy, so its result lands before any new job is handed out.
            outcomes = pool.run([job.to_dict() for job in jobs], max_workers=1)
            after = _counters(names)
            assert [o.value for o in outcomes] == [executor_mod.run_job(j) for j in jobs]
            assert {name: after[name] - before[name] for name in names} == {
                "pool.epoch_discards": 1, "pool.jobs_failed": 0}
        finally:
            pool.close()


class TestCrashResilience:
    def test_crash_retried_once_then_succeeds(self, tmp_path, monkeypatch, fresh_pool_env):
        marker = tmp_path / "crashed-once"
        monkeypatch.setenv(pool_mod.ENV_TEST_CRASH, "victim:%s" % marker)
        jobs = [_job("j0", 1), _job("victim", 2), _job("j2", 3)]
        with pytest.warns(RuntimeWarning, match="retrying"):
            results = execute(jobs, workers=2, cache=False)
        assert marker.exists()
        assert set(results) == {"j0", "victim", "j2"}
        monkeypatch.delenv(pool_mod.ENV_TEST_CRASH)
        pool_mod.shutdown_shared()
        serial = execute(jobs, workers=1, cache=False)
        assert _norm(results) == _norm(serial)

    def test_repeated_crash_raises_worker_error_not_hang(
        self, monkeypatch, fresh_pool_env
    ):
        monkeypatch.setenv(pool_mod.ENV_TEST_CRASH, "victim")
        jobs = [_job("j0", 1), _job("victim", 2)]
        with pytest.warns(RuntimeWarning, match="retrying"):
            with pytest.raises(WorkerError, match="victim"):
                execute(jobs, workers=2, cache=False)

    def test_worker_error_message_names_the_job(self, monkeypatch, fresh_pool_env):
        monkeypatch.setenv(pool_mod.ENV_TEST_CRASH, "victim")
        with pytest.warns(RuntimeWarning, match="retrying"):
            with pytest.raises(WorkerError, match="died repeatedly"):
                execute([_job("victim", 2), _job("ok", 3)], workers=2, cache=False)

    def test_torn_result_does_not_wedge_the_pool(self, monkeypatch, recwarn, fresh_pool_env):
        """Every worker writes half a result frame and dies. The run
        must still end, with the job's error outcome. It runs in a
        thread so that a wedged pool fails the test instead of hanging
        the suite."""
        monkeypatch.setattr(pool_mod, "_worker_main", _torn_result_worker)
        pool = pool_mod.WorkerPool(1)
        outcomes = []
        runner = threading.Thread(
            target=lambda: outcomes.extend(pool.run([_job("torn", 7).to_dict()])),
            daemon=True,
        )
        try:
            runner.start()
            runner.join(20)
            assert not runner.is_alive(), "the pool waited on a torn result"
            (outcome,) = outcomes
            assert outcome.kind == "error"
            assert "died repeatedly" in outcome.value
            assert "retrying" in str(recwarn.pop(RuntimeWarning).message)
        finally:
            pool.close()

    def test_worker_killed_while_idle_is_replaced(self, fresh_pool_env):
        """A worker that died between runs is respawned at hand-off:
        no crash is counted and no retry is spent."""
        pool = pool_mod.WorkerPool(1)
        try:
            jobs = [_job("k0", 71), _job("k1", 72)]
            pool.run([jobs[0].to_dict()])
            process = pool._workers[0].process
            os.kill(process.pid, signal.SIGKILL)
            process.join(10)
            assert not process.is_alive()
            names = ("pool.workers_respawned", "pool.worker_crashes")
            before = _counters(names)
            outcomes = pool.run([job.to_dict() for job in jobs])
            after = _counters(names)
            assert [o.value for o in outcomes] == [executor_mod.run_job(j) for j in jobs]
            assert {name: after[name] - before[name] for name in names} == {
                "pool.workers_respawned": 1, "pool.worker_crashes": 0}
        finally:
            pool.close()


def _progress_log(jobs):
    """Run ``jobs`` through ``execute`` at two workers; returns the
    ``(event, tag)`` progress stream and the results."""
    events = []
    results = execute(jobs, workers=2, cache=False,
                      progress=lambda event, tag, _done, _total: events.append((event, tag)))
    return events, results


class TestPooledProgress:
    """The parent hands each job to an idle worker, so ``start`` fires
    at hand-off: every tag starts before it is done, and is done once."""

    def test_every_job_starts_before_its_single_done(self, fresh_pool_env):
        jobs = [_job("p%d" % i, seed=80 + i) for i in range(10)]
        events, results = _progress_log(jobs)
        assert set(results) == {job.tag for job in jobs}
        for job in jobs:
            mine = [event for event, tag in events if tag == job.tag]
            assert mine == ["start", "done"], (job.tag, mine)

    def test_crash_retry_starts_twice_and_is_done_once(
        self, tmp_path, monkeypatch, fresh_pool_env
    ):
        marker = tmp_path / "crashed-once"
        monkeypatch.setenv(pool_mod.ENV_TEST_CRASH, "p3:%s" % marker)
        jobs = [_job("p%d" % i, seed=90 + i) for i in range(10)]
        with pytest.warns(RuntimeWarning, match="retrying"):
            events, results = _progress_log(jobs)
        assert marker.exists() and set(results) == {job.tag for job in jobs}
        for job in jobs:
            mine = [event for event, tag in events if tag == job.tag]
            expected = ["start", "start", "done"] if job.tag == "p3" else ["start", "done"]
            assert mine == expected, (job.tag, mine)


@pytest.fixture(scope="module")
def owned_pool():
    """A caller-owned two-worker pool (what ``repro serve`` keeps),
    warmed up before the first test uses it."""
    owned = pool_mod.WorkerPool(2)
    deadline = time.time() + 60
    while not owned.warm:
        assert time.time() < deadline, "the owned pool never warmed up"
        time.sleep(0.01)
    yield owned
    owned.close()


class TestCallerOwnedPool:
    """``execute_many(..., pool=)``: a warm owned pool takes every
    batch; a cold one takes only what the shared pool would have taken,
    and the rest runs inline. The shared pool is never used."""

    def _run(self, owned, jobs, workers, monkeypatch):
        monkeypatch.setattr(pool_mod, "shared_pool",
                            lambda workers: pytest.fail("shared pool used"))
        counters = telemetry.snapshot()["counters"]
        before = {name: counters.get(name, 0)
                  for name in ("pool.jobs_completed", "runner.jobs_inline")}
        results = execute_many({"p": jobs}, workers=workers, cache=False, pool=owned)["p"]
        counters = telemetry.snapshot()["counters"]
        moved = {name: counters.get(name, 0) - before[name] for name in before}
        assert _norm(results) == _norm(execute(jobs, workers=1, cache=False))
        return moved["pool.jobs_completed"], moved["runner.jobs_inline"]

    def test_warm_pool_takes_a_single_job_at_one_worker(self, owned_pool, monkeypatch):
        assert self._run(owned_pool, [_job("a", 41)], 1, monkeypatch) == (1, 0)

    def test_cold_pool_still_fans_out_a_multi_job_batch(self, owned_pool, monkeypatch):
        monkeypatch.setattr(pool_mod.WorkerPool, "warm", property(lambda self: False))
        jobs = [_job("a", 42), _job("b", 43)]
        assert self._run(owned_pool, jobs, 2, monkeypatch) == (2, 0)

    @pytest.mark.parametrize("jobs, workers", [
        ([_job("a", 44)], 2),
        ([_job("a", 45), _job("b", 46)], 1),
    ])
    def test_cold_pool_leaves_the_rest_inline(self, owned_pool, monkeypatch, jobs, workers):
        monkeypatch.setattr(pool_mod.WorkerPool, "warm", property(lambda self: False))
        assert self._run(owned_pool, jobs, workers, monkeypatch) == (0, len(jobs))


class TestExecuteMany:
    def test_cross_plan_dedup_simulates_once(self, tmp_path):
        plans = {
            "alpha": [_job("a1", seed=1), _job("shared", seed=2)],
            "beta": [_job("b1", seed=2), _job("b2", seed=3)],  # seed 2 shared
        }
        results = execute_many(plans, workers=1, cache=True, cache_dir=tmp_path)
        assert set(results) == {"alpha", "beta"}
        # 4 tags but only 3 unique physical points -> 3 cache entries.
        assert len(list(tmp_path.glob("*.json"))) == 3
        assert (
            results["alpha"]["shared"].to_dict() == results["beta"]["b1"].to_dict()
        )

    def test_duplicate_tags_inside_one_plan_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="alpha"):
            execute_many(
                {"alpha": [_job("x", 1), _job("x", 2)]}, workers=1, cache=False
            )

    def test_empty_batch(self):
        assert execute_many({}, workers=1, cache=False) == {}

    def test_concurrent_callers_serialise_on_the_dispatch_lock(self, tmp_path):
        """Two threads calling execute_many at once (the `repro serve`
        multi-client shape) must both succeed with correct results: the
        dispatch lock serialises them instead of the loser hitting the
        pool's single-dispatcher guard or silently degrading inline.
        Interleaved batches must also leave the shared pool's epoch
        accounting coherent — a third batch afterwards still works."""
        import threading

        pool_mod.shutdown_shared()
        results, failures = {}, []

        def batch(name, seeds):
            try:
                plans = {name: [_job("%s%d" % (name, s), seed=s) for s in seeds]}
                results[name] = execute_many(
                    plans, workers=2, cache=True, cache_dir=tmp_path
                )[name]
            except Exception as err:  # noqa: BLE001 - surfaced after join
                failures.append((name, repr(err)))

        threads = [
            threading.Thread(target=batch, args=("alpha", (101, 102, 103))),
            threading.Thread(target=batch, args=("beta", (201, 202, 203))),
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert failures == []
            assert set(results) == {"alpha", "beta"}

            # Both batches byte-identical to a serial re-run (cache off
            # so the comparison actually re-simulates).
            for name, seeds in (("alpha", (101, 102, 103)), ("beta", (201, 202, 203))):
                serial = execute(
                    [_job("%s%d" % (name, s), seed=s) for s in seeds],
                    workers=1, cache=False,
                )
                assert _norm(results[name]) == _norm(serial)

            # Epoch accounting survived the interleaving: no worker
            # still holds a job, and a follow-up batch on the same pool
            # completes.
            pool = pool_mod.shared_pool(2)
            assert all(worker.job is None for worker in pool._workers)
            again = execute_many(
                {"gamma": [_job("g", seed=301)]},
                workers=2, cache=True, cache_dir=tmp_path,
            )
            assert "g" in again["gamma"]
        finally:
            pool_mod.shutdown_shared()


class TestCostModel:
    """Dispatch order: the executor hands the pool its jobs longest
    simulated horizon first, equal horizons in plan order."""

    class _Recorder:
        def run(self, entries, max_workers=None, on_result=None, on_start=None):
            self.tags = [entry["tag"] for entry in entries]
            return [pool_mod.JobOutcome("payload", None, 0.0) for _ in entries]

    def _dispatched(self, jobs):
        recorder = self._Recorder()
        executor_mod._simulate_on_pool(
            recorder, [(job, job.tag) for job in jobs], 2,
            land=None, progress=executor_mod.Progress(),
        )
        return recorder.tags

    def test_longest_first_ordering(self):
        short = _job("short", 1, duration_ms=10)
        long = _job("long", 2, duration_ms=40)
        mid = _job("mid", 3, duration_ms=20)
        assert self._dispatched([short, long, mid]) == ["long", "mid", "short"]

    def test_stable_for_equal_costs(self):
        jobs = [_job("j%d" % i, seed=i, duration_ms=10) for i in range(4)]
        assert self._dispatched(jobs) == [job.tag for job in jobs]


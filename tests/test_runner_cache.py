"""Result-cache correctness: keys must move when anything that affects
the simulation moves, and damaged entries must degrade to a re-run,
never to a crash or a wrong result — even under concurrent writers.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.obs import telemetry
from repro.runner import SimJob, cache, execute, execute_many, static_policy
from repro.sim.time import ms


def _job(**overrides):
    spec = dict(
        tag="point",
        scenario="solo",
        scenario_kwargs={"workload_kind": "gmake"},
        seed=7,
        duration_ns=ms(12),
        warmup_ns=0,
    )
    spec.update(overrides)
    return SimJob(**spec)


def _cache_hits():
    return telemetry.snapshot()["counters"].get("cache.hits", 0)


def _assert_independent(first, second):
    """Two results of one cache key: equal, yet sharing no state, so
    mutating one's nested dicts leaves the other as it was."""
    assert first is not second
    snapshot = second.to_dict()
    assert first.to_dict() == snapshot
    assert first.domain_yields and first.workloads
    for causes in first.domain_yields.values():
        causes["mutated"] = 1
    next(iter(first.workloads.values())).extra["mutated"] = 1
    first.runstates.clear()
    assert second.to_dict() == snapshot


class TestKeying:
    def test_identical_jobs_share_a_key(self):
        assert cache.job_key(_job()) == cache.job_key(_job())

    def test_tag_is_not_part_of_the_identity(self):
        # Two experiments asking for the same physical point under
        # different tags must share one cache entry.
        assert cache.job_key(_job(tag="a")) == cache.job_key(_job(tag="b"))

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 8},
            {"duration_ns": ms(13)},
            {"warmup_ns": ms(2)},
            {"policy": static_policy(2)},
            {"scenario_kwargs": {"workload_kind": "exim"}},
            {"scenario": "corun"},
            {"overrides": {"ple_window": 1000}},
            {"overrides": {"scheduler": "shortslice"}},
        ],
    )
    def test_any_spec_change_misses(self, change):
        assert cache.job_key(_job()) != cache.job_key(_job(**change))

    def test_backends_never_share_an_entry(self):
        # A stale cross-backend hit would silently return credit results
        # for a --scheduler run; every backend name must key differently.
        keys = {
            name: cache.job_key(_job(overrides={"scheduler": name}))
            for name in ("credit", "credit2", "balance", "cosched", "shortslice")
        }
        assert len(set(keys.values())) == len(keys)


class TestStorage:
    def test_cold_run_populates_cache(self, tmp_path):
        execute([_job()], workers=1, cache=True, cache_dir=tmp_path)
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 1
        payload = json.loads(entries[0].read_text())
        assert payload["format"] == cache.FORMAT
        assert payload["key"] == cache.job_key(_job())
        assert isinstance(payload["result"], dict)

    def test_in_plan_dedup_simulates_once(self, tmp_path):
        jobs = [_job(tag="a"), _job(tag="b")]
        results = execute(jobs, workers=1, cache=True, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 1
        _assert_independent(results["a"], results["b"])

    def test_warm_replay_of_a_shared_key_loads_once(self, tmp_path):
        jobs = [_job(tag="a"), _job(tag="b")]
        execute(jobs, workers=1, cache=True, cache_dir=tmp_path)
        hits = _cache_hits()
        results = execute(jobs, workers=1, cache=True, cache_dir=tmp_path)
        assert _cache_hits() - hits == 1
        _assert_independent(results["a"], results["b"])

    def test_key_shared_across_plans_stays_independent(self, tmp_path):
        for _ in ("cold", "warm"):
            by_plan = execute_many(
                {"x": [_job(tag="a")], "y": [_job(tag="b")]},
                workers=1, cache=True, cache_dir=tmp_path,
            )
            _assert_independent(by_plan["x"]["a"], by_plan["y"]["b"])
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_corrupt_entry_warns_and_resimulates(self, tmp_path):
        baseline = execute([_job()], workers=1, cache=True, cache_dir=tmp_path)
        entry = next(tmp_path.glob("*.json"))
        entry.write_text("{not json at all")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            again = execute([_job()], workers=1, cache=True, cache_dir=tmp_path)
        assert again["point"].to_dict() == baseline["point"].to_dict()
        # The damaged entry was rewritten with a valid one.
        assert json.loads(entry.read_text())["key"] == cache.job_key(_job())

    def test_wrong_key_entry_treated_as_miss(self, tmp_path):
        execute([_job()], workers=1, cache=True, cache_dir=tmp_path)
        entry = next(tmp_path.glob("*.json"))
        payload = json.loads(entry.read_text())
        payload["key"] = "0" * 64
        entry.write_text(json.dumps(payload))
        with pytest.warns(RuntimeWarning, match="malformed"):
            execute([_job()], workers=1, cache=True, cache_dir=tmp_path)

    def test_format_1_entry_is_a_miss_not_poisoned(self, tmp_path, monkeypatch):
        # FORMAT is part of every key, so an entry written by the old
        # format sits under another name: never probed, never served.
        job = _job()
        with monkeypatch.context() as patch:
            patch.setattr(cache, "FORMAT", 1)
            old_key = cache.job_key(job)
            cache.store(old_key, job, {"stale": True}, tmp_path)
        assert cache.FORMAT != 1
        assert cache.job_key(job) != old_key
        before = telemetry.snapshot()["counters"]
        results = execute([job], workers=1, cache=True, cache_dir=tmp_path)
        after = telemetry.snapshot()["counters"]
        assert results["point"].runstates
        for name in ("cache.poisoned_entries", "cache.corrupt_entries", "cache.hits"):
            assert after.get(name, 0) == before.get(name, 0), name
        assert after["cache.misses"] == before.get("cache.misses", 0) + 1
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_env_off_disables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.ENV_TOGGLE, "off")
        assert not cache.enabled()
        execute([_job()], workers=1, cache=None, cache_dir=tmp_path)
        # No result entries. The meta/ telemetry snapshot is written
        # regardless — `repro telemetry` must work after a --no-cache
        # run — and is the only thing allowed to appear.
        assert list(tmp_path.glob("*.json")) == []
        assert [p.name for p in tmp_path.iterdir()] in ([], ["meta"])

    def test_explicit_cache_true_overrides_env_off(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.ENV_TOGGLE, "off")
        execute([_job()], workers=1, cache=True, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 1


class TestStaleTmpSweep:
    def _age(self, path, seconds):
        old = time.time() - seconds
        os.utime(path, (old, old))

    def test_sweep_removes_only_old_tmp_files(self, tmp_path):
        stale = tmp_path / ("%s.tmp.12345" % ("a" * 64))
        stale.write_text("{half-written")
        self._age(stale, 2 * cache.TMP_SWEEP_AGE_SECONDS)
        fresh = tmp_path / ("%s.tmp.12346" % ("b" * 64))
        fresh.write_text("{in-flight")
        entry = tmp_path / ("%s.json" % ("c" * 64))
        entry.write_text("{}")
        self._age(entry, 2 * cache.TMP_SWEEP_AGE_SECONDS)

        assert cache.sweep_stale_tmp(tmp_path) == 1
        assert not stale.exists()
        assert fresh.exists()  # young: may belong to a live writer
        assert entry.exists()  # real entries are never swept

    def test_sweep_of_missing_directory_is_harmless(self, tmp_path):
        assert cache.sweep_stale_tmp(tmp_path / "nope") == 0

    def test_store_sweeps_once_per_interval(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache, "_SWEPT_DIRS", {})
        stale = tmp_path / ("%s.tmp.99999" % ("d" * 64))
        stale.write_text("{leaked by a crashed run")
        self._age(stale, 2 * cache.TMP_SWEEP_AGE_SECONDS)

        job = _job()
        cache.store(cache.job_key(job), job, {"ok": True}, tmp_path)
        assert not stale.exists()

        # The latch prevents an immediate second scan: a new stale file
        # survives later stores inside the same interval.
        stale.write_text("{leaked again")
        self._age(stale, 2 * cache.TMP_SWEEP_AGE_SECONDS)
        cache.store(cache.job_key(job), job, {"ok": True}, tmp_path)
        assert stale.exists()

    def test_sweep_latch_rearms_after_interval(self, tmp_path, monkeypatch):
        """A long-running process (``repro serve``) re-sweeps once the
        interval elapses — the latch is time-based, not once-ever."""
        monkeypatch.setattr(cache, "_SWEPT_DIRS", {})
        job = _job()
        cache.store(cache.job_key(job), job, {"ok": True}, tmp_path)

        stale = tmp_path / ("%s.tmp.88888" % ("e" * 64))
        stale.write_text("{leaked mid-lifetime")
        self._age(stale, 2 * cache.TMP_SWEEP_AGE_SECONDS)
        cache.store(cache.job_key(job), job, {"ok": True}, tmp_path)
        assert stale.exists()  # still inside the interval

        # Pretend the last sweep happened over an hour ago.
        cache._SWEPT_DIRS[str(tmp_path)] -= cache.SWEEP_INTERVAL_SECONDS + 1
        cache.store(cache.job_key(job), job, {"ok": True}, tmp_path)
        assert not stale.exists()

    def test_reset_sweep_latch_forces_immediate_resweep(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache, "_SWEPT_DIRS", {})
        job = _job()
        cache.store(cache.job_key(job), job, {"ok": True}, tmp_path)
        stale = tmp_path / ("%s.tmp.77777" % ("f" * 64))
        stale.write_text("{leaked")
        self._age(stale, 2 * cache.TMP_SWEEP_AGE_SECONDS)

        cache.reset_sweep_latch()
        cache.store(cache.job_key(job), job, {"ok": True}, tmp_path)
        assert not stale.exists()


_WRITER_SCRIPT = """
import sys
from repro.runner import cache
from repro.runner.jobs import SimJob
from repro.sim.time import ms

key, directory, variant, rounds = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
job = SimJob(tag="t", scenario="solo", scenario_kwargs={"workload_kind": "gmake"},
             seed=7, duration_ns=ms(12))
result = {"variant": variant, "blob": ["x" * 512] * 200}
for _ in range(rounds):
    cache.store(key, job, result, directory)
"""


class TestConcurrentWriters:
    def test_racing_stores_never_produce_a_torn_entry(self, tmp_path):
        """Two processes hammering store() on the same key: every load()
        observed during the race must be either a miss (before the first
        rename lands) or one writer's complete payload — never a torn or
        mixed entry, and never a warning."""
        key = "e" * 64
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, key, str(tmp_path), variant, "40"],
                env=env,
            )
            for variant in ("a", "b")
        ]
        observed = set()
        deadline = time.time() + 60
        try:
            while any(proc.poll() is None for proc in writers):
                assert time.time() < deadline, "writer processes hung"
                payload = cache.load(key, tmp_path)  # warns on a torn entry
                if payload is not None:
                    assert payload["variant"] in ("a", "b")
                    assert len(payload["blob"]) == 200
                    observed.add(payload["variant"])
        finally:
            for proc in writers:
                proc.wait(timeout=60)
        assert all(proc.returncode == 0 for proc in writers)
        final = cache.load(key, tmp_path)
        assert final is not None and final["variant"] in ("a", "b")
        assert observed  # the race window actually saw committed entries
        # No stray tmp files survive the writers exiting cleanly.
        assert list(tmp_path.glob("*.tmp.*")) == []

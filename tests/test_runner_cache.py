"""Result-cache correctness: keys must move when anything that affects
the simulation moves, and damaged entries must degrade to a re-run,
never to a crash or a wrong result — even under concurrent writers.
"""

import dataclasses
import hashlib
import json
import marshal
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.experiments.results import RunResult
from repro.obs import telemetry
from repro.runner import SimJob, cache, execute, execute_many, run_job, static_policy
from repro.sim.time import ms, us


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


#: A job spec that sets every optional field, so each one is a key of
#: ``SimJob.spec()``, and one fixed change per key.
_FULL = dict(
    overrides={"ple_window": 1000},
    trace={"kinds": ["deschedule"]},
    faults={"name": "p", "description": "", "seed_salt": 0,
            "faults": [{"kind": "stale_profile", "at_ns": ms(1), "params": {}}]},
)
_IDENTITY_CHANGES = {
    "scenario": "corun",
    "scenario_kwargs": {"workload_kind": "exim"},
    "policy": static_policy(2),
    "overrides": {"ple_window": 2000},
    "seed": 8,
    "duration_ns": ms(13),
    "warmup_ns": ms(2),
    "trace": {"kinds": None},
    "faults": dict(_FULL["faults"], seed_salt=1),
}


def _counter(name):
    return telemetry.snapshot()["counters"].get(name, 0)


def _cache_hits():
    return _counter("cache.hits")


def _rewrite_keeping_stat(entry, text):
    """Overwrite ``entry`` in place with ``text`` of the same length,
    then restore its timestamps: only the bytes tell it changed."""
    before = entry.stat()
    assert len(text) == before.st_size
    entry.write_text(text, encoding="utf-8")
    os.utime(entry, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = entry.stat()
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
        before.st_ino, before.st_size, before.st_mtime_ns
    )


def _decoded(frozen):
    """A frozen payload (``cache.load``'s hit) as one plain dict."""
    return {name: marshal.loads(blob) for name, blob in frozen.items()}


def _memo_size(memo):
    """Bytes one decode-memo entry holds: the entry's bytes and blobs."""
    data, frozen = memo
    return len(data) + sum(len(blob) for blob in frozen.values())


def _mutate(result):
    """Change every mutable field of ``result`` in place."""
    assert result.domain_yields and result.workloads and result.runstates
    for causes in result.domain_yields.values():
        causes["mutated"] = 1
    next(iter(result.workloads.values())).extra["mutated"] = 1
    for field in (result.hv_counters, result.domain_counters, result.lockstats,
                  result.tlb_stats, result.histograms):
        field["mutated"] = 1
    result.adaptive_decisions.append("mutated")
    result.trace.append({"mutated": 1})
    next(iter(result.runstates.values())).clear()
    result.runstates.clear()


def _assert_independent(first, second):
    """Two results of one cache key: equal, yet sharing no state, so
    mutating one's nested dicts leaves the other as it was."""
    assert first is not second
    snapshot = second.to_dict()
    assert first.to_dict() == snapshot
    _mutate(first)
    assert second.to_dict() == snapshot


class TestKeying:
    def test_identical_jobs_share_a_key(self):
        assert cache.job_key(_job()) == cache.job_key(_job())

    @pytest.mark.parametrize("field", sorted(_job(**_FULL).spec()))
    def test_every_identity_field_moves_the_key(self, field):
        """Cache-key completeness: each key of ``spec()`` has a fixed
        example (a new field without one fails here), and changing it
        changes the key."""
        changed = _job(**dict(_FULL, **{field: _IDENTITY_CHANGES[field]}))
        assert cache.job_key(changed) != cache.job_key(_job(**_FULL))

    def test_every_field_but_the_tag_is_in_the_identity(self):
        fields = {field.name for field in dataclasses.fields(SimJob)}
        assert set(_job(**_FULL).spec()) == fields - {"tag"}

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
            {"overrides": {"micro_slice": us(300)}},
            {"overrides": {"pv_spin_rounds": 2}},
        ],
    )
    def test_any_spec_change_misses(self, change):
        assert cache.job_key(_job()) != cache.job_key(_job(**change))

    def test_default_backend_override_is_the_plain_job(self):
        """Naming the default backend spells the same simulation, so it
        must hit the same entry; the job keeps what it was given."""
        named = _job(overrides={"scheduler": "credit", "ple_window": 1000})
        assert cache.job_key(named) == cache.job_key(_job(overrides={"ple_window": 1000}))
        assert named.overrides["scheduler"] == "credit"

    @pytest.mark.parametrize(
        "override",
        [
            {"scheduler": "credit"},
            {"micro_slice": us(100)},
            {"ple_window": us(3)},
            {"pv_spin_rounds": 1},
        ],
        ids=lambda override: next(iter(override)),
    )
    def test_override_naming_its_default_is_the_plain_job(self, override):
        """One row per override: naming its default spells the plain
        job's simulation (equal payload), so it shares the plain job's
        key; the job keeps what it was given."""
        named = _job(overrides=dict(override))
        assert cache.job_key(named) == cache.job_key(_job())
        assert named.overrides == override
        assert run_job(named) == run_job(_job())

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


class TestDecodeMemo:
    """A repeated load of unchanged bytes reuses the decode; anything
    else takes the full path, with its checks, warnings and counters.
    A hit is a frozen payload; ``RunResult.from_frozen`` is the one way
    a result is built from it."""

    def _entry(self, tmp_path):
        job = _job()
        key = cache.job_key(job)
        execute([job], workers=1, cache=True, cache_dir=tmp_path)
        return key, Path(cache.entry_path(key, tmp_path))

    def test_memoized_load_equals_the_decoded_entry(self, tmp_path):
        key, entry = self._entry(tmp_path)
        expected = json.loads(entry.read_text())["result"]
        reuses = _counter("cache.decode_reuses")
        hits, hit_bytes = _cache_hits(), _counter("cache.hit_bytes")
        first = RunResult.from_frozen(cache.load(key, tmp_path)).to_dict()
        second = RunResult.from_frozen(cache.load(key, tmp_path)).to_dict()
        assert first == second == expected
        assert json.dumps(second, sort_keys=True) == json.dumps(expected, sort_keys=True)
        assert _counter("cache.decode_reuses") - reuses == 1
        assert _cache_hits() - hits == 2
        assert _counter("cache.hit_bytes") - hit_bytes == 2 * entry.stat().st_size

    def test_mutating_a_returned_payload_never_reaches_the_next_load(self, tmp_path):
        key, entry = self._entry(tmp_path)
        expected = json.loads(entry.read_text())["result"]
        for _ in range(3):  # the decoding load, then two memo hits
            result = RunResult.from_frozen(cache.load(key, tmp_path))
            assert result.to_dict() == expected
            _mutate(result)
        assert RunResult.from_frozen(cache.load(key, tmp_path)).to_dict() == expected

    def test_a_frozen_payload_is_read_only(self, tmp_path):
        key, _ = self._entry(tmp_path)
        frozen = cache.load(key, tmp_path)
        assert all(type(blob) is bytes for blob in frozen.values())
        with pytest.raises(TypeError):
            frozen["runstates"] = marshal.dumps({})

    def test_fields_decode_on_first_read_only(self, tmp_path):
        key, _ = self._entry(tmp_path)
        result = RunResult.from_frozen(cache.load(key, tmp_path))
        assert "runstates" not in vars(result) and "histograms" not in vars(result)
        assert result.runstates is result.runstates
        assert "runstates" in vars(result) and "histograms" not in vars(result)

    def test_invalid_utf8_entry_is_corrupt(self, tmp_path):
        key, entry = self._entry(tmp_path)
        data = entry.read_bytes()
        assert cache.load(key, tmp_path) is not None  # memoized by now
        # A stray byte that is not UTF-8; then the same JSON as UTF-16,
        # which json.loads of raw bytes would accept.
        for damaged in (data.replace(b'"scenario_name"', b'"scenario_nam\xff"'),
                        data.decode("utf-8").encode("utf-16")):
            entry.write_bytes(damaged)
            corrupt, misses = _counter("cache.corrupt_entries"), _counter("cache.misses")
            with pytest.warns(RuntimeWarning, match="corrupt"):
                assert cache.load(key, tmp_path) is None
            assert _counter("cache.corrupt_entries") - corrupt == 1
            assert _counter("cache.misses") - misses == 1

    def test_same_length_corrupt_rewrite_is_seen(self, tmp_path):
        key, entry = self._entry(tmp_path)
        baseline = execute([_job()], workers=1, cache=True, cache_dir=tmp_path)
        assert cache.load(key, tmp_path) is not None  # memoized by now
        size = entry.stat().st_size
        _rewrite_keeping_stat(entry, "{" + "x" * (size - 1))
        corrupt = _counter("cache.corrupt_entries")
        simulated = _counter("engine.jobs_simulated")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            again = execute([_job()], workers=1, cache=True, cache_dir=tmp_path)
        assert _counter("cache.corrupt_entries") - corrupt == 1
        assert _counter("engine.jobs_simulated") - simulated == 1
        assert again["point"].to_dict() == baseline["point"].to_dict()
        assert json.loads(entry.read_text())["key"] == key

    def test_same_length_valid_rewrite_is_served_as_written(self, tmp_path):
        key, entry = self._entry(tmp_path)
        text = entry.read_text()
        assert _decoded(cache.load(key, tmp_path)) == _decoded(cache.load(key, tmp_path))
        payload = json.loads(text)
        old = payload["result"]["duration_ns"]
        payload["result"]["duration_ns"] = old + 1
        rewritten = json.dumps(payload, sort_keys=True)
        assert len(rewritten) == len(text)
        _rewrite_keeping_stat(entry, rewritten)
        assert RunResult.from_frozen(cache.load(key, tmp_path)).duration_ns == old + 1

    @pytest.mark.parametrize("damage", ["corrupt", "malformed"])
    def test_bad_entries_warn_and_count_on_every_call(self, tmp_path, damage):
        key, entry = self._entry(tmp_path)
        if damage == "corrupt":
            entry.write_text("{torn", encoding="utf-8")
            name = "cache.corrupt_entries"
        else:
            payload = json.loads(entry.read_text())
            payload["key"] = "0" * 64
            entry.write_text(json.dumps(payload), encoding="utf-8")
            name = "cache.poisoned_entries"
        before, misses = _counter(name), _counter("cache.misses")
        reuses = _counter("cache.decode_reuses")
        for _ in range(3):
            with pytest.warns(RuntimeWarning, match=damage):
                assert cache.load(key, tmp_path) is None
        assert _counter(name) - before == 3
        assert _counter("cache.misses") - misses == 3
        assert _counter("cache.decode_reuses") == reuses

    def test_byte_bound_holds_and_oldest_go_first(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache, "_DECODED", {})
        monkeypatch.setattr(cache, "_decoded_bytes", 0)
        result = {"blob": "y" * 1000}
        keys = ["%064x" % index for index in range(12)]
        for key in keys:
            cache.store(key, _job(), result, tmp_path)
        bound = 4 * (len(Path(cache.entry_path(keys[0], tmp_path)).read_text()) + 1100)
        monkeypatch.setattr(cache, "DECODE_MEMO_BYTES", bound)
        for key in keys:
            assert _decoded(cache.load(key, tmp_path)) == result
            held = sum(_memo_size(memo) for memo in cache._DECODED.values())
            assert held == cache._decoded_bytes <= bound
        remembered = [os.path.basename(path)[:64] for path in cache._DECODED]
        assert remembered == keys[-len(remembered):]
        assert 2 <= len(remembered) < len(keys)
        # A bound below one entry's size remembers nothing at all.
        cache.forget_decoded()
        monkeypatch.setattr(cache, "DECODE_MEMO_BYTES", 1000)
        assert _decoded(cache.load(keys[0], tmp_path)) == result
        assert cache._DECODED == {} and cache._decoded_bytes == 0

    def test_oversized_entry_is_never_memoized(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache, "_DECODED", {})
        monkeypatch.setattr(cache, "_decoded_bytes", 0)
        key = "f" * 64
        result = {"blob": "z" * (cache.DECODE_MEMO_ENTRY_BYTES + 1)}
        cache.store(key, _job(), result, tmp_path)
        reuses = _counter("cache.decode_reuses")
        first, second = cache.load(key, tmp_path), cache.load(key, tmp_path)
        assert _decoded(first) == _decoded(second) == result
        assert cache._DECODED == {}
        assert _counter("cache.decode_reuses") == reuses

    def test_forget_decoded_forces_a_decode(self, tmp_path):
        key, _ = self._entry(tmp_path)
        cache.load(key, tmp_path)
        reuses = _counter("cache.decode_reuses")
        cache.forget_decoded()
        assert cache._DECODED == {} and cache._decoded_bytes == 0
        cache.load(key, tmp_path)
        assert _counter("cache.decode_reuses") == reuses
        cache.load(key, tmp_path)
        assert _counter("cache.decode_reuses") == reuses + 1

    def test_concurrent_loads_return_equal_payloads(self, tmp_path, monkeypatch):
        """Four threads (more than the cores) load eight entries through a
        memo too small for all of them, switching every microsecond:
        every load equals its entry and is owned by its caller, and the
        memo's byte count matches what it holds (a lost update in the
        eviction bookkeeping breaks that)."""
        monkeypatch.setattr(cache, "_DECODED", {})
        monkeypatch.setattr(cache, "_decoded_bytes", 0)
        results = {
            "%064x" % index: {"index": index, "nested": {"values": list(range(50))}}
            for index in range(8)
        }
        for key, result in results.items():
            cache.store(key, _job(), result, tmp_path)
        entry_bytes = len(Path(cache.entry_path(key, tmp_path)).read_text())
        bound = 3 * 2 * entry_bytes
        monkeypatch.setattr(cache, "DECODE_MEMO_BYTES", bound)
        keys = sorted(results)
        barrier = threading.Barrier(4)
        errors = []
        loads = []

        def probe(offset):
            try:
                barrier.wait(timeout=30)
                for step in range(160):
                    key = keys[(offset + step) % len(keys)]
                    payload = _decoded(cache.load(key, tmp_path))
                    assert payload == results[key], key
                    payload["nested"]["values"].append(-1)  # the caller's own copy
                    loads.append(payload)
            except Exception as err:  # reported below, with its thread
                errors.append((offset, repr(err)))

        threads = [threading.Thread(target=probe, args=(index,)) for index in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(loads) == 4 * 160
        assert len({id(payload["nested"]) for payload in loads}) == len(loads)
        held = sum(_memo_size(memo) for memo in cache._DECODED.values())
        assert held == cache._decoded_bytes <= bound


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
                frozen = cache.load(key, tmp_path)  # warns on a torn entry
                if frozen is not None:
                    payload = _decoded(frozen)
                    assert payload["variant"] in ("a", "b")
                    assert len(payload["blob"]) == 200
                    observed.add(payload["variant"])
        finally:
            for proc in writers:
                proc.wait(timeout=60)
        assert all(proc.returncode == 0 for proc in writers)
        final = cache.load(key, tmp_path)
        assert final is not None and _decoded(final)["variant"] in ("a", "b")
        assert observed  # the race window actually saw committed entries
        # No stray tmp files survive the writers exiting cleanly.
        assert list(tmp_path.glob("*.tmp.*")) == []


class TestWarmReplay:
    """Replay through frozen payloads is byte-for-byte the cached entry,
    and a warm rotation moves the cache counters as a full decode did."""

    #: What one warm rotation (each planned experiment through its own
    #: ``run_many`` at the manifest scale, after one rotation that fills
    #: the decode memo) adds to the cache counters. ``cache.hit_bytes``
    #: is the size of every entry loaded, checked below.
    ROTATION_COUNTERS = {"cache.hits": 186, "cache.misses": 0, "cache.decode_reuses": 186}

    def test_every_manifest_entry_replays_as_stored(self, manifest_cache):
        from repro.tools import payload_manifest

        directory, jobs, manifest = manifest_cache
        assert len(jobs) == manifest["count"] == 139
        for key, job in jobs.items():
            path = cache.entry_path(cache.job_key(job), directory)
            with open(path, "r", encoding="utf-8") as handle:
                stored = payload_manifest.canonical_payload(json.load(handle)["result"])
            for _ in ("decode", "memo"):
                replayed = RunResult.from_frozen(cache.load(cache.job_key(job), directory))
                assert payload_manifest.canonical_payload(replayed.to_dict()) == stored, key
            digest = hashlib.sha256(stored.encode("utf-8")).hexdigest()
            assert digest == manifest["entries"][key]["payload_sha256"], key

    def test_one_warm_rotation_moves_the_cache_counters_as_before(
            self, manifest_cache, monkeypatch):
        from repro.experiments import registry

        directory, _jobs, manifest = manifest_cache
        monkeypatch.setenv(cache.ENV_DIR, str(directory))
        monkeypatch.setenv(cache.ENV_TOGGLE, "on")
        names = [name for name in registry.available()
                 if not registry.is_driver(registry.get(name))]
        loaded_bytes = 0
        for name in names:
            keys = {cache.job_key(job)
                    for job in registry.get(name).plan(scale_override=manifest["scale"])}
            loaded_bytes += sum(os.path.getsize(cache.entry_path(key, directory))
                                for key in keys)
        texts = {}
        for rotation in ("fill the memo", "measured"):
            before = telemetry.snapshot()["counters"]
            for name in names:
                text = registry.run_many(
                    [name], workers=1, scale_override=manifest["scale"])[name][1]
                assert texts.setdefault(name, text) == text, name
            after = telemetry.snapshot()["counters"]
        moved = {name: after.get(name, 0) - before.get(name, 0)
                 for name in list(self.ROTATION_COUNTERS) + ["cache.hit_bytes"]}
        assert moved == dict(self.ROTATION_COUNTERS, **{"cache.hit_bytes": loaded_bytes})

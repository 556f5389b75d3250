"""Runner-stack telemetry: registry semantics, Prometheus export,
instrumentation coverage (cache / cost model / pool / engine), live
progress, persistence, and the machine-readable analyze output.

The load-bearing contract: telemetry is a write-only side channel.
Deterministic metrics (counts) must be byte-identical across identical
runs; wall-derived metrics are namespaced by suffix (``_seconds``,
``_us``, ``_pct``) and excluded from that comparison mechanically.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from repro import cli
from repro.obs import analyze, telemetry
from repro.runner import SimJob, cache, costmodel, execute
from repro.sim.time import ms


@pytest.fixture(autouse=True)
def clean_registry():
    """Each test starts from a zeroed, enabled process registry (other
    tests in the session legitimately bump the shared counters)."""
    telemetry.reset()
    telemetry.set_enabled(True)
    yield
    telemetry.reset()


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


# ----------------------------------------------------------------------
# registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = telemetry.Registry(enabled=True)
        reg.counter("a.count").inc()
        reg.counter("a.count").inc(3)
        reg.gauge("a.size").set(2)
        reg.gauge("a.size").max(5)
        reg.gauge("a.size").max(1)  # lower: ignored
        reg.observe("a.lat_us", 100)
        snap = reg.snapshot()
        assert snap["counters"]["a.count"] == 4
        assert snap["gauges"]["a.size"] == 5
        assert snap["histograms"]["a.lat_us"]["count"] == 1
        assert snap["meta"]["format"] == telemetry.FORMAT

    def test_disabled_registry_records_nothing(self):
        reg = telemetry.Registry(enabled=False)
        reg.counter("a.count").inc()
        reg.gauge("a.size").set(9)
        reg.observe("a.lat_us", 100)
        snap = reg.snapshot()
        assert snap["counters"]["a.count"] == 0
        assert snap["gauges"]["a.size"] == 0
        # A disabled observe never even creates the histogram.
        assert "a.lat_us" not in snap["histograms"]

    def test_invalid_metric_name_rejected(self):
        reg = telemetry.Registry(enabled=True)
        with pytest.raises(ValueError):
            reg.counter("has spaces")
        with pytest.raises(ValueError):
            reg.histogram("")

    def test_wall_suffix_classification(self):
        assert telemetry.is_wall("engine.job_wall_seconds")
        assert telemetry.is_wall("pool.queue_wait_us")
        assert telemetry.is_wall("costmodel.x.err_pct")
        assert not telemetry.is_wall("cache.hits")

    def test_snapshot_can_exclude_wall_metrics(self):
        reg = telemetry.Registry(enabled=True)
        reg.counter("a.count").inc()
        reg.counter("a.busy_seconds").inc(1.5)
        reg.observe("a.lat_us", 10)
        snap = reg.snapshot(include_wall=False)
        assert "a.count" in snap["counters"]
        assert "a.busy_seconds" not in snap["counters"]
        assert "a.lat_us" not in snap["histograms"]

    def test_merge_is_order_insensitive(self):
        def delta(seed):
            reg = telemetry.Registry(enabled=True)
            reg.counter("jobs").inc(seed)
            reg.gauge("size").set(seed)
            for value in range(seed, seed + 4):
                reg.observe("lat_us", value * 7)
            return reg.snapshot()

        a, b = delta(3), delta(11)
        left = telemetry.Registry(enabled=True)
        right = telemetry.Registry(enabled=True)
        left.merge(a)
        left.merge(b)
        right.merge(b)
        right.merge(a)
        assert left.dumps() == right.dumps()
        assert left.snapshot()["counters"]["jobs"] == 14
        assert left.snapshot()["gauges"]["size"] == 11  # max, not sum

    def test_histogram_totals_merge_exactly(self):
        reg = telemetry.Registry(enabled=True)
        values = [3, 5, 7, 1000003]
        for value in values:
            reg.observe("lat_us", value)
        shipped = reg.take_snapshot()
        parent = telemetry.Registry(enabled=True)
        parent.merge(shipped)
        assert parent.snapshot()["histograms"]["lat_us"]["total"] == sum(values)

    def test_take_snapshot_resets_but_keeps_handles(self):
        reg = telemetry.Registry(enabled=True)
        handle = reg.counter("jobs")
        handle.inc(5)
        first = reg.take_snapshot()
        assert first["counters"]["jobs"] == 5
        handle.inc(2)  # the cached handle must still be live
        assert reg.snapshot()["counters"]["jobs"] == 2


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestProm:
    def test_prom_name_sanitised(self):
        name = telemetry.prom_name("costmodel.corun|baseline|plain|healthy.observations")
        assert name == "repro_costmodel_corun_baseline_plain_healthy_observations"

    def test_render_validates_against_grammar(self):
        reg = telemetry.Registry(enabled=True)
        reg.counter("cache.hits").inc(7)
        reg.gauge("pool.size").set(2)
        for value in (3, 50, 900, 70000):
            reg.observe("pool.queue_wait_us", value)
        text = telemetry.render_prom(reg.snapshot())
        assert telemetry.validate_prom(text) == []
        assert "# TYPE repro_cache_hits counter" in text
        assert 'repro_pool_queue_wait_us_bucket{le="+Inf"} 4' in text
        assert "repro_pool_queue_wait_us_sum 70953" in text

    def test_validator_catches_problems(self):
        assert telemetry.validate_prom("repro_orphan 1") != []
        broken_hist = "\n".join(
            [
                "# TYPE repro_lat histogram",
                'repro_lat_bucket{le="1"} 5',
                'repro_lat_bucket{le="2"} 3',  # not cumulative
            ]
        )
        problems = telemetry.validate_prom(broken_hist)
        assert any("cumulative" in p for p in problems)
        assert any("+Inf" in p for p in problems)
        assert telemetry.validate_prom("!! not a metric line") != []


# ----------------------------------------------------------------------
# persistence (`repro telemetry` outlives the run process)
# ----------------------------------------------------------------------
class TestPersistence:
    def test_persist_load_roundtrip(self, tmp_path):
        telemetry.counter("cache.hits").inc(3)
        path = telemetry.persist(cache_dir=tmp_path)
        assert path is not None
        loaded = telemetry.load_persisted(cache_dir=tmp_path)
        assert loaded["counters"]["cache.hits"] == 3

    def test_persist_disabled_is_a_noop(self, tmp_path):
        telemetry.set_enabled(False)
        assert telemetry.persist(cache_dir=tmp_path) is None
        assert telemetry.load_persisted(cache_dir=tmp_path) is None

    def test_load_missing_or_corrupt_returns_none(self, tmp_path):
        assert telemetry.load_persisted(cache_dir=tmp_path) is None
        target = telemetry.snapshot_path(tmp_path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("{not json", encoding="utf-8")
        assert telemetry.load_persisted(cache_dir=tmp_path) is None


# ----------------------------------------------------------------------
# cache instrumentation (the formerly warn-only paths now count)
# ----------------------------------------------------------------------
class TestCacheTelemetry:
    def test_hits_misses_and_bytes(self, tmp_path):
        job = _job()
        key = cache.job_key(job)
        assert cache.load(key, tmp_path) is None
        cache.store(key, job, {"payload": True}, tmp_path)
        assert cache.load(key, tmp_path) == cache.freeze({"payload": True})
        snap = telemetry.snapshot()
        assert snap["counters"]["cache.misses"] == 1
        assert snap["counters"]["cache.hits"] == 1
        assert snap["counters"]["cache.stores"] == 1
        assert snap["counters"]["cache.hit_bytes"] > 0
        assert snap["counters"]["cache.hit_bytes"] == snap["counters"]["cache.store_bytes"]

    def test_corrupt_and_poisoned_entries_counted(self, tmp_path):
        key = cache.job_key(_job())
        tmp_path.mkdir(exist_ok=True)
        Path(cache.entry_path(key, tmp_path)).write_text("{torn", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert cache.load(key, tmp_path) is None
        Path(cache.entry_path(key, tmp_path)).write_text(
            json.dumps({"format": cache.FORMAT, "key": "wrong", "result": {}}),
            encoding="utf-8",
        )
        with pytest.warns(RuntimeWarning, match="malformed"):
            assert cache.load(key, tmp_path) is None
        snap = telemetry.snapshot()
        assert snap["counters"]["cache.corrupt_entries"] == 1
        assert snap["counters"]["cache.poisoned_entries"] == 1
        assert snap["counters"]["cache.misses"] == 2

    def test_sweep_counts_and_latch_reset(self, tmp_path):
        job = _job()
        tmp_path.mkdir(exist_ok=True)
        stale = tmp_path / "deadbeef.tmp.12345"
        stale.write_text("leak", encoding="utf-8")
        removed = cache.sweep_stale_tmp(tmp_path, max_age_seconds=0)
        assert removed == 1
        snap = telemetry.snapshot()
        assert snap["counters"]["cache.sweep_runs"] == 1
        assert snap["counters"]["cache.sweep_removed"] == 1

        # The once-per-process latch: the first store sweeps, later
        # stores do not — until the latch is reset explicitly.
        cache.reset_sweep_latch()
        cache.store(cache.job_key(job), job, {"n": 1}, tmp_path)
        runs_after_first = telemetry.snapshot()["counters"]["cache.sweep_runs"]
        cache.store(cache.job_key(_job(seed=8)), _job(seed=8), {"n": 2}, tmp_path)
        assert telemetry.snapshot()["counters"]["cache.sweep_runs"] == runs_after_first
        cache.reset_sweep_latch()
        cache.store(cache.job_key(_job(seed=9)), _job(seed=9), {"n": 3}, tmp_path)
        assert telemetry.snapshot()["counters"]["cache.sweep_runs"] == runs_after_first + 1


# ----------------------------------------------------------------------
# cost-model prediction-error tracking
# ----------------------------------------------------------------------
class TestCostModelTelemetry:
    def test_observation_counter_and_error_histograms(self):
        model = costmodel.CostModel()
        job = _job()
        key = costmodel.feature(job)
        model.observe(job, 0.25)
        model.observe(job, 0.30)
        snap = telemetry.snapshot()
        assert snap["counters"]["costmodel.%s.observations" % key] == 2
        assert snap["histograms"]["costmodel.%s.abs_err_us" % key]["count"] == 2
        assert snap["histograms"]["costmodel.%s.err_pct" % key]["count"] == 2
        # Error metrics are wall-derived by name; the counter is not.
        assert telemetry.is_wall("costmodel.%s.abs_err_us" % key)
        assert not telemetry.is_wall("costmodel.%s.observations" % key)

    def test_nonpositive_walltime_not_observed(self):
        model = costmodel.CostModel()
        model.observe(_job(), 0.0)
        key = costmodel.feature(_job())
        # The handle may exist (zeroed) from earlier tests in this
        # process; what matters is that nothing was counted.
        snap = telemetry.snapshot()
        assert snap["counters"].get("costmodel.%s.observations" % key, 0) == 0


# ----------------------------------------------------------------------
# run-level coverage: determinism, pool merge, progress
# ----------------------------------------------------------------------
def _plan():
    return [_job(tag="a"), _job(tag="b", seed=8)]


class TestRunTelemetry:
    def test_snapshot_deterministic_modulo_wall(self, tmp_path):
        execute(_plan(), workers=1, cache=False, cache_dir=tmp_path)
        first = telemetry.REGISTRY.dumps(include_wall=False)
        full = telemetry.snapshot()
        telemetry.reset()
        execute(_plan(), workers=1, cache=False, cache_dir=tmp_path)
        second = telemetry.REGISTRY.dumps(include_wall=False)
        assert first == second
        # Wall metrics exist but are excluded from the contract.
        assert "engine.job_wall_seconds" in full["counters"]
        assert "engine.job_wall_seconds" not in json.loads(first)["counters"]

    def test_engine_counters_after_serial_run(self, tmp_path):
        execute(_plan(), workers=1, cache=False, cache_dir=tmp_path)
        snap = telemetry.snapshot()
        assert snap["counters"]["engine.jobs_simulated"] == 2
        assert snap["counters"]["engine.events_simulated"] > 0
        assert snap["counters"]["runner.batches"] == 1
        assert snap["counters"]["runner.jobs_planned"] == 2
        assert snap["counters"]["runner.jobs_unique"] == 2

    def test_accelerate_counters_recorded_beside_payload(self, tmp_path):
        job = _job(
            scenario="corun",
            scenario_kwargs={"workload_kind": "vips"},
            policy={"mode": "static", "micro_cores": 1, "user_critical": False},
            duration_ns=ms(5),
        )
        result = execute([job], workers=1, cache=False, cache_dir=tmp_path)["point"]
        counters = telemetry.snapshot()["counters"]
        migrations = counters["engine.accelerate_migrations"]
        assert counters["engine.accelerate_attempts"] > migrations > 0
        # Whole-run (no warmup here) successes are the payload's migrations.
        assert result.hv_counters["migrations"] == migrations

    def test_inspection_counters_recorded_beside_payload(self, tmp_path):
        corun = _job(
            scenario="corun",
            scenario_kwargs={"workload_kind": "vips"},
            policy={"mode": "static", "micro_cores": 1, "user_critical": False},
            duration_ns=ms(5),
        )
        execute([corun], workers=1, cache=False, cache_dir=tmp_path)
        counters = telemetry.snapshot()["counters"]
        inspections = counters["engine.inspections"]
        hits = counters["engine.inspection_hits"]
        assert inspections >= hits > 0
        # A baseline job has no detector: both counters stay put.
        execute([_job()], workers=1, cache=False, cache_dir=tmp_path)
        counters = telemetry.snapshot()["counters"]
        assert counters["engine.inspections"] == inspections
        assert counters["engine.inspection_hits"] == hits

    #: What one ``run_job`` adds to the engine counters, per manifest
    #: job. A hot-path change that does the same work in fewer calls
    #: leaves these exactly as they are; one that skipped an inspection
    #: or an acceleration attempt could keep every payload byte and
    #: still move them.
    PINNED_ENGINE_COUNTERS = {
        "fig4:vips:1": (20233, 93451, 4754, 53806, 49042),
        "fig9:udp:solo": (2762, 0, 0, 0, 0),
        "baselines:credit2:vips:memclone": (29521, 0, 0, 0, 0),
        "baselines:micro_pool:gmake:memclone": (11129, 7, 6, 1422, 7),
        "fig9:udp:microsliced@0.2": (16610, 447, 447, 0, 0),
    }

    #: Payload digests of the pinned jobs the manifest does not hold.
    #: At the manifest's scale Figure 9's micro-sliced jobs never reach
    #: the vIRQ acceleration path (``MicroSliceEngine.on_virq``); at
    #: scale 0.2 every attempt migrates.
    PINNED_OFF_MANIFEST_SHA256 = {
        "fig9:udp:microsliced@0.2":
            "7da587c4e96a947140bed81bd6fa0c7cf2a6a1619c9443235ec4f9a4236ccf59",
    }

    @pytest.mark.parametrize("tag", sorted(PINNED_ENGINE_COUNTERS))
    def test_run_job_moves_engine_counters_by_pinned_amounts(self, tag):
        from repro.experiments import registry
        from repro.runner.jobs import run_job
        from repro.tools import payload_manifest

        manifest = payload_manifest.load()
        tag_in_plan, _, scale = tag.partition("@")
        if scale:
            name, plan_tag = tag_in_plan.split(":", 1)
            [job] = [job for job in registry.get(name).plan(scale_override=float(scale))
                     if job.tag == plan_tag]
        else:
            [job] = [
                job
                for job, tags in payload_manifest.unique_jobs(manifest["scale"]).values()
                if tag in tags
            ]
        names = ("engine.events_simulated", "engine.accelerate_attempts",
                 "engine.accelerate_migrations", "engine.inspections",
                 "engine.inspection_hits")
        payload = run_job(job)
        counters = telemetry.snapshot()["counters"]
        moved = tuple(counters.get(name, 0) for name in names)
        assert moved == self.PINNED_ENGINE_COUNTERS[tag]
        if scale:
            digest = hashlib.sha256(payload_manifest.canonical_payload(payload).encode())
            assert digest.hexdigest() == self.PINNED_OFF_MANIFEST_SHA256[tag]

    def test_pooled_run_merges_worker_deltas(self, tmp_path):
        execute(_plan(), workers=2, cache=False, cache_dir=tmp_path)
        snap = telemetry.snapshot()
        # The simulations happened in worker processes; their registry
        # deltas came back over the result pipe and merged here.
        assert snap["counters"]["engine.jobs_simulated"] == 2
        assert snap["counters"]["engine.events_simulated"] > 0
        assert snap["counters"]["pool.jobs_completed"] == 2
        assert snap["counters"]["pool.jobs_dispatched"] == 2
        assert snap["counters"]["pool.jobs_failed"] == 0

    def test_run_persists_snapshot_for_cli(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cache.ENV_DIR, str(tmp_path))
        # The command persists once; a bare execute() writes nothing.
        execute(_plan(), workers=1, cache=False, cache_dir=tmp_path)
        assert not telemetry.snapshot_path(tmp_path).exists()
        assert cli.main(["run", "table4a", "--scale", "0.02", "--no-cache"]) == 0
        capsys.readouterr()
        loaded = telemetry.load_persisted(cache_dir=tmp_path)
        assert loaded is not None
        assert loaded["counters"]["engine.jobs_simulated"] > 2

    def test_progress_events_cold_and_warm(self, tmp_path):
        events = []

        def progress(event, tag, done, total):
            events.append((event, tag, done, total))

        execute(_plan(), workers=1, cache=True, cache_dir=tmp_path, progress=progress)
        assert [e[0] for e in events] == ["start", "done", "start", "done"]
        assert events[-1][2:] == (2, 2)  # done == total at the end
        events.clear()
        execute(_plan(), workers=1, cache=True, cache_dir=tmp_path, progress=progress)
        assert [e[0] for e in events] == ["hit", "hit"]
        assert events[-1][2:] == (2, 2)


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
class TestCli:
    def test_telemetry_json(self, tmp_path, capsys):
        telemetry.counter("cache.hits").inc(5)
        path = telemetry.persist(cache_dir=tmp_path)
        assert cli.main(["telemetry", "--file", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["counters"]["cache.hits"] == 5

    def test_telemetry_prom(self, tmp_path, capsys):
        telemetry.counter("cache.hits").inc(5)
        telemetry.observe("pool.queue_wait_us", 42)
        path = telemetry.persist(cache_dir=tmp_path)
        assert cli.main(["telemetry", "--file", str(path), "--format", "prom"]) == 0
        text = capsys.readouterr().out
        assert telemetry.validate_prom(text) == []
        assert "repro_cache_hits 5" in text

    def test_telemetry_missing_snapshot_fails(self, tmp_path, capsys):
        assert cli.main(["telemetry", "--file", str(tmp_path / "nope.json")]) == 2
        assert "no telemetry snapshot" in capsys.readouterr().err

    def test_progress_line_non_tty(self):
        stream = io.StringIO()
        line = cli._ProgressLine(stream=stream)
        line("start", "job-a", 0, 3)   # suppressed off-TTY
        line("done", "job-a", 1, 3)
        line("hit", "job-b", 2, 3)
        line.close()
        out = stream.getvalue().splitlines()
        assert out == ["[1/3] done      job-a", "[2/3] cache hit job-b"]

    def test_progress_line_tty_rewrites_in_place(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        line = cli._ProgressLine(stream=stream)
        line("start", "job-a", 0, 2)
        line("done", "job-a", 1, 2)
        line.close()
        text = stream.getvalue()
        assert text.count("\r") == 2
        assert text.endswith("\n")


# ----------------------------------------------------------------------
# repro analyze --json
# ----------------------------------------------------------------------
class TestAnalyzeJson:
    def _trace_file(self, tmp_path):
        from repro.experiments import fig7
        from repro.sim.trace import write_jsonl

        jobs = fig7.plan(seed=11, scale_override=0.02, workloads=("dedup",))
        for job in jobs:
            job.trace = {"kinds": None}
        results = execute(jobs, workers=1, cache=False, cache_dir=tmp_path)
        path = tmp_path / "t.jsonl"
        write_jsonl(str(path), {tag: results[tag].trace for tag in sorted(results)})
        return path

    def test_report_dict_mirrors_analysis(self, tmp_path):
        path = self._trace_file(tmp_path)
        analyses = analyze.analyze_file(str(path))
        report = analyze.report_dict(analyses)
        assert sorted(report) == sorted(analyses)
        for job, data in report.items():
            assert data["event_counts"] == analyses[job].event_counts()
            assert data["meta"] is not None
            assert data["conservation_violations"] == []
            assert data["runstates"]
        # JSON-native and byte-stable for one input file.
        once = json.dumps(report, sort_keys=True)
        again = json.dumps(analyze.report_dict(analyze.analyze_file(str(path))),
                           sort_keys=True)
        assert once == again

    def test_diff_dict_identical_files(self, tmp_path):
        path = self._trace_file(tmp_path)
        diff = analyze.diff_dict(str(path), str(path))
        assert diff and all(deltas == {} for deltas in diff.values())

    def test_cli_analyze_json(self, tmp_path, capsys):
        path = self._trace_file(tmp_path)
        assert cli.main(["analyze", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all("event_counts" in data for data in report.values())
        assert cli.main(["analyze", str(path), "--json", "--diff", str(path)]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert all(deltas == {} for deltas in diff.values())

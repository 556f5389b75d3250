"""Tests for the observability layer: histograms, runstate accounting,
trace schema/export, and the ``repro analyze`` round trip."""

import json

import pytest

from repro.errors import ConfigError
from repro.experiments import fig7
from repro.experiments.results import RunResult
from repro.experiments.scenarios import corun_scenario
from repro.faults import make_builtin
from repro.metrics.histogram import Histogram, HistogramSet
from repro.obs import analyze
from repro.obs.runstate import (
    STATES,
    RunstateAccount,
    steal_report,
    validate,
    validate_result,
)
from repro.obs.schema import TRACE_SCHEMA
from repro.runner import SimJob, execute
from repro.sim.engine import Simulator
from repro.sim.time import ms
from repro.sim.trace import Tracer, load_jsonl, write_jsonl


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------
class TestHistogram:
    def test_empty(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.percentile(50) == 0.0

    def test_percentiles_deterministic(self):
        hist = Histogram()
        for value in range(1, 1001):
            hist.record(value)
        # log2 buckets: percentiles land on bucket bounds clamped to
        # observed min/max — stable regardless of insertion order.
        shuffled = Histogram()
        for value in range(1000, 0, -1):
            shuffled.record(value)
        assert hist.snapshot() == shuffled.snapshot()
        assert hist.min == 1 and hist.max == 1000
        assert hist.percentile(100) == 1000

    def test_merge_commutative(self):
        a, b = Histogram(), Histogram()
        for value in (1, 5, 900, 70_000):
            a.record(value)
        for value in (3, 3, 64, 2**20):
            b.record(value)
        ab = Histogram()
        ab.merge(a)
        ab.merge(b)
        ba = Histogram()
        ba.merge(b)
        ba.merge(a)
        assert ab.snapshot()["buckets"] == ba.snapshot()["buckets"]
        assert ab.percentile(95) == ba.percentile(95)
        assert ab.count == 8

    def test_histogram_set_lazy(self):
        hs = HistogramSet()
        assert len(hs) == 0
        hs.record("spin_wait", 100)
        hs.record("spin_wait", 200)
        assert hs.names() == ["spin_wait"]
        assert hs.snapshot()["spin_wait"]["count"] == 2
        hs.reset()
        assert len(hs) == 0


# ----------------------------------------------------------------------
# runstate accounting
# ----------------------------------------------------------------------
class TestRunstateAccount:
    def test_conservation_by_construction(self):
        account = RunstateAccount(0, "runnable")
        account.transition(100, "running")
        account.transition(350, "blocked")
        account.transition(400, "runnable")
        snap = account.snapshot(1000)
        ok, diff = validate(snap)
        assert ok and diff == 0
        assert snap["running"] == 250
        assert snap["runnable"] == 100 + 600
        assert snap["blocked"] == 50
        assert snap["elapsed"] == 1000

    def test_reset_rebases_window(self):
        account = RunstateAccount(0, "running")
        account.transition(500, "runnable")
        account.reset(700)
        snap = account.snapshot(1200)
        assert snap == {
            "running": 0,
            "runnable": 500,
            "blocked": 0,
            "offline": 0,
            "elapsed": 500,
        }
        assert account.stolen(1200) == 500

    def test_conservation_across_registry(self):
        """The invariant must hold for every experiment in the registry.
        One representative job per plan (deduplicated across plans)
        keeps this tractable while touching every scenario family."""
        from repro.experiments import registry
        from repro.experiments.results import RunResult
        from repro.runner.jobs import run_job

        seen = set()
        for name in registry.available():
            module = registry.get(name)
            if registry.is_driver(module):
                continue  # no static plan (fleet); covered by test_fleet
            job = module.plan(seed=5, scale_override=0.02)[0]
            if job.canonical() in seen:
                continue
            seen.add(job.canonical())
            result = RunResult.from_dict(run_job(job))
            assert result.runstates, name
            assert validate_result(result) == [], name

    def test_scenario_conservation_invariant(self):
        system = corun_scenario("gmake", seed=3).build()
        result = system.run(ms(30), warmup_ns=ms(10))
        assert result.runstates  # populated even without tracing
        assert validate_result(result) == []
        report = steal_report(result)
        for domain in ("vm1", "vm2"):
            rollup = report[domain]
            assert sum(rollup[s] for s in ("running", "runnable", "blocked", "offline")) == rollup["elapsed"]
        # 2:1 overcommit: somebody's time must be getting stolen.
        assert result.steal_time("vm1") + result.steal_time("vm2") > 0


class TestStoredRunstates:
    """A result stores each vCPU's ledger as its state times in
    ``STATES`` order; the window is the result's own ``duration_ns``."""

    def _result(self, vcpus, duration_ns=1000):
        result = RunResult("stored", duration_ns)
        result.runstates = {"vm1": vcpus}
        return result

    def test_validate_result_flags_a_list_off_the_window(self):
        result = self._result({"vm1.v0": [600, 300, 100, 0], "vm1.v1": [600, 300, 50, 0]})
        assert validate_result(result) == [("vm1", "vm1.v1", -50)]

    def test_steal_report_and_steal_time_read_the_lists(self):
        result = self._result({"vm1.v0": [600, 300, 100, 0], "vm1.v1": [500, 200, 280, 20]})
        assert validate_result(result) == []
        assert steal_report(result) == {
            "vm1": {
                "running": 1100,
                "runnable": 500,
                "blocked": 380,
                "offline": 20,
                "elapsed": 2000,
            }
        }
        assert result.steal_time("vm1") == 520

    @pytest.mark.parametrize("faulted", [False, True], ids=["healthy", "faulted"])
    def test_payload_round_trip(self, faulted):
        job = SimJob(
            tag="t",
            scenario="corun",
            scenario_kwargs={"workload_kind": "dedup"},
            policy={"mode": "baseline"},
            seed=7,
            duration_ns=ms(20),
            warmup_ns=ms(5),
            faults=make_builtin("lossy-ipi", ms(25)).to_dict() if faulted else None,
        )
        result = execute([job], workers=1, cache=False)["t"]
        assert (result.faults is not None) == faulted
        payload = result.to_dict()
        again = RunResult.from_dict(json.loads(json.dumps(payload)))
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(payload, sort_keys=True)
        for vcpus in again.runstates.values():
            for states in vcpus.values():
                assert len(states) == len(STATES)
        assert validate_result(again) == []
        assert steal_report(again) == steal_report(result)


# ----------------------------------------------------------------------
# trace schema + export machinery
# ----------------------------------------------------------------------
class TestTracerSchema:
    def test_known_kind_with_wrong_fields_rejected_in_debug(self):
        tracer = Tracer(Simulator(), enabled=True, debug=True)
        with pytest.raises(ConfigError):
            tracer.emit("yield", vcpu="v0")  # missing domain/cause

    def test_schema_not_validated_outside_debug(self):
        tracer = Tracer(Simulator(), enabled=True, debug=False)
        tracer.emit("yield", vcpu="v0")  # hot path skips validation
        assert tracer.counts["yield"] == 1

    def test_want_returns_bound_emitter_or_none(self):
        tracer = Tracer(Simulator(), enabled=True, kinds=("yield",))
        assert tracer.want("virq_inject") is None
        assert Tracer(Simulator(), enabled=False).want("yield") is None
        emit = tracer.want("yield")
        emit(vcpu="v0", domain="vm1", cause="ipi")
        assert tracer.want("yield") is emit  # handle is cached
        record = next(iter(tracer))
        assert record.kind == "yield" and record.detail["cause"] == "ipi"
        assert tracer.counts["yield"] == 1 and tracer.seq == 1

    def test_want_emitter_validates_in_debug(self):
        tracer = Tracer(Simulator(), enabled=True, debug=True)
        emit = tracer.want("yield")
        with pytest.raises(ConfigError):
            emit(vcpu="v0")  # missing domain/cause

    def test_drop_accounting_invariant(self):
        # dropped + len(records) == seq, tracer-lifetime: clear() counts
        # its discarded records.
        tracer = Tracer(Simulator(), enabled=True)
        emit = tracer.want("probe")
        for _ in range(8):
            emit()
        assert tracer.dropped == 0 and len(tracer.records) == tracer.seq == 8
        tracer.clear()
        assert tracer.dropped + len(tracer.records) == tracer.seq == 8
        for _ in range(2):
            emit()
        assert tracer.dropped + len(tracer.records) == tracer.seq == 10

    def test_unknown_kind_allowed(self):
        tracer = Tracer(Simulator(), enabled=True)
        tracer.emit("adhoc_probe", anything="goes")
        assert tracer.counts["adhoc_probe"] == 1

    def test_kind_filter_and_meta_bypass(self):
        tracer = Tracer(Simulator(), enabled=True, kinds=("yield",))
        tracer.emit("yield", vcpu="v0", domain="vm1", cause="ipi")
        tracer.emit("virq_inject", vcpu="v0", domain="vm1")  # filtered
        tracer.record_meta("meta", scenario="s", duration_ns=1, pcpus=1, domains=["vm1"])
        kinds = [record.kind for record in tracer]
        assert kinds == ["yield", "meta"]
        with pytest.raises(ConfigError):
            tracer.record_meta("yield", vcpu="v0", domain="vm1", cause="ipi")

    def test_seq_monotonic_across_clear(self):
        tracer = Tracer(Simulator(), enabled=True)
        tracer.emit("probe")
        tracer.clear()
        tracer.emit("probe")
        assert [record.seq for record in tracer] == [2]

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(Simulator(), enabled=True)
        tracer.emit("yield", vcpu="v0", domain="vm1", cause="spinlock")
        path = tmp_path / "t.jsonl"
        write_jsonl(str(path), {"jobA": tracer.export()})
        records = load_jsonl(str(path))
        assert records == [
            {
                "seq": 1,
                "t": 0,
                "kind": "yield",
                "vcpu": "v0",
                "domain": "vm1",
                "cause": "spinlock",
                "job": "jobA",
            }
        ]

    def test_schema_fields_avoid_reserved_keys(self):
        from repro.obs.schema import RESERVED_KEYS

        for kind, fields in TRACE_SCHEMA.items():
            assert not (fields & RESERVED_KEYS), kind


# ----------------------------------------------------------------------
# the analyze round trip (the PR's acceptance criterion)
# ----------------------------------------------------------------------
def _traced_plan():
    jobs = fig7.plan(seed=11, scale_override=0.02, workloads=("dedup",))
    for job in jobs:
        job.trace = {"kinds": None}
    return jobs


class TestAnalyzeRoundTrip:
    def test_yield_decomposition_matches_counters_exactly(self, tmp_path):
        jobs = _traced_plan()
        results = execute(jobs, workers=1, cache=False)
        path = tmp_path / "t.jsonl"
        write_jsonl(str(path), {tag: results[tag].trace for tag in results})
        analyses = analyze.analyze_file(str(path))
        assert sorted(analyses) == sorted(results)
        for tag, result in results.items():
            decomposition = analyses[tag].yields
            for domain, causes in result.domain_yields.items():
                observed = decomposition.get(domain, {})
                for cause, count in causes.items():
                    assert observed.get(cause, 0) == count, (tag, domain, cause)
            # And nothing in the trace that the counters don't know of.
            for domain, causes in decomposition.items():
                for cause, count in causes.items():
                    assert result.domain_yields[domain][cause] == count

    def test_runstate_final_conserves(self, tmp_path):
        jobs = _traced_plan()
        results = execute(jobs, workers=1, cache=False)
        path = tmp_path / "t.jsonl"
        write_jsonl(str(path), {tag: results[tag].trace for tag in results})
        for analysis in analyze.analyze_file(str(path)).values():
            assert analysis.runstates
            assert analysis.violations == []
            assert analysis.meta is not None

    def test_trace_artifacts_identical_serial_parallel_cache(self, tmp_path):
        jobs = _traced_plan()

        def artifact(results, name):
            path = tmp_path / name
            write_jsonl(
                str(path), {tag: results[tag].trace for tag in sorted(results)}
            )
            return path.read_bytes()

        serial = artifact(execute(jobs, workers=1, cache=False), "serial.jsonl")
        parallel = artifact(execute(jobs, workers=2, cache=False), "parallel.jsonl")
        cold = artifact(
            execute(jobs, workers=1, cache=True, cache_dir=tmp_path / "cache"),
            "cold.jsonl",
        )
        warm = artifact(
            execute(jobs, workers=1, cache=True, cache_dir=tmp_path / "cache"),
            "warm.jsonl",
        )
        assert serial == parallel == cold == warm

    def test_traced_and_untraced_jobs_cache_separately(self):
        jobs = _traced_plan()
        plain = fig7.plan(seed=11, scale_override=0.02, workloads=("dedup",))
        specs = {job.canonical() for job in jobs}
        assert all(job.canonical() not in specs for job in plain)

    def test_diff_reports_identical_and_differing(self, tmp_path):
        jobs = _traced_plan()
        results = execute(jobs, workers=1, cache=False)
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        payload = {tag: results[tag].trace for tag in sorted(results)}
        write_jsonl(str(a), payload)
        write_jsonl(str(b), payload)
        assert "identical event counts" in analyze.diff_files(str(a), str(b))

    def test_trace_payload_survives_json(self):
        jobs = _traced_plan()
        results = execute(jobs, workers=1, cache=False)
        for result in results.values():
            assert result.trace
            assert result.trace == json.loads(json.dumps(result.trace))
            assert result.histograms == json.loads(json.dumps(result.histograms))

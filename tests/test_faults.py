"""Tests for the repro.faults subsystem: plans, injection, graceful
degradation, invariants, and the reporting plumbing around them."""

import json

import pytest

from repro.core.adaptive import RESIZE_RETRIES, AdaptiveController
from repro.core.detection import CriticalServiceDetector
from repro.errors import DegradedModeWarning, FaultError, TraceError
from repro.experiments import corun_scenario
from repro.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    assert_invariants,
    builtin_plans,
    check_system,
    make_builtin,
    resolve_plan,
)
from repro.guest.symbols import USER_IP, build_table
from repro.runner import SimJob, baseline_policy, cache, execute
from repro.runner.jobs import check_job, run_job
from repro.sim.engine import Simulator
from repro.sim.time import ms, us


# ----------------------------------------------------------------------
# plan validation and round trips
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultPlan("p").add("cosmic_ray", ms(1))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(FaultError, match="does not accept"):
            FaultPlan("p").add("ipi_drop", ms(1), ms(2), probability=0.5)

    def test_nonpositive_activation_rejected(self):
        with pytest.raises(FaultError, match="strictly positive"):
            FaultPlan("p").add("stale_profile", 0)

    def test_empty_window_rejected(self):
        with pytest.raises(FaultError, match="window is empty"):
            FaultPlan("p").add("ipi_drop", ms(2), ms(2))

    def test_instant_kind_rejects_window(self):
        with pytest.raises(FaultError, match="instantaneous"):
            FaultPlan("p").add("pcpu_offline", ms(1), ms(2), pcpu=0)

    def test_defaults_merged(self):
        plan = FaultPlan("p").add("ipi_drop", ms(1), ms(2), prob=0.5)
        spec = plan.specs[0]
        assert spec.params["prob"] == 0.5
        assert spec.params["max_resends"] == FAULT_KINDS["ipi_drop"]["max_resends"]

    def test_roundtrip_canonical(self):
        plan = FaultPlan("trip", description="d", seed_salt=3)
        plan.add("ipi_drop", ms(1), ms(5), prob=0.2)
        plan.add("pcpu_offline", ms(2), pcpu=1)
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.canonical() == plan.canonical()

    def test_flat_and_nested_params_equivalent(self):
        nested = FaultPlan.from_dict(
            {"name": "p", "faults": [
                {"kind": "ipi_drop", "at_ms": 1, "until_ms": 5,
                 "params": {"prob": 0.3}},
            ]}
        )
        flat = FaultPlan.from_dict(
            {"name": "p", "faults": [
                {"kind": "ipi_drop", "at_ms": 1, "until_ms": 5, "prob": 0.3},
            ]}
        )
        assert nested.canonical() == flat.canonical()

    def test_mixed_params_leave_the_input_unchanged(self):
        """``check_job`` validates a job's plan through ``from_dict`` and
        must never rewrite the job: its spec is the cache key."""
        raw = {"name": "p", "faults": [
            {"kind": "ipi_drop", "at_ms": 1, "until_ms": 5,
             "params": {"prob": 0.3}, "max_resends": 2},
        ]}
        job = SimJob(tag="t", scenario="solo", scenario_kwargs={"workload_kind": "gmake"},
                     duration_ns=ms(4), faults=json.loads(json.dumps(raw)))
        key = cache.job_key(job)
        check_job(job)
        assert job.faults == raw
        assert cache.job_key(job) == key

    def test_ms_and_ns_times_equivalent(self):
        by_ms = FaultPlan.from_dict(
            {"name": "p", "faults": [{"kind": "stale_profile", "at_ms": 2}]}
        )
        by_ns = FaultPlan.from_dict(
            {"name": "p", "faults": [{"kind": "stale_profile", "at_ns": int(ms(2))}]}
        )
        assert by_ms.canonical() == by_ns.canonical()

    def test_both_time_spellings_rejected(self):
        with pytest.raises(FaultError, match="both"):
            FaultPlan.from_dict(
                {"name": "p", "faults": [
                    {"kind": "stale_profile", "at_ms": 1, "at_ns": 100},
                ]}
            )

    def test_missing_time_rejected(self):
        with pytest.raises(FaultError, match="needs at_ms or at_ns"):
            FaultPlan.from_dict({"name": "p", "faults": [{"kind": "stale_profile"}]})

    def test_unknown_top_level_keys_rejected(self):
        with pytest.raises(FaultError, match="unknown fault plan keys"):
            FaultPlan.from_dict({"name": "p", "bogus": 1})

    def test_entry_without_kind_rejected(self):
        with pytest.raises(FaultError, match="missing its 'kind'"):
            FaultPlan.from_dict({"name": "p", "faults": [{"at_ms": 1}]})

    def test_from_json_rejects_garbage(self):
        with pytest.raises(FaultError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_empty_plan_properties(self):
        plan = FaultPlan("nothing")
        assert plan.empty and len(plan) == 0


class TestBuiltinsAndResolve:
    def test_builtin_names_stable(self):
        assert builtin_plans() == [
            "cpu-hotplug", "lossy-ipi", "ple-misconfig", "pool-flap",
            "slow-ipi", "stale-profile", "symbol-corrupt", "symbol-outage",
        ]

    def test_every_builtin_scales_with_horizon(self):
        for name in builtin_plans():
            small = make_builtin(name, ms(100))
            large = make_builtin(name, ms(1000))
            assert not small.empty
            for spec_s, spec_l in zip(small, large):
                assert spec_l.at_ns == 10 * spec_s.at_ns

    def test_unknown_builtin_rejected(self):
        with pytest.raises(FaultError, match="unknown built-in"):
            make_builtin("meteor-strike")

    def test_resolve_accepts_plan_dict_name_and_file(self, tmp_path):
        plan = make_builtin("slow-ipi", ms(100))
        assert resolve_plan(plan) is plan
        assert resolve_plan(plan.to_dict()).canonical() == plan.canonical()
        assert resolve_plan("slow-ipi", ms(100)).canonical() == plan.canonical()
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()), encoding="utf-8")
        assert resolve_plan(str(path)).canonical() == plan.canonical()

    def test_resolve_rejects_non_builtin_non_json(self):
        with pytest.raises(FaultError, match="not a built-in"):
            resolve_plan("no-such-plan")

    def test_resolve_missing_file_rejected(self):
        with pytest.raises(FaultError, match="cannot read"):
            resolve_plan("/nonexistent/plan.json")


# ----------------------------------------------------------------------
# detector degradation (pure unit tests on stubs)
# ----------------------------------------------------------------------
class _StubKernel:
    def __init__(self):
        self.symbols = build_table(("free_one_page", "release_pages", "vfs_read"))
        self.symbol_fault = None

    @staticmethod
    def addr_for(register):
        """The detector reads the IP through the kernel; a stub vCPU's
        ``current_symbol`` already holds the raw register value."""
        return register


class _StubDomain:
    def __init__(self, kernel):
        self.kernel = kernel


class _StubVcpu:
    name = "stub-vcpu"

    def __init__(self, kernel, ip):
        self.domain = _StubDomain(kernel)
        self.current_symbol = ip


class TestDetectorDegradation:
    def _addr(self, kernel, name):
        return kernel.symbols.addr_of(name) + 4

    def test_healthy_hit_learns_range(self):
        detector = CriticalServiceDetector()
        kernel = _StubKernel()
        hit = detector.inspect(_StubVcpu(kernel, self._addr(kernel, "release_pages")))
        assert hit.critical and hit.symbol == "release_pages"
        assert detector.symbol_misses == 0 and detector.fallback_hits == 0

    def test_miss_falls_back_to_learned_ranges(self):
        detector = CriticalServiceDetector()
        kernel = _StubKernel()
        ip = self._addr(kernel, "release_pages")
        detector.inspect(_StubVcpu(kernel, ip))  # healthy: learn the range
        kernel.symbol_fault = "miss"
        rescued = detector.inspect(_StubVcpu(kernel, ip))
        assert rescued.critical and rescued.symbol == "release_pages"
        assert detector.symbol_misses == 1 and detector.fallback_hits == 1

    def test_miss_without_learned_range_is_blind(self):
        detector = CriticalServiceDetector()
        kernel = _StubKernel()
        kernel.symbol_fault = "miss"
        blind = detector.inspect(_StubVcpu(kernel, self._addr(kernel, "release_pages")))
        assert not blind.critical and blind.symbol is None
        assert detector.symbol_misses == 1 and detector.fallback_hits == 0

    def test_miss_ignores_user_space_ips(self):
        detector = CriticalServiceDetector()
        kernel = _StubKernel()
        kernel.symbol_fault = "miss"
        user = detector.inspect(_StubVcpu(kernel, USER_IP))
        assert not user.critical
        assert detector.symbol_misses == 0  # only kernel-range IPs consult the table

    def test_corrupt_map_misses_real_criticals(self):
        detector = CriticalServiceDetector()
        kernel = _StubKernel()
        kernel.symbol_fault = "corrupt"
        # release_pages resolves to its address-order neighbour vfs_read,
        # which is not whitelisted: a missed critical.
        wrong = detector.inspect(_StubVcpu(kernel, self._addr(kernel, "release_pages")))
        assert wrong.symbol == "vfs_read" and not wrong.critical
        assert detector.symbol_misses == 1

    def test_corrupt_map_creates_false_positives(self):
        detector = CriticalServiceDetector()
        kernel = _StubKernel()
        kernel.symbol_fault = "corrupt"
        # free_one_page's neighbour is release_pages — also critical, so
        # the misfire classifies (under the wrong name).
        fake = detector.inspect(_StubVcpu(kernel, self._addr(kernel, "free_one_page")))
        assert fake.symbol == "release_pages" and fake.critical


# ----------------------------------------------------------------------
# adaptive controller degradation (stub hypervisor)
# ----------------------------------------------------------------------
class _FakeStats:
    def __init__(self, windows=()):
        self.windows = list(windows)

    def mark_window(self):
        pass

    def window_events(self):
        if self.windows:
            return self.windows.pop(0)
        return {"ipi": 0, "ple": 0, "irq": 0}


class _FakeFaults:
    def __init__(self, profile_stale=False):
        self.profile_stale = profile_stale
        self.counters = {}
        self.warnings = []

    def count(self, name, delta=1):
        self.counters[name] = self.counters.get(name, 0) + delta

    def trace(self, kind, fault, target, action=None):
        pass

    def warn_degraded(self, topic, message):
        self.warnings.append(topic)


class _RefusingHv:
    def __init__(self, windows=(), refuse=True, faults=None):
        self.sim = Simulator()
        self.stats = _FakeStats(windows)
        self.refuse = refuse
        self.faults = faults
        self.resize_calls = 0

    def set_micro_cores(self, count):
        self.resize_calls += 1
        if self.refuse:
            raise FaultError("cpupool move refused (injected)")


class TestAdaptiveDegradation:
    def test_refused_resize_retries_then_abandons(self):
        faults = _FakeFaults()
        hv = _RefusingHv(faults=faults)
        controller = AdaptiveController()
        controller.start(hv)
        hv.sim.run(until=ms(100))
        # The initial apply plus every bounded retry was refused …
        assert controller.failed_resizes >= 1 + RESIZE_RETRIES
        # … and the controller gave up rather than retrying forever.
        assert controller.abandoned_resizes >= 1
        assert faults.counters.get("resize_abandoned", 0) >= 1
        assert "poolmove_fail" in faults.warnings

    def test_retry_skipped_when_decision_superseded(self):
        hv = _RefusingHv()
        controller = AdaptiveController()
        controller.hv = hv
        controller._apply(0)
        assert controller.failed_resizes == 1
        hv.refuse = False
        controller.num_ucores = 2  # a newer decision landed meanwhile
        calls = hv.resize_calls
        hv.sim.run(until=ms(100))
        assert hv.resize_calls == calls  # stale retry did not re-apply

    def test_stale_profile_clamps_instead_of_resizing(self):
        faults = _FakeFaults(profile_stale=True)
        hv = _RefusingHv(refuse=False, faults=faults)
        controller = AdaptiveController(epoch_interval=ms(50))
        controller.start(hv)
        hv.sim.run(until=ms(130))
        assert controller.stale_clamps >= 2  # clamped once per epoch
        assert hv.resize_calls == 0
        assert faults.counters.get("stale_profile_clamps", 0) >= 2
        assert "stale_profile" in faults.warnings


# ----------------------------------------------------------------------
# end-to-end injection through real scenarios
# ----------------------------------------------------------------------
def _tiny_corun(plan, duration=ms(25), warmup=ms(5), seed=7):
    scenario = corun_scenario("dedup", policy=baseline_policy(), seed=seed)
    scenario.faults = plan
    system = scenario.build()
    result = system.run(duration, warmup_ns=warmup)
    return system, result


class TestInjectionEndToEnd:
    def test_forced_ack_unwedges_total_ipi_loss(self):
        # dedup's first shootdowns land after ~30 ms, so the window and
        # the run must reach past that point.
        plan = FaultPlan("total-loss").add(
            "ipi_drop", ms(6), ms(40), prob=1.0, max_resends=1, resend_ns=int(us(50))
        )
        with pytest.warns(DegradedModeWarning):
            system, result = _tiny_corun(plan, duration=ms(35))
        counters = result.faults["counters"]
        assert counters["ipi_dropped"] > 0
        assert counters["ipi_timeouts"] > 0  # resend budget exhausted
        assert check_system(system) == []  # …yet nothing wedged

    def test_pcpu_offline_leaves_consistent_pools(self):
        plan = FaultPlan("down").add("pcpu_offline", ms(6), pcpu=3)
        system, result = _tiny_corun(plan)
        hv = system.hv
        assert hv.pcpus[3].offline
        assert all(hv.pcpus[3] not in pool.pcpus
                   for pool in (hv.normal_pool, hv.micro_pool))
        assert result.faults["counters"]["injected_pcpu_offline"] == 1
        assert check_system(system) == []

    def test_pcpu_online_rejoins_normal_pool(self):
        plan = (FaultPlan("flap")
                .add("pcpu_offline", ms(6), pcpu=3)
                .add("pcpu_online", ms(15), pcpu=3))
        system, _result = _tiny_corun(plan)
        hv = system.hv
        assert not hv.pcpus[3].offline
        assert hv.pcpus[3] in hv.normal_pool.pcpus
        assert check_system(system) == []

    def test_offline_invalid_pcpu_index_rejected(self):
        plan = FaultPlan("bad").add("pcpu_offline", ms(6), pcpu=99)
        with pytest.raises(FaultError, match="valid pcpu index"):
            _tiny_corun(plan)

    def test_symbol_fault_unknown_domain_rejected(self):
        plan = FaultPlan("bad").add("symbol_table", ms(6), ms(10), domain="vm9")
        with pytest.raises(FaultError, match="unknown domain"):
            _tiny_corun(plan)

    def test_ple_misconfig_restores_saved_config(self):
        plan = FaultPlan("ple").add("ple_misconfig", ms(6), ms(12), window=0)
        system, result = _tiny_corun(plan)
        assert system.hv.ple.enabled  # restored at window close
        counters = result.faults["counters"]
        assert counters["injected_ple_misconfig"] == 1
        assert counters["recovered_ple_misconfig"] == 1


class TestInjectorWarnings:
    def test_warn_degraded_dedups_per_topic(self):
        injector = FaultInjector(FaultPlan("p"), seed=1)
        with pytest.warns(DegradedModeWarning) as caught:
            injector.warn_degraded("topic-a", "first")
            injector.warn_degraded("topic-a", "repeat (suppressed)")
            injector.warn_degraded("topic-b", "other topic")
        assert len(caught) == 2


class TestDeterminismAndCache:
    def _job(self, tag="faulted", faults=None):
        return SimJob(
            tag=tag,
            scenario="corun",
            scenario_kwargs={"workload_kind": "dedup"},
            policy={"mode": "baseline"},
            seed=7,
            duration_ns=ms(20),
            warmup_ns=ms(5),
            faults=faults,
        )

    def test_empty_plan_is_byte_identical_to_no_plan(self):
        bare = run_job(self._job())
        empty = run_job(self._job(faults={"name": "empty", "faults": []}))
        assert json.dumps(bare, sort_keys=True) == json.dumps(empty, sort_keys=True)
        assert "faults" not in bare

    def test_same_plan_same_seed_reproduces(self):
        faults = make_builtin("lossy-ipi", ms(25)).to_dict()
        first = run_job(self._job(faults=faults))
        second = run_job(self._job(faults=faults))
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert first["faults"]["plan"] == "lossy-ipi"

    def test_faulted_results_survive_the_cache(self, tmp_path):
        jobs = [self._job(faults=make_builtin("lossy-ipi", ms(25)).to_dict())]
        direct = execute(jobs, workers=1, cache=False)
        cold = execute(jobs, workers=1, cache=True, cache_dir=tmp_path)
        warm = execute(jobs, workers=1, cache=True, cache_dir=tmp_path)
        key = jobs[0].tag
        for other in (cold, warm):
            assert (json.dumps(direct[key].to_dict(), sort_keys=True)
                    == json.dumps(other[key].to_dict(), sort_keys=True))

    def test_fault_plan_is_part_of_cache_identity(self):
        bare = self._job()
        faulted = self._job(faults=make_builtin("lossy-ipi", ms(25)).to_dict())
        assert bare.canonical() != faulted.canonical()


# ----------------------------------------------------------------------
# invariant checker
# ----------------------------------------------------------------------
class _SystemWrap:
    def __init__(self, hv):
        self.hv = hv


class TestInvariantChecker:
    def _healthy_system(self):
        from helpers import make_domain, make_hv, spawn_task, spin_program, start_and_run

        sim, hv = make_hv(num_pcpus=4)
        vm = make_domain(hv, name="vm1", vcpus=2)
        for vcpu in vm.vcpus:
            spawn_task(vcpu, spin_program())
        start_and_run(sim, hv, duration_ms=5)
        return sim, hv

    def test_healthy_system_passes(self):
        _sim, hv = self._healthy_system()
        assert check_system(_SystemWrap(hv)) == []

    def test_orphaned_pcpu_is_a_violation(self):
        _sim, hv = self._healthy_system()
        hv.normal_pool.pcpus.remove(hv.pcpus[0])
        violations = check_system(_SystemWrap(hv))
        assert any("pool membership" in v for v in violations)
        with pytest.raises(FaultError, match="invariant check failed"):
            assert_invariants(_SystemWrap(hv))

    def test_stuck_ipi_is_a_violation_past_grace(self):
        _sim, hv = self._healthy_system()
        injector = FaultInjector(FaultPlan("probe"), seed=1).install(hv)

        class _Op:
            id = 99
            kind = "tlb"
            complete = False
            initiator = None
            pending = (1, 2)

        injector.pending_ipis[99] = (_Op(), 0)
        # Young relative to the default multi-slice grace: no violation.
        assert check_system(_SystemWrap(hv)) == []
        # But a 5 ms old incomplete op fails a 1 ms grace.
        violations = check_system(_SystemWrap(hv), ipi_grace_ns=ms(1))
        assert any("ipi accounting" in v for v in violations)

    def _queued_system(self):
        from helpers import make_domain, make_hv, spawn_task, spin_program, start_and_run

        sim, hv = make_hv(num_pcpus=2)
        vm = make_domain(hv, name="vm1", vcpus=5)
        for vcpu in vm.vcpus:
            spawn_task(vcpu, spin_program())
        start_and_run(sim, hv, duration_ms=5)
        scheduler = hv.normal_pool.scheduler
        assert scheduler.queue_depth() == 3
        assert check_system(_SystemWrap(hv)) == []
        return hv, scheduler

    def test_runqueue_miscount_is_a_violation(self):
        hv, scheduler = self._queued_system()
        scheduler._depths[hv.pcpus[0]] += 1
        violations = check_system(_SystemWrap(hv))
        assert any("runqueue census: pcpu0 counts" in v for v in violations)

    def test_vcpu_queued_twice_is_a_violation(self):
        hv, scheduler = self._queued_system()
        vcpu = scheduler.queued()[0]
        other = next(p for p in scheduler._runqs if p is not vcpu.runq_pcpu)
        scheduler._push(other, vcpu.priority, vcpu)
        violations = check_system(_SystemWrap(hv))
        assert any("%s is queued twice" % vcpu.name in v for v in violations)
        assert any("but names another" in v for v in violations)

    def test_completed_ipi_still_in_registry_is_fine(self):
        _sim, hv = self._healthy_system()
        injector = FaultInjector(FaultPlan("probe"), seed=1).install(hv)

        class _Op:
            id = 100
            kind = "tlb"
            complete = True
            initiator = None
            pending = ()

        injector.pending_ipis[100] = (_Op(), 0)
        assert check_system(_SystemWrap(hv), ipi_grace_ns=ms(1)) == []


# ----------------------------------------------------------------------
# trace export / analyze integration
# ----------------------------------------------------------------------
class TestTraceIntegration:
    def test_fault_records_flow_into_trace(self):
        plan = FaultPlan("traced").add("stale_profile", ms(6), ms(12))
        scenario = corun_scenario("dedup", policy=baseline_policy(), seed=7)
        scenario.trace = True
        scenario.faults = plan
        system = scenario.build()
        system.run(ms(20), warmup_ns=ms(2))
        kinds = {record.kind for record in system.tracer}
        assert "fault_inject" in kinds and "fault_recover" in kinds

    def test_analyze_renders_fault_timeline(self):
        from repro.obs.analyze import TraceAnalysis, format_analysis

        records = [
            {"kind": "fault_inject", "t": int(ms(3)), "fault": "ipi_drop",
             "target": "vm1:v0"},
            {"kind": "fault_recover", "t": int(ms(9)), "fault": "ipi_drop",
             "target": None, "action": "restored"},
        ]
        analysis = TraceAnalysis("job", records)
        assert len(analysis.fault_events) == 2
        text = format_analysis(analysis)
        assert "fault timeline (repro.faults)" in text
        assert "restored" in text


class TestLoadJsonlValidation:
    def test_missing_file(self):
        from repro.sim.trace import load_jsonl

        with pytest.raises(TraceError, match="cannot read"):
            load_jsonl("/nonexistent/trace.jsonl")

    def test_truncated_json_line(self, tmp_path):
        from repro.sim.trace import load_jsonl

        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "meta", "t": 0}\n{"kind": "yie', encoding="utf-8")
        with pytest.raises(TraceError, match="line 2: malformed JSON"):
            load_jsonl(str(path))

    def test_non_object_record(self, tmp_path):
        from repro.sim.trace import load_jsonl

        path = tmp_path / "t.jsonl"
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(TraceError, match="must be a JSON object"):
            load_jsonl(str(path))

    def test_record_without_kind(self, tmp_path):
        from repro.sim.trace import load_jsonl

        path = tmp_path / "t.jsonl"
        path.write_text('{"t": 0}\n', encoding="utf-8")
        with pytest.raises(TraceError, match="kind"):
            load_jsonl(str(path))

    def test_valid_file_round_trips(self, tmp_path):
        from repro.sim.trace import load_jsonl

        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "meta"}\n\n{"kind": "yield"}\n', encoding="utf-8")
        assert [r["kind"] for r in load_jsonl(str(path))] == ["meta", "yield"]


# ----------------------------------------------------------------------
# CLI and registry surfaces
# ----------------------------------------------------------------------
class TestCliSurfaces:
    def test_faults_subcommand_lists_plans(self, capsys):
        from repro.cli import main

        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        for name in builtin_plans():
            assert name in out

    def test_faults_kinds_reference(self, capsys):
        from repro.cli import main

        assert main(["faults", "--kinds"]) == 0
        out = capsys.readouterr().out
        for kind in FAULT_KINDS:
            assert kind in out

    def test_unknown_plan_exits_nonzero(self, capsys):
        from repro.cli import main

        assert main(["corun", "dedup", "--duration-ms", "20",
                     "--faults", "no-such-plan"]) == 2
        assert "unknown fault plan" in capsys.readouterr().err

    def test_faulted_corun_reports_digest(self, capsys):
        from repro.cli import main

        assert main(["corun", "dedup", "--duration-ms", "25",
                     "--faults", "slow-ipi"]) == 0
        out = capsys.readouterr().out
        assert "fault injection: slow-ipi" in out
        assert "invariants: OK" in out

    def test_report_faults_raises_on_violations(self, capsys):
        from repro.cli import _report_faults

        digest = {"plan": "p", "counters": {},
                  "invariant_violations": ["starvation: vm1:v0 stuck"]}
        with pytest.raises(FaultError, match="starvation"):
            _report_faults(digest)

    @staticmethod
    def _prepared():
        """A Prepared step over a stub module that reduces to its tags."""
        from types import SimpleNamespace

        from repro.experiments.registry import Prepared

        module = SimpleNamespace(reduce=sorted, format_result=", ".join)
        return Prepared(module, [], None)

    def test_registry_invariant_gate_raises(self):
        class _Res:
            faults = {"invariant_violations": ["ipi accounting: op#1 stuck"]}

        with pytest.raises(FaultError, match="faulted job"):
            self._prepared().finish({"job": _Res()})

    def test_registry_invariant_gate_passes_clean(self):
        class _Healthy:
            faults = None

        class _Degraded:
            faults = {"invariant_violations": []}

        results, text = self._prepared().finish({"a": _Healthy(), "b": _Degraded()})
        assert results == ["a", "b"] and text == "a, b"

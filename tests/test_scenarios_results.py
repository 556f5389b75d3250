"""Tests for scenario building, the System runner, and RunResult."""

import pytest

from repro.experiments.results import RunResult
from repro.experiments.scenarios import (
    Scenario,
    corun_scenario,
    mixed_io_scenario,
    solo_io_scenario,
    solo_scenario,
)
from repro.runner import static_policy
from repro.sim.time import ms
from repro.workloads.cpu_bound import SwaptionsWorkload


class TestScenarioBuilding:
    def test_solo_scenario_shape(self):
        scenario = solo_scenario("gmake")
        assert len(scenario.vms) == 1
        assert scenario.vms[0].vcpus == 12

    def test_corun_scenario_shape(self):
        scenario = corun_scenario("gmake")
        assert [vm.name for vm in scenario.vms] == ["vm1", "vm2"]
        assert scenario.vms[1].workloads[0].kind == "swaptions"

    def test_mixed_io_pins_both_vms(self):
        scenario = mixed_io_scenario()
        assert all(vm.pin_to == (0,) for vm in scenario.vms)
        assert all(vm.vcpus == 1 for vm in scenario.vms)

    def test_build_installs_workloads(self):
        system = corun_scenario("gmake").build()
        assert set(system.workloads) == {"vm1:gmake", "vm2:swaptions"}

    def test_build_applies_policy(self):
        system = corun_scenario("gmake", policy=static_policy(2)).build()
        assert system.hv.micro_core_count() == 2

    def test_workload_spec_instance_passthrough(self):
        workload = SwaptionsWorkload(name="mine")
        scenario = Scenario(name="custom")
        scenario.add_vm("vm1", vcpus=2).add_instance(workload)
        system = scenario.build()
        assert system.workloads["vm1:mine"] is workload

    def test_custom_vm_weights(self):
        scenario = Scenario()
        scenario.add_vm("heavy", vcpus=1, weight=512).add("lookbusy")
        scenario.add_vm("light", vcpus=1, weight=128).add("lookbusy")
        system = scenario.build()
        weights = {d.name: d.weight for d in system.hv.domains}
        assert weights == {"heavy": 512, "light": 128}

    def test_seed_controls_workload_randomness(self):
        r1 = solo_scenario("gmake", seed=7).build().run(ms(30))
        r2 = solo_scenario("gmake", seed=7).build().run(ms(30))
        r3 = solo_scenario("gmake", seed=8).build().run(ms(30))
        assert r1.rate("gmake") == r2.rate("gmake")
        assert r1.rate("gmake") != r3.rate("gmake")


class TestSystemRun:
    def test_run_collects_result(self):
        result = solo_scenario("gmake").build().run(ms(30))
        assert isinstance(result, RunResult)
        assert result.rate("gmake") > 0
        assert result.duration_ns == ms(30)

    def test_run_continues_incrementally(self):
        system = solo_scenario("gmake").build()
        system.run(ms(20))
        before = system.sim.now
        system.run(ms(20))
        assert system.sim.now == before + ms(20)

    def test_warmup_discards_measurements(self):
        cold = solo_scenario("gmake").build().run(ms(50))
        warm = solo_scenario("gmake").build().run(ms(50), warmup_ns=ms(50))
        # Warm run measures steady state only; progress counted over the
        # same window length.
        assert warm.rate("gmake") > 0
        assert abs(warm.rate("gmake") - cold.rate("gmake")) / cold.rate("gmake") < 0.5

    def test_reset_measurements_zeroes_state(self):
        system = corun_scenario("gmake").build()
        system.run(ms(40))
        system.reset_measurements()
        assert system.workloads["vm1:gmake"].progress() == 0
        assert system.hv.stats.counters.get("yield") == 0
        result = system.result(ms(1))
        assert result.total_yields() == 0


class TestRunResult:
    def _result(self):
        return corun_scenario("gmake").build().run(ms(40))

    def test_workload_lookup_by_suffix(self):
        result = self._result()
        assert result.workload("gmake").key == "vm1:gmake"

    def test_workload_lookup_unknown(self):
        result = self._result()
        with pytest.raises(KeyError):
            result.workload("nope")

    def test_domain_yields_present(self):
        result = self._result()
        assert set(result.domain_yields) == {"vm1", "vm2"}
        for causes in result.domain_yields.values():
            assert set(causes) == {"ipi", "spinlock", "halt", "other"}

    def test_total_yields_sum(self):
        result = self._result()
        assert result.total_yields() >= result.total_yields("vm1")

    def test_utilization_bounded(self):
        result = self._result()
        assert 0.0 <= result.utilization <= 1.0

    def test_io_scenarios_report_flow_extras(self):
        result = solo_io_scenario().build().run(ms(60))
        extra = result.workload("iperf").extra
        assert {"throughput_mbps", "jitter_ms", "packets", "dropped"} <= set(extra)

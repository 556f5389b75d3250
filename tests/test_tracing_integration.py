"""Tracing integration: the xentrace-style buffer captures scheduling
decisions during real scenario runs."""

from repro.experiments.scenarios import corun_scenario
from repro.runner import static_policy
from repro.sim.time import ms


class TestScenarioTracing:
    def test_trace_disabled_by_default(self):
        system = corun_scenario("gmake").build()
        system.run(ms(30))
        assert len(system.tracer) == 0

    def test_deschedule_events_recorded(self):
        scenario = corun_scenario("gmake")
        scenario.trace = True
        system = scenario.build()
        system.run(ms(60))
        records = system.tracer.find("deschedule")
        assert records
        reasons = {r.detail["reason"] for r in records}
        assert "slice" in reasons or "preempt" in reasons

    def test_accelerate_events_recorded_with_policy(self):
        scenario = corun_scenario("exim", policy=static_policy(1))
        scenario.trace = True
        system = scenario.build()
        system.run(ms(150))
        accelerations = system.tracer.find("accelerate")
        assert accelerations
        # Every record names a vm1 or vm2 vCPU.
        assert all(r.detail["vcpu"].startswith("vm") for r in accelerations)

    def test_trace_times_monotonic(self):
        scenario = corun_scenario("gmake")
        scenario.trace = True
        system = scenario.build()
        system.run(ms(60))
        times = [r.time for r in system.tracer]
        assert times == sorted(times)

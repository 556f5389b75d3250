"""Edge-case tests: error hierarchy, cpupool bookkeeping, determinism
of full scenarios, and executor corner conditions."""

import pytest

from repro import errors
from repro.experiments.scenarios import corun_scenario, mixed_io_scenario
from repro.guest.actions import Compute, Sleep
from repro.guest.waitqueue import WaitQueue
from repro.hypervisor.cpupool import CpuPool
from repro.sched import MicroScheduler
from repro.sim.engine import Simulator
from repro.sim.time import ms, us

from helpers import make_domain, make_hv, spawn_task, spin_program


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in (
            "SimulationError",
            "ConfigError",
            "SchedulerError",
            "GuestError",
            "WorkloadError",
            "SymbolTableError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_repro_error_is_exception(self):
        assert issubclass(errors.ReproError, Exception)


class TestCpuPool:
    def _pool(self):
        sim = Simulator()
        return CpuPool("p", MicroScheduler(sim, slice_ns=us(100)))

    class _PCpu:
        def __init__(self, index):
            self.info = type("I", (), {"index": index})()
            self.current = None

    def test_add_and_remove(self):
        pool = self._pool()
        pcpu = self._PCpu(0)
        pool.add_pcpu(pcpu)
        assert len(pool) == 1
        assert pool.remove_pcpu(pcpu) is None
        assert len(pool) == 0

    def test_double_add_rejected(self):
        pool = self._pool()
        pcpu = self._PCpu(0)
        pool.add_pcpu(pcpu)
        with pytest.raises(errors.SchedulerError):
            pool.add_pcpu(pcpu)

    def test_remove_unknown_rejected(self):
        pool = self._pool()
        with pytest.raises(errors.SchedulerError):
            pool.remove_pcpu(self._PCpu(0))

    def test_slice_property_delegates(self):
        pool = self._pool()
        assert pool.slice == us(100)


class TestScenarioDeterminism:
    def test_identical_runs_identical_results(self):
        first = corun_scenario("exim", seed=5).build().run(ms(80))
        second = corun_scenario("exim", seed=5).build().run(ms(80))
        assert first.rate("exim") == second.rate("exim")
        assert first.total_yields() == second.total_yields()
        assert first.hv_counters == second.hv_counters

    def test_io_scenario_deterministic(self):
        a = mixed_io_scenario(seed=5).build().run(ms(100))
        b = mixed_io_scenario(seed=5).build().run(ms(100))
        assert (
            a.workload("iperf").extra["packets"]
            == b.workload("iperf").extra["packets"]
        )


class TestExecutorEdges:
    def test_vcpu_with_only_sleeping_tasks_halts_and_recovers(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=1)
        queue = WaitQueue()
        woken = {"n": 0}

        def sleeper():
            while True:
                yield Sleep(queue)
                yield Compute(us(10))
                woken["n"] += 1

        task = spawn_task(domain.vcpus[0], lambda: sleeper())
        hv.start()
        sim.run(until=ms(2))
        assert domain.vcpus[0].state == "blocked"
        # External wake through the guest scheduler + hypervisor.
        domain.vcpus[0].guest_cpu.enqueue(task)
        hv.wake_vcpu(domain.vcpus[0])
        sim.run(until=sim.now + ms(1))
        assert woken["n"] == 1

    def test_zero_length_compute_completes(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=1)
        done = {"n": 0}

        def program():
            while True:
                yield Compute(0)
                yield Compute(us(10))
                done["n"] += 1

        spawn_task(domain.vcpus[0], lambda: program())
        hv.start()
        sim.run(until=ms(1))
        assert done["n"] > 0

    def test_many_domains_share_fairly(self):
        sim, hv = make_hv(num_pcpus=2)
        domains = [make_domain(hv, name="vm%d" % i, vcpus=1) for i in range(4)]
        for domain in domains:
            spawn_task(domain.vcpus[0], spin_program())
        hv.start()
        sim.run(until=ms(300))
        ran = [d.vcpus[0].total_ran for d in domains]
        assert min(ran) > 0
        assert min(ran) / max(ran) > 0.5

    def test_affinity_restricts_execution(self):
        sim, hv = make_hv(num_pcpus=2)
        domain = make_domain(hv, vcpus=1)
        domain.pin_all((1,))
        spawn_task(domain.vcpus[0], spin_program())
        hv.start()
        sim.run(until=ms(100))  # past several slices so busy_ns accrues
        assert hv.pcpus[1].busy_ns > 0
        assert hv.pcpus[0].busy_ns == 0

"""Tests for hypervisor-level mechanisms: pools, migration (accelerate),
wake/boost, relays, tick preemption."""

import pytest

from repro.errors import ConfigError, SchedulerError
from repro.guest.actions import Compute, Sleep
from repro.guest.waitqueue import WaitQueue
from repro.hypervisor import vcpu as vc
from repro.hypervisor.hypervisor import Hypervisor
from repro.sched.base import BOOST, OVER, UNDER
from repro.sim.engine import Simulator
from repro.sim.time import ms, us
from repro.sim.trace import Tracer

from helpers import make_domain, make_hv, spawn_task, spin_program


class TestDomains:
    def test_create_domain_registers_vcpus(self):
        _sim, hv = make_hv()
        domain = make_domain(hv, vcpus=3)
        assert len(domain.vcpus) == 3
        assert all(v.pool is hv.normal_pool for v in domain.vcpus)

    def test_zero_vcpus_rejected(self):
        _sim, hv = make_hv()
        with pytest.raises(ConfigError):
            hv.create_domain("bad", 0)

    def test_pin_all(self):
        _sim, hv = make_hv()
        domain = make_domain(hv, vcpus=2)
        domain.pin_all((0, 1))
        assert all(v.affinity == frozenset({0, 1}) for v in domain.vcpus)

    def test_siblings_of(self):
        _sim, hv = make_hv()
        domain = make_domain(hv, vcpus=3)
        siblings = domain.siblings_of(domain.vcpus[0])
        assert domain.vcpus[0] not in siblings
        assert len(siblings) == 2

    def test_double_start_rejected(self):
        sim, hv = make_hv()
        make_domain(hv, vcpus=1)
        hv.start()
        with pytest.raises(SchedulerError):
            hv.start()


class TestWakeAndBoost:
    def test_wake_from_blocked_boosts(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=2)
        queue = WaitQueue()

        def sleeper():
            yield Sleep(queue)
            while True:
                yield Compute(us(50))

        sleeping = spawn_task(domain.vcpus[0], lambda: sleeper())
        spawn_task(domain.vcpus[1], spin_program())
        hv.start()
        sim.run(until=ms(2))
        assert domain.vcpus[0].state == vc.BLOCKED
        # Wake it directly through the hypervisor path.
        domain.vcpus[0].guest_cpu.enqueue(sleeping)
        hv.wake_vcpu(domain.vcpus[0])
        assert domain.vcpus[0].priority == 0  # BOOST
        sim.run(until=sim.now + ms(1))
        assert domain.vcpus[0].total_ran > 0

    def test_wake_runnable_is_noop(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=2)
        for vcpu in domain.vcpus:
            spawn_task(vcpu, spin_program())
        hv.start()
        sim.run(until=ms(1))
        waiting = [v for v in domain.vcpus if v.state == vc.RUNNABLE][0]
        before = waiting.priority
        hv.wake_vcpu(waiting)
        assert waiting.priority == before


class TestMicroPoolManagement:
    def test_set_micro_cores_grows_and_shrinks(self):
        sim, hv = make_hv(num_pcpus=4)
        make_domain(hv, vcpus=2)
        hv.start()
        hv.set_micro_cores(2)
        sim.run(until=ms(5))
        assert len(hv.micro_pool) == 2
        assert len(hv.normal_pool) == 2
        hv.set_micro_cores(0)
        sim.run(until=sim.now + ms(5))
        assert len(hv.micro_pool) == 0
        assert len(hv.normal_pool) == 4

    def test_cannot_microslice_every_pcpu(self):
        _sim, hv = make_hv(num_pcpus=2)
        with pytest.raises(ConfigError):
            hv.set_micro_cores(2)

    def test_negative_count_rejected(self):
        _sim, hv = make_hv(num_pcpus=2)
        with pytest.raises(ConfigError):
            hv.set_micro_cores(-1)

    def test_pinned_pcpus_never_taken(self):
        sim, hv = make_hv(num_pcpus=3)
        domain = make_domain(hv, vcpus=1)
        domain.pin_all((2,))
        spawn_task(domain.vcpus[0], spin_program())
        hv.start()
        hv.set_micro_cores(2)
        sim.run(until=ms(5))
        micro_indices = {p.info.index for p in hv.micro_pool.pcpus}
        assert 2 not in micro_indices

    def test_micro_core_count_includes_pending(self):
        sim, hv = make_hv(num_pcpus=4)
        make_domain(hv, vcpus=1)
        hv.set_micro_cores(2)  # before start: changes pending
        assert hv.micro_core_count() == 2

    def test_accelerate_requires_micro_cores(self):
        sim, hv = make_hv(num_pcpus=2)
        domain = make_domain(hv, vcpus=2)
        assert not hv.accelerate(domain.vcpus[0])

    def test_accelerate_skips_running_vcpu(self):
        sim, hv = make_hv(num_pcpus=3)
        domain = make_domain(hv, vcpus=1)
        spawn_task(domain.vcpus[0], spin_program())
        hv.start()
        hv.set_micro_cores(1)
        sim.run(until=ms(2))
        assert domain.vcpus[0].state == vc.RUNNING
        assert not hv.accelerate(domain.vcpus[0])

    def test_accelerate_moves_queued_vcpu(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=3)
        for vcpu in domain.vcpus:
            spawn_task(vcpu, spin_program())
        hv.start()
        hv.set_micro_cores(0)
        sim.run(until=ms(2))
        # Grow the micro pool; note 1 pCPU only -> cannot, so use 2nd hv.
        sim2, hv2 = make_hv(num_pcpus=3)
        domain2 = make_domain(hv2, vcpus=3)
        for vcpu in domain2.vcpus:
            spawn_task(vcpu, spin_program())
        hv2.start()
        hv2.set_micro_cores(1)
        sim2.run(until=ms(2))
        queued = [v for v in domain2.vcpus if v.state == vc.RUNNABLE and v.pcpu is None]
        if not queued:
            pytest.skip("no queued vCPU at this instant")
        target = queued[0]
        assert hv2.accelerate(target)
        assert target.pool is hv2.micro_pool
        assert hv2.stats.counters.get("migrations") == 1

    def test_accelerate_blocked_requires_wake_flag(self):
        sim, hv = make_hv(num_pcpus=3)
        domain = make_domain(hv, vcpus=1)
        hv.start()
        hv.set_micro_cores(1)
        sim.run(until=ms(2))  # idle guest -> blocked
        vcpu = domain.vcpus[0]
        assert vcpu.state == vc.BLOCKED
        assert not hv.accelerate(vcpu, wake=False)
        assert hv.accelerate(vcpu, wake=True)
        assert vcpu.pool is hv.micro_pool

    def test_micro_sliced_vcpu_returns_to_normal_pool(self):
        # One normal pCPU shared by two vCPUs, plus one micro core: the
        # queued vCPU is accelerated and must come home after its one
        # 100 us micro slice.
        sim, hv = make_hv(num_pcpus=2)
        vm1 = make_domain(hv, name="vm1", vcpus=1)
        vm2 = make_domain(hv, name="vm2", vcpus=1)
        spawn_task(vm1.vcpus[0], spin_program(chunk_us=10))
        spawn_task(vm2.vcpus[0], spin_program(chunk_us=10))
        hv.start()
        hv.set_micro_cores(1)
        sim.run(until=ms(2))
        queued = [v for v in (vm1.vcpus[0], vm2.vcpus[0]) if v.state == vc.RUNNABLE][0]
        ran_before = queued.total_ran
        assert hv.accelerate(queued)
        assert queued.pool is hv.micro_pool
        sim.run(until=sim.now + ms(1))
        assert queued.pool is hv.normal_pool
        assert queued.total_ran > ran_before


class TestFailedAccelerate:
    """A failed attempt against a full micro pool is not a no-op: the
    vCPU goes home through ``requeue``. These pin today's side effects
    (kept on purpose, see DESIGN.md section 7)."""

    def _full_pool(self):
        """Two normal pCPUs running four spinners (two queued, none
        idle) plus one blocked vCPU; the single micro slot holds a
        just-accelerated vCPU that has not run yet."""
        sim = Simulator()
        tracer = Tracer(sim, enabled=True, kinds=("accelerate",))
        hv = Hypervisor(sim, num_pcpus=3, tracer=tracer)
        # Created first so it runs (and blocks) before the spinners.
        sleeper = make_domain(hv, name="idle", vcpus=1).vcpus[0]
        spinners = make_domain(hv, name="spin", vcpus=4)
        for vcpu in spinners.vcpus:
            spawn_task(vcpu, spin_program())
        hv.start()
        hv.set_micro_cores(1)
        sim.run(until=ms(2))
        queued = [v for v in spinners.vcpus if v.state == vc.RUNNABLE and v.pcpu is None]
        assert len(queued) == 2
        assert sleeper.state == vc.BLOCKED
        filler, subject = queued
        assert hv.accelerate(filler)
        assert not hv.micro_pool.scheduler.has_free_slot()
        return hv, tracer, subject, sleeper

    @staticmethod
    def _expected_home(scheduler, vcpu):
        """Last-ran pCPU, else the first shallowest queue once ``vcpu``
        itself has left its queue."""
        last = vcpu.last_pcpu
        if last is not None and last in scheduler._runqs:
            return last
        depths = {
            pcpu: sum(len(q) - (vcpu in q) for q in queues.values())
            for pcpu, queues in scheduler._runqs.items()
        }
        return min(depths, key=depths.__getitem__)

    def test_queued_boost_vcpu_goes_home_deboosted_at_queue_tail(self):
        hv, tracer, subject, _ = self._full_pool()
        scheduler = hv.normal_pool.scheduler
        # Re-queue the subject as a BOOST vCPU with its yield flag set.
        assert scheduler.remove(subject)
        subject.credits = max(subject.credits, 1)
        scheduler.enqueue(subject, boost=True, yielded=True)
        assert subject.priority == BOOST and subject.yield_flag
        assert scheduler._idle == []
        home = self._expected_home(scheduler, subject)
        migrations = hv.stats.counters.get("migrations")
        accelerations = len(tracer.find("accelerate"))

        assert not hv.accelerate(subject)

        assert subject.priority == (UNDER if subject.credits > 0 else OVER)
        assert subject.yield_flag is False
        assert subject.pool is hv.normal_pool
        assert subject.runq_pcpu is home
        assert scheduler._runqs[home][subject.priority][-1] is subject
        assert scheduler.queued().count(subject) == 1
        assert hv.stats.counters.get("migrations") == migrations
        assert len(tracer.find("accelerate")) == accelerations
        assert all(r.detail["vcpu"] != subject.name for r in tracer.find("accelerate"))

    def test_blocked_vcpu_woken_by_failed_attempt_is_queued(self):
        hv, _, _, sleeper = self._full_pool()
        migrations = hv.stats.counters.get("migrations")

        assert not hv.accelerate(sleeper, wake=True)

        assert sleeper.state == vc.RUNNABLE
        assert sleeper.pool is hv.normal_pool
        assert sleeper in hv.normal_pool.scheduler.queued()
        assert hv.stats.counters.get("migrations") == migrations


class TestTickPreemption:
    def test_under_preempts_over_within_tick(self):
        """An UNDER vCPU queued behind an OVER hog gets the pCPU within
        roughly one tick, not a whole 30 ms slice."""
        sim, hv = make_hv(num_pcpus=1)
        hog_dom = make_domain(hv, name="hog", vcpus=1)
        spawn_task(hog_dom.vcpus[0], spin_program())
        lat_dom = make_domain(hv, name="lat", vcpus=1)
        stamps = []

        def waker():
            while True:
                yield Compute(us(100))
                yield Sleep(WaitQueue())  # sleeps forever after one burst

        spawn_task(lat_dom.vcpus[0], lambda: waker())
        hv.start()
        sim.run(until=ms(60))
        # The hog burned credits (OVER); the latency vCPU ran early.
        assert lat_dom.vcpus[0].total_ran > 0

    def test_relay_vipi_counts(self):
        sim, hv = make_hv(num_pcpus=2)
        domain = make_domain(hv, vcpus=2)
        for vcpu in domain.vcpus:
            spawn_task(vcpu, spin_program())
        hv.start()
        sim.run(until=ms(1))
        op = domain.kernel.send_call_function(domain.vcpus[0], domain.vcpus[1], sim.now)
        sim.run(until=sim.now + ms(1))
        assert op.complete
        assert hv.stats.counters.get("vipi_call") == 1


class TestUtilization:
    def test_busy_fraction_bounded(self):
        sim, hv = make_hv(num_pcpus=2)
        domain = make_domain(hv, vcpus=2)
        for vcpu in domain.vcpus:
            spawn_task(vcpu, spin_program())
        hv.start()
        sim.run(until=ms(100))
        util = hv.utilization(sim.now)
        assert 0.5 < util <= 1.0

"""Additional executor corner cases."""

import pytest

from repro.guest.actions import Compute, Emit, Sleep, SmpCallSingle, Wake
from repro.guest.waitqueue import WaitQueue
from repro.errors import SimulationError
from repro.sim.engine import Interrupt, Simulator
from repro.sim.time import ms, us

from helpers import make_domain, make_hv, spawn_task, spin_program


class TestWakeCorners:
    def test_wake_with_banked_token_is_local_noop(self):
        sim, hv = make_hv(num_pcpus=2)
        domain = make_domain(hv, vcpus=2)
        queue = WaitQueue()
        done = {"n": 0}

        def waker():
            while True:
                yield Wake(queue)
                yield Compute(us(20))
                done["n"] += 1

        spawn_task(domain.vcpus[0], lambda: waker())
        hv.start()
        sim.run(until=ms(2))
        assert done["n"] > 50
        assert queue.banked == done["n"] + 1 or queue.banked >= done["n"]
        # No reschedule IPIs: there was never a sleeper.
        assert hv.stats.counters.get("vipi_resched") == 0

    def test_same_vcpu_wake_skips_ipi(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=1)
        queue = WaitQueue()
        woken = {"n": 0}

        def sleeper():
            while True:
                yield Sleep(queue)
                woken["n"] += 1

        def waker():
            while True:
                yield Compute(us(50))
                yield Wake(queue)

        spawn_task(domain.vcpus[0], lambda: sleeper())
        spawn_task(domain.vcpus[0], lambda: waker())
        hv.start()
        sim.run(until=ms(10))
        assert woken["n"] > 20
        assert hv.stats.counters.get("vipi_resched") == 0


class TestSmpCallCorners:
    def test_single_vcpu_domain_call_is_noop(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=1)
        done = {"n": 0}

        def caller():
            while True:
                yield Compute(us(20))
                yield SmpCallSingle()
                done["n"] += 1

        spawn_task(domain.vcpus[0], lambda: caller())
        hv.start()
        sim.run(until=ms(2))
        assert done["n"] > 20
        assert hv.stats.counters.get("vipi_call") == 0

    def test_explicit_target_index(self):
        sim, hv = make_hv(num_pcpus=3)
        domain = make_domain(hv, vcpus=3)
        for vcpu in domain.vcpus[1:]:
            spawn_task(vcpu, spin_program(chunk_us=20))
        acks = {"n": 0}

        def caller():
            while True:
                yield Compute(us(30))
                yield SmpCallSingle(target_index=2)
                acks["n"] += 1

        spawn_task(domain.vcpus[0], lambda: caller())
        hv.start()
        sim.run(until=ms(5))
        assert acks["n"] > 10
        assert hv.stats.counters.get("vipi_call") >= acks["n"]


class TestPoolChangeDuringRun:
    def test_resize_mid_flight_preserves_progress(self):
        sim, hv = make_hv(num_pcpus=4)
        domain = make_domain(hv, vcpus=4)
        counters = []
        for vcpu in domain.vcpus:
            counter = {"n": 0}
            counters.append(counter)
            from helpers import counted_compute

            spawn_task(vcpu, counted_compute(counter))
        hv.start()
        sim.run(until=ms(20))
        hv.set_micro_cores(2)
        sim.run(until=sim.now + ms(20))
        hv.set_micro_cores(0)
        sim.run(until=sim.now + ms(20))
        # Everyone kept making progress through both transitions.
        snapshot = [c["n"] for c in counters]
        sim.run(until=sim.now + ms(20))
        assert all(c["n"] > s for c, s in zip(counters, snapshot))
        assert len(hv.micro_pool) == 0
        assert len(hv.normal_pool) == 4

    def test_repeated_resizes_are_stable(self):
        sim, hv = make_hv(num_pcpus=4)
        domain = make_domain(hv, vcpus=2)
        for vcpu in domain.vcpus:
            spawn_task(vcpu, spin_program())
        hv.start()
        for count in (1, 2, 1, 0, 2, 0):
            hv.set_micro_cores(count)
            sim.run(until=sim.now + ms(5))
        assert len(hv.micro_pool) == 0
        assert sorted(p.info.index for p in hv.normal_pool.pcpus) == [0, 1, 2, 3]


class TestComputePartialProgress:
    def test_long_compute_survives_many_preemptions(self):
        sim, hv = make_hv(num_pcpus=1)
        vm1 = make_domain(hv, name="vm1", vcpus=1)
        vm2 = make_domain(hv, name="vm2", vcpus=1)
        finished = {}

        def long_job():
            yield Compute(ms(50), symbol="do_syscall_64")  # kernel: full speed
            yield Emit(lambda now: finished.setdefault("at", now))
            while True:
                yield Compute(us(100))

        spawn_task(vm1.vcpus[0], lambda: long_job())
        spawn_task(vm2.vcpus[0], spin_program())
        hv.start()
        sim.run(until=ms(250))
        # 50 ms of work at ~50% share -> finishes around 100 ms, despite
        # being sliced into many slices.
        assert "at" in finished
        assert ms(80) <= finished["at"] <= ms(200)


class TestUnknownAction:
    def test_action_subclass_is_rejected(self):
        # Dispatch is by exact class: a subclass of a known action is
        # not silently run as its parent.
        class CustomCompute(Compute):
            pass

        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=1)

        def program():
            yield CustomCompute(us(10))

        spawn_task(domain.vcpus[0], program)
        hv.start()
        with pytest.raises(SimulationError, match="unknown action"):
            sim.run(until=ms(1))


class TestPeekCompactInteraction:
    """``Simulator.peek()`` releases cancelled heads as a side effect,
    and ``_compact()`` can fire mid-run from inside a callback. Both
    must keep ``_garbage`` exact and never lose a live event."""

    def test_peek_releases_cancelled_far_heads_exactly(self):
        sim = Simulator()
        victims = [sim.schedule(10 + i, lambda _a: None) for i in range(3)]
        sim.schedule(50, lambda _a: None)
        for handle in victims:
            handle.cancel()
        assert sim._garbage == 3
        # peek() walks past the three cancelled heads, releasing each.
        assert sim.peek() == 50
        assert sim._garbage == 0
        assert sim.pending() == 1
        # Idempotent: a second peek finds a clean head.
        assert sim.peek() == 50
        assert sim._garbage == 0

    def test_peek_releases_cancelled_lane_heads_exactly(self):
        sim = Simulator()
        head = sim.schedule(0, lambda _a: None)
        sim.schedule(0, lambda _a: None)
        head.cancel()
        assert sim._garbage == 1
        assert sim.peek() == 0  # the surviving zero-delay entry
        assert sim._garbage == 0
        assert sim.pending() == 1

    def test_peek_skips_stale_timer_waits_without_garbage(self):
        # Handle-free timer waits (a process yielding a bare int) are
        # invalidated by revoking the arm token, never via cancel(), so
        # they must not contribute to _garbage -- and peek() must not
        # decrement it when it releases one.
        sim = Simulator()

        def sleeper():
            try:
                yield 10
            except Interrupt:
                pass

        proc = sim.process(sleeper())
        sim.schedule(50, lambda _a: None)
        sim.run(until=0)  # start the process; timer armed at t=10
        proc.interrupt()
        assert sim._garbage == 0
        sim.run(until=0)  # drain the interrupt resume at t=0
        # peek() walks past the stale t=10 entry without touching the
        # garbage counter (it was never counted).
        assert sim.peek() == 50
        assert sim._garbage == 0

    def test_midrun_compaction_keeps_later_same_time_events(self):
        # A callback cancels enough handles to trigger _compact() while
        # the run loop is mid-drain at this instant. Later same-time
        # events -- a far sibling already popped into the lane and two
        # zero-delay follow-ups scheduled by the callback itself -- must
        # all still fire, in order.
        sim = Simulator()
        fired = []
        victims = [sim.schedule(100 + i, lambda _a: None) for i in range(20)]
        doomed = {}

        def boom(_arg):
            sim.schedule(0, fired.append, "follow-up-1")
            doomed["handle"] = sim.schedule(0, fired.append, "doomed")
            sim._schedule_now(fired.append, "follow-up-2")
            doomed["handle"].cancel()
            for handle in victims:
                handle.cancel()  # 21 cancellations -> compaction fires
            fired.append("boom")

        sim.schedule(5, boom)
        sim.schedule(5, fired.append, "sibling")
        sim.run()
        assert fired == ["boom", "sibling", "follow-up-1", "follow-up-2"]
        assert sim._garbage == 0
        assert sim.pending() == 0

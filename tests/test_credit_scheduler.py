"""Tests for the credit scheduler (per-pCPU runqueues, priorities,
boost, yield flag, stealing, accounting)."""

import pytest

from repro.errors import SchedulerError
from repro.sched import BOOST, OVER, UNDER, CreditScheduler, MicroScheduler
from repro.sim.engine import Simulator
from repro.sim.time import ms


class _FakePCpu:
    def __init__(self, index):
        self.index = index
        self.info = type("Info", (), {"index": index})()
        self.current = None
        self.preempt_requested = False
        self.tickled = 0
        self.preempts = 0

    def tickle(self):
        self.tickled += 1

    def request_preempt(self):
        self.preempt_requested = True
        self.preempts += 1

    def __repr__(self):
        return "pcpu%d" % self.index


class _FakeVcpu:
    def __init__(self, name, credits=1):
        self.name = name
        self.credits = credits
        self.priority = None
        self.affinity = None
        self.yield_flag = False
        self.last_pcpu = None
        self.runq_pcpu = None

    def __repr__(self):
        return self.name


class _FakeDomain:
    def __init__(self, vcpus, weight=256):
        self.vcpus = vcpus
        self.weight = weight


class _Pool:
    name = "normal"

    def __init__(self, pcpus):
        self.pcpus = pcpus


def _scheduler(num_pcpus=2, **kwargs):
    sim = Simulator()
    scheduler = CreditScheduler(sim, slice_jitter=0, **kwargs)
    pcpus = [_FakePCpu(i) for i in range(num_pcpus)]
    scheduler.pool = _Pool(pcpus)
    for pcpu in pcpus:
        scheduler.register_pcpu(pcpu)
    return scheduler, pcpus


class TestEnqueuePick:
    def test_priority_from_credits(self):
        scheduler, pcpus = _scheduler()
        under = _FakeVcpu("u", credits=10)
        over = _FakeVcpu("o", credits=-10)
        scheduler.enqueue(under)
        scheduler.enqueue(over)
        assert under.priority == UNDER
        assert over.priority == OVER

    def test_boost_requires_credits(self):
        scheduler, _ = _scheduler()
        rich = _FakeVcpu("rich", credits=10)
        poor = _FakeVcpu("poor", credits=-1)
        scheduler.enqueue(rich, boost=True)
        scheduler.enqueue(poor, boost=True)
        assert rich.priority == BOOST
        assert poor.priority == OVER

    def test_pick_priority_order(self):
        scheduler, pcpus = _scheduler(num_pcpus=1)
        over = _FakeVcpu("o", credits=-1)
        under = _FakeVcpu("u", credits=1)
        boost = _FakeVcpu("b", credits=1)
        scheduler.enqueue(over)
        scheduler.enqueue(under)
        scheduler.enqueue(boost, boost=True)
        assert scheduler.pick(pcpus[0]) is boost
        assert scheduler.pick(pcpus[0]) is under
        assert scheduler.pick(pcpus[0]) is over
        assert scheduler.pick(pcpus[0]) is None

    def test_enqueue_prefers_idle_pcpu_and_tickles(self):
        scheduler, pcpus = _scheduler()
        scheduler.add_idle(pcpus[1])
        vcpu = _FakeVcpu("v")
        scheduler.enqueue(vcpu)
        assert pcpus[1].tickled == 1
        assert vcpu.runq_pcpu is pcpus[1]

    def test_placement_prefers_last_pcpu(self):
        scheduler, pcpus = _scheduler()
        vcpu = _FakeVcpu("v")
        vcpu.last_pcpu = pcpus[1]
        scheduler.enqueue(vcpu)
        assert vcpu.runq_pcpu is pcpus[1]

    def test_placement_least_loaded_without_history(self):
        scheduler, pcpus = _scheduler()
        first = _FakeVcpu("a")
        first.last_pcpu = pcpus[0]
        scheduler.enqueue(first)
        second = _FakeVcpu("b")
        scheduler.enqueue(second)
        assert second.runq_pcpu is pcpus[1]

    def test_boost_preempts_running_lower_priority(self):
        scheduler, pcpus = _scheduler(num_pcpus=1)
        hog = _FakeVcpu("hog", credits=-1)
        hog.priority = OVER
        pcpus[0].current = hog
        waker = _FakeVcpu("waker", credits=10)
        waker.last_pcpu = pcpus[0]
        scheduler.enqueue(waker, boost=True)
        assert pcpus[0].preempt_requested

    def test_under_does_not_preempt_midslice(self):
        scheduler, pcpus = _scheduler(num_pcpus=1)
        hog = _FakeVcpu("hog", credits=-1)
        hog.priority = OVER
        pcpus[0].current = hog
        scheduler.enqueue(_FakeVcpu("u", credits=10))
        assert not pcpus[0].preempt_requested

    def test_affinity_respected_on_pick(self):
        scheduler, pcpus = _scheduler()
        pinned = _FakeVcpu("pinned")
        pinned.affinity = frozenset({1})
        scheduler.enqueue(pinned)
        assert scheduler.pick(pcpus[0]) is None or scheduler.pick(pcpus[0]) is not pinned
        assert pinned.runq_pcpu is pcpus[1]
        assert scheduler.pick(pcpus[1]) is pinned

    def test_affinity_unsatisfiable_raises(self):
        scheduler, _ = _scheduler()
        ghost = _FakeVcpu("ghost")
        ghost.affinity = frozenset({99})
        with pytest.raises(SchedulerError):
            scheduler.enqueue(ghost)

    def test_remove_from_queue(self):
        scheduler, pcpus = _scheduler()
        vcpu = _FakeVcpu("v")
        scheduler.enqueue(vcpu)
        assert scheduler.remove(vcpu)
        assert not scheduler.remove(vcpu)
        assert scheduler.pick(pcpus[0]) is None


class TestStealing:
    def test_steal_when_local_empty(self):
        scheduler, pcpus = _scheduler()
        vcpu = _FakeVcpu("v")
        vcpu.last_pcpu = pcpus[0]
        scheduler.enqueue(vcpu)
        assert scheduler.pick(pcpus[1]) is vcpu
        assert scheduler.steals == 1

    def test_local_preferred_over_steal(self):
        scheduler, pcpus = _scheduler()
        local = _FakeVcpu("local")
        local.last_pcpu = pcpus[0]
        remote = _FakeVcpu("remote")
        remote.last_pcpu = pcpus[1]
        scheduler.enqueue(local)
        scheduler.enqueue(remote)
        assert scheduler.pick(pcpus[0]) is local
        assert scheduler.steals == 0

    def test_steal_honours_affinity(self):
        scheduler, pcpus = _scheduler()
        pinned = _FakeVcpu("pinned")
        pinned.affinity = frozenset({1})
        scheduler.enqueue(pinned)
        assert scheduler.pick(pcpus[0]) is None


class TestYieldFlag:
    def test_yielded_vcpu_passed_over_once_same_priority(self):
        scheduler, pcpus = _scheduler(num_pcpus=1)
        yielder = _FakeVcpu("y", credits=1)
        peer = _FakeVcpu("p", credits=1)
        scheduler.requeue(yielder, yielded=True)
        scheduler.requeue(peer)
        assert scheduler.pick(pcpus[0]) is peer
        assert not yielder.yield_flag  # consumed by being skipped
        assert scheduler.pick(pcpus[0]) is yielder

    def test_yielded_under_still_beats_over(self):
        scheduler, pcpus = _scheduler(num_pcpus=1)
        yielder = _FakeVcpu("y", credits=1)
        hog = _FakeVcpu("hog", credits=-1)
        scheduler.requeue(yielder, yielded=True)
        scheduler.requeue(hog)
        # csched yield semantics: defer within the priority class only.
        assert scheduler.pick(pcpus[0]) is yielder

    def test_yielded_vcpu_runs_when_alone(self):
        scheduler, pcpus = _scheduler(num_pcpus=1)
        yielder = _FakeVcpu("y", credits=1)
        scheduler.requeue(yielder, yielded=True)
        assert scheduler.pick(pcpus[0]) is yielder
        assert not yielder.yield_flag


class TestAccounting:
    def test_refill_splits_by_weight(self):
        scheduler, _ = _scheduler()
        heavy = _FakeDomain([_FakeVcpu("h", credits=0)], weight=512)
        light = _FakeDomain([_FakeVcpu("l", credits=0)], weight=256)
        scheduler.account([heavy, light], num_pcpus=2)
        assert heavy.vcpus[0].credits > light.vcpus[0].credits

    def test_credit_cap(self):
        scheduler, _ = _scheduler()
        vcpu = _FakeVcpu("v", credits=0)
        domain = _FakeDomain([vcpu])
        for _ in range(10):
            scheduler.account([domain], num_pcpus=4)
        assert vcpu.credits == scheduler.credit_cap

    def test_charge_burns_credits(self):
        scheduler, _ = _scheduler()
        vcpu = _FakeVcpu("v", credits=1000)
        scheduler.charge(vcpu, 300)
        assert vcpu.credits == 700

    def test_rebucket_promotes_refilled_queued_vcpu(self):
        scheduler, pcpus = _scheduler(num_pcpus=1)
        starved = _FakeVcpu("s", credits=-1)
        scheduler.enqueue(starved)
        assert starved.priority == OVER
        starved.credits = ms(10)
        scheduler.account([_FakeDomain([starved])], num_pcpus=1)
        assert starved.priority == UNDER

    def test_best_waiting_priority(self):
        scheduler, pcpus = _scheduler(num_pcpus=1)
        assert scheduler.best_waiting_priority(pcpus[0]) is None
        scheduler.enqueue(_FakeVcpu("o", credits=-1))
        assert scheduler.best_waiting_priority(pcpus[0]) == OVER
        scheduler.enqueue(_FakeVcpu("u", credits=1))
        assert scheduler.best_waiting_priority(pcpus[0]) == UNDER

    def test_slice_jitter_bounds(self):
        import random

        sim = Simulator()
        scheduler = CreditScheduler(sim, rng=random.Random(1), slice_jitter=0.1)
        vcpu = _FakeVcpu("v")
        for _ in range(50):
            slice_ns = scheduler.slice_for(vcpu)
            assert ms(27) <= slice_ns <= ms(33)

    def test_no_jitter_without_rng(self):
        scheduler, _ = _scheduler()
        assert scheduler.slice_for(_FakeVcpu("v")) == scheduler.slice


class TestMicroScheduler:
    def _micro(self, cores=2):
        sim = Simulator()
        scheduler = MicroScheduler(sim, slice_ns=100_000)
        pcpus = [_FakePCpu(i) for i in range(cores)]
        for pcpu in pcpus:
            scheduler.register_pcpu(pcpu)
        return scheduler, pcpus

    def test_assign_and_pick(self):
        scheduler, pcpus = self._micro()
        vcpu = _FakeVcpu("v")
        assert scheduler.assign(vcpu)
        picked = scheduler.pick(pcpus[0]) or scheduler.pick(pcpus[1])
        assert picked is vcpu

    def test_runqueue_length_limit_one(self):
        scheduler, pcpus = self._micro(cores=1)
        assert scheduler.assign(_FakeVcpu("a"))
        assert not scheduler.assign(_FakeVcpu("b"))

    def test_free_slots(self):
        scheduler, _ = self._micro(cores=2)
        assert scheduler.free_slots() == 2
        scheduler.assign(_FakeVcpu("a"))
        assert scheduler.free_slots() == 1

    def test_idle_pcpu_tickled_on_assign(self):
        scheduler, pcpus = self._micro(cores=1)
        scheduler.add_idle(pcpus[0])
        scheduler.assign(_FakeVcpu("v"))
        assert pcpus[0].tickled == 1

    def test_direct_enqueue_rejected(self):
        scheduler, _ = self._micro()
        with pytest.raises(SchedulerError):
            scheduler.enqueue(_FakeVcpu("v"))

    def test_remove_pending(self):
        scheduler, pcpus = self._micro(cores=1)
        vcpu = _FakeVcpu("v")
        scheduler.assign(vcpu)
        assert scheduler.remove(vcpu)
        assert scheduler.free_slots() == 1

    def test_unregister_returns_stranded(self):
        scheduler, pcpus = self._micro(cores=1)
        vcpu = _FakeVcpu("v")
        scheduler.assign(vcpu)
        assert scheduler.unregister_pcpu(pcpus[0]) is vcpu

"""Cross-backend scheduler invariants.

Every registered ``repro.sched`` backend must honour the contract
documented in :mod:`repro.sched.base`: single-runqueue residence,
bounded credit refill per accounting period, one-shot yield-flag
pass-over, and work conservation — except ``cosched``, which gang-idles
by design and is asserted to do exactly that.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sched
from repro.errors import SchedulerError
from repro.sched import registry
from repro.sched.base import _PRIORITIES, UNDER
from repro.sched.credit import CreditScheduler
from repro.sim.engine import Simulator


class _FakePCpu:
    def __init__(self, index):
        self.index = index
        self.info = type("Info", (), {"index": index})()
        self.current = None
        self.preempt_requested = False
        self.tickled = 0

    def tickle(self):
        self.tickled += 1

    def request_preempt(self):
        self.preempt_requested = True

    def __repr__(self):
        return "pcpu%d" % self.index


class _FakeVcpu:
    def __init__(self, name, domain, credits=1000):
        self.name = name
        self.domain = domain
        self.credits = credits
        self.priority = None
        self.affinity = None
        self.yield_flag = False
        self.last_pcpu = None
        self.runq_pcpu = None

    def __repr__(self):
        return self.name


class _FakeDomain:
    def __init__(self, name, weight=256):
        self.name = name
        self.weight = weight
        self.vcpus = []

    def grow(self, count):
        for i in range(count):
            self.vcpus.append(_FakeVcpu("%s_v%d" % (self.name, i), self))
        return self


class _Pool:
    name = "normal"

    def __init__(self, pcpus):
        self.pcpus = pcpus


BACKENDS = registry.available()


def _scheduler(name, num_pcpus=2, vcpus_per_domain=2, domains=2):
    scheduler = registry.get(name)(Simulator(), slice_jitter=0)
    pcpus = [_FakePCpu(i) for i in range(num_pcpus)]
    scheduler.pool = _Pool(pcpus)
    for pcpu in pcpus:
        scheduler.register_pcpu(pcpu)
    doms = [
        _FakeDomain("dom%d" % i).grow(vcpus_per_domain) for i in range(domains)
    ]
    return scheduler, pcpus, doms


@pytest.mark.parametrize("name", BACKENDS)
class TestSingleRunqueueResidence:
    def test_each_enqueued_vcpu_queued_exactly_once(self, name):
        scheduler, _, doms = _scheduler(name, num_pcpus=4, vcpus_per_domain=3)
        vcpus = [v for d in doms for v in d.vcpus]
        for vcpu in vcpus:
            scheduler.enqueue(vcpu)
        queued = scheduler.queued()
        assert len(queued) == len(vcpus)
        assert len({id(v) for v in queued}) == len(vcpus)

    def test_pick_removes_from_every_runqueue(self, name):
        scheduler, pcpus, doms = _scheduler(name, num_pcpus=2)
        for domain in doms:
            for vcpu in domain.vcpus:
                scheduler.enqueue(vcpu)
        picked = scheduler.pick(pcpus[0])
        assert picked is not None
        assert picked not in scheduler.queued()

    def test_remove_takes_vcpu_off_its_queue(self, name):
        scheduler, _, doms = _scheduler(name)
        vcpu = doms[0].vcpus[0]
        scheduler.enqueue(vcpu)
        assert scheduler.remove(vcpu)
        assert vcpu not in scheduler.queued()
        assert not scheduler.remove(vcpu)


@pytest.mark.parametrize("name", BACKENDS)
class TestCreditConservation:
    def test_refill_bounded_by_period_budget(self, name):
        scheduler, pcpus, doms = _scheduler(name, num_pcpus=3, vcpus_per_domain=4)
        for domain in doms:
            for vcpu in domain.vcpus:
                vcpu.credits = 0
        scheduler.account(doms, num_pcpus=len(pcpus))
        handed_out = sum(v.credits for d in doms for v in d.vcpus)
        assert 0 < handed_out <= scheduler.period * len(pcpus)

    def test_refill_never_exceeds_cap(self, name):
        scheduler, pcpus, doms = _scheduler(name)
        for _ in range(10):
            scheduler.account(doms, num_pcpus=len(pcpus))
        for domain in doms:
            for vcpu in domain.vcpus:
                assert vcpu.credits <= scheduler.credit_cap


@pytest.mark.parametrize("name", BACKENDS)
class TestYieldFlag:
    def test_cleared_after_one_pass_over(self, name):
        scheduler, pcpus, doms = _scheduler(name, num_pcpus=1, domains=1)
        yielder, peer = doms[0].vcpus[:2]
        # Pin the history so dual-runqueue backends (credit2) put both
        # vCPUs on the queue pcpu0 picks from.
        yielder.last_pcpu = peer.last_pcpu = pcpus[0]
        scheduler.requeue(yielder, yielded=True)
        scheduler.requeue(peer)
        assert scheduler.pick(pcpus[0]) is peer
        assert yielder.yield_flag is False
        assert scheduler.pick(pcpus[0]) is yielder

    def test_yielder_still_runs_when_alone(self, name):
        scheduler, pcpus, doms = _scheduler(name, num_pcpus=1, domains=1)
        yielder = doms[0].vcpus[0]
        yielder.last_pcpu = pcpus[0]
        scheduler.requeue(yielder, yielded=True)
        assert scheduler.pick(pcpus[0]) is yielder
        assert yielder.yield_flag is False


@pytest.mark.parametrize("name", [n for n in BACKENDS if n != "cosched"])
def test_work_conservation_steals_rather_than_idles(name):
    scheduler, pcpus, doms = _scheduler(name, num_pcpus=2, domains=1)
    vcpu = doms[0].vcpus[0]
    vcpu.last_pcpu = pcpus[0]
    scheduler.enqueue(vcpu)
    # pcpu1's own queue is empty; with eligible work waiting elsewhere it
    # must steal instead of idling.
    assert scheduler.pick(pcpus[1]) is vcpu


def test_cosched_gang_idles_instead_of_work_conserving():
    scheduler, pcpus, doms = _scheduler("cosched", num_pcpus=2)
    first, second = doms
    scheduler.enqueue(first.vcpus[0])
    scheduler.enqueue(second.vcpus[0])
    picked = scheduler.pick(pcpus[0])
    assert picked is first.vcpus[0]
    pcpus[0].current = picked
    # The gang (dom0) has no runnable vCPU left, dom1 has queued work:
    # the pCPU is deliberately left idle and the refusal is counted.
    assert scheduler.pick(pcpus[1]) is None
    assert scheduler.gang_idles == 1


def test_module_reexports_cover_backends():
    for cls_name in (
        "Scheduler",
        "CreditScheduler",
        "MicroScheduler",
        "Credit2Scheduler",
        "CoScheduler",
        "BalanceScheduler",
        "ShortSliceScheduler",
    ):
        assert hasattr(sched, cls_name)


# ----------------------------------------------------------------------
# runqueue bookkeeping under random operation sequences
# ----------------------------------------------------------------------
_OPS = ("enqueue", "wake", "requeue", "pick", "steal", "remove", "account",
        "unregister")

_op_sequences = st.lists(
    st.tuples(
        st.sampled_from(_OPS),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
        st.booleans(),
    ),
    max_size=40,
)


def _assert_runqueues(scheduler, expected):
    queued = scheduler.queued()
    assert len({id(v) for v in queued}) == len(queued)
    assert set(queued) == expected
    assert scheduler.queue_depth() == len(queued)
    if isinstance(scheduler, CreditScheduler):
        assert list(scheduler._depths) == list(scheduler._runqs)
        for pcpu, queues in scheduler._runqs.items():
            assert scheduler._depth(pcpu) == sum(len(q) for q in queues.values())
            for priority, queue in queues.items():
                for vcpu in queue:
                    assert vcpu.runq_pcpu is pcpu
                    assert vcpu.priority == priority
    else:
        # Global / per-domain queues: no owning pCPU to name.
        assert all(vcpu.runq_pcpu is None for vcpu in queued)


@pytest.mark.parametrize("name", BACKENDS)
@given(ops=_op_sequences, credits=st.lists(st.integers(-500, 2000), min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_runqueue_bookkeeping_under_random_operations(name, ops, credits):
    """Every queued vCPU sits on one queue, names it, and the per-pCPU
    counts match the lists, after every step of a random sequence."""
    scheduler, pcpus, doms = _scheduler(name, num_pcpus=3, vcpus_per_domain=3)
    vcpus = [v for d in doms for v in d.vcpus]
    for vcpu, credit in zip(vcpus, credits):
        vcpu.credits = credit
    # Pinned to a set that keeps pcpu0, which is never unregistered.
    vcpus[0].affinity = frozenset({0})
    vcpus[1].affinity = frozenset({0, 2})
    live = list(pcpus)
    queued = set()
    for op, a, b, flag in ops:
        idle = [v for v in vcpus if v not in queued]
        if op in ("enqueue", "wake", "requeue") and idle:
            vcpu = idle[a % len(idle)]
            if op == "enqueue":
                scheduler.enqueue(vcpu, boost=flag)
            elif op == "wake":
                scheduler.wake(vcpu)
            else:
                scheduler.requeue(vcpu, yielded=flag)
            queued.add(vcpu)
        elif op in ("pick", "steal"):
            pcpu = live[a % len(live)]
            vcpu = getattr(scheduler, op)(pcpu)
            if vcpu is None:
                if op == "pick":
                    scheduler.add_idle(pcpu)
            else:
                assert vcpu in queued
                queued.discard(vcpu)
                scheduler.remove_idle(pcpu)
                vcpu.last_pcpu = pcpu
                scheduler.charge(vcpu, b * 50)
        elif op == "remove":
            vcpu = vcpus[a % len(vcpus)]
            assert scheduler.remove(vcpu) == (vcpu in queued)
            queued.discard(vcpu)
        elif op == "account":
            scheduler.account(doms, num_pcpus=len(live))
        elif op == "unregister" and len(live) > 1:
            pcpu = live[1 + a % (len(live) - 1)]
            live.remove(pcpu)
            scheduler.pool.pcpus.remove(pcpu)
            assert scheduler.unregister_pcpu(pcpu) is None
        _assert_runqueues(scheduler, queued)


# ----------------------------------------------------------------------
# placement: the counted-depth choice equals the original list scan
# ----------------------------------------------------------------------
def _scan_depth(scheduler, pcpu):
    queues = scheduler._runqs[pcpu]
    return sum(len(queues[p]) for p in _PRIORITIES)


def _credit_scan(scheduler, vcpu):
    """credit1 placement as a full scan of the runqueue lists: last-ran
    pCPU when eligible, else the first shallowest eligible queue."""
    last = vcpu.last_pcpu
    if last is not None and last in scheduler._runqs and scheduler._eligible(vcpu, last):
        return last
    target = best_depth = None
    for pcpu in scheduler._runqs:
        if not scheduler._eligible(vcpu, pcpu):
            continue
        depth = _scan_depth(scheduler, pcpu)
        if best_depth is None or depth < best_depth:
            target, best_depth = pcpu, depth
    return target


def _balance_scan(scheduler, vcpu):
    """Balance placement as a full scan: sibling-free last-ran pCPU,
    else the first shallowest eligible sibling-free queue, else
    credit1's choice."""
    last = vcpu.last_pcpu
    if (
        last is not None
        and last in scheduler._runqs
        and scheduler._eligible(vcpu, last)
        and not scheduler._sibling_queued(vcpu, last)
    ):
        return last
    target = best_depth = None
    for pcpu in scheduler._runqs:
        if not scheduler._eligible(vcpu, pcpu) or scheduler._has_sibling(vcpu, pcpu):
            continue
        depth = _scan_depth(scheduler, pcpu)
        if best_depth is None or depth < best_depth:
            target, best_depth = pcpu, depth
    if target is not None:
        return target
    return _credit_scan(scheduler, vcpu)


_CREDIT_FAMILY = [
    n for n in BACKENDS if issubclass(registry.get(n), CreditScheduler)
]


@pytest.mark.parametrize("name", _CREDIT_FAMILY)
@given(
    homes=st.lists(st.integers(0, 4), max_size=12),
    last=st.one_of(st.none(), st.integers(0, 5)),
    affinity=st.one_of(st.none(), st.frozensets(st.integers(0, 5), max_size=4)),
    unregistered=st.one_of(st.none(), st.integers(0, 4)),
)
@settings(max_examples=80, deadline=None)
def test_place_matches_list_scan(name, homes, last, affinity, unregistered):
    """Random queue depths (ties included), pinned and free vCPUs, and
    a last-ran pCPU that may be gone or ineligible: ``_place`` picks
    exactly the pCPU the full list scan picks."""
    scheduler, pcpus, doms = _scheduler(
        name, num_pcpus=5, vcpus_per_domain=7, domains=2
    )
    vcpus = [v for d in doms for v in d.vcpus]
    for vcpu, home in zip(vcpus, homes):
        vcpu.last_pcpu = pcpus[home]
        scheduler.enqueue(vcpu)
    if unregistered is not None:
        scheduler.unregister_pcpu(pcpus[unregistered])
    probe = vcpus[-1]
    if last == 5:
        probe.last_pcpu = _FakePCpu(5)  # ran outside this pool (a micro core)
    elif last is not None:
        probe.last_pcpu = pcpus[last]
    probe.affinity = affinity
    oracle = _balance_scan if name == "balance" else _credit_scan
    expected = oracle(scheduler, probe)
    if expected is None:
        with pytest.raises(SchedulerError):
            scheduler._place(probe, UNDER)
    else:
        assert scheduler._place(probe, UNDER) is expected
        assert scheduler._runqs[expected][UNDER][-1] is probe


# ----------------------------------------------------------------------
# hot-path differentials: bounce, take_eligible, empty runqueues
# ----------------------------------------------------------------------
def _portable(value):
    """``value`` with every fake vCPU/pCPU/domain replaced by its name
    and every dict by its item list (order is state too), so the state
    of a scheduler and of its clone compare with ``==``."""
    if isinstance(value, (_FakeVcpu, _FakePCpu, _FakeDomain)):
        return repr(value) if isinstance(value, _FakePCpu) else value.name
    if isinstance(value, dict):
        return [(_portable(k), _portable(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_portable(item) for item in value]
    return value


_NOT_STATE = ("sim", "pool", "stats", "tracer", "_rng")


def _state(scheduler, pcpus, vcpus):
    """Everything a scheduler call may touch: the backend's own fields
    (runqueue order, ``_depths``, idle list, steal count, ...), each
    vCPU's queue-facing fields and each pCPU's tickles and preempts."""
    fields = {
        name: _portable(value)
        for name, value in vars(scheduler).items()
        if name not in _NOT_STATE
    }
    per_vcpu = [
        (v.name, _portable(v.runq_pcpu), v.priority, v.yield_flag, v.credits)
        for v in vcpus
    ]
    per_pcpu = [(p.index, p.tickled, p.preempt_requested) for p in pcpus]
    return fields, per_vcpu, per_pcpu


def _clone(scheduler, pcpus, vcpus):
    """A deep copy of one scheduler world (the simulator is shared)."""
    return copy.deepcopy((scheduler, pcpus, vcpus), {id(scheduler.sim): scheduler.sim})


def _drive(scheduler, pcpus, vcpus, ops):
    """Apply a random operation sequence; returns the queued set."""
    queued = set()
    for op, a, b, flag in ops:
        idle = [v for v in vcpus if v not in queued]
        if op in ("enqueue", "wake", "requeue") and idle:
            vcpu = idle[a % len(idle)]
            if op == "enqueue":
                scheduler.enqueue(vcpu, boost=flag)
            elif op == "wake":
                scheduler.wake(vcpu)
            else:
                scheduler.requeue(vcpu, yielded=flag)
            queued.add(vcpu)
        elif op in ("pick", "steal"):
            pcpu = pcpus[a % len(pcpus)]
            vcpu = getattr(scheduler, op)(pcpu)
            if vcpu is None:
                if op == "pick":
                    scheduler.add_idle(pcpu)
            else:
                queued.discard(vcpu)
                scheduler.remove_idle(pcpu)
                vcpu.last_pcpu = pcpu
                scheduler.charge(vcpu, b * 50)
        elif op == "remove":
            vcpu = vcpus[a % len(vcpus)]
            scheduler.remove(vcpu)
            queued.discard(vcpu)
        elif op == "account":
            scheduler.account(list({v.domain: None for v in vcpus}), len(pcpus))
    return queued


@pytest.mark.parametrize("name", BACKENDS)
@given(
    ops=_op_sequences,
    credits=st.lists(st.integers(-500, 2000), min_size=6, max_size=6),
    victim=st.integers(0, 5),
    idle=st.lists(st.integers(0, 2), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_bounce_equals_remove_then_requeue(name, ops, credits, victim, idle):
    """``bounce(v)`` leaves exactly the state ``remove(v); requeue(v)``
    leaves on a clone: queue order, depths, ``runq_pcpu``, priority,
    yield flag, idle list and tickles — queued or not, pinned or not."""
    scheduler, pcpus, doms = _scheduler(name, num_pcpus=3, vcpus_per_domain=3)
    vcpus = [v for d in doms for v in d.vcpus]
    for vcpu, credit in zip(vcpus, credits):
        vcpu.credits = credit
    vcpus[0].affinity = frozenset({0})
    vcpus[1].affinity = frozenset({1, 2})
    _drive(scheduler, pcpus, vcpus, ops)
    for index in idle:
        scheduler.add_idle(pcpus[index])
    twin, twin_pcpus, twin_vcpus = _clone(scheduler, pcpus, vcpus)
    assert _state(twin, twin_pcpus, twin_vcpus) == _state(scheduler, pcpus, vcpus)

    found = twin.remove(twin_vcpus[victim])
    if found:
        twin.requeue(twin_vcpus[victim])
    assert scheduler.bounce(vcpus[victim]) is found
    assert _state(scheduler, pcpus, vcpus) == _state(twin, twin_pcpus, twin_vcpus)


def _take_eligible_by_predicate(queue, eligible):
    """The former ``take_eligible(queue, eligible)``: the same scan with
    a predicate object per call."""
    flagged = None
    skipped = []
    for position, vcpu in enumerate(queue):
        if not eligible(vcpu):
            continue
        if vcpu.yield_flag:
            skipped.append(vcpu)
            if flagged is None:
                flagged = vcpu
            continue
        del queue[position]
        vcpu.runq_pcpu = None
        for passed in skipped:
            passed.yield_flag = False
        return vcpu
    if flagged is not None:
        queue.remove(flagged)
        flagged.runq_pcpu = None
        flagged.yield_flag = False
        return flagged
    return None


@pytest.mark.parametrize("name", BACKENDS + ["micro"])
@given(
    members=st.lists(
        st.tuples(
            st.one_of(st.none(), st.frozensets(st.integers(0, 3), max_size=3)),
            st.booleans(),
        ),
        max_size=8,
    ),
    runner=st.integers(0, 3),
)
@settings(max_examples=80, deadline=None)
def test_take_eligible_matches_predicate_scan(name, members, runner):
    """Random affinities and yield flags: ``take_eligible(queue, pcpu)``
    takes what the lambda-predicate scan took and leaves the queue and
    the flags as it left them."""
    if name == "micro":
        scheduler = sched.MicroScheduler(Simulator(), slice_ns=100_000)
    else:
        scheduler = registry.get(name)(Simulator(), slice_jitter=0)
    vcpus = _FakeDomain("dom").grow(len(members)).vcpus
    owner = _FakePCpu(9)
    for vcpu, (affinity, flag) in zip(vcpus, members):
        vcpu.affinity = affinity
        vcpu.yield_flag = flag
        vcpu.runq_pcpu = owner
    twins = copy.deepcopy(vcpus)
    pcpu = _FakePCpu(runner)
    queue, twin_queue = list(vcpus), list(twins)

    taken = scheduler.take_eligible(queue, pcpu)
    expected = _take_eligible_by_predicate(
        twin_queue, lambda v: scheduler._eligible(v, pcpu)
    )
    assert _portable(taken) == _portable(expected)
    assert _portable(queue) == _portable(twin_queue)
    assert [(v.yield_flag, _portable(v.runq_pcpu)) for v in vcpus] == [
        (v.yield_flag, _portable(v.runq_pcpu)) for v in twins
    ]


@pytest.mark.parametrize("name", BACKENDS + ["micro"])
@given(churn=st.lists(st.integers(0, 5), max_size=8), idle=st.booleans())
@settings(max_examples=30, deadline=None)
def test_pick_and_steal_over_empty_runqueues_change_nothing(name, churn, idle):
    """With every runqueue empty (fresh, or emptied by enqueue/remove
    churn), ``pick`` and ``steal`` on every pCPU return None and leave
    the scheduler, its vCPUs and its pCPUs exactly as they were."""
    if name == "micro":
        scheduler = sched.MicroScheduler(Simulator(), slice_ns=100_000)
        pcpus = [_FakePCpu(i) for i in range(3)]
        scheduler.pool = _Pool(pcpus)
        for pcpu in pcpus:
            scheduler.register_pcpu(pcpu)
        vcpus = _FakeDomain("dom0").grow(6).vcpus
        for index in churn:
            assert scheduler.assign(vcpus[index])
            assert scheduler.remove(vcpus[index])
    else:
        scheduler, pcpus, doms = _scheduler(name, num_pcpus=3, vcpus_per_domain=3)
        vcpus = [v for d in doms for v in d.vcpus]
        vcpus[0].affinity = frozenset({0})
        for index in churn:
            scheduler.enqueue(vcpus[index])
            assert scheduler.remove(vcpus[index])
    if idle:
        scheduler.add_idle(pcpus[1])
    assert scheduler.queued() == []
    before = _state(scheduler, pcpus, vcpus)
    for pcpu in pcpus:
        assert scheduler.pick(pcpu) is None
        assert scheduler.steal(pcpu) is None
    assert _state(scheduler, pcpus, vcpus) == before

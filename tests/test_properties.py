"""Property-based tests (hypothesis) for core data structures and
invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guest.spinlock import PAGE_ALLOC, PARKED, SPINNING, WAITING, SpinLock
from repro.guest.symbols import SymbolTable, build_table
from repro.guest.waitqueue import WaitQueue
from repro.metrics.counters import CounterSet
from repro.metrics.latency import LatencyStat
from repro.sim.engine import Simulator
from repro.sim.rng import RngHub


class TestEngineProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_callbacks_observe_monotonic_time(self, delays):
        sim = Simulator()
        seen = []
        for delay in delays:
            sim.schedule(delay, lambda _a: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)

    @given(
        st.lists(st.integers(min_value=1, max_value=1_000), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=20_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_run_until_never_overshoots(self, delays, limit):
        sim = Simulator()
        fired = []
        total = 0
        for delay in delays:
            total += delay
            sim.schedule(total, lambda _a: fired.append(sim.now))
        sim.run(until=limit)
        assert all(t <= limit for t in fired)
        assert sim.now == max(limit, 0) or sim.now <= limit

    @given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_process_timeout_sum(self, waits):
        sim = Simulator()

        def proc():
            for wait in waits:
                yield sim.timeout(wait)

        p = sim.process(proc())
        sim.run()
        assert p.state == "finished"
        assert sim.now == sum(waits)


class TestLatencyStatProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_min_mean_max_ordering(self, values):
        stat = LatencyStat()
        for value in values:
            stat.record(value)
        assert stat.min <= stat.mean <= stat.max
        assert stat.count == len(values)
        assert stat.min == min(values)
        assert stat.max == max(values)


class TestSymbolTableProperties:
    @given(
        st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=16),
            min_size=1,
            max_size=40,
            unique=True,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_and_total_lookup(self, names):
        table = build_table(names)
        parsed = SymbolTable.from_system_map(table.to_system_map())
        for name in names:
            addr = table.addr_of(name)
            assert parsed.resolve_name(addr) == name
            assert table.resolve_name(addr + 0x3FF) == name
            assert table.resolve_name(addr - 1) in (None, *names)


class TestWaitQueueProperties:
    @given(st.lists(st.sampled_from(["wake", "sleep"]), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_wakeups_never_lost_or_invented(self, ops):
        queue = WaitQueue()
        wakes = delivered = sleeps = 0
        sleeping = 0
        for op in ops:
            if op == "wake":
                wakes += 1
                task = queue.pop_sleeper()
                if task is not None:
                    delivered += 1
                    sleeping -= 1
            else:
                sleeps += 1
                if not queue.try_consume():
                    queue.add_sleeper(object())
                    sleeping += 1
                else:
                    delivered += 1
        # Every wake either woke a sleeper, was consumed, or is banked.
        assert delivered + queue.banked == wakes
        assert queue.waiting == sleeping


class TestCounterProperties:
    @given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(1, 100)), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_window_delta_equals_increment_sum(self, increments):
        counters = CounterSet()
        counters.inc("a", 5)
        counters.mark_window()
        expected = {}
        for name, amount in increments:
            counters.inc(name, amount)
            expected[name] = expected.get(name, 0) + amount
        for name in "abc":
            assert counters.window_delta(name) == expected.get(name, 0)


class TestSpinlockProperties:
    class _Vcpu:
        def __init__(self, ident):
            self.ident = ident

        def notify(self, cause):
            pass

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_single_holder_invariant(self, script):
        """Random acquire/release/park/spin transitions never produce two
        simultaneous owners and never lose the lock."""

        class _Kernel:
            def pv_kick(self, vcpu):
                pass

        lock = SpinLock("l", PAGE_ALLOC, kernel=_Kernel())
        vcpus = [self._Vcpu(i) for i in range(4)]
        owner = None
        for step, choice in enumerate(script):
            vcpu = vcpus[choice]
            if owner is None and lock.try_acquire(vcpu):
                owner = vcpu
                continue
            if vcpu is owner:
                grantee = lock.release(vcpu)
                owner = None
                if grantee is not None:
                    lock.finish_grant(grantee)
                    owner = grantee
                continue
            waiter = lock.add_waiter(vcpu)
            waiter.state = (SPINNING, PARKED, WAITING)[step % 3]
        if owner is not None:
            assert lock.owned_by(owner)
        assert lock.waiter_count() <= len(vcpus)


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_streams_deterministic(self, seed, name):
        a = RngHub(seed).stream(name).random()
        b = RngHub(seed).stream(name).random()
        assert a == b

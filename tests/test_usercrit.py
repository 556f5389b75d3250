"""Tests for the §4.4 user-level critical-section extension."""

import pytest

from repro.core.usercrit import (
    USER_CRITICAL,
    UserAwareDetector,
    UserCriticalRegistry,
    enable_user_critical,
)
from repro.errors import SymbolTableError
from repro.guest.actions import Acquire, Compute
from repro.guest.spinlock import LockClass
from repro.runner import static_policy
from repro.runner.jobs import install_policy
from repro.sim.time import ms, us

from helpers import make_domain, make_hv, spawn_task, spin_program


class TestRegistry:
    def test_register_and_resolve(self):
        registry = UserCriticalRegistry()
        start = registry.register("r1")
        assert registry.resolve(start) == "r1"
        assert registry.resolve(start + 0x10) == "r1"

    def test_register_idempotent(self):
        registry = UserCriticalRegistry()
        assert registry.register("r") == registry.register("r")
        assert len(registry) == 1

    def test_distinct_regions_distinct_ranges(self):
        registry = UserCriticalRegistry()
        a = registry.register("a")
        b = registry.register("b")
        assert a != b
        assert registry.resolve(b) == "b"

    def test_resolve_outside_window(self):
        registry = UserCriticalRegistry()
        registry.register("a")
        assert registry.resolve(0x400000) is None
        assert registry.resolve(None) is None

    def test_addr_of_unregistered(self):
        with pytest.raises(SymbolTableError):
            UserCriticalRegistry().addr_of("ghost")

    def test_enable_attaches_once(self):
        _sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=1)
        first = enable_user_critical(domain)
        second = enable_user_critical(domain)
        assert first is second
        assert domain.kernel.user_critical is first


class TestUserAwareDetector:
    def _domain(self):
        _sim, hv = make_hv(num_pcpus=2)
        domain = make_domain(hv, vcpus=2)
        registry = enable_user_critical(domain)
        registry.register("cs")
        return domain

    def test_detects_registered_user_region(self):
        domain = self._domain()
        vcpu = domain.vcpus[0]
        vcpu.current_symbol = "user:cs"
        detection = UserAwareDetector().inspect(vcpu)
        assert detection.critical
        assert detection.critical_class == USER_CRITICAL
        assert detection.symbol == "user:cs"

    def test_plain_user_ip_still_not_critical(self):
        domain = self._domain()
        vcpu = domain.vcpus[0]
        vcpu.current_symbol = None
        assert not UserAwareDetector().inspect(vcpu).critical

    def test_kernel_symbols_still_detected(self):
        domain = self._domain()
        vcpu = domain.vcpus[0]
        vcpu.current_symbol = "get_page_from_freelist"
        assert UserAwareDetector().inspect(vcpu).critical

    def test_base_detector_blind_to_user_regions(self):
        from repro.core.detection import CriticalServiceDetector

        domain = self._domain()
        vcpu = domain.vcpus[0]
        vcpu.current_symbol = "user:cs"
        assert not CriticalServiceDetector().inspect(vcpu).critical

    def test_domain_without_registry_unaffected(self):
        _sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=1)
        vcpu = domain.vcpus[0]
        vcpu.current_symbol = None
        assert not UserAwareDetector().inspect(vcpu).critical


class TestFutexMutex:
    def test_contended_user_mutex_sleeps_task_not_vcpu(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=1)
        registry = enable_user_critical(domain)
        registry.register("cs")
        lock_class = LockClass("um", "user:cs", "user:cs", user_level=True,
                               spin_symbol=None)
        lock = domain.kernel.lock(lock_class)
        bg_progress = {"n": 0}

        def holder():
            yield Acquire(lock)
            yield Compute(ms(5), symbol="user:cs")  # long CS
            # never releases within the test window

        def contender():
            yield Compute(us(5))
            yield Acquire(lock)

        def background():
            while True:
                yield Compute(us(50))
                bg_progress["n"] += 1

        spawn_task(domain.vcpus[0], lambda: holder(), "holder")
        spawn_task(domain.vcpus[0], lambda: contender(), "contender")
        spawn_task(domain.vcpus[0], lambda: background(), "bg")
        hv.start()
        # The guest round-robin slice is 6 ms; run long enough for the
        # holder's 5 ms critical section plus the contender's futex
        # sleep plus background turns.
        sim.run(until=ms(25))
        # The contender futex-slept; the vCPU kept running (bg made
        # progress) instead of parking the whole vCPU.
        assert bg_progress["n"] > 10

    def test_futex_wake_crosses_vcpus(self):
        sim, hv = make_hv(num_pcpus=2)
        domain = make_domain(hv, vcpus=2)
        registry = enable_user_critical(domain)
        registry.register("cs")
        lock_class = LockClass("um", "user:cs", "user:cs", user_level=True,
                               spin_symbol=None)
        lock = domain.kernel.lock(lock_class)
        done = {"a": 0, "b": 0}

        def looper(tag):
            def gen():
                while True:
                    yield Acquire(lock)
                    yield Compute(us(5), symbol="user:cs")
                    from repro.guest.actions import Release

                    yield Release(lock)
                    yield Compute(us(30))
                    done[tag] += 1

            return gen

        spawn_task(domain.vcpus[0], looper("a"), "a")
        spawn_task(domain.vcpus[1], looper("b"), "b")
        hv.start()
        sim.run(until=ms(20))
        assert done["a"] > 50 and done["b"] > 50


class TestDirectedAcceleration:
    """A holder engineered to be preempted mid-user-CS: only the
    user-aware policy rescues it."""

    def _run(self, user_critical):
        lock_class = LockClass("um", "user:cs", "user:cs", user_level=True,
                               spin_symbol=None)
        held = {"sections": 0}
        lock = None

        def holder():
            while True:
                yield Acquire(lock)
                yield Compute(us(200), symbol="user:cs")
                from repro.guest.actions import Release

                yield Release(lock)
                held["sections"] += 1
                yield Compute(us(100))

        def contender():
            while True:
                yield Compute(us(50))
                yield Acquire(lock)
                from repro.guest.actions import Release

                yield Release(lock)

        # 2 pCPUs total: one normal (heavily contended), one micro.
        sim, hv = make_hv(num_pcpus=2)
        vm1 = make_domain(hv, name="vm1", vcpus=2)
        registry = enable_user_critical(vm1)
        registry.register("cs")
        lock = vm1.kernel.lock(lock_class)
        vm2 = make_domain(hv, name="vm2", vcpus=1)
        spawn_task(vm1.vcpus[0], lambda: holder(), "holder")
        spawn_task(vm1.vcpus[1], lambda: contender(), "contender")
        spawn_task(vm2.vcpus[0], spin_program(), "hog")
        install_policy(hv, static_policy(1, user_critical=user_critical))
        engine = hv.policy
        hv.start()
        sim.run(until=ms(400))
        return held["sections"], engine.detector.hits, hv.stats.counters.get("migrations", 0)

    def test_user_aware_policy_detects_and_helps(self):
        blind_sections, blind_hits, _ = self._run(user_critical=False)
        aware_sections, aware_hits, aware_migr = self._run(user_critical=True)
        assert blind_hits == 0
        assert aware_hits > 0
        assert aware_migr > 0
        assert aware_sections >= blind_sections

"""Tests for the Table-3 whitelist and the IP-based detector."""

from types import SimpleNamespace

from repro.core.detection import CriticalServiceDetector
from repro.core.microslice import MicroSliceEngine
from repro.core.usercrit import USER_CRITICAL, UserAwareDetector, enable_user_critical
from repro.core.whitelist import (
    CRITICAL_SYMBOLS,
    SIBLING_CLASSES,
    CriticalClass,
    classify,
    is_critical,
)
from repro.guest.symbols import DEFAULT_KERNEL_SYMBOLS, KERNEL_TEXT_BASE, build_table

from helpers import make_domain, make_hv, spawn_task, spin_program


class TestWhitelist:
    def test_table3_core_entries_present(self):
        # One representative per Table 3 module.
        assert classify("irq_enter") == CriticalClass.IRQ
        assert classify("smp_call_function_many") == CriticalClass.IPI
        assert classify("native_flush_tlb_others") == CriticalClass.TLB
        assert classify("get_page_from_freelist") == CriticalClass.MM
        assert classify("ttwu_do_activate") == CriticalClass.SCHED
        assert classify("__raw_spin_unlock") == CriticalClass.SPINLOCK
        assert classify("rwsem_wake") == CriticalClass.RWSEM

    def test_non_critical_symbols(self):
        assert classify("do_syscall_64") is None
        assert classify("native_queued_spin_lock_slowpath") is None
        assert classify(None) is None

    def test_is_critical(self):
        assert is_critical("flush_tlb_func")
        assert not is_critical("vfs_read")

    def test_sibling_classes_are_ipi_protocols(self):
        assert CriticalClass.TLB in SIBLING_CLASSES
        assert CriticalClass.IPI in SIBLING_CLASSES
        assert CriticalClass.SPINLOCK not in SIBLING_CLASSES

    def test_every_whitelist_symbol_in_guest_image(self):
        for name in CRITICAL_SYMBOLS:
            assert name in DEFAULT_KERNEL_SYMBOLS


class TestDetector:
    def _setup(self):
        sim, hv = make_hv(num_pcpus=2)
        domain = make_domain(hv, vcpus=3)
        return sim, hv, domain

    def test_inspect_user_ip_not_critical(self):
        _sim, _hv, domain = self._setup()
        vcpu = domain.vcpus[0]
        vcpu.current_symbol = None
        detection = CriticalServiceDetector().inspect(vcpu)
        assert not detection.critical
        assert detection.symbol is None

    def test_inspect_critical_symbol(self):
        _sim, _hv, domain = self._setup()
        vcpu = domain.vcpus[0]
        vcpu.current_symbol = "get_page_from_freelist"
        detection = CriticalServiceDetector().inspect(vcpu)
        assert detection.critical
        assert detection.critical_class == CriticalClass.MM

    def test_inspect_noncritical_kernel_symbol(self):
        _sim, _hv, domain = self._setup()
        vcpu = domain.vcpus[0]
        vcpu.current_symbol = "native_queued_spin_lock_slowpath"
        detection = CriticalServiceDetector().inspect(vcpu)
        assert detection.symbol == "native_queued_spin_lock_slowpath"
        assert not detection.critical

    def test_detection_goes_through_address_resolution(self):
        # The detector must resolve the numeric IP via the symbol table,
        # not read the symbol name directly.
        _sim, _hv, domain = self._setup()
        vcpu = domain.vcpus[0]
        vcpu.current_symbol = "flush_tlb_func"
        addr = vcpu.ip
        assert addr >= domain.kernel.symbols.addr_of("flush_tlb_func")
        assert domain.kernel.symbols.resolve_name(addr) == "flush_tlb_func"

    def test_hit_statistics(self):
        _sim, _hv, domain = self._setup()
        vcpu = domain.vcpus[0]
        detector = CriticalServiceDetector()
        vcpu.current_symbol = "irq_exit"
        detector.inspect(vcpu)
        vcpu.current_symbol = None
        detector.inspect(vcpu)
        assert detector.inspections == 2
        assert detector.hits == 1


class _StubKernel:
    def __init__(self, names, fault):
        self.symbols = build_table(names)
        self.symbol_fault = fault

    @staticmethod
    def addr_for(register):
        """The detector reads the IP through the kernel; a stub vCPU's
        ``current_symbol`` already holds the raw register value."""
        return register


def _stub_vcpu(names, ip, fault=None):
    """A vCPU seen only through its register (the IP) plus a domain
    whose kernel carries a symbol table laid out from ``names``."""
    kernel = _StubKernel(names, fault)
    return SimpleNamespace(
        name="stub", current_symbol=ip, domain=SimpleNamespace(kernel=kernel)
    )


class TestResolveMemo:
    def test_memo_is_per_kernel(self):
        # Same IP, different tables: release_pages (critical) in one
        # guest, vfs_read (not critical) in the other.
        ip = KERNEL_TEXT_BASE + 4
        first = _stub_vcpu(("release_pages", "vfs_read"), ip)
        second = _stub_vcpu(("vfs_read", "release_pages"), ip)
        detector = CriticalServiceDetector()
        for _ in range(2):
            assert detector.resolve(first) == ("release_pages", CriticalClass.MM)
            assert detector.resolve(second) == ("vfs_read", None)

    def test_degraded_mode_transitions_through_memo(self):
        names = ("free_one_page", "release_pages", "vfs_read")
        vcpu = _stub_vcpu(names, build_table(names).addr_of("release_pages") + 4)
        kernel = vcpu.domain.kernel
        detector = CriticalServiceDetector()

        def counts():
            return (
                detector.inspections,
                detector.hits,
                detector.symbol_misses,
                detector.fallback_hits,
            )

        assert detector.resolve(vcpu) == ("release_pages", CriticalClass.MM)
        assert counts() == (1, 1, 0, 0)
        assert detector.resolve(vcpu) == ("release_pages", CriticalClass.MM)
        assert counts() == (2, 2, 0, 0)
        kernel.symbol_fault = "miss"  # rescued by the range learned above
        assert detector.resolve(vcpu) == ("release_pages", CriticalClass.MM)
        assert counts() == (3, 3, 1, 1)
        kernel.symbol_fault = "corrupt"  # neighbour: vfs_read, not critical
        assert detector.resolve(vcpu) == ("vfs_read", None)
        assert counts() == (4, 3, 2, 1)
        kernel.symbol_fault = None
        assert detector.resolve(vcpu) == ("release_pages", CriticalClass.MM)
        assert counts() == (5, 4, 2, 1)

    def test_fault_answers_never_enter_memo(self):
        names = ("free_one_page", "release_pages", "vfs_read")
        vcpu = _stub_vcpu(names, KERNEL_TEXT_BASE + 4, fault="corrupt")
        detector = CriticalServiceDetector()
        assert detector.resolve(vcpu) == ("release_pages", CriticalClass.MM)
        vcpu.domain.kernel.symbol_fault = None
        assert detector.resolve(vcpu) == ("free_one_page", CriticalClass.MM)
        vcpu.domain.kernel.symbol_fault = "corrupt"
        assert detector.resolve(vcpu) == ("release_pages", CriticalClass.MM)

    def test_resolve_matches_unmemoized_classification(self):
        _sim, hv = make_hv(num_pcpus=2)
        domain = make_domain(hv, vcpus=1)
        enable_user_critical(domain).register("queue")
        vcpu = domain.vcpus[0]
        symbols = domain.kernel.symbols
        detectors = (CriticalServiceDetector(), UserAwareDetector())
        for name in DEFAULT_KERNEL_SYMBOLS + (None,):
            vcpu.current_symbol = name
            resolved = symbols.resolve_name(vcpu.ip)
            expected = (resolved, classify(resolved))
            for detector in detectors:
                # First call fills the memo, second is served from it.
                assert detector.resolve(vcpu) == expected, name
                assert detector.resolve(vcpu) == expected, name
        vcpu.current_symbol = "user:queue"
        resolved = symbols.resolve_name(vcpu.ip)
        assert detectors[0].resolve(vcpu) == (resolved, classify(resolved))
        for _ in range(2):
            assert detectors[1].resolve(vcpu) == ("user:queue", USER_CRITICAL)


class _RecordingHv:
    """Just enough hypervisor for ``on_yield``: a non-empty micro pool
    and an ``accelerate`` that records who reached it."""

    def __init__(self):
        self.micro_pool = SimpleNamespace(pcpus=[None])
        self.accelerated = []

    def accelerate(self, vcpu, wake=False):
        self.accelerated.append(vcpu)
        return False


class TestYieldSiblingScan:
    """Which vCPUs a yield sends to ``hv.accelerate`` (Figure 1, steps
    2-3): the yielder if critical, then its preempted critical siblings."""

    def _engine(self):
        engine = MicroSliceEngine()
        engine.start(_RecordingHv())
        return engine

    def test_filters_running_and_blocked_siblings(self):
        _sim, hv = make_hv(num_pcpus=2)
        domain = make_domain(hv, vcpus=4)
        yielder, target, running, blocked = domain.vcpus
        for vcpu in domain.vcpus:
            vcpu.current_symbol = "release_pages"
        yielder.current_symbol = "native_queued_spin_lock_slowpath"
        yielder.state = "running"
        target.state = "runnable"
        running.state = "running"
        blocked.state = "blocked"
        engine = self._engine()
        engine.on_yield(yielder, "spinlock", None)
        assert engine.hv.accelerated == [target]
        # Running and blocked siblings are skipped before inspection.
        assert engine.detector.inspections == 2

    def test_critical_yielder_accelerated_before_siblings(self):
        _sim, hv = make_hv(num_pcpus=2)
        domain = make_domain(hv, vcpus=3)
        a, b, c = domain.vcpus
        a.state = b.state = c.state = "runnable"
        a.current_symbol = b.current_symbol = c.current_symbol = "flush_tlb_func"
        engine = self._engine()
        engine.on_yield(b, "ipi", None)
        assert engine.hv.accelerated == [b, a, c]

    def test_skips_non_critical_siblings(self):
        _sim, hv = make_hv(num_pcpus=2)
        domain = make_domain(hv, vcpus=3)
        a, b, c = domain.vcpus
        a.state = b.state = c.state = "runnable"
        a.current_symbol = None
        b.current_symbol = "do_syscall_64"
        c.current_symbol = "scheduler_ipi"
        engine = self._engine()
        engine.on_yield(a, "spinlock", None)
        assert engine.hv.accelerated == [c]


class TestDetectorWithExecutor:
    def test_descheduled_vcpu_exposes_last_symbol(self):
        sim, hv = make_hv(num_pcpus=1)
        domain = make_domain(hv, vcpus=2)
        spawn_task(domain.vcpus[0], spin_program(symbol="get_page_from_freelist"))
        spawn_task(domain.vcpus[1], spin_program(symbol=None))
        hv.start()
        sim.run(until=35_000_000)  # past one slice: vCPU 0 descheduled
        preempted = [v for v in domain.vcpus if not v.running]
        assert preempted
        symbols = {v.current_symbol for v in preempted}
        assert symbols & {"get_page_from_freelist", None}

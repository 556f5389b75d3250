"""Tests for Algorithm 1 (adaptive controller) and the policy modes."""

import pytest

from repro.core.adaptive import AdaptiveController
from repro.core.microslice import MicroSliceEngine
from repro.errors import ConfigError
from repro.runner import (
    baseline_policy,
    dynamic_policy,
    static_policy,
    vtrs_policy,
    vturbo_policy,
    yield_only_policy,
)
from repro.runner.jobs import POLICY_MODES, install_policy
from repro.sim.engine import Simulator
from repro.sim.time import ms


class _FakeStats:
    def __init__(self, windows):
        self.windows = list(windows)
        self.marks = 0

    def mark_window(self):
        self.marks += 1

    def window_events(self):
        if self.windows:
            return self.windows.pop(0)
        return {"ipi": 0, "ple": 0, "irq": 0}


class _FakeHv:
    def __init__(self, windows):
        self.sim = Simulator()
        self.stats = _FakeStats(windows)
        self.core_history = []

    def set_micro_cores(self, count):
        self.core_history.append((self.sim.now, count))


def _drive(windows, until_ms=3000, **kwargs):
    hv = _FakeHv(windows)
    controller = AdaptiveController(**kwargs)
    controller.start(hv)
    hv.sim.run(until=ms(until_ms))
    return hv, controller


def _events(ipi=0, ple=0, irq=0):
    return {"ipi": ipi, "ple": ple, "irq": irq}


class TestAlgorithm1:
    def test_idle_system_stays_at_zero(self):
        hv, controller = _drive([_events()] * 50)
        assert all(count == 0 for _t, count in hv.core_history)
        assert controller.num_ucores == 0

    def test_idle_system_uses_epoch_interval(self):
        hv, controller = _drive([_events()] * 50, until_ms=2000)
        # One profile window (10 ms), then epoch-length sleeps: far
        # fewer decisions than profiling continuously would make.
        assert len(hv.core_history) <= 4

    def test_ple_dominant_early_terminates_at_one_core(self):
        windows = [_events(ple=500), _events(ple=450)]
        hv, controller = _drive(windows, until_ms=50)
        # First profile window sees PLE-dominant load -> 1 core, stop.
        assert controller.num_ucores == 1
        assert not controller.profile_mode

    def test_irq_dominant_early_terminates_at_one_core(self):
        windows = [_events(irq=300)]
        hv, controller = _drive(windows, until_ms=50)
        assert controller.num_ucores == 1

    def test_ipi_dominant_sweeps_to_limit(self):
        windows = [
            _events(ipi=1000),           # at 0 cores -> urgent, ipi dominant
            _events(ipi=800),            # at 1
            _events(ipi=300),            # at 2
            _events(ipi=500),            # at 3 (limit) -> pick best (2)
        ]
        hv, controller = _drive(windows, until_ms=60, limit=3)
        assert controller.num_ucores == 2
        assert not controller.profile_mode
        counts = [c for _t, c in hv.core_history]
        assert counts[:5] == [0, 1, 2, 3, 2]

    def test_best_choice_prefers_fewer_cores_on_tie(self):
        windows = [
            _events(ipi=1000),
            _events(ipi=400),
            _events(ipi=400),
            _events(ipi=400),
        ]
        hv, controller = _drive(windows, until_ms=60, limit=3)
        assert controller.num_ucores == 1

    def test_reprofiles_each_epoch(self):
        windows = [_events(ple=100)] * 10
        hv, controller = _drive(windows, until_ms=500, epoch_interval=ms(100))
        settles = [c for _t, c in hv.core_history if c == 1]
        assert len(settles) >= 2  # settled at 1 core in multiple epochs

    def test_urgent_threshold_filters_noise(self):
        windows = [_events(ple=1)] * 20
        hv, controller = _drive(windows, until_ms=100, urgent_threshold=5)
        assert controller.num_ucores == 0

    def test_decision_history_recorded(self):
        hv, controller = _drive([_events(ple=100)], until_ms=50)
        assert controller.decisions
        assert controller.decisions[0][1] == 0


class TestPolicySpec:
    """The job policy dict through ``POLICY_MODES``' installer."""

    def test_baseline_installs_null_policy(self):
        from helpers import make_hv

        _sim, hv = make_hv(num_pcpus=2)
        install_policy(hv, baseline_policy())
        assert not hv.policy.active

    def test_static_requires_core_count(self):
        from helpers import make_hv

        _sim, hv = make_hv(num_pcpus=4)
        for policy in (static_policy(0), {"mode": "static"}):
            with pytest.raises(ConfigError, match="micro_cores"):
                install_policy(hv, policy)
        assert not hv.policy.active

    def test_static_installs_engine_and_cores(self):
        from helpers import make_hv

        sim, hv = make_hv(num_pcpus=4)
        install_policy(hv, static_policy(2))
        assert isinstance(hv.policy, MicroSliceEngine)
        assert hv.micro_core_count() == 2

    def test_dynamic_attaches_controller(self):
        from helpers import make_hv

        _sim, hv = make_hv(num_pcpus=4)
        install_policy(hv, dynamic_policy(limit=2))
        assert isinstance(hv.policy.controller, AdaptiveController)
        assert hv.policy.controller.limit == 2

    def test_unknown_mode_rejected(self):
        from helpers import make_hv

        _sim, hv = make_hv(num_pcpus=2)
        with pytest.raises(ConfigError, match="unknown policy mode"):
            install_policy(hv, {"mode": "bogus"})

    def test_modes_exposed(self):
        constructors = (baseline_policy(), static_policy(1), dynamic_policy(),
                        vturbo_policy(), vtrs_policy(), yield_only_policy())
        assert [policy["mode"] for policy in constructors] == list(POLICY_MODES)


class TestMicroSliceEngineHooks:
    def _system(self):
        from helpers import make_domain, make_hv, spawn_task, spin_program

        sim, hv = make_hv(num_pcpus=3)
        vm1 = make_domain(hv, name="vm1", vcpus=2)
        vm2 = make_domain(hv, name="vm2", vcpus=2)
        for vcpu in vm1.vcpus + vm2.vcpus:
            spawn_task(vcpu, spin_program())
        install_policy(hv, static_policy(1))
        engine = hv.policy
        hv.start()
        sim.run(until=ms(2))
        # Guarantee at least one queued vm1 vCPU: preempt any vm1 vCPU
        # currently running in the normal pool and let the deschedule
        # land.
        for _ in range(10):
            queued = [v for v in vm1.vcpus if v.state == "runnable" and v.pcpu is None
                      and v.pool is hv.normal_pool]
            if queued:
                break
            for vcpu in vm1.vcpus:
                if vcpu.running and vcpu.pcpu.pool is hv.normal_pool:
                    vcpu.pcpu.request_preempt()
            sim.run(until=sim.now + ms(1))
        return sim, hv, vm1, engine

    def test_on_yield_accelerates_critical_sibling(self):
        sim, hv, vm1, engine = self._system()
        queued = [v for v in vm1.vcpus if v.state == "runnable" and v.pcpu is None]
        assert queued, "setup must leave a queued vm1 vCPU"
        other = [v for v in vm1.vcpus if v is not queued[0]][0]
        queued[0].current_symbol = "get_page_from_freelist"
        engine.on_yield(other, "spinlock", None)
        assert queued[0].pool is hv.micro_pool

    def test_on_yield_ignores_user_siblings(self):
        sim, hv, vm1, engine = self._system()
        queued = [v for v in vm1.vcpus if v.state == "runnable" and v.pcpu is None]
        assert queued, "setup must leave a queued vm1 vCPU"
        other = [v for v in vm1.vcpus if v is not queued[0]][0]
        queued[0].current_symbol = None
        engine.on_yield(other, "spinlock", None)
        assert queued[0].pool is hv.normal_pool

    def test_on_vipi_only_accelerates_resched(self):
        sim, hv, vm1, engine = self._system()
        queued = [v for v in vm1.vcpus if v.state == "runnable" and v.pcpu is None]
        assert queued, "setup must leave a queued vm1 vCPU"

        class _Op:
            kind = "tlb"

        engine.on_vipi(None, queued[0], _Op())
        assert queued[0].pool is hv.normal_pool
        _Op.kind = "resched"
        engine.on_vipi(None, queued[0], _Op())
        assert queued[0].pool is hv.micro_pool

    def test_on_virq_accelerates_preempted_recipient(self):
        sim, hv, vm1, engine = self._system()
        queued = [v for v in vm1.vcpus if v.state == "runnable" and v.pcpu is None]
        assert queued, "setup must leave a queued vm1 vCPU"
        engine.on_virq(queued[0])
        assert queued[0].pool is hv.micro_pool

    def test_hooks_noop_without_micro_cores(self):
        from helpers import make_domain, make_hv, spawn_task, spin_program

        sim, hv = make_hv(num_pcpus=2)
        vm1 = make_domain(hv, name="vm1", vcpus=2)
        for vcpu in vm1.vcpus:
            spawn_task(vcpu, spin_program())
        engine = MicroSliceEngine()
        hv.set_policy(engine)
        hv.start()
        sim.run(until=ms(1))
        engine.on_yield(vm1.vcpus[0], "spinlock", None)
        assert hv.stats.counters.get("migrations") == 0

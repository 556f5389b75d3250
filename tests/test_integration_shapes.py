"""Integration tests asserting the paper's headline qualitative results
at reduced (but statistically sufficient) scale.

These are the invariants a reviewer would check first; the benchmarks
re-verify them at full scale with printed tables.
"""

import json

from repro.experiments import common
from repro.experiments.scenarios import (
    corun_scenario,
    mixed_io_scenario,
    solo_io_scenario,
    solo_scenario,
)
from repro.runner import dynamic_policy, static_policy
from repro.sim.time import ms

DURATION = ms(200)
WARMUP = ms(100)


#: ``{key: (result, its JSON when made)}``: each distinct simulation
#: runs once per module, and the tests that need it share the result.
_RUNS = {}


def _shared(key, simulate):
    if key not in _RUNS:
        result = simulate()
        _RUNS[key] = (result, json.dumps(result.to_dict(), sort_keys=True))
    return _RUNS[key][0]


def _corun(kind, policy=None):
    return _shared(
        ("corun", kind, json.dumps(policy, sort_keys=True)),
        lambda: corun_scenario(kind, policy=policy).build().run(DURATION, warmup_ns=WARMUP),
    )


def _solo(kind):
    return _shared(
        ("solo", kind),
        lambda: solo_scenario(kind).build().run(ms(120), warmup_ns=WARMUP),
    )


def _mixed_io():
    return _shared(
        ("mixed_io",),
        lambda: mixed_io_scenario().build().run(ms(300), warmup_ns=WARMUP),
    )


class TestVtdBaselinePathologies:
    def test_consolidation_inflates_yields(self):
        solo = _solo("dedup")
        corun = _corun("dedup")
        solo_rate = solo.total_yields("vm1") / 0.12
        corun_rate = corun.total_yields("vm1") / 0.2
        assert corun_rate > 5 * solo_rate

    def test_corun_degrades_lock_bound_throughput_beyond_fair_share(self):
        solo = _solo("exim")
        corun = _corun("exim")
        # 2:1 overcommit fair share would be 2x; VTD makes it far worse.
        assert solo.rate("exim") / max(corun.rate("exim"), 1) > 4

    def test_tlb_sync_millisecond_scale_under_corun(self):
        corun = _corun("dedup")
        stats = corun.tlb_stats["vm1"]
        assert stats["count"] > 0
        assert stats["mean"] > ms(1)

    def test_tlb_sync_microsecond_scale_solo(self):
        solo = _solo("dedup")
        stats = solo.tlb_stats["vm1"]
        assert stats["count"] > 0
        assert stats["mean"] < 200_000  # < 0.2 ms

    def test_gmake_lock_waits_inflate_under_corun(self):
        solo = _solo("gmake")
        corun = _corun("gmake")
        solo_waits = [s["mean"] for s in solo.lockstats["vm1"].values() if s["count"]]
        corun_waits = [s["mean"] for s in corun.lockstats["vm1"].values() if s["count"]]
        assert solo_waits and corun_waits
        assert max(corun_waits) > 10 * max(solo_waits)


class TestMicroSlicedImprovements:
    def test_exim_improves_with_one_micro_core(self):
        base = _corun("exim")
        micro = _corun("exim", policy=static_policy(1))
        assert micro.rate("exim") > 1.5 * base.rate("exim")
        assert micro.hv_counters.get("migrations", 0) > 0

    def test_vips_single_core_counterproductive_three_better(self):
        base = _corun("vips")
        st1 = _corun("vips", policy=static_policy(1))
        st3 = _corun("vips", policy=static_policy(3))
        assert st1.rate("vips") < base.rate("vips")
        assert st3.rate("vips") > st1.rate("vips")

    def test_dedup_three_cores_strong_improvement(self):
        base = _corun("dedup")
        st3 = _corun("dedup", policy=static_policy(3))
        assert st3.rate("dedup") > 1.5 * base.rate("dedup")

    def test_micro_slicing_cuts_tlb_sync_latency(self):
        base = _corun("vips")
        st3 = _corun("vips", policy=static_policy(3))
        assert st3.tlb_stats["vm1"]["mean"] < 0.5 * base.tlb_stats["vm1"]["mean"]

    def test_corunner_cost_is_bounded(self):
        base = _corun("exim")
        micro = _corun("exim", policy=static_policy(1))
        # The paper reports ~10% swaptions cost for exim+1 core.
        assert micro.rate("swaptions") > 0.6 * base.rate("swaptions")

    def test_dynamic_improves_over_baseline(self):
        base = corun_scenario("exim").build().run(ms(400), warmup_ns=WARMUP)
        dynamic = dynamic_policy(epoch_interval=common.DYNAMIC_EPOCH)
        dyn = corun_scenario("exim", policy=dynamic).build().run(
            ms(400), warmup_ns=WARMUP
        )
        assert dyn.rate("exim") > 1.2 * base.rate("exim")

    def test_dynamic_releases_cores_when_idle(self):
        dynamic = dynamic_policy(epoch_interval=common.DYNAMIC_EPOCH)
        dyn = corun_scenario("sjeng", policy=dynamic).build().run(
            ms(400), warmup_ns=WARMUP
        )
        assert dyn.micro_cores <= 1

    def test_unaffected_workload_overhead_small(self):
        base = _corun("blackscholes")
        dynamic = dynamic_policy(epoch_interval=common.DYNAMIC_EPOCH)
        dyn = corun_scenario("blackscholes", policy=dynamic).build().run(
            DURATION, warmup_ns=WARMUP
        )
        assert dyn.rate("blackscholes") > 0.9 * base.rate("blackscholes")


class TestIoShapes:
    def test_mixed_corun_hurts_io(self):
        solo = solo_io_scenario().build().run(ms(300), warmup_ns=WARMUP)
        mixed = _mixed_io()
        solo_io = solo.workload("iperf").extra
        mixed_io = mixed.workload("iperf").extra
        assert mixed_io["throughput_mbps"] < 0.8 * solo_io["throughput_mbps"]
        assert mixed_io["jitter_ms"] > 10 * max(solo_io["jitter_ms"], 0.001)

    def test_micro_slicing_recovers_io(self):
        mixed = _mixed_io()
        micro = mixed_io_scenario(policy=static_policy(1)).build().run(
            ms(300), warmup_ns=WARMUP
        )
        base_io = mixed.workload("iperf").extra
        micro_io = micro.workload("iperf").extra
        assert micro_io["throughput_mbps"] > 1.2 * base_io["throughput_mbps"]
        assert micro_io["jitter_ms"] < 0.5 * base_io["jitter_ms"]

    def test_udp_drops_only_under_mixed_baseline(self):
        mixed = mixed_io_scenario(mode="udp").build().run(ms(300), warmup_ns=WARMUP)
        micro = mixed_io_scenario(mode="udp", policy=static_policy(1)).build().run(
            ms(300), warmup_ns=WARMUP
        )
        assert mixed.workload("iperf").extra["dropped"] > 0
        assert micro.workload("iperf").extra["dropped"] == 0


class TestGuestTransparency:
    def test_detection_uses_only_hypervisor_visible_state(self):
        """The policy must work for a guest with a custom (but provided)
        symbol table — the mechanism reads IPs, not guest internals."""
        micro = _corun("exim", policy=static_policy(1))
        assert micro.hv_counters.get("migrations", 0) > 0

    def test_guest_kernel_never_calls_scheduler_directly(self):
        import inspect

        import repro.guest.kernel as kernel_mod

        source = inspect.getsource(kernel_mod)
        for forbidden in ("normal_pool", "micro_pool", "accelerate", "enqueue("):
            assert forbidden not in source


class TestSharedRuns:
    def test_readers_leave_shared_results_unchanged(self):
        """Runs after every test above that reads a shared result."""
        assert _RUNS
        for key, (result, made) in _RUNS.items():
            assert json.dumps(result.to_dict(), sort_keys=True) == made, key

"""Smoke tests for the ablation harnesses (full scale runs live in
benchmarks/test_ablations.py)."""

import json

import pytest

from repro.experiments import ablations, registry
from repro.experiments.scenarios import corun_scenario, mixed_io_scenario
from repro.hw.ple import PleConfig
from repro.runner import (
    SimJob,
    baseline_policy,
    dynamic_policy,
    run_job,
    static_policy,
    vtrs_policy,
    vturbo_policy,
    yield_only_policy,
)
from repro.runner.jobs import POLICY_MODES
from repro.sim.time import ms, us

SCALE = 0.15
DURATION = ms(20)
WARMUP = ms(10)


def _shortslice():
    scenario = corun_scenario("gmake", seed=7)
    scenario.scheduler = "shortslice"
    return scenario.build()


def _ple_window():
    scenario = corun_scenario("exim", seed=7)
    scenario.ple = PleConfig(window=us(10))
    return scenario.build()


def _micro_slice():
    scenario = corun_scenario("dedup", policy=static_policy(3), seed=7)
    scenario.micro_slice = us(300)
    return scenario.build()


#: (scenario, scenario kwargs, job policy, job overrides, hand-built
#: reference system) for each knob the ablation harnesses turn.
ABLATION_KNOBS = {
    "shortslice": ("corun", {"workload_kind": "gmake"}, baseline_policy(),
                   {"scheduler": "shortslice"}, _shortslice),
    "ple_window": ("corun", {"workload_kind": "exim"}, baseline_policy(),
                   {"ple_window": us(10)}, _ple_window),
    "micro_slice": ("corun", {"workload_kind": "dedup"}, static_policy(3),
                    {"micro_slice": us(300)}, _micro_slice),
}


@pytest.mark.parametrize("knob", sorted(ABLATION_KNOBS))
def test_ablation_knob_job_matches_hand_built_scenario(knob):
    """Each ablation knob, described as a SimJob, simulates exactly the
    scenario the harnesses used to wire by hand."""
    scenario, kwargs, policy, overrides, reference = ABLATION_KNOBS[knob]
    job = SimJob(tag=knob, scenario=scenario, scenario_kwargs=kwargs, policy=policy,
                 overrides=overrides, seed=7, duration_ns=DURATION, warmup_ns=WARMUP)
    expected = reference().run(DURATION, warmup_ns=WARMUP).to_dict()
    assert run_job(job) == json.loads(json.dumps(expected))


#: One policy dict per mode, and the policy object its installer sets.
MODE_POLICIES = {
    "baseline": (baseline_policy(), "NullPolicy"),
    "static": (static_policy(1, user_critical=True), "MicroSliceEngine"),
    "dynamic": (dynamic_policy(epoch_interval=ms(5)), "MicroSliceEngine"),
    "vturbo": (vturbo_policy(1), "VTurboPolicy"),
    "vtrs": (vtrs_policy(1), "VTrsPolicy"),
    "yield_only": (yield_only_policy(1), "MicroSliceEngine"),
}


@pytest.mark.parametrize("mode", sorted(POLICY_MODES))
def test_every_policy_mode_builds_by_hand_as_its_job(mode):
    """A hand-built scenario holding a policy dict installs it exactly
    as ``run_job`` does for the equivalent job: one install path."""
    policy, installed = MODE_POLICIES[mode]
    system = mixed_io_scenario(mode="tcp", policy=policy, seed=7).build()
    assert type(system.hv.policy).__name__ == installed
    expected = system.run(DURATION, warmup_ns=WARMUP).to_dict()
    job = SimJob(tag=mode, scenario="mixed_io", scenario_kwargs={"mode": "tcp"},
                 policy=policy, seed=7, duration_ns=DURATION, warmup_ns=WARMUP)
    assert run_job(job) == json.loads(json.dumps(expected))


class TestAblationHarnesses:
    def test_fixed_microslice(self):
        results = ablations.run_fixed_microslice(scale_override=SCALE)
        assert set(results) == {"baseline", "micro_pool", "fixed_100us_all_cores"}
        for entry in results.values():
            assert "target_x" in entry and "corunner_x" in entry
        assert "Ablation" in ablations.format_fixed_microslice(results)

    def test_ple_window(self):
        results = ablations.run_ple_window(scale_override=SCALE, windows_us=(3, 25))
        assert set(results) == {3, 25}
        for entry in results.values():
            assert entry["yields"] >= 0

    def test_micro_slice_length(self):
        results = ablations.run_micro_slice_length(
            scale_override=SCALE, slices_us=(100,)
        )
        assert "baseline" in results and 100 in results

    def test_selective_acceleration(self):
        results = ablations.run_selective_acceleration(scale_override=SCALE)
        assert set(results) == {"baseline", "full", "yield_only"}
        for entry in results.values():
            assert entry["throughput_mbps"] > 0


class TestTable1Harness:
    def test_reduced_scheme_set(self):
        results, text = registry.run(
            "table1", scale_override=SCALE, schemes=("baseline", "vturbo")
        )
        assert set(results) == {"baseline", "vturbo"}
        assert results["baseline"]["lock_x"] == 1.0
        assert "Table 1" in text and "vturbo" in text

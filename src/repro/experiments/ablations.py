"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's own figures:

* **fixed micro-slicing** — shorten the time slice for *every* core
  (the MICRO'14 software approach the paper argues against): critical
  services speed up, but user-level code pays context-switch and
  cache-refill costs;
* **PLE window sensitivity** — how the trap threshold shapes yield
  counts and throughput;
* **micro-slice length sensitivity** — why 0.1 ms (shorter = lower
  latency but more switching; longer = queueing delay on the micro
  pool);
* **selective acceleration** — disable the vIRQ/vIPI relay hooks and
  keep only yield-driven detection (quantifies the I/O path's share).

Each study is one job plan run through :func:`repro.runner.execute`,
so its points are validated, cached, deduplicated and fanned out like
any registered experiment's.
"""

from .. import runner
from ..metrics.report import render_table
from ..runner import SimJob, baseline_policy, static_policy, yield_only_policy
from ..sim.time import us
from . import common


def _run(scenario, scenario_kwargs, seed, scale_override, duration, points):
    """Run ``{label: (policy, overrides)}`` as one job plan on one
    scenario; returns ``{label: RunResult}`` in ``points`` order."""
    jobs = [
        SimJob(
            tag=str(label),
            scenario=scenario,
            scenario_kwargs=dict(scenario_kwargs),
            policy=policy,
            overrides=overrides,
            seed=seed,
            duration_ns=common.scaled(duration, scale_override),
            warmup_ns=common.warmup(scale_override),
        )
        for label, (policy, overrides) in points.items()
    ]
    by_tag = runner.execute(jobs)
    return {label: by_tag[str(label)] for label in points}


def run_fixed_microslice(seed=42, scale_override=None, kind="gmake"):
    """Baseline vs our scheme vs short-slice-everywhere."""
    runs = _run("corun", {"workload_kind": kind}, seed, scale_override,
                common.CORUN_DURATION, {
                    "baseline": (baseline_policy(), {}),
                    "micro_pool": (static_policy(common.STATIC_BEST.get(kind, 1)), {}),
                    "fixed_100us_all_cores": (baseline_policy(), {"scheduler": "shortslice"}),
                })
    results = {
        label: {"target": res.rate(kind), "corunner": res.rate("swaptions")}
        for label, res in runs.items()
    }
    base_t = results["baseline"]["target"]
    base_c = results["baseline"]["corunner"]
    for entry in results.values():
        entry["target_x"] = common.improvement(base_t, entry["target"])
        entry["corunner_x"] = common.improvement(base_c, entry["corunner"])
    return results


def run_ple_window(seed=42, scale_override=None, kind="exim", windows_us=(1, 3, 10, 25)):
    """Yield counts and throughput vs the PLE window."""
    runs = _run("corun", {"workload_kind": kind}, seed, scale_override,
                common.CORUN_DURATION,
                {window: (baseline_policy(), {"ple_window": us(window)}) for window in windows_us})
    return {
        window: {"target_rate": res.rate(kind), "yields": res.total_yields("vm1")}
        for window, res in runs.items()
    }


def run_micro_slice_length(seed=42, scale_override=None, kind="dedup", slices_us=(50, 100, 300, 1000)):
    """Target throughput vs the micro pool's slice length."""
    policy = static_policy(common.STATIC_BEST.get(kind, 3))
    points = {"baseline": (baseline_policy(), {})}
    for slice_us in slices_us:
        points[slice_us] = (policy, {"micro_slice": us(slice_us)})
    runs = _run("corun", {"workload_kind": kind}, seed, scale_override,
                common.CORUN_DURATION, points)
    return {label: {"target_rate": res.rate(kind)} for label, res in runs.items()}


def run_selective_acceleration(seed=42, scale_override=None):
    """Contribution of the relay-time hooks for the mixed-I/O case."""
    runs = _run("mixed_io", {"mode": "tcp"}, seed, scale_override, common.IO_DURATION, {
        "baseline": (baseline_policy(), {}),
        "full": (static_policy(1), {}),
        "yield_only": (yield_only_policy(1), {}),
    })
    return {label: res.workload("iperf").extra for label, res in runs.items()}


def format_fixed_microslice(results):
    rows = [
        [label, "%.2fx" % entry["target_x"], "%.2fx" % entry["corunner_x"]]
        for label, entry in results.items()
    ]
    return render_table(
        ["scheme", "target vs baseline", "swaptions vs baseline"],
        rows,
        title="Ablation: micro pool vs fixed short slices on all cores",
    )

"""Figure 9 — I/O performance of mixed-behaviour VMs.

VM-1 hosts iPerf *and* lookbusy on one vCPU; VM-2 hosts lookbusy; both
vCPUs are pinned to the same pCPU. Xen's BOOST cannot fire (the vCPU is
always runnable), so in the baseline vIRQ handling waits out the
co-runner's slices. The micro-sliced scheme migrates the vIRQ recipient
onto a micro-sliced core at relay time.

Reproduction targets (paper): TCP and UDP bandwidth improve markedly
under the micro-sliced scheme; jitter collapses from ~8 ms to ~0.
"""

from ..metrics.report import render_table
from ..runner import SimJob, baseline_policy, static_policy
from . import common

MODES = ("tcp", "udp")

CONFIGS = ("solo", "baseline", "microsliced")


def plan(seed=42, scale_override=None, modes=MODES):
    warmup = common.warmup(scale_override)
    duration = common.scaled(common.IO_DURATION, scale_override)
    jobs = []
    for mode in modes:
        jobs.append(
            SimJob(
                tag="%s:solo" % mode,
                scenario="solo_io",
                scenario_kwargs={"mode": mode},
                policy=baseline_policy(),
                seed=seed,
                duration_ns=duration,
                warmup_ns=warmup,
            )
        )
        for label, policy in (("baseline", baseline_policy()), ("microsliced", static_policy(1))):
            jobs.append(
                SimJob(
                    tag="%s:%s" % (mode, label),
                    scenario="mixed_io",
                    scenario_kwargs={"mode": mode},
                    policy=policy,
                    seed=seed,
                    duration_ns=duration,
                    warmup_ns=warmup,
                )
            )
    return jobs


def reduce(results):
    out = {}
    for tag, res in results.items():
        mode, label = tag.rsplit(":", 1)
        out.setdefault(mode, {})[label] = res.workload("iperf").extra
    return out


def claims(results):
    """Figure 9's shape, ``{name: bool}``; EXPERIMENTS.md lists the thresholds."""
    out = {}
    for mode in MODES:
        runs = results.get(mode, {})
        micro = runs.get("microsliced", {})
        out["beats_baseline:" + mode] = common.claim(
            lambda: micro["throughput_mbps"] > runs["baseline"]["throughput_mbps"])
        out["halves_jitter:" + mode] = common.claim(
            lambda: micro["jitter_ms"] < 0.5 * runs["baseline"]["jitter_ms"])
        out["near_solo:" + mode] = common.claim(
            lambda: micro["throughput_mbps"] > 0.85 * runs["solo"]["throughput_mbps"])
    return out


def format_result(results):
    rows = []
    for mode, configs in results.items():
        for label in CONFIGS:
            io = configs[label]
            rows.append(
                [
                    mode.upper(),
                    label,
                    "%.0f" % io["throughput_mbps"],
                    "%.4f" % io["jitter_ms"],
                    io["dropped"],
                ]
            )
    return render_table(
        ["mode", "config", "bandwidth (Mbps)", "jitter (ms)", "drops"],
        rows,
        title="Figure 9: mixed-VM I/O (paper: baseline ~8 ms jitter, "
        "micro-sliced ~0; bandwidth recovers)",
    )

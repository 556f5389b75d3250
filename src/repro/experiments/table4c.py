"""Table 4c — iPerf latency (jitter) and throughput, solo vs mixed
co-run.

Paper values (TCP, 1 GbE):

=============  ===========  ==================
config         jitter (ms)  throughput (Mbps)
=============  ===========  ==================
solo           0.0043       936.3
mixed co-run   9.2507       435.6
=============  ===========  ==================

Reproduction target: near-zero jitter and near-line-rate throughput
solo; milliseconds of jitter and roughly-halved throughput when the
iPerf vCPU shares its pCPU with CPU hogs (BOOST cannot fire for a
runnable vCPU).
"""

from ..metrics.report import render_table
from ..runner import SimJob
from . import common

PAPER = {"solo": (0.0043, 936.3), "mixed": (9.2507, 435.6)}


def plan(seed=42, scale_override=None):
    warmup = common.warmup(scale_override)
    duration = common.scaled(common.IO_DURATION, scale_override)
    return [
        SimJob(
            tag="solo",
            scenario="solo_io",
            scenario_kwargs={"mode": "tcp"},
            seed=seed,
            duration_ns=duration,
            warmup_ns=warmup,
        ),
        SimJob(
            tag="mixed",
            scenario="mixed_io",
            scenario_kwargs={"mode": "tcp"},
            seed=seed,
            duration_ns=duration,
            warmup_ns=warmup,
        ),
    ]


def reduce(results):
    return {tag: res.workload("iperf").extra for tag, res in results.items()}


def claims(results):
    """Table 4c's shape, ``{name: bool}``; EXPERIMENTS.md lists the thresholds."""
    solo, mixed = results.get("solo", {}), results.get("mixed", {})
    return {
        "mixed_throughput_drop": common.claim(
            lambda: solo["throughput_mbps"] > mixed["throughput_mbps"] * 1.2),
        "mixed_jitter_over_10x": common.claim(
            lambda: mixed["jitter_ms"] > 10 * max(solo["jitter_ms"], 0.001)),
    }


def format_result(results):
    rows = []
    for config in ("solo", "mixed"):
        io = results[config]
        paper_jitter, paper_bw = PAPER[config]
        rows.append(
            [
                config,
                "%.4f" % io["jitter_ms"],
                "%.0f" % io["throughput_mbps"],
                "%.4f / %.0f" % (paper_jitter, paper_bw),
            ]
        )
    return render_table(
        ["config", "jitter (ms)", "throughput (Mbps)", "paper jitter/bw"],
        rows,
        title="Table 4c: iPerf solo vs mixed co-run",
    )

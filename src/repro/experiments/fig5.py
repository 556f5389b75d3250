"""Figure 5 — throughput improvement vs number of micro-sliced cores
(exim and psearchy, co-run with swaptions).

Paper shapes: exim improves ~3.9x with a single micro-sliced core (the
workload is spinlock/LHP bound, one core covers it) at ~10% swaptions
cost; psearchy improves ~1.4x.
"""

from ..metrics.report import render_table
from ..runner import SimJob, baseline_policy, static_policy
from . import common

WORKLOADS = ("exim", "psearchy")
DEFAULT_CORE_COUNTS = (0, 1, 2, 3, 4, 5, 6)

PAPER_IMPROVEMENT_AT_1 = {"exim": 3.9, "psearchy": 1.4}


def plan(seed=42, scale_override=None, workloads=WORKLOADS, core_counts=DEFAULT_CORE_COUNTS):
    warmup = common.warmup(scale_override)
    duration = common.scaled(common.CORUN_DURATION, scale_override)
    return [
        SimJob(
            tag="%s:%d" % (kind, cores),
            scenario="corun",
            scenario_kwargs={"workload_kind": kind},
            policy=baseline_policy() if cores == 0 else static_policy(cores),
            seed=seed,
            duration_ns=duration,
            warmup_ns=warmup,
        )
        for kind in workloads
        for cores in core_counts
    ]


def reduce(results):
    """Order-independent: 0-core baselines are collected in a first pass
    so the result does not depend on executor completion order."""
    parsed = []
    bases = {}
    for tag, res in results.items():
        kind, cores_text = tag.rsplit(":", 1)
        cores = int(cores_text)
        target_rate = res.rate(kind)
        corunner_rate = res.rate("swaptions")
        parsed.append((kind, cores, target_rate, corunner_rate))
        if cores == 0:
            bases[kind] = (target_rate, corunner_rate)
    out = {}
    for kind, cores, target_rate, corunner_rate in parsed:
        base_target, base_corunner = bases.get(kind, (None, None))
        out.setdefault(kind, {})[cores] = {
            "target_rate": target_rate,
            "improvement": common.improvement(base_target, target_rate),
            "corunner": common.normalized_time(base_corunner, corunner_rate),
        }
    return out


def claims(results):
    """Figure 5's shape, ``{name: bool}``; EXPERIMENTS.md lists the thresholds."""
    return {
        "exim_gain_at_1_core": common.claim(lambda: results["exim"][1]["improvement"] > 1.5),
        "psearchy_best_gain": common.claim(
            lambda: max(results["psearchy"][c]["improvement"] for c in (1, 2, 3)) > 1.2),
    }


def format_result(results):
    core_counts = sorted(next(iter(results.values())))
    headers = ["workload", "series"] + ["%d cores" % c for c in core_counts]
    rows = []
    for kind, per_cores in results.items():
        rows.append(
            [kind, "throughput x"]
            + ["%.2f" % per_cores[c]["improvement"] for c in core_counts]
        )
        rows.append(
            ["(swaptions)", "norm. time"]
            + ["%.2f" % per_cores[c]["corunner"] for c in core_counts]
        )
    return render_table(
        headers,
        rows,
        title="Figure 5: throughput improvement vs #micro-sliced cores "
        "(paper: exim 3.9x @1, psearchy 1.4x @1)",
    )

"""Figure 6 — static best vs dynamic micro-sliced cores.

For each of the six workload pairs the paper compares the baseline, the
statically best number of micro-sliced cores (picked offline per
workload), and the Algorithm-1 dynamic controller. The reproduction
target: dynamic tracks the static best closely (within a few percent,
occasionally better) and always beats the baseline.
"""

from ..metrics.report import render_table
from ..runner import SimJob
from . import common

WORKLOADS = ("gmake", "memclone", "dedup", "vips", "exim", "psearchy")

SCHEMES = ("baseline", "static", "dynamic")


def plan(seed=42, scale_override=None, workloads=WORKLOADS):
    warmup = common.warmup(scale_override)
    duration = common.scaled(common.DYNAMIC_DURATION, scale_override)
    return [
        SimJob(
            tag="%s:%s" % (kind, label),
            scenario="corun",
            scenario_kwargs={"workload_kind": kind},
            policy=common.scheme_policy(label, common.STATIC_BEST.get(kind, 1)),
            seed=seed,
            duration_ns=duration,
            warmup_ns=warmup,
        )
        for kind in workloads
        for label in SCHEMES
    ]


def reduce(results):
    out = {}
    for tag, res in results.items():
        kind, label = tag.rsplit(":", 1)
        out.setdefault(kind, {})[label] = {
            "target_rate": res.rate(kind),
            "corunner_rate": res.rate("swaptions"),
            "micro_cores": res.micro_cores,
            "decisions": res.adaptive_decisions,
        }
    for runs in out.values():
        base = runs["baseline"]["target_rate"]
        for label in runs:
            runs[label]["improvement"] = common.improvement(base, runs[label]["target_rate"])
    return out


def claims(results):
    """Figure 6's shape, ``{name: bool}``; EXPERIMENTS.md lists the thresholds."""
    out = {}
    for kind in WORKLOADS:
        runs = results.get(kind, {})
        out["static_not_worse:" + kind] = common.claim(lambda: runs["static"]["improvement"] > 0.9)
    for kind in ("exim", "psearchy"):
        out["dynamic_beats_baseline:" + kind] = common.claim(
            lambda: results[kind]["dynamic"]["improvement"] > 1.1)
    return out


def format_result(results):
    rows = []
    for kind, runs in results.items():
        rows.append(
            [
                kind,
                "%.2fx" % runs["static"]["improvement"],
                "%.2fx" % runs["dynamic"]["improvement"],
                common.STATIC_BEST.get(kind, 1),
                runs["dynamic"]["micro_cores"],
            ]
        )
    return render_table(
        ["workload", "static best", "dynamic", "static cores", "dyn final cores"],
        rows,
        title="Figure 6: static best vs dynamic (improvement over baseline)",
    )

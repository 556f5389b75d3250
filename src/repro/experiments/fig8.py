"""Figure 8 — overhead on non-affected workloads.

The paper runs PARSEC's user-dominated apps (blackscholes, bodytrack,
streamcluster, raytrace) and three SPEC CPU2006 components (perlbench,
sjeng, bzip2) against swaptions with the dynamic scheme enabled, and
measures 2-3% average overhead. Reproduction target: the dynamic
controller's profiling leaves these workloads essentially untouched
(within a few percent of baseline).
"""

from ..metrics.report import render_table
from ..runner import SimJob
from . import common

WORKLOADS = (
    "blackscholes",
    "bodytrack",
    "streamcluster",
    "raytrace",
    "perlbench",
    "sjeng",
    "bzip2",
)

SCHEMES = ("baseline", "dynamic")


def plan(seed=42, scale_override=None, workloads=WORKLOADS):
    warmup = common.warmup(scale_override)
    duration = common.scaled(common.DYNAMIC_DURATION, scale_override)
    return [
        SimJob(
            tag="%s:%s" % (kind, label),
            scenario="corun",
            scenario_kwargs={"workload_kind": kind},
            policy=common.scheme_policy(label),
            seed=seed,
            duration_ns=duration,
            warmup_ns=warmup,
        )
        for kind in workloads
        for label in SCHEMES
    ]


def reduce(results):
    rates = {}
    for tag, res in results.items():
        kind, label = tag.rsplit(":", 1)
        rates.setdefault(kind, {})[label] = res.rate(kind)
    out = {}
    for kind, per_scheme in rates.items():
        base_rate = per_scheme["baseline"]
        dyn_rate = per_scheme["dynamic"]
        out[kind] = {
            "baseline_rate": base_rate,
            "dynamic_rate": dyn_rate,
            "norm_time": common.normalized_time(base_rate, dyn_rate),
            "overhead_pct": 100.0 * (1.0 - dyn_rate / base_rate) if base_rate else 0.0,
        }
    return out


def claims(results):
    """Figure 8's shape, ``{name: bool}``; EXPERIMENTS.md lists the thresholds."""
    overheads = [entry["overhead_pct"] for entry in results.values()]
    return {
        "mean_overhead_below_8pct": common.claim(lambda: sum(overheads) / len(overheads) < 8.0),
        "max_overhead_below_15pct": common.claim(lambda: max(overheads) < 15.0),
    }


def format_result(results):
    rows = []
    for kind, entry in results.items():
        rows.append(
            [kind, common.ratio_cell(entry["norm_time"], "%.3f"),
             "%.1f%%" % entry["overhead_pct"]]
        )
    return render_table(
        ["workload", "norm. exec time (dynamic)", "overhead"],
        rows,
        title="Figure 8: non-affected workloads (paper: ~2-3% overhead)",
    )

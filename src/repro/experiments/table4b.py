"""Table 4b — TLB synchronisation latency (µs), solo vs co-run.

Paper values:

=====  =======  =====  ====  =======
wl     config   avg    min   max
=====  =======  =====  ====  =======
dedup  solo     28     5     1,927
dedup  co-run   6,354  7     74,915
vips   solo     55     5     2,052
vips   co-run   14,928 17    121,548
=====  =======  =====  ====  =======

Reproduction target: tens of µs solo, milliseconds under co-run.
"""

from ..metrics.report import render_table
from ..runner import SimJob
from . import common

WORKLOADS = ("dedup", "vips")

PAPER = {
    "dedup": {"solo": (28, 5, 1927), "corun": (6354, 7, 74915)},
    "vips": {"solo": (55, 5, 2052), "corun": (14928, 17, 121548)},
}


def _stat_us(stat):
    return {
        "avg": stat["mean"] / 1000.0,
        "min": (stat["min"] or 0) / 1000.0,
        "max": (stat["max"] or 0) / 1000.0,
        "count": stat["count"],
    }


def plan(seed=42, scale_override=None, workloads=WORKLOADS):
    warmup = common.warmup(scale_override)
    solo_t = common.scaled(common.SOLO_DURATION, scale_override)
    corun_t = common.scaled(common.CORUN_DURATION, scale_override)
    jobs = []
    for kind in workloads:
        jobs.append(
            SimJob(
                tag="%s:solo" % kind,
                scenario="solo",
                scenario_kwargs={"workload_kind": kind},
                seed=seed,
                duration_ns=solo_t,
                warmup_ns=warmup,
            )
        )
        jobs.append(
            SimJob(
                tag="%s:corun" % kind,
                scenario="corun",
                scenario_kwargs={"workload_kind": kind},
                seed=seed,
                duration_ns=corun_t,
                warmup_ns=warmup,
            )
        )
    return jobs


def reduce(results):
    out = {}
    for tag, res in results.items():
        kind, config = tag.rsplit(":", 1)
        out.setdefault(kind, {})[config] = _stat_us(res.tlb_stats["vm1"])
    return out


def claims(results):
    """Table 4b's shape, ``{name: bool}``; EXPERIMENTS.md lists the thresholds."""
    out = {}
    for kind in WORKLOADS:
        runs = results.get(kind, {})
        out["solo_tens_of_us:" + kind] = common.claim(lambda: runs["solo"]["avg"] < 200)
        out["corun_milliseconds:" + kind] = common.claim(lambda: runs["corun"]["avg"] > 1_000)
        out["corun_over_20x_solo:" + kind] = common.claim(
            lambda: runs["corun"]["avg"] > 20 * runs["solo"]["avg"])
    return out


def format_result(results):
    rows = []
    for kind in WORKLOADS:
        for config in ("solo", "corun"):
            entry = results[kind][config]
            paper = PAPER[kind]["solo" if config == "solo" else "corun"]
            rows.append(
                [
                    kind,
                    config,
                    "%.0f" % entry["avg"],
                    "%.0f" % entry["min"],
                    "%.0f" % entry["max"],
                    "%d/%d/%d" % paper,
                ]
            )
    return render_table(
        ["workload", "config", "avg (us)", "min", "max", "paper avg/min/max"],
        rows,
        title="Table 4b: TLB synchronisation latency",
    )

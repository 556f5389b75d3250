"""Table 4a — spinlock waiting time (µs) in gmake, solo vs co-run.

Paper values (lockstat, average wait in µs):

==============  =====  =========
component       solo   co-run
==============  =====  =========
Page reclaim    1.03   420.13
Page allocator  3.42   1,053.26
Dentry          2.93   1,298.87
Runqueue        1.22   256.07
==============  =====  =========

The reproduction target: microsecond-scale waits solo, orders of
magnitude higher under consolidation (lock-holder preemption).
"""

from ..metrics.report import render_table
from ..runner import SimJob
from . import common

COMPONENTS = ("page_reclaim", "page_alloc", "dentry", "runqueue")

PAPER = {
    "page_reclaim": (1.03, 420.13),
    "page_alloc": (3.42, 1053.26),
    "dentry": (2.93, 1298.87),
    "runqueue": (1.22, 256.07),
}


def plan(seed=42, scale_override=None):
    warmup = common.warmup(scale_override)
    return [
        SimJob(
            tag="solo",
            scenario="solo",
            scenario_kwargs={"workload_kind": "gmake"},
            seed=seed,
            duration_ns=common.scaled(common.SOLO_DURATION, scale_override),
            warmup_ns=warmup,
        ),
        SimJob(
            tag="corun",
            scenario="corun",
            scenario_kwargs={"workload_kind": "gmake"},
            seed=seed,
            duration_ns=common.scaled(common.CORUN_DURATION, scale_override),
            warmup_ns=warmup,
        ),
    ]


def reduce(results):
    solo, corun = results["solo"], results["corun"]
    out = {}
    for component in COMPONENTS:
        solo_stat = solo.lockstats["vm1"].get(component)
        corun_stat = corun.lockstats["vm1"].get(component)
        out[component] = {
            "solo_us": (solo_stat["mean"] / 1000.0) if solo_stat else 0.0,
            "corun_us": (corun_stat["mean"] / 1000.0) if corun_stat else 0.0,
            "solo_count": solo_stat["count"] if solo_stat else 0,
            "corun_count": corun_stat["count"] if corun_stat else 0,
        }
    return out


def claims(results):
    """Table 4a's shape, ``{name: bool}``; EXPERIMENTS.md lists the thresholds."""
    solo = [entry["solo_us"] for entry in results.values() if entry["solo_count"]]
    inflations = [entry["corun_us"] / entry["solo_us"] for entry in results.values()
                  if entry["solo_us"] and entry["corun_count"]]
    return {
        "solo_microseconds": common.claim(lambda: solo and max(solo) < 50),
        "corun_inflation_over_50x": common.claim(lambda: max(inflations) > 50),
    }


def format_result(results):
    rows = []
    for component in COMPONENTS:
        entry = results[component]
        paper_solo, paper_corun = PAPER[component]
        rows.append(
            [
                component,
                "%.2f" % entry["solo_us"],
                "%.2f" % entry["corun_us"],
                "%.2f / %.2f" % (paper_solo, paper_corun),
            ]
        )
    return render_table(
        ["component", "solo wait (us)", "co-run wait (us)", "paper solo/co-run"],
        rows,
        title="Table 4a: gmake spinlock waiting time",
    )

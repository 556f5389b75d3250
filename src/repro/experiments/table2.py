"""Table 2 — number of yields, solo vs co-run (w/ swaptions).

The paper's counts (over full benchmark runs on real hardware):

=========  =========  ============
workload   solo       co-run
=========  =========  ============
exim       157,023    24,102,495
gmake      79,440     295,262,662
dedup      290,406    164,578,839
vips       644,643    57,650,538
=========  =========  ============

We reproduce the *structure*: consolidation inflates yield counts by
orders of magnitude. Absolute counts differ (shorter runs, time-model
costs), the solo≪co-run relationship is the result.
"""

from ..metrics.report import render_table
from ..runner import SimJob
from ..sim.time import to_seconds
from . import common

WORKLOADS = ("exim", "gmake", "dedup", "vips")

PAPER = {
    "exim": (157_023, 24_102_495),
    "gmake": (79_440, 295_262_662),
    "dedup": (290_406, 164_578_839),
    "vips": (644_643, 57_650_538),
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
    """Fold ``{tag: RunResult}`` into ``{workload: {"solo": n, "corun":
    n, ...}}``."""
    grouped = {}
    for tag, res in results.items():
        kind, label = tag.rsplit(":", 1)
        grouped.setdefault(kind, {})[label] = res
    out = {}
    for kind, pair in grouped.items():
        solo, corun = pair["solo"], pair["corun"]
        solo_rate = solo.total_yields("vm1") / to_seconds(solo.duration_ns)
        corun_rate = corun.total_yields("vm1") / to_seconds(corun.duration_ns)
        # The paper counts yields over *complete benchmark runs* — a
        # fixed amount of work, not a fixed wall-clock window. The
        # comparable statistic is therefore yields per unit of completed
        # work.
        solo_per_work = solo.total_yields("vm1") / max(solo.workload(kind).progress, 1)
        corun_per_work = corun.total_yields("vm1") / max(corun.workload(kind).progress, 1)
        out[kind] = {
            "solo": solo.total_yields("vm1"),
            "corun": corun.total_yields("vm1"),
            "solo_per_sec": solo_rate,
            "corun_per_sec": corun_rate,
            "solo_per_work": solo_per_work,
            "corun_per_work": corun_per_work,
            "inflation": corun_per_work / solo_per_work
            if solo_per_work
            else float("inf"),
        }
    return out


def claims(results):
    """Table 2's shape, ``{name: bool}``; EXPERIMENTS.md lists the thresholds."""
    out = {}
    for kind in ("dedup", "vips"):
        out["inflation_over_10x:" + kind] = common.claim(lambda: results[kind]["inflation"] > 10)
    for kind in WORKLOADS:
        out["inflation_over_3x:" + kind] = common.claim(lambda: results[kind]["inflation"] > 3)
    return out


def format_result(results):
    rows = []
    for kind in WORKLOADS:
        entry = results[kind]
        paper_solo, paper_corun = PAPER[kind]
        rows.append(
            [
                kind,
                "%.2f" % entry["solo_per_work"],
                "%.2f" % entry["corun_per_work"],
                "%.0fx" % entry["inflation"],
                "%.0fx" % (paper_corun / paper_solo),
            ]
        )
    return render_table(
        [
            "workload",
            "solo yields/unit",
            "co-run yields/unit",
            "inflation",
            "paper inflation (per run)",
        ],
        rows,
        title="Table 2: yields per unit of work, solo vs co-run (w/ swaptions)",
    )

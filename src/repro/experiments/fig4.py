"""Figure 4 — normalized execution time vs number of micro-sliced
cores (gmake, memclone, dedup, vips, each co-run with swaptions).

Paper shapes to reproduce:

* gmake / memclone: one micro-sliced core already yields a large
  improvement; more cores add little (and eventually cost capacity);
* dedup / vips (TLB-shootdown bound): a *single* micro-sliced core is
  counter-productive; two-three cores give the best result (paper:
  +49% / +17% combined throughput at three cores);
* swaptions (the co-runner) degrades mildly as cores are removed from
  the normal pool.
"""

from ..metrics.report import render_table
from ..runner import SimJob, baseline_policy, static_policy
from . import common

WORKLOADS = ("gmake", "memclone", "dedup", "vips")
DEFAULT_CORE_COUNTS = (0, 1, 2, 3, 4, 5, 6)


def plan(seed=42, scale_override=None, workloads=WORKLOADS, core_counts=DEFAULT_CORE_COUNTS):
    """One co-run job per (workload, core count) point."""
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
    """Fold ``{tag: RunResult}`` into ``{workload: {cores: {"target":
    norm_time, "corunner": norm_time, "target_rate": r,
    "corunner_rate": r}}}``, where normalized execution time is
    relative to the 0-core baseline.

    Order-independent: the 0-core baselines are collected in a first
    pass so the result does not depend on the executor returning jobs
    in plan order.
    """
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
            "corunner_rate": corunner_rate,
            "target": common.normalized_time(base_target, target_rate),
            "corunner": common.normalized_time(base_corunner, corunner_rate),
        }
    return out


def best_core_count(per_cores):
    """The core count minimising the target's normalized time."""
    candidates = [(entry["target"], cores) for cores, entry in per_cores.items()
                  if cores > 0 and entry["target"] is not None]
    return min(candidates)[1] if candidates else 0


def claims(results):
    """Figure 4's shape, ``{name: bool}``; EXPERIMENTS.md lists the thresholds."""
    # TLB-bound: one micro core cannot serve eleven shootdown recipients
    # with a one-slot runqueue; three give a clear win.
    out = {
        "vips_gains_at_3_cores": common.claim(lambda: results["vips"][3]["target"] < 0.75),
        "vips_1_core_clearly_worse": common.claim(
            lambda: results["vips"][1]["target"] > results["vips"][3]["target"] + 0.15),
        "dedup_gains_at_3_cores": common.claim(lambda: results["dedup"][3]["target"] < 0.8),
        "dedup_1_core_worse": common.claim(
            lambda: results["dedup"][1]["target"] > results["dedup"][3]["target"]),
    }
    for kind in ("gmake", "memclone"):
        out["improves_within_3_cores:" + kind] = common.claim(
            lambda: min(results[kind][c]["target"] for c in (1, 2, 3)) < 1.0)
    return out


def format_result(results):
    core_counts = sorted(next(iter(results.values())))
    headers = ["workload", "series"] + ["%d cores" % c for c in core_counts]
    rows = []
    for kind, per_cores in results.items():
        rows.append(
            [kind, "norm. time"]
            + [common.ratio_cell(per_cores[c]["target"], "%.2f") for c in core_counts]
        )
        rows.append(
            ["(swaptions)", "norm. time"]
            + [common.ratio_cell(per_cores[c]["corunner"], "%.2f") for c in core_counts]
        )
    return render_table(
        headers,
        rows,
        title="Figure 4: normalized execution time vs #micro-sliced cores "
        "(lower is better; 0 cores = baseline)",
    )

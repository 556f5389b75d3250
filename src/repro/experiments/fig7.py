"""Figure 7 — decomposition of yield events: Baseline / Static /
Dynamic.

The paper's stacked bars show, per workload, how many yields each
scheme produces and their causes (ipi / spinlock / halt / others).
Reproduction targets: the micro-sliced schemes cut the dominant cause
dramatically (IPI-induced yields for the TLB workloads, PLE/spinlock
yields for the lock-bound ones), and overall yields drop well below the
baseline.
"""

from ..hypervisor.stats import YIELD_CAUSES
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
        causes = dict(res.yields_by_cause("vm1"))  # reducers are read-only
        causes["total"] = sum(causes.get(c, 0) for c in YIELD_CAUSES)
        out.setdefault(kind, {})[label] = causes
    return out


def claims(results):
    """Figure 7's shape, ``{name: bool}``; EXPERIMENTS.md lists the thresholds."""
    out = {}
    for kind in ("dedup", "vips"):
        runs = results.get(kind, {})
        out["ipi_dominant:" + kind] = common.claim(
            lambda: runs["baseline"]["ipi"] > runs["baseline"]["spinlock"])
        out["static_cuts_yields:" + kind] = common.claim(
            lambda: runs["static"]["total"] < runs["baseline"]["total"])
    exim = results.get("exim", {}).get("baseline", {})
    out["exim_lock_yields_dwarf_halts"] = common.claim(
        lambda: exim["spinlock"] + exim["ipi"] > exim["halt"])
    return out


def format_result(results):
    rows = []
    for kind, per_scheme in results.items():
        base_total = per_scheme["baseline"]["total"] or 1
        for label in SCHEMES:
            causes = per_scheme[label]
            rows.append(
                [
                    kind if label == "baseline" else "",
                    label[0].upper(),
                    causes.get("ipi", 0),
                    causes.get("spinlock", 0),
                    causes.get("halt", 0),
                    causes.get("other", 0),
                    "%.2f" % (causes["total"] / base_total),
                ]
            )
    return render_table(
        ["workload", "scheme", "ipi", "spinlock", "halt", "other", "vs baseline"],
        rows,
        title="Figure 7: yield decomposition (B: baseline, S: static, D: dynamic)",
    )

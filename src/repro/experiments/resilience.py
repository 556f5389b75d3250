"""Resilience experiment — graceful degradation under fault injection.

Runs the Figure-7 co-run configuration (target workload + swaptions,
dynamic micro-slicing) once healthy and once under every built-in fault
plan, then reports how far each fault degrades the workload and what
the degradation machinery did about it (fallback hits, resends, forced
acks, clamps). Every faulted run must still pass the invariant checker;
a violation fails the experiment rather than producing a quietly
nonsensical table.
"""

from ..faults import builtin_plans, make_builtin
from ..hypervisor.stats import YIELD_CAUSES
from ..metrics.report import render_table
from ..runner import SimJob
from . import common

#: The healthy reference column.
HEALTHY = "healthy"

#: Target workload: dedup is the paper's most IPI-intensive co-run
#: (TLB-shootdown heavy), which exercises every IPI fault path.
WORKLOAD = "dedup"


def plan(seed=42, scale_override=None, workload=WORKLOAD, fault_plans=None):
    warmup = common.warmup(scale_override)
    duration = common.scaled(common.DYNAMIC_DURATION, scale_override)
    horizon = warmup + duration
    names = list(fault_plans) if fault_plans is not None else builtin_plans()
    jobs = [
        SimJob(
            tag=HEALTHY,
            scenario="corun",
            scenario_kwargs={"workload_kind": workload},
            policy=common.scheme_policy("dynamic"),
            seed=seed,
            duration_ns=duration,
            warmup_ns=warmup,
        )
    ]
    for name in names:
        jobs.append(
            SimJob(
                tag=name,
                scenario="corun",
                scenario_kwargs={"workload_kind": workload},
                policy=common.scheme_policy("dynamic"),
                seed=seed,
                duration_ns=duration,
                warmup_ns=warmup,
                faults=make_builtin(name, horizon).to_dict(),
            )
        )
    return jobs


def reduce(results):
    healthy_rate = results[HEALTHY].workload(tag_workload(results[HEALTHY])).rate
    out = {}
    for tag, res in results.items():
        causes = res.yields_by_cause("vm1")
        digest = res.faults or {}
        rate = res.workload(tag_workload(res)).rate
        out[tag] = {
            "rate": rate,
            "vs_healthy": rate / healthy_rate if healthy_rate else 0.0,
            "yields": sum(causes.get(c, 0) for c in YIELD_CAUSES),
            "counters": digest.get("counters", {}),
            "detector": digest.get("detector", {}),
            "controller": digest.get("controller", {}),
            "violations": digest.get("invariant_violations", []),
        }
    return out


def tag_workload(res):
    """The vm1 target-workload key of a result (robust to renames)."""
    for key in res.workloads:
        if key.startswith("vm1:") and not key.endswith("swaptions"):
            return key
    raise KeyError("no vm1 target workload in %r" % sorted(res.workloads))


def format_result(results):
    rows = []
    order = [HEALTHY] + sorted(tag for tag in results if tag != HEALTHY)
    for tag in order:
        entry = results[tag]
        counters = entry["counters"]
        note = ", ".join(
            "%s=%d" % (key, counters[key])
            for key in sorted(counters)
            if not key.startswith(("injected_", "recovered_"))
        )
        rows.append(
            [
                tag,
                "%.1f" % entry["rate"],
                "%.2f" % entry["vs_healthy"],
                entry["yields"],
                len(entry["violations"]),
                note or "-",
            ]
        )
    return render_table(
        ["fault plan", "rate/s", "vs healthy", "yields", "violations", "degradation activity"],
        rows,
        title="Resilience: %s co-run (dynamic) under built-in fault plans" % WORKLOAD,
    )

"""The VTD-mitigation baseline shootout.

The paper's argument is comparative (§2.3, Table 1): micro-sliced cores
beat the *other* known mitigations for virtual-time discontinuity —
co-scheduling, balance scheduling, globally shortened time slices, and
scheduler redesigns like credit2 — because each of those pays a cost
the micro-sliced pool avoids. This experiment makes that argument
reproducible: it co-runs the Table-2 workloads under every registered
scheduler backend (plus the paper's credit+micro-pool scheme) and
renders the trade-off:

* ``shortslice`` shortens every slice, so critical services recover but
  the CPU-bound co-runner pays context-switch/cache tax;
* ``cosched`` gang-runs each VM, cutting sibling-inflicted yields, but
  fragmentation leaves pCPUs gang-idle;
* ``balance`` spreads siblings across distinct pCPUs, trimming
  self-inflicted lock waits, without attacking cross-VM preemption;
* ``credit2`` removes BOOST storms but keeps long slices, so VTD
  symptoms largely remain;
* ``micro_pool`` (credit + the paper's static-best micro-sliced cores)
  improves the target without taxing the co-runner or idling cores.

``reduce()`` stores the paper-shaped ordering as ``checks`` (rendered
under the table); :func:`claims` adds that every scheme ran.
"""

import math

from ..metrics.report import render_table
from ..runner import SimJob, baseline_policy, static_policy
from . import common
from .table2 import WORKLOADS

#: Scheme order (also render order). All but ``micro_pool`` are
#: scheduler backends from the repro.sched registry; ``micro_pool`` is
#: the paper's scheme: default credit backend + static micro-sliced
#: cores (per-workload best, as in Figure 6).
SCHEMES = ("credit", "credit2", "balance", "cosched", "shortslice", "micro_pool")

#: Each scheme/workload cell is co-run twice, once per co-runner kind,
#: because no single co-runner can probe both failure modes:
#:
#: * ``swaptions`` (the paper's fixed co-runner) is pure CPU — the right
#:   probe for the *throughput tax* of shortened slices — but precisely
#:   because it never blocks, no pCPU ever idles, the credit scheduler
#:   never steals or migrates a vCPU, and every vCPU keeps a stable
#:   sibling-disjoint home pCPU forever, which makes balance scheduling
#:   vacuously identical to credit. Shorter slices also *help* a blocky
#:   co-runner (its wakeups reach a pCPU sooner), so the tax is only
#:   visible against a CPU-bound one.
#: * ``memclone`` blocks between phases, so idle pCPUs, work stealing,
#:   and the resulting sibling stacking actually occur — the right
#:   probe for the *contention* metrics (spin yields, lock and
#:   TLB-shootdown waits) that balance and co-scheduling attack.
#:
#: ``reduce()`` takes throughput metrics from the swaptions co-run and
#: contention metrics from the memclone co-run.
CPU_CORUNNER = "swaptions"
BLOCKY_CORUNNER = "memclone"
CORUNNERS = (CPU_CORUNNER, BLOCKY_CORUNNER)


def _scheme_job_fields(scheme, kind):
    """(policy, overrides) for one scheme/workload cell. A backend
    scheme pins its backend, so ``--scheduler`` leaves it alone (the
    ``credit`` column stays the paper's baseline); ``micro_pool`` names
    none and follows ``--scheduler``."""
    if scheme == "micro_pool":
        return static_policy(common.STATIC_BEST.get(kind, 1)), {}
    return baseline_policy(), {"scheduler": scheme}


def plan(seed=42, scale_override=None, schemes=SCHEMES, workloads=WORKLOADS):
    warmup = common.warmup(scale_override)
    duration = common.scaled(common.CORUN_DURATION, scale_override)
    jobs = []
    for scheme in schemes:
        for kind in workloads:
            for corunner in CORUNNERS:
                policy, overrides = _scheme_job_fields(scheme, kind)
                job = SimJob(
                    tag="%s:%s:%s" % (scheme, kind, corunner),
                    scenario="corun",
                    scenario_kwargs={"workload_kind": kind, "corunner_kind": corunner},
                    seed=seed,
                    duration_ns=duration,
                    warmup_ns=warmup,
                    policy=policy,
                    overrides=overrides,
                )
                jobs.append(job)
    return jobs


def _geomean(pairs):
    """Geometric mean of :func:`~repro.experiments.common.improvement`
    over ``(base_rate, rate)`` cells, or None when no cell was measured.
    An unmeasured cell is left out, so it cannot pin the column."""
    ratios = [ratio for ratio in (common.improvement(base, rate) for base, rate in pairs)
              if ratio is not None]
    if not ratios:
        return None
    return math.exp(sum(math.log(v) for v in ratios) / len(ratios))


def _lock_wait(res, domain="vm1"):
    """Count-weighted mean lock wait (ns) across all lock classes."""
    total = 0.0
    count = 0
    for snap in res.lockstats.get(domain, {}).values():
        total += snap["mean"] * snap["count"]
        count += snap["count"]
    return (total / count) if count else 0.0, count


def reduce(results):
    per_cell = {}
    for tag, res in results.items():
        scheme, kind, corunner = tag.rsplit(":", 2)
        entry = per_cell.setdefault(
            (scheme, corunner),
            {
                "target_rates": {},
                "corunner_rates": {},
                "yields": 0,
                "lock_wait_total": 0.0,
                "lock_wait_count": 0,
                "tlb_total": 0.0,
                "tlb_count": 0,
                "gang_idles": 0,
                "steal_ns": 0,
            },
        )
        entry["target_rates"][kind] = res.rate(kind)
        entry["corunner_rates"][kind] = res.rate(corunner)
        entry["yields"] += res.total_yields("vm1")
        mean_wait, wait_count = _lock_wait(res)
        entry["lock_wait_total"] += mean_wait * wait_count
        entry["lock_wait_count"] += wait_count
        tlb = res.tlb_stats.get("vm1", {})
        entry["tlb_total"] += tlb.get("mean", 0.0) * tlb.get("count", 0)
        entry["tlb_count"] += tlb.get("count", 0)
        entry["gang_idles"] += res.hv_counters.get("gang_idle", 0)
        entry["steal_ns"] += res.steal_time("vm1")

    for entry in per_cell.values():
        # Guest-kernel synchronization waits, pooled: spinlock waits and
        # TLB-shootdown completion waits (the initiator spins until every
        # responder has run and acked — a preempted or sibling-stacked
        # responder inflates it exactly like a preempted lock holder).
        entry["sync_total"] = entry["lock_wait_total"] + entry["tlb_total"]
        entry["sync_count"] = entry["lock_wait_count"] + entry["tlb_count"]

    schemes = sorted({scheme for scheme, _ in per_cell})
    out = {}
    for scheme in schemes:
        # Throughput story: vs credit under the paper's CPU-bound
        # co-runner (the only one that exposes the short-slice tax).
        cpu = per_cell.get((scheme, CPU_CORUNNER))
        base = per_cell.get(("credit", CPU_CORUNNER))
        target_x = corunner_x = None
        if cpu is not None and base is not None:
            target_x = _geomean(
                [
                    (base["target_rates"][k], rate)
                    for k, rate in cpu["target_rates"].items()
                    if k in base["target_rates"]
                ]
            )
            corunner_x = _geomean(
                [
                    (base["corunner_rates"][k], rate)
                    for k, rate in cpu["corunner_rates"].items()
                    if k in base["corunner_rates"]
                ]
            )
        # Contention story: under the blocky co-runner, where stealing
        # and sibling stacking actually occur.
        blocky = per_cell.get((scheme, BLOCKY_CORUNNER)) or cpu or {}
        out[scheme] = {
            "target_x": target_x,
            "corunner_x": corunner_x,
            "yields": blocky.get("yields", 0),
            "lock_wait_us": (
                blocky["lock_wait_total"] / blocky["lock_wait_count"] / 1000.0
                if blocky.get("lock_wait_count")
                else 0.0
            ),
            "tlb_sync_us": (
                blocky["tlb_total"] / blocky["tlb_count"] / 1000.0
                if blocky.get("tlb_count")
                else 0.0
            ),
            "sibling_wait_us": (
                blocky["sync_total"] / blocky["sync_count"] / 1000.0
                if blocky.get("sync_count")
                else 0.0
            ),
            "gang_idles": blocky.get("gang_idles", 0),
            "steal_ns": blocky.get("steal_ns", 0),
        }

    out["checks"] = _ordering(out)
    return out


def claims(results):
    """The ordering ``reduce`` stored as ``checks``, plus
    ``all_schemes_ran`` (not rendered), as ``{name: bool}``."""
    return dict(
        results.get("checks", {}),
        all_schemes_ran=all(scheme in results for scheme in SCHEMES),
    )


def _ordering(out):
    """The paper-shaped ordering (§2.3 / Table 1), as booleans. Each key
    names one claimed cost/benefit of a mitigation."""
    checks = {}
    credit = out.get("credit")
    short = out.get("shortslice")
    cosched = out.get("cosched")
    balance = out.get("balance")
    micro = out.get("micro_pool")
    if short:
        # Short slices everywhere tax the CPU-bound co-runner; the
        # micro-sliced pool confines short slices to the cores that
        # need them.
        checks["shortslice_taxes_corunner"] = common.claim(lambda: short["corunner_x"] < 1.0)
    if short and micro:
        checks["micro_pool_spares_corunner"] = common.claim(
            lambda: micro["corunner_x"] > short["corunner_x"]
        )
    if cosched and credit:
        # Gang scheduling removes sibling-inflicted spin/yields but
        # pays in fragmentation (pCPUs deliberately left idle).
        checks["cosched_cuts_yields"] = cosched["yields"] < credit["yields"]
        checks["cosched_gang_idles"] = cosched["gang_idles"] > 0
    if balance and credit:
        # Sibling-disjoint placement trims the waits siblings inflict on
        # each other: a stacked lock holder / shootdown responder sits
        # queued behind its own sibling, so every waiter pays. Judged on
        # the pooled kernel-synchronization wait (spinlock + TLB-sync),
        # not the raw spinlock mean alone — balance raises throughput,
        # and more completed work means more lock acquisitions, which
        # confounds the per-acquisition spinlock mean.
        checks["balance_cuts_sibling_lock_waits"] = (
            balance["sibling_wait_us"] < credit["sibling_wait_us"]
        )
        checks["balance_cuts_spin_yields"] = balance["yields"] < credit["yields"]
    if micro:
        # Only the paper's scheme improves the target workloads without
        # the above costs.
        checks["micro_pool_improves_target"] = common.claim(lambda: micro["target_x"] > 1.0)
        checks["micro_pool_no_gang_idle"] = micro["gang_idles"] == 0
    return checks


def format_result(results):
    rows = []
    for scheme in SCHEMES:
        entry = results.get(scheme)
        if entry is None:
            continue
        rows.append(
            [
                scheme,
                common.ratio_cell(entry["target_x"]),
                common.ratio_cell(entry["corunner_x"]),
                entry["yields"],
                "%.1f" % entry["lock_wait_us"],
                "%.1f" % entry["tlb_sync_us"],
                "%.1f" % entry["sibling_wait_us"],
                entry["gang_idles"],
            ]
        )
    table = render_table(
        [
            "scheme",
            "target vs credit",
            "co-runner vs credit",
            "vm1 yields",
            "lock wait (us)",
            "TLB sync (us)",
            "sibling wait (us)",
            "gang idles",
        ],
        rows,
        title="Baselines: VTD mitigations vs the micro-sliced pool "
        "(geomean over %s; throughput vs %s co-run, contention vs %s co-run)"
        % (", ".join(WORKLOADS), CPU_CORUNNER, BLOCKY_CORUNNER),
    )
    checks = results.get("checks", {})
    lines = [table, "", "paper-shaped ordering:"]
    for name in sorted(checks):
        lines.append("  [%s] %s" % ("OK" if checks[name] else "FAIL", name))
    return "\n".join(lines)

"""Table 1, quantified.

The paper's Table 1 is a qualitative check-mark matrix comparing the
flexible micro-sliced scheme against prior approaches. With simplified
models of those approaches (:mod:`repro.core.comparators`) we can
measure the matrix: each scheme is run on one scenario per symptom
class and scored by improvement over the baseline.

Symptom scenarios:

* **lock holder preemption** — exim + swaptions (spinlock-bound);
* **TLB/IPI synchronisation** — vips + swaptions (shootdown-bound);
* **I/O + CPU mixed** — iPerf+lookbusy vs lookbusy, pinned (Fig 9).

Expected pattern (the paper's claim): vTurbo only helps I/O; vTRS helps
homogeneous vCPUs but not the mixed case; fixed micro-slicing helps the
kernel paths but taxes the CPU-bound co-runner; the paper's scheme
helps all three.
"""

from ..metrics.report import render_table
from ..runner import (
    SimJob,
    baseline_policy,
    static_policy,
    vtrs_policy,
    vturbo_policy,
)
from . import common

SCHEMES = ("baseline", "microsliced", "vturbo", "vtrs", "fixed_uslice")


def _scheme_policy(scheme, micro_cores):
    """Policy descriptor (+ config overrides) for a Table-1 scheme."""
    if scheme == "microsliced":
        return static_policy(micro_cores), {}
    if scheme == "vturbo":
        return vturbo_policy(turbo_cores=1), {}
    if scheme == "vtrs":
        return vtrs_policy(pool_cores=micro_cores), {}
    if scheme == "fixed_uslice":
        # Short-slice-everywhere is a first-class scheduler backend now
        # (repro.sched.shortslice); same model, selected by name.
        return baseline_policy(), {"scheduler": "shortslice"}
    return baseline_policy(), {}


#: (symptom tag, scenario, scenario kwargs, micro cores, duration key)
_SYMPTOMS = (
    ("lock", "corun", {"workload_kind": "exim"}, 1, "corun"),
    ("tlb", "corun", {"workload_kind": "vips"}, 3, "corun"),
    ("io", "mixed_io", {}, 1, "io"),
)


def plan(seed=42, scale_override=None, schemes=SCHEMES):
    warmup = common.warmup(scale_override)
    durations = {
        "corun": common.scaled(common.CORUN_DURATION, scale_override),
        "io": common.scaled(common.IO_DURATION, scale_override),
    }
    jobs = []
    for scheme in schemes:
        for symptom, scenario, kwargs, micro_cores, dkey in _SYMPTOMS:
            policy, overrides = _scheme_policy(scheme, micro_cores)
            jobs.append(
                SimJob(
                    tag="%s:%s" % (scheme, symptom),
                    scenario=scenario,
                    scenario_kwargs=kwargs,
                    policy=policy,
                    overrides=overrides,
                    seed=seed,
                    duration_ns=durations[dkey],
                    warmup_ns=warmup,
                )
            )
    return jobs


def reduce(results):
    out = {}
    for tag, res in results.items():
        scheme, symptom = tag.rsplit(":", 1)
        entry = out.setdefault(scheme, {})
        if symptom == "lock":
            entry["lock"] = res.rate("exim")
            entry["corunner"] = res.rate("swaptions")
        elif symptom == "tlb":
            entry["tlb"] = res.rate("vips")
        elif symptom == "io":
            entry["io"] = res.workload("iperf").extra["throughput_mbps"]
            entry["cotask"] = res.rate("vm1:lookbusy")
    base = out.get(
        "baseline", {"lock": 1, "tlb": 1, "io": 1, "corunner": 1, "cotask": 1}
    )
    for scheme, entry in out.items():
        for key in ("lock", "tlb", "io", "corunner", "cotask"):
            entry[key + "_x"] = common.improvement(base[key], entry[key])
    return out


def claims(results):
    """Table 1's shape, ``{name: bool}``; EXPERIMENTS.md lists the thresholds."""
    ours, fixed, vturbo = (results.get(s, {}) for s in ("microsliced", "fixed_uslice", "vturbo"))
    return {
        "lock_gain": common.claim(lambda: ours["lock_x"] > 1.3),
        "tlb_gain": common.claim(lambda: ours["tlb_x"] > 1.0),
        "io_gain": common.claim(lambda: ours["io_x"] > 1.2),
        "corunner_cost_bounded": common.claim(lambda: ours["corunner_x"] > 0.7),
        "fixed_uslice_taxes_corunner": common.claim(
            lambda: fixed["corunner_x"] < ours["corunner_x"]),
        # vTurbo's static I/O core has no detection mechanism: it helps
        # I/O but not the lock- or TLB-bound cases.
        "vturbo_io_gain": common.claim(lambda: vturbo["io_x"] > 1.2),
        "vturbo_lock_below_ours": common.claim(lambda: vturbo["lock_x"] < ours["lock_x"]),
        "vturbo_tlb_below_ours": common.claim(lambda: vturbo["tlb_x"] < ours["tlb_x"]),
    }


def format_result(results):
    rows = []
    for scheme, entry in results.items():
        rows.append(
            [
                scheme,
                "%.2fx" % entry["lock_x"],
                "%.2fx" % entry["tlb_x"],
                "%.2fx" % entry["io_x"],
                "%.2fx" % entry["corunner_x"],
                "%.2fx" % entry["cotask_x"],
            ]
        )
    return render_table(
        [
            "scheme",
            "lock (exim)",
            "TLB (vips)",
            "mixed I/O (iperf)",
            "co-runner (swaptions)",
            "co-task (lookbusy)",
        ],
        rows,
        title="Table 1 quantified: improvement over baseline per symptom class",
    )

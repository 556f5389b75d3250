#!/usr/bin/env python
"""TLB-shootdown storms and the micro-sliced pool size.

dedup-style workloads unmap shared memory constantly; every unmap must
interrupt all sibling vCPUs and wait for their acknowledgements. Under
2:1 consolidation roughly half the siblings are preempted at any
moment, so a single shootdown stalls for milliseconds (Table 4b of the
paper). This example sweeps the number of micro-sliced cores and prints
both throughput and the measured TLB-synchronisation latency — showing
the paper's Figure 4 effect: one core is *counter-productive* for this
workload class, two-three cores are the sweet spot.

Run:  python examples/tlb_shootdown_storm.py
"""

from repro import baseline_policy, corun_scenario, static_policy
from repro.metrics.report import render_table
from repro.sim.time import ms

DURATION = ms(250)
WARMUP = ms(120)


def run_with_cores(cores):
    policy = baseline_policy() if cores == 0 else static_policy(cores)
    system = corun_scenario("vips", policy=policy, seed=42).build()
    result = system.run(DURATION, warmup_ns=WARMUP)
    tlb = result.tlb_stats["vm1"]
    return {
        "cores": cores,
        "rate": result.rate("vips"),
        "tlb_avg_us": tlb["mean"] / 1000.0 if tlb["count"] else float("nan"),
        "tlb_max_us": tlb["max"] / 1000.0 if tlb["count"] else float("nan"),
        "ipi_yields": result.yields_by_cause("vm1").get("ipi", 0),
    }


def main():
    sweep = [run_with_cores(cores) for cores in (0, 1, 2, 3, 4)]
    base = sweep[0]["rate"]
    rows = [
        [
            entry["cores"],
            int(entry["rate"]),
            "%.2fx" % (entry["rate"] / base if base else 0),
            "%.0f" % entry["tlb_avg_us"],
            "%.0f" % entry["tlb_max_us"],
            entry["ipi_yields"],
        ]
        for entry in sweep
    ]
    print(
        render_table(
            ["micro cores", "vips units/s", "vs baseline", "TLB avg (us)", "TLB max (us)", "ipi yields"],
            rows,
            title="vips + swaptions: TLB shootdown latency vs micro-sliced pool size",
        )
    )
    print(
        "\nOne micro-sliced core cannot serve eleven shootdown targets (its\n"
        "runqueue is capped at one vCPU) while the normal pool lost a core —\n"
        "a net regression. Two-three cores drain the storm and win."
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Quickstart: see the virtual-time-discontinuity problem and the
micro-sliced fix in one minute.

Builds the paper's standard consolidation scenario — a 12-vCPU VM
running the exim mail-server model co-located with a 12-vCPU swaptions
VM on 12 pCPUs — and compares three hypervisor configurations:

* baseline (vanilla credit scheduler),
* static micro-slicing (one dedicated 0.1 ms-slice core),
* dynamic micro-slicing (Algorithm 1 sizes the pool at runtime).

Run:  python examples/quickstart.py
"""

from repro import baseline_policy, corun_scenario, dynamic_policy, static_policy
from repro.experiments import common
from repro.metrics.report import render_table
from repro.sim.time import ms

DURATION = ms(300)
WARMUP = ms(120)


def run_config(label, policy):
    scenario = corun_scenario("exim", policy=policy, seed=42)
    system = scenario.build()
    result = system.run(DURATION, warmup_ns=WARMUP)
    return {
        "label": label,
        "exim": result.rate("exim"),
        "swaptions": result.rate("swaptions"),
        "yields": result.total_yields("vm1"),
        "migrations": result.hv_counters.get("migrations", 0),
        "micro_cores": result.micro_cores,
    }


def main():
    configs = [
        run_config("baseline", baseline_policy()),
        run_config("static (1 core)", static_policy(1)),
        run_config("dynamic", dynamic_policy(epoch_interval=common.DYNAMIC_EPOCH)),
    ]
    base = configs[0]["exim"]
    rows = [
        [
            entry["label"],
            int(entry["exim"]),
            "%.2fx" % (entry["exim"] / base),
            int(entry["swaptions"]),
            entry["yields"],
            entry["migrations"],
        ]
        for entry in configs
    ]
    print(
        render_table(
            ["configuration", "exim msg/s", "vs baseline", "swaptions/s", "yields", "migrations"],
            rows,
            title="exim + swaptions, 2:1 consolidated (EuroSys'18 micro-sliced cores)",
        )
    )
    print(
        "\nThe baseline VM loses most of its throughput to preempted lock\n"
        "holders and delayed IPIs; migrating just the critical OS services\n"
        "to a 0.1 ms-sliced core recovers it at little cost to the\n"
        "co-runner."
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Mixed I/O + CPU vCPUs: the case BOOST cannot help (Figure 9).

VM-1 hosts an iPerf server *and* a CPU hog on the same vCPU; VM-2 hosts
another hog; both vCPUs are pinned to one pCPU. Because VM-1's vCPU is
always runnable, Xen's BOOST never fires for incoming network
interrupts, so packets wait out the co-runner's time slices — tens of
milliseconds of burstiness. The micro-sliced scheme migrates the vIRQ
recipient to a 0.1 ms-sliced core at relay time.

Run:  python examples/mixed_io_latency.py
"""

from repro import mixed_io_scenario, solo_io_scenario, static_policy
from repro.metrics.report import render_table
from repro.sim.time import ms

DURATION = ms(400)
WARMUP = ms(100)


def run_case(label, scenario):
    result = scenario.build().run(DURATION, warmup_ns=WARMUP)
    io = result.workload("iperf").extra
    return [
        label,
        "%.0f" % io["throughput_mbps"],
        "%.4f" % io["jitter_ms"],
        "%.2f" % io["max_transit_ms"],
        io["dropped"],
    ]


def main():
    for mode in ("tcp", "udp"):
        rows = [
            run_case("solo", solo_io_scenario(mode=mode, seed=42)),
            run_case("mixed baseline", mixed_io_scenario(mode=mode, seed=42)),
            run_case(
                "mixed + micro-sliced",
                mixed_io_scenario(mode=mode, policy=static_policy(1), seed=42),
            ),
        ]
        print(
            render_table(
                ["config", "bandwidth (Mbps)", "jitter (ms)", "max transit (ms)", "drops"],
                rows,
                title="%s over 1 GbE, iPerf sharing its vCPU with lookbusy" % mode.upper(),
            )
        )
        print()


if __name__ == "__main__":
    main()

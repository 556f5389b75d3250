#!/usr/bin/env python
"""Watch Algorithm 1 size the micro-sliced pool at runtime.

A dedup-model VM (TLB-shootdown storms: IPI-dominant urgent events)
shares the host with swaptions. The adaptive controller profiles
urgent-event counts in 10 ms windows while sweeping the pool size, then
commits to the best configuration for a run phase. This example prints
the controller's decision timeline and the per-phase event counts it
based them on.

Run:  python examples/adaptive_sizing.py
"""

from repro import corun_scenario, dynamic_policy
from repro.metrics.report import render_table
from repro.metrics.timeline import TimelineSampler, standard_probes
from repro.sim.time import fmt, ms

DURATION = ms(600)


def main():
    scenario = corun_scenario(
        "dedup",
        policy=dynamic_policy(epoch_interval=ms(200)),
        seed=42,
    )
    system = scenario.build()
    sampler = standard_probes(TimelineSampler(system.sim, period=ms(5)), system.hv)
    sampler.start()
    result = system.run(DURATION)
    controller = system.hv.policy.controller

    rows = [[fmt(when), cores] for when, cores in controller.decisions]
    print(render_table(["time", "micro cores"], rows,
                       title="Adaptive controller decisions (dedup + swaptions)"))

    profile_rows = [
        [cores, events["ipi"], events["ple"], events["irq"]]
        for cores, events in sorted(controller.ur_events.items())
    ]
    print()
    print(render_table(
        ["profiled cores", "ipi yields", "ple yields", "virqs"],
        profile_rows,
        title="Urgent events per 10 ms profile window (last sweep)",
    ))
    print("\nFinal pool size: %d micro-sliced core(s); dedup completed %d units."
          % (result.micro_cores, result.workload("dedup").progress))
    pool = sampler["micro_cores"]
    print("Micro-pool size over time: mean %.2f, peak %d (sampled every 5 ms)."
          % (pool.mean(), pool.max()))
    print("Blocked vCPUs peaked at %d of 24 — the stalled shootdown"
          " participants the pool exists to rescue." % sampler["blocked_vcpus"].max())


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Define a custom workload against the public API.

The model below is a toy key-value store: worker threads serve requests
(user compute + a dentry-lock critical section for the index), and a
compaction thread periodically rewrites its arena (munmap → TLB
shootdown across all vCPUs). The example runs it consolidated against
swaptions, with and without dynamic micro-slicing.

This is the template for porting your own application profile: override
``_build`` to spawn tasks, and write each task as a generator of
primitive actions / guest-kernel composites.

Run:  python examples/custom_workload.py
"""

from repro import baseline_policy, dynamic_policy
from repro.experiments import common
from repro.experiments.scenarios import Scenario
from repro.guest import mm
from repro.guest.actions import Compute
from repro.guest.spinlock import DENTRY
from repro.metrics.report import render_table
from repro.sim.time import ms, us
from repro.workloads.base import Workload


class KvStoreWorkload(Workload):
    """Toy LSM-ish store: lock-bound serving + periodic compaction."""

    kind = "kvstore"

    def __init__(self, name=None, serve_us=60.0, index_hold_us=2.0, compact_every=500):
        super().__init__(name=name)
        self.serve_ns = us(serve_us)
        self.index_hold_ns = us(index_hold_us)
        self.compact_every = compact_every

    def _build(self, domain, rng_hub):
        for index, vcpu in enumerate(domain.vcpus[:-1]):
            rng = rng_hub.stream("%s.worker.%d" % (self.name, index))
            self.spawn(vcpu, lambda r=rng: self._worker(domain, r), "worker%d" % index)
        self.spawn(domain.vcpus[-1], lambda: self._compactor(domain), "compactor")

    def _worker(self, domain, rng):
        kernel = domain.kernel
        index_lock = kernel.lock(DENTRY, instance="kv-index")
        while True:
            burst = int(self.serve_ns * (0.5 + rng.random()))
            yield Compute(burst)                                  # request parsing
            yield from kernel.lock_section(index_lock, self.index_hold_ns)
            self.tick()

    def _compactor(self, domain):
        kernel = domain.kernel
        while True:
            yield Compute(self.compact_every * us(1))             # build new segment
            yield from mm.munmap(kernel)                          # drop the old arena
            yield from mm.mmap(kernel)


def run_config(label, policy):
    scenario = Scenario(name="kvstore-demo", policy=policy, seed=7)
    scenario.add_vm("kv", vcpus=12).add_instance(KvStoreWorkload())
    scenario.add_vm("noise", vcpus=12).add("swaptions")
    result = scenario.build().run(ms(300), warmup_ns=ms(120))
    return [
        label,
        int(result.rate("kvstore")),
        result.total_yields("kv"),
        result.hv_counters.get("migrations", 0),
    ]


def main():
    rows = [
        run_config("baseline", baseline_policy()),
        run_config(
            "dynamic micro-slicing",
            dynamic_policy(epoch_interval=common.DYNAMIC_EPOCH),
        ),
    ]
    print(render_table(
        ["configuration", "requests/s", "yields", "migrations"],
        rows,
        title="Custom workload (toy KV store) under consolidation",
    ))


if __name__ == "__main__":
    main()

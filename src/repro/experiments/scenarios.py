"""Scenario construction.

A :class:`Scenario` declares the consolidated host of one experiment:
topology, VMs with their workloads and pinning, scheduler parameters,
and the micro-slicing policy. ``build()`` wires everything into a
runnable :class:`System`.

The paper's standard configuration — one 12-pCPU socket hosting two
12-vCPU VMs (2:1 overcommit), the target workload in VM-1 and
``swaptions`` in VM-2 — is available through :func:`corun_scenario`;
:func:`solo_scenario` drops the co-runner; :func:`mixed_io_scenario`
reproduces the Figure 9 pinned single-vCPU setup.
"""

from dataclasses import dataclass, field

from ..hw.costs import CostModel
from ..hw.ple import PleConfig
from ..hypervisor.hypervisor import Hypervisor
from ..runner.jobs import DEFAULT_MICRO_SLICE, DEFAULT_PV_SPIN_ROUNDS, DEFAULT_SCHEDULER
from ..runner.jobs import baseline_policy, install_policy
from ..sim.rng import RngHub
from ..sim.engine import Simulator
from ..sim.trace import Tracer
from ..workloads import registry
from ..workloads.base import Workload
from .results import RunResult


@dataclass
class WorkloadSpec:
    """A workload by registry name plus overrides, or a prebuilt
    instance."""

    kind: str = ""
    kwargs: dict = field(default_factory=dict)
    instance: Workload = None

    def build(self):
        if self.instance is not None:
            return self.instance
        return registry.create(self.kind, **self.kwargs)


@dataclass
class VmSpec:
    """One virtual machine."""

    name: str
    vcpus: int = 12
    workloads: list = field(default_factory=list)  # of WorkloadSpec
    weight: int = 256
    pin_to: tuple = None  # pCPU indices, or None

    def add(self, kind, **kwargs):
        self.workloads.append(WorkloadSpec(kind=kind, kwargs=kwargs))
        return self

    def add_instance(self, workload):
        self.workloads.append(WorkloadSpec(instance=workload))
        return self


@dataclass
class Scenario:
    """A full experiment configuration. ``policy`` is a job policy dict
    (baseline by default) that ``build()`` installs through
    :data:`repro.runner.jobs.POLICY_MODES`, after the workloads and
    before the fault injector."""

    name: str = "scenario"
    num_pcpus: int = 12
    vms: list = field(default_factory=list)
    policy: dict = field(default_factory=baseline_policy)
    seed: int = 42
    #: Normal-pool scheduler backend name (repro.sched registry).
    scheduler: str = DEFAULT_SCHEDULER
    micro_slice: int = DEFAULT_MICRO_SLICE
    costs: CostModel = None
    ple: PleConfig = None
    pv_spin_rounds: int = DEFAULT_PV_SPIN_ROUNDS
    trace: bool = False
    trace_kinds: tuple = None   # None = all kinds; traces are lossless
    #: Fault plan (a FaultPlan or its dict form) or None. Resolution of
    #: builtin names / files happens in the CLI and runner layers, which
    #: know the run horizon; by build time this is a concrete plan.
    faults: object = None

    def add_vm(self, name, vcpus=12, weight=256, pin_to=None):
        spec = VmSpec(name=name, vcpus=vcpus, weight=weight, pin_to=pin_to)
        self.vms.append(spec)
        return spec

    def build(self):
        sim = Simulator()
        tracer = Tracer(sim, enabled=self.trace, kinds=self.trace_kinds)
        hv = Hypervisor(
            sim,
            num_pcpus=self.num_pcpus,
            costs=self.costs,
            ple=self.ple,
            scheduler=self.scheduler,
            micro_slice=self.micro_slice,
            pv_spin_rounds=self.pv_spin_rounds,
            tracer=tracer,
            seed=self.seed,
        )
        hub = RngHub(self.seed)
        workloads = {}
        for vm_spec in self.vms:
            domain = hv.create_domain(vm_spec.name, vm_spec.vcpus, weight=vm_spec.weight)
            if vm_spec.pin_to is not None:
                domain.pin_all(vm_spec.pin_to)
            for wl_spec in vm_spec.workloads:
                workload = wl_spec.build()
                workload.install(domain, hub)
                workloads["%s:%s" % (domain.name, workload.name)] = workload
        install_policy(hv, self.policy)
        if self.faults is not None:
            from ..faults import FaultInjector, FaultPlan

            plan = self.faults
            if not isinstance(plan, FaultPlan):
                plan = FaultPlan.from_dict(plan)
            if not plan.empty:
                FaultInjector(plan, seed=self.seed).install(hv)
        return System(self, sim, hv, workloads, tracer)


class System:
    """A built scenario, ready to run."""

    def __init__(self, scenario, sim, hv, workloads, tracer):
        self.scenario = scenario
        self.sim = sim
        self.hv = hv
        self.workloads = workloads
        self.tracer = tracer
        self._started = False

    def run(self, duration_ns, warmup_ns=0):
        """Run the simulation for ``warmup_ns`` (discarded), reset the
        measurement state, then run ``duration_ns`` and collect."""
        if not self._started:
            self.hv.start()
            self._started = True
        if warmup_ns:
            self.sim.run(until=self.sim.now + warmup_ns)
            self.reset_measurements()
        target = self.sim.now + duration_ns
        self.sim.run(until=target)
        return self.result(duration_ns)

    def reset_measurements(self):
        """Zero all measured state (workload progress, counters, latency
        stats) without disturbing execution state."""
        for workload in self.workloads.values():
            workload.reset_progress()
        self.hv.stats.counters.reset()
        for domain in self.hv.domains:
            domain.counters.reset()
            domain.kernel.lockstat = type(domain.kernel.lockstat)()
            tlb = domain.kernel.tlb
            tlb.sync_latency = type(tlb.sync_latency)(name=tlb.sync_latency.name)
        for pcpu in self.hv.pcpus:
            pcpu.busy_ns = 0
        self.hv.histograms.reset()
        now = self.sim.now
        for domain in self.hv.domains:
            for vcpu in domain.vcpus:
                vcpu.runstate.reset(now)
        self.tracer.clear()

    def result(self, duration_ns):
        return RunResult.collect(self, duration_ns)


# ----------------------------------------------------------------------
# canned configurations
# ----------------------------------------------------------------------
def solo_scenario(workload_kind, policy=None, vcpus=12, num_pcpus=12, seed=42, **wl_kwargs):
    """One VM alone on the host (the paper's ``solo``)."""
    scenario = Scenario(
        name="solo:%s" % workload_kind,
        num_pcpus=num_pcpus,
        policy=policy or baseline_policy(),
        seed=seed,
    )
    scenario.add_vm("vm1", vcpus=vcpus).add(workload_kind, **wl_kwargs)
    return scenario


def corun_scenario(
    workload_kind,
    policy=None,
    corunner_kind="swaptions",
    vcpus=12,
    num_pcpus=12,
    seed=42,
    **wl_kwargs,
):
    """Two 12-vCPU VMs on 12 pCPUs: the target plus a co-runner
    (the paper's ``co-run`` 2:1 overcommit)."""
    scenario = Scenario(
        name="corun:%s+%s" % (workload_kind, corunner_kind),
        num_pcpus=num_pcpus,
        policy=policy or baseline_policy(),
        seed=seed,
    )
    scenario.add_vm("vm1", vcpus=vcpus).add(workload_kind, **wl_kwargs)
    scenario.add_vm("vm2", vcpus=vcpus).add(corunner_kind)
    return scenario


def mixed_io_scenario(policy=None, mode="tcp", num_pcpus=12, seed=42, **iperf_kwargs):
    """Figure 9: VM-1 runs iPerf + lookbusy on one vCPU, VM-2 runs
    lookbusy on one vCPU, both pinned to the same pCPU."""
    scenario = Scenario(
        name="mixed_io:%s" % mode,
        num_pcpus=num_pcpus,
        policy=policy or baseline_policy(),
        seed=seed,
    )
    vm1 = scenario.add_vm("vm1", vcpus=1, pin_to=(0,))
    vm1.add("iperf", mode=mode, **iperf_kwargs)
    vm1.add("lookbusy")
    scenario.add_vm("vm2", vcpus=1, pin_to=(0,)).add("lookbusy")
    return scenario


def fleet_host_scenario(domains=(), policy=None, num_pcpus=12, seed=42):
    """One fleet host: a VM per resident session domain.

    ``domains`` is a sequence of ``{"name", "workload", "vcpus"}``
    specs as compiled by :mod:`repro.fleet.cluster` — each becomes an
    unpinned VM running one workload from the registry, scheduled by
    the normal credit pool on ``num_pcpus`` cores. The builder is
    deliberately dumb: all placement intelligence lives in the fleet
    layer, and a host job must be a pure function of its spec so the
    result cache can replay it.
    """
    scenario = Scenario(
        name="fleet_host:%d" % len(domains),
        num_pcpus=num_pcpus,
        policy=policy or baseline_policy(),
        seed=seed,
    )
    for spec in domains:
        vm = scenario.add_vm(spec["name"], vcpus=int(spec.get("vcpus", 1)))
        vm.add(spec["workload"])
    return scenario


def solo_io_scenario(policy=None, mode="tcp", num_pcpus=12, seed=42, **iperf_kwargs):
    """Table 4c's solo bound: the iPerf VM alone (no hog sharing its
    pCPU)."""
    scenario = Scenario(
        name="solo_io:%s" % mode,
        num_pcpus=num_pcpus,
        policy=policy or baseline_policy(),
        seed=seed,
    )
    scenario.add_vm("vm1", vcpus=1, pin_to=(0,)).add("iperf", mode=mode, **iperf_kwargs)
    return scenario

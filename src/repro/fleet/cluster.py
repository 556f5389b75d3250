"""The sharded multi-host fleet simulator.

One :class:`FleetSpec` describes a datacenter slice: N hosts (each the
paper's consolidated 12-pCPU box), an open-arrival session stream
(:mod:`repro.fleet.arrivals`), a placement policy
(:mod:`repro.fleet.placement`), and an epoch length. The fleet runs as
a sequence of **epochs**:

1. sessions that completed their hold depart and free capacity;
2. the policy may *rebalance* — live-migrate domains between hosts,
   paying the configured migration cost;
3. sessions that arrived during the previous epoch interval are
   admitted (or rejected when no host has capacity) and placed;
4. every host with resident domains compiles to one ordinary
   :class:`~repro.runner.jobs.SimJob` (scenario ``fleet_host``) and
   the whole wave goes to the caller's ``execute`` — normally
   :func:`repro.runner.execute_many` with its settings bound — so the
   result cache, the cost-model LPT dispatch, the persistent pool, and
   run telemetry all apply to fleet runs for free;
5. each host's :class:`~repro.experiments.results.RunResult` feeds
   back: vIRQ-delivery histograms merge into the fleet-wide tail,
   per-host utilization accumulates, and the guest runstate snapshots
   become the steal-fraction signal the ``steal_aware`` policy (and
   the ``fleet.host.<i>.steal_pct`` telemetry gauges) consume.

Determinism: the arrival trace, the placement RNG, and every host's
simulation seed derive from the fleet seed through
:func:`repro.sim.rng.split_seeds` / named streams, and all aggregation
iterates in sorted order — so serial, pooled, and cache-replay runs of
the same spec produce **byte-identical** summaries
(:func:`summary_json`).

Model limits, stated honestly: hosts are re-built each epoch (no guest
state carries over a boundary — each epoch is a steady-state sample,
which is also what makes host jobs cacheable), and a live migration is
modelled as control-plane downtime (the domain keeps running in the
destination host's next epoch; its session is charged
``min(migration_cost, epoch)`` of downtime and, if the cost exceeds an
epoch, it sits the next epoch out entirely).
"""

import dataclasses
import random

from ..errors import ConfigError
from ..metrics.histogram import Histogram
from ..obs import telemetry
from ..obs.runstate import steal_fraction, steal_report
from ..runner import SimJob, baseline_policy
from ..runner.jobs import DEFAULT_SCHEDULER, apply_options, is_finite, is_int
from ..sim.rng import derive_seed, split_seeds
from ..sim.time import ms
from . import arrivals, placement

#: Telemetry: fleet-level orchestration counters (deterministic for a
#: given spec; they accumulate across policies in a comparison run).
_ARRIVED = telemetry.counter("fleet.sessions_arrived")
_ADMITTED = telemetry.counter("fleet.sessions_admitted")
_REJECTED = telemetry.counter("fleet.sessions_rejected")
_MIGRATIONS = telemetry.counter("fleet.migrations")
_EPOCHS = telemetry.counter("fleet.epochs")
_HOST_JOBS = telemetry.counter("fleet.host_jobs")


@dataclasses.dataclass
class FleetSpec:
    """One fleet configuration (shared by every policy under test).

    Its field defaults are the fleet's only defaults (steady-state
    demand at ~80% of fleet pCPU capacity: enough for stacking to show
    in the tail, little enough for an informed policy to keep every
    host uncontended), and construction enforces its knobs' rules and
    stores the number knobs as floats."""

    hosts: int = 6
    pcpus: int = 12
    #: Admission cap as a multiple of pCPUs (2.0 = the paper's 2:1).
    overcommit: float = 2.0
    epochs: int = 6
    #: Expected session arrivals per epoch (offered load λ).
    rate: float = 24.0
    #: Simulated epoch length before scaling.
    epoch_ms: int = 250
    seed: int = 42
    #: Live-migration cost at scale 1.0; scales with the realized epoch.
    migration_cost_ms: float = 5.0
    #: Duration multiplier (None = REPRO_BENCH_SCALE or 1.0).
    scale: float = None
    #: Host-level micro-slicing policy descriptor (runner job policy);
    #: None = baseline credit.
    host_policy: dict = None
    #: Normal-pool scheduler backend override for every host.
    scheduler: str = None

    def __post_init__(self):
        for name, rule, ok in (
            ("hosts", "an integer >= 1", is_int(self.hosts, 1)),
            ("epochs", "an integer >= 1", is_int(self.epochs, 1)),
            ("rate", "a finite number > 0", is_finite(self.rate) and self.rate > 0),
            ("overcommit", "a finite number > 0",
             is_finite(self.overcommit) and self.overcommit > 0),
            ("migration_cost_ms", "a finite number >= 0",
             is_finite(self.migration_cost_ms) and self.migration_cost_ms >= 0),
        ):
            if not ok:
                raise ConfigError("fleet %r must be %s, got %r" % (name, rule, getattr(self, name)))
        # One type per knob, so `16` and `16.0` are the same fleet and
        # render the same summary at every front door.
        self.rate = float(self.rate)
        self.overcommit = float(self.overcommit)
        self.migration_cost_ms = float(self.migration_cost_ms)

    @property
    def capacity(self):
        """Per-host admission cap in vCPUs."""
        return max(1, int(self.pcpus * self.overcommit))

    def epoch_ns(self):
        """The realized simulated epoch length (scaled, 10 ms floor)."""
        from ..experiments import common  # lazy: avoids an import cycle

        return common.scaled(ms(self.epoch_ms), self.scale)

    def migration_cost_ns(self):
        """Migration cost scaled by the same factor the epoch realized
        (so cost/epoch semantics are stable across ``--scale``)."""
        nominal = ms(self.epoch_ms)
        realized = self.epoch_ns()
        return int(ms(self.migration_cost_ms) * realized / nominal)


class FleetState:
    """One placement policy's fleet, evolved epoch by epoch."""

    def __init__(self, spec, policy_name):
        self.spec = spec
        self.policy_name = policy_name
        rng = random.Random(derive_seed(spec.seed, "fleet:placement:%s" % policy_name))
        self.policy = placement.get(policy_name)(rng=rng)
        self.sessions = arrivals.generate(spec.seed, spec.rate, spec.epochs)
        seeds = split_seeds(spec.seed, ["host:%d" % i for i in range(spec.hosts)])
        self.host_seeds = [seeds["host:%d" % i] for i in range(spec.hosts)]
        self.hosts = [
            placement.HostView(i, spec.pcpus, spec.capacity)
            for i in range(spec.hosts)
        ]
        self._by_epoch = {}
        for session in self.sessions:
            self._by_epoch.setdefault(session.epoch, []).append(session)
        #: sid -> [session, host_index, remaining_epochs, sit_out]
        self.resident = {}
        self.counts = {
            "arrived": 0,
            "admitted": 0,
            "rejected": 0,
            "completed": 0,
        }
        self.migrations = 0
        self.migration_downtime_ns = 0
        self.virq = Histogram(name="virq_delivery")
        self.host_util = [[] for _ in range(spec.hosts)]
        self.host_steal = [[] for _ in range(spec.hosts)]
        self.host_peak = [0] * spec.hosts
        self.density = []
        self.jobs_planned = 0

    # -- epoch loop ----------------------------------------------------
    def plan_epoch(self, epoch):
        """Depart, rebalance, admit, and compile this epoch's host jobs."""
        self._depart()
        if epoch > 0:
            self._rebalance()
        self._admit(epoch)
        return self._compile(epoch)

    def _depart(self):
        for sid in sorted(self.resident):
            session, host_index, remaining, _sit_out = self.resident[sid]
            if remaining <= 0:
                self.hosts[host_index].load -= session.vcpus
                del self.resident[sid]
                self.counts["completed"] += 1

    def _rebalance(self):
        cost = self.spec.migration_cost_ns()
        epoch_ns = self.spec.epoch_ns()
        moves = self.policy.rebalance(self.hosts, cost)
        by_name = {entry[0].name: sid for sid, entry in self.resident.items()}
        for name, src, dst in moves:
            sid = by_name.get(name)
            if sid is None:
                continue
            entry = self.resident[sid]
            session = entry[0]
            if entry[1] != src or not self.hosts[dst].fits(session.vcpus):
                continue
            self.hosts[src].load -= session.vcpus
            self.hosts[dst].load += session.vcpus
            entry[1] = dst
            entry[3] = cost >= epoch_ns  # blackout: sits the epoch out
            self.migrations += 1
            _MIGRATIONS.inc()
            self.migration_downtime_ns += min(cost, epoch_ns)

    def _admit(self, epoch):
        for session in self._by_epoch.get(epoch, ()):
            self.counts["arrived"] += 1
            _ARRIVED.inc()
            host = self.policy.place(session, self.hosts)
            if host is None:
                self.counts["rejected"] += 1
                _REJECTED.inc()
                continue
            self.counts["admitted"] += 1
            _ADMITTED.inc()
            host.load += session.vcpus
            self.resident[session.sid] = [session, host.index, session.hold, False]

    def _compile(self, epoch):
        spec = self.spec
        epoch_ns = spec.epoch_ns()
        by_host = {}
        for sid in sorted(self.resident):
            session, host_index, _remaining, sit_out = self.resident[sid]
            if sit_out:
                continue
            by_host.setdefault(host_index, []).append(session)
        jobs = []
        for host_index in sorted(by_host):
            sessions = by_host[host_index]
            domains = [
                {"name": s.name, "workload": s.workload, "vcpus": s.vcpus}
                for s in sessions
            ]
            jobs.append(
                SimJob(
                    tag="e%02d.h%02d" % (epoch, host_index),
                    scenario="fleet_host",
                    scenario_kwargs={"domains": domains, "num_pcpus": spec.pcpus},
                    seed=self.host_seeds[host_index],
                    duration_ns=epoch_ns,
                    policy=dict(spec.host_policy) if spec.host_policy else baseline_policy(),
                )
            )
            apply_options(jobs[-1], scheduler=spec.scheduler)
        self.jobs_planned += len(jobs)
        _HOST_JOBS.inc(len(jobs))
        self.density.append(
            sum(host.load for host in self.hosts) / float(spec.hosts * spec.pcpus)
        )
        for host in self.hosts:
            if host.load > self.host_peak[host.index]:
                self.host_peak[host.index] = host.load
        return jobs

    def absorb(self, epoch, by_tag):
        """Fold one epoch's host results back into the fleet state."""
        _EPOCHS.inc()
        for host in self.hosts:
            tag = "e%02d.h%02d" % (epoch, host.index)
            result = by_tag.get(tag)
            if result is None:
                self.host_util[host.index].append(0.0)
                host.steal_pct = None if host.steal_pct is None else 0.0
                host.domains = {}
                continue
            snap = result.histograms.get("virq_delivery")
            if snap:
                self.virq.merge(Histogram.from_snapshot(snap))
            self.host_util[host.index].append(result.utilization)
            report = steal_report(result)
            domains = {
                name: {
                    "steal_ns": report[name]["runnable"],
                    "vcpus": len(result.runstates[name]),
                }
                for name in report
            }
            steal_pct = steal_fraction(
                {
                    "runnable": sum(r["runnable"] for r in report.values()),
                    "elapsed": sum(r["elapsed"] for r in report.values()),
                }
            )
            host.steal_pct = steal_pct
            host.domains = domains
            self.host_steal[host.index].append(steal_pct)
            telemetry.gauge("fleet.host.%d.steal_pct" % host.index).set(steal_pct)
        # Sessions that served this epoch burn one hold epoch; a
        # blacked-out (migrating) session made no progress and serves
        # an extra epoch instead.
        for sid in sorted(self.resident):
            entry = self.resident[sid]
            if entry[3]:
                entry[3] = False
            else:
                entry[2] -= 1

    # -- reporting -----------------------------------------------------
    def summary(self):
        """The policy's fleet summary: JSON-native, wall-clock-free,
        byte-identical across serial / pooled / cache-replay runs."""
        spec = self.spec
        self._depart()  # retire sessions that finished in the last epoch
        hosts = []
        for index in range(spec.hosts):
            util = self.host_util[index]
            steal = self.host_steal[index]
            hosts.append(
                {
                    "host": index,
                    "utilization": sum(util) / len(util) if util else 0.0,
                    "steal_pct": sum(steal) / len(steal) if steal else 0.0,
                    "peak_vcpus": self.host_peak[index],
                    "epochs_active": len(steal),
                }
            )
        utils = [entry["utilization"] for entry in hosts]
        virq = self.virq.snapshot()
        return {
            "policy": self.policy_name,
            "config": {
                "hosts": spec.hosts,
                "pcpus": spec.pcpus,
                "capacity_vcpus": spec.capacity,
                "epochs": spec.epochs,
                "rate_per_epoch": spec.rate,
                "epoch_ns": spec.epoch_ns(),
                "migration_cost_ns": spec.migration_cost_ns(),
                "seed": spec.seed,
                "scheduler": spec.scheduler or DEFAULT_SCHEDULER,
            },
            "sessions": {
                "arrived": self.counts["arrived"],
                "admitted": self.counts["admitted"],
                "rejected": self.counts["rejected"],
                "completed": self.counts["completed"],
                "active_at_end": len(self.resident),
            },
            "migrations": {
                "count": self.migrations,
                "downtime_ns": self.migration_downtime_ns,
            },
            "virq": {
                "count": virq["count"],
                "mean_ns": virq["mean"],
                "p50_ns": virq["p50"],
                "p95_ns": virq["p95"],
                "p99_ns": virq["p99"],
                "max_ns": virq["max"],
            },
            "utilization": {
                "mean": sum(utils) / len(utils) if utils else 0.0,
                "max": max(utils) if utils else 0.0,
            },
            "packing": {
                "mean_density": (
                    sum(self.density) / len(self.density) if self.density else 0.0
                ),
                "peak_density": max(self.density) if self.density else 0.0,
            },
            "jobs_planned": self.jobs_planned,
        }


def run_fleet(spec, policies, execute):
    """Run one fleet spec under one or more placement policies.

    Returns ``{policy_name: summary_dict}``. ``execute(plans)`` is
    :func:`~repro.runner.execute_many` with its settings (workers,
    cache, progress, pool, cache directory) bound by the caller. All
    policies advance in lockstep: every epoch, the per-policy host jobs
    batch through a single ``execute`` call, so they share one worker
    pool and one cache probe — and physically identical host jobs
    (policies often coincide in early epochs) simulate once.
    """
    names = list(dict.fromkeys(policies))
    for name in names:
        placement.get(name)  # unknown policy fails before any simulation
    states = {name: FleetState(spec, name) for name in names}
    for epoch in range(spec.epochs):
        plans = {}
        for name in names:
            jobs = states[name].plan_epoch(epoch)
            if jobs:
                plans[name] = jobs
        by_plan = execute(plans) if plans else {}
        for name in names:
            states[name].absorb(epoch, by_plan.get(name, {}))
    return {name: states[name].summary() for name in names}


def summary_json(summaries):
    """Canonical byte-stable JSON for a ``run_fleet`` result (the form
    the determinism tests and the CI re-run assertion compare)."""
    import json

    return json.dumps(summaries, sort_keys=True, indent=2) + "\n"

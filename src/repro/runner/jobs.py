"""Self-describing simulation jobs.

A :class:`SimJob` is a picklable, JSON-serializable description of one
simulation point: which canned scenario to build (by name), with which
workload kwargs, which policy, seed, duration, and warmup. Experiment
modules emit SimJobs from their ``plan()``; the executor materialises
them — in this process or in a worker process — with :func:`run_job`;
each experiment's ``reduce()`` then folds the hydrated results back
into its result shape.

Jobs deliberately carry *descriptions*, not live objects: a worker
process rebuilds the scenario from the spec, which keeps jobs cheap to
pickle under the ``spawn`` start method and gives the result cache a
canonical identity to hash.

Everything in this module is import-light (stdlib only at module
scope); the scenario/policy machinery is imported lazily inside
:func:`build_system` so ``repro.runner`` never participates in an
import cycle with ``repro.experiments``.
"""

import dataclasses
import inspect
import json
import time

from ..errors import ConfigError, FaultError
from ..obs import telemetry

#: Engine telemetry: simulated-event and wall-time totals per job,
#: accumulated wherever the job actually ran (worker registries stream
#: back to the parent over the result pipe).
_JOBS_SIMULATED = telemetry.counter("engine.jobs_simulated")
_EVENTS_SIMULATED = telemetry.counter("engine.events_simulated")
_JOB_WALL_SECONDS = telemetry.counter("engine.job_wall_seconds")
#: Micro-pool acceleration attempts and the ones that migrated; their
#: ratio is how often a yield's accelerations find a free micro slot.
_ACCELERATE_ATTEMPTS = telemetry.counter("engine.accelerate_attempts")
_ACCELERATE_MIGRATIONS = telemetry.counter("engine.accelerate_migrations")
#: Critical-service detector inspections and the critical answers among
#: them (0 under a policy without a detector).
_INSPECTIONS = telemetry.counter("engine.inspections")
_INSPECTION_HITS = telemetry.counter("engine.inspection_hits")
#: Fault-free jobs whose finished system passed every invariant of
#: :mod:`repro.faults.invariants` (a violation raises instead).
_INVARIANT_CHECKS = telemetry.counter("engine.invariant_checks")

#: Policy modes understood by :func:`build_system`, each with the
#: fields it requires (the rest have defaults). ``baseline``/``static``/
#: ``dynamic`` map onto :class:`~repro.core.policy.PolicySpec`;
#: ``vturbo``/``vtrs`` are the Table-1 comparator schemes installed
#: post-build; ``yield_only`` is the ablation engine with the relay
#: hooks disabled.
POLICY_MODES = {
    "baseline": (),
    "static": ("micro_cores",),
    "dynamic": (),
    "vturbo": (),
    "vtrs": (),
    "yield_only": (),
}

#: Scenario overrides: job override name → the scenario attribute
#: :func:`build_system` sets (``ple_window`` is wrapped in a
#: :class:`~repro.hw.ple.PleConfig` first).
_OVERRIDES = {
    "scheduler": "scheduler",
    "micro_slice": "micro_slice",
    "ple_window": "ple",
    "pv_spin_rounds": "pv_spin_rounds",
}

#: The normal-pool backend a job runs under when its overrides name
#: none (Xen credit1, the paper's baseline). An override naming it
#: spells the same simulation, so :meth:`SimJob.spec` leaves it out.
DEFAULT_SCHEDULER = "credit"


def _scenario_builders():
    """Name → scenario-builder mapping (imports deferred to avoid the
    ``repro.runner`` ↔ ``repro.experiments`` cycle)."""
    from ..experiments.scenarios import (
        corun_scenario,
        fleet_host_scenario,
        mixed_io_scenario,
        solo_io_scenario,
        solo_scenario,
    )

    return {
        "corun": corun_scenario,
        "solo": solo_scenario,
        "mixed_io": mixed_io_scenario,
        "solo_io": solo_io_scenario,
        "fleet_host": fleet_host_scenario,
    }


def baseline_policy():
    return {"mode": "baseline"}


def static_policy(micro_cores, user_critical=False):
    return {
        "mode": "static",
        "micro_cores": int(micro_cores),
        "user_critical": bool(user_critical),
    }


def dynamic_policy(user_critical=False, **adaptive_kwargs):
    return {
        "mode": "dynamic",
        "adaptive_kwargs": dict(adaptive_kwargs),
        "user_critical": bool(user_critical),
    }


def vturbo_policy(turbo_cores=1):
    return {"mode": "vturbo", "turbo_cores": int(turbo_cores)}


def vtrs_policy(pool_cores=1):
    return {"mode": "vtrs", "pool_cores": int(pool_cores)}


def yield_only_policy(micro_cores=1):
    return {"mode": "yield_only", "micro_cores": int(micro_cores)}


@dataclasses.dataclass
class SimJob:
    """One simulation point, self-contained and picklable.

    ``tag`` names the job inside its plan (unique per plan; used by
    ``reduce()``); it is *excluded* from the cache identity so that the
    same physical simulation shared by several experiments (e.g. the
    seed-42 gmake co-run baseline in fig4, table2, and table4a) hits a
    single cache entry.
    """

    tag: str
    scenario: str
    duration_ns: int
    warmup_ns: int = 0
    seed: int = 42
    scenario_kwargs: dict = dataclasses.field(default_factory=dict)
    policy: dict = dataclasses.field(default_factory=baseline_policy)
    overrides: dict = dataclasses.field(default_factory=dict)
    #: Optional trace request: ``{"kinds": [..] or None}``. Part of the
    #: cache identity — a traced result carries its records in the
    #: payload, so it must not be conflated with an untraced one.
    trace: dict = None
    #: Optional fault plan in its canonical dict form
    #: (:meth:`~repro.faults.plan.FaultPlan.to_dict`). Part of the cache
    #: identity for the same reason as ``trace``: a faulted result must
    #: never be conflated with a healthy one.
    faults: dict = None

    def spec(self):
        """The canonical, tag-free description — the cache identity.
        An override naming :data:`DEFAULT_SCHEDULER` is left out: with
        or without it, the job is the same simulation."""
        overrides = self.overrides
        if overrides.get("scheduler") == DEFAULT_SCHEDULER:
            overrides = {k: v for k, v in overrides.items() if k != "scheduler"}
        spec = {
            "scenario": self.scenario,
            "scenario_kwargs": self.scenario_kwargs,
            "policy": self.policy,
            "overrides": overrides,
            "seed": self.seed,
            "duration_ns": self.duration_ns,
            "warmup_ns": self.warmup_ns,
        }
        if self.trace is not None:
            spec["trace"] = self.trace
        if self.faults is not None:
            spec["faults"] = self.faults
        return spec

    def canonical(self):
        """Stable string form of :meth:`spec` (hashed by the cache)."""
        return json.dumps(self.spec(), sort_keys=True, separators=(",", ":"))

    def to_dict(self):
        return {"tag": self.tag, **self.spec()}

    @classmethod
    def from_dict(cls, payload):
        return cls(**payload)


def _is_int(value, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        return False
    return minimum is None or value >= minimum


def check_scheduler(name):
    """Raise :class:`~repro.errors.ConfigError` unless ``name`` is a
    registered scheduler backend."""
    from ..sched import registry as sched_registry

    if not isinstance(name, str):
        raise ConfigError("override 'scheduler' must be a backend name")
    sched_registry.get(name)  # raises ConfigError on unknown name


def check_job(job):
    """Raise :class:`~repro.errors.ConfigError` unless ``job`` is a spec
    :func:`build_system` can build: the one set of spec rules, for every
    front end and every build. Tag, seed, duration, warmup and the
    object-typed fields have their types; the scenario, its kwargs, the
    workload, policy mode (with its required fields), overrides and
    scheduler are known; trace ``kinds`` is None or a list of strings
    (unknown kinds match nothing); ``faults`` passes
    :meth:`~repro.faults.FaultPlan.from_dict`. Never rewrites the job:
    its spec is the cache identity."""
    from ..core.adaptive import AdaptiveController
    from ..workloads import registry as workload_registry

    if not (isinstance(job.tag, str) and job.tag):
        raise ConfigError("'tag' must be a non-empty string")
    for field, minimum in (("seed", None), ("duration_ns", 1), ("warmup_ns", 0)):
        if not _is_int(getattr(job, field), minimum):
            floor = "" if minimum is None else " >= %d" % minimum
            raise ConfigError("%r must be an integer%s" % (field, floor))
    for field in ("scenario_kwargs", "policy", "overrides"):
        if not isinstance(getattr(job, field), dict):
            raise ConfigError("%r must be an object" % field)

    builders = _scenario_builders()
    builder = builders.get(job.scenario) if isinstance(job.scenario, str) else None
    if builder is None:
        raise ConfigError(
            "unknown scenario %r (available: %s)" % (job.scenario, ", ".join(sorted(builders)))
        )
    try:
        inspect.signature(builder).bind(seed=job.seed, **job.scenario_kwargs)
    except TypeError as err:
        raise ConfigError("scenario %r: %s" % (job.scenario, err)) from None
    workload = job.scenario_kwargs.get("workload_kind")
    if workload is not None and workload not in workload_registry.available():
        raise ConfigError(
            "unknown workload %r (available: %s)"
            % (workload, ", ".join(workload_registry.available()))
        )

    policy = job.policy
    mode = policy.get("mode", "baseline")
    if not isinstance(mode, str) or mode not in POLICY_MODES:
        raise ConfigError(
            "unknown policy mode %r (available: %s)" % (mode, ", ".join(POLICY_MODES))
        )
    missing = [field for field in POLICY_MODES[mode] if field not in policy]
    if missing:
        raise ConfigError("policy mode %r requires %s" % (mode, ", ".join(map(repr, missing))))
    for field in ("micro_cores", "turbo_cores", "pool_cores"):
        if field in policy and not _is_int(policy[field], 1):
            raise ConfigError("policy %r must be an integer >= 1" % field)
    if not isinstance(policy.get("user_critical", False), bool):
        raise ConfigError("policy 'user_critical' must be a boolean")
    try:  # a non-mapping fails the ** unpacking with a TypeError too
        inspect.signature(AdaptiveController).bind(**policy.get("adaptive_kwargs", {}))
    except TypeError as err:
        raise ConfigError("policy 'adaptive_kwargs': %s" % err) from None

    unknown = sorted(set(job.overrides) - set(_OVERRIDES))
    if unknown:
        raise ConfigError(
            "unknown scenario overrides %r (unknown override names; allowed: %s)"
            % (unknown, ", ".join(_OVERRIDES))
        )
    if "scheduler" in job.overrides:
        check_scheduler(job.overrides["scheduler"])

    if job.trace is not None:
        if not (isinstance(job.trace, dict) and set(job.trace) <= {"kinds"}):
            raise ConfigError("'trace' must be an object with an optional 'kinds' list")
        kinds = job.trace.get("kinds")
        if kinds is not None and not (
            isinstance(kinds, list) and all(isinstance(kind, str) for kind in kinds)
        ):
            raise ConfigError("trace 'kinds' must be null or a list of strings")

    if job.faults is not None:
        from ..faults import FaultPlan

        try:
            FaultPlan.from_dict(job.faults)
        except FaultError as err:
            raise ConfigError("faults: %s" % err) from None


def apply_options(job, trace=None, faults=None, scheduler=None):
    """Apply the cross-cutting run options to ``job`` in place: the one
    way every front end does it, so one request spells one spec. A
    ``scheduler`` is validated and pinned with ``setdefault`` (a job
    that names a backend keeps it); ``trace`` is copied in; ``faults``
    (a built-in name, plan-JSON path, plan dict or
    :class:`~repro.faults.FaultPlan`) goes to a job that has none, in
    canonical :meth:`~repro.faults.FaultPlan.to_dict` form, a built-in
    name scaled to the job's warmup + duration."""
    if scheduler is not None:
        check_scheduler(scheduler)
        job.overrides.setdefault("scheduler", scheduler)
    if trace is not None:
        job.trace = dict(trace)
    if faults is not None and job.faults is None:
        from ..faults import resolve_plan

        job.faults = resolve_plan(faults, job.warmup_ns + job.duration_ns).to_dict()


def build_system(job):
    """Build the ready-to-run :class:`~repro.experiments.scenarios.System`
    a job describes (imports deferred to avoid import cycles)."""
    from ..core.comparators import VTrsPolicy, VTurboPolicy
    from ..core.microslice import MicroSliceEngine
    from ..core.policy import PolicySpec
    from ..hw.ple import PleConfig

    check_job(job)
    policy = job.policy
    mode = policy.get("mode", "baseline")
    scenario = _scenario_builders()[job.scenario](seed=job.seed, **job.scenario_kwargs)
    if mode == "static":
        scenario.policy = PolicySpec.static(
            policy["micro_cores"], user_critical=policy.get("user_critical", False)
        )
    elif mode == "dynamic":
        scenario.policy = PolicySpec.dynamic(
            user_critical=policy.get("user_critical", False),
            **policy.get("adaptive_kwargs", {})
        )

    for name, value in job.overrides.items():
        if name == "ple_window":
            value = PleConfig(window=value)
        setattr(scenario, _OVERRIDES[name], value)

    if job.trace is not None:
        scenario.trace = True
        kinds = job.trace.get("kinds")
        scenario.trace_kinds = tuple(kinds) if kinds else None

    if job.faults is not None:
        scenario.faults = job.faults

    system = scenario.build()
    if mode == "vturbo":
        system.hv.set_policy(VTurboPolicy(turbo_cores=policy.get("turbo_cores", 1)))
    elif mode == "vtrs":
        system.hv.set_policy(VTrsPolicy(pool_cores=policy.get("pool_cores", 1)))
    elif mode == "yield_only":
        system.hv.set_policy(
            MicroSliceEngine(accelerate_virq=False, accelerate_vipi=False)
        )
        system.hv.set_micro_cores(policy.get("micro_cores", 1))
    return system


def run_job(job):
    """Simulate one job and return its result as a canonical payload
    dict. The payload is round-tripped through JSON so that a cold run,
    a worker-process run, and a cache replay all yield bit-identical
    structures. Telemetry (event/wall totals) is recorded *beside* the
    payload, never inside it — the byte-identity gate depends on that.

    A fault-free run must satisfy every system invariant
    (:func:`~repro.faults.invariants.assert_invariants` raises
    :class:`~repro.errors.FaultError` otherwise, and nothing is
    cached); a faulted run records its violations in its payload
    instead."""
    from ..faults.invariants import assert_invariants

    start = time.perf_counter()
    system = build_system(job)
    result = system.run(job.duration_ns, warmup_ns=job.warmup_ns)
    if system.hv.faults is None:
        assert_invariants(system)
        _INVARIANT_CHECKS.inc()
    payload = json.loads(json.dumps(result.to_dict()))
    _JOBS_SIMULATED.inc()
    _EVENTS_SIMULATED.inc(system.sim.executed_events)
    _ACCELERATE_ATTEMPTS.inc(system.hv.accelerate_attempts)
    _ACCELERATE_MIGRATIONS.inc(
        sum(v.migrations_to_micro for d in system.hv.domains for v in d.vcpus)
    )
    detector = getattr(system.hv.policy, "detector", None)
    if detector is not None:
        _INSPECTIONS.inc(detector.inspections)
        _INSPECTION_HITS.inc(detector.hits)
    wall = time.perf_counter() - start
    _JOB_WALL_SECONDS.inc(wall)
    telemetry.observe("engine.job_wall_us", wall * 1e6)
    return payload

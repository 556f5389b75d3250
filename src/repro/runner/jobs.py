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

A policy is only ever the JSON dict :func:`baseline_policy` …
:func:`yield_only_policy` return; :data:`POLICY_MODES` validates and
installs every mode, for jobs and hand-built scenarios alike.

Everything in this module is import-light (stdlib only at module
scope); the scenario/policy machinery is imported lazily inside
:func:`build_system` and the policy installers so ``repro.runner``
never participates in an import cycle with ``repro.experiments``.
"""

import dataclasses
import inspect
import json
import math
import time

from ..errors import ConfigError, FaultError
from ..obs import telemetry

#: Engine telemetry: simulated-event and wall-time totals per job,
#: accumulated wherever the job actually ran (worker registries stream
#: back to the parent on each job's result message).
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

#: Scenario overrides: job override name → (the scenario attribute
#: :func:`build_system` sets, wrapped in a :class:`~repro.hw.ple.PleConfig`
#: for ``ple_window``; its default, which the scenario, hypervisor and
#: PLE model read). :meth:`SimJob.spec` leaves out a default override.
DEFAULT_SCHEDULER = "credit"  # Xen credit1, the paper's baseline
DEFAULT_MICRO_SLICE = 100 * 1000  # ns: the micro pool's 0.1 ms slice
DEFAULT_PLE_WINDOW = 3 * 1000  # ns: see PleConfig
DEFAULT_PV_SPIN_ROUNDS = 1  # PLE exits before a pv spinlock waiter parks
_OVERRIDES = {
    "scheduler": ("scheduler", DEFAULT_SCHEDULER),
    "micro_slice": ("micro_slice", DEFAULT_MICRO_SLICE),
    "ple_window": ("ple", DEFAULT_PLE_WINDOW),
    "pv_spin_rounds": ("pv_spin_rounds", DEFAULT_PV_SPIN_ROUNDS),
}


def _micro_slice_engine(policy, **hooks):
    """The paper's engine; ``user_critical`` (§4.4) also detects the
    user-level critical regions registered per process."""
    from ..core.microslice import MicroSliceEngine
    from ..core.usercrit import UserAwareDetector

    detector = UserAwareDetector() if policy.get("user_critical", False) else None
    return MicroSliceEngine(detector=detector, **hooks)


def _install_static(hv, policy):
    hv.set_policy(_micro_slice_engine(policy))
    hv.set_micro_cores(policy["micro_cores"])


def _install_dynamic(hv, policy):
    from ..core.adaptive import AdaptiveController

    engine = _micro_slice_engine(policy)
    engine.controller = AdaptiveController(**policy.get("adaptive_kwargs", {}))
    hv.set_policy(engine)


def _install_vturbo(hv, policy):
    from ..core.comparators import VTurboPolicy

    hv.set_policy(VTurboPolicy(turbo_cores=policy.get("turbo_cores", 1)))


def _install_vtrs(hv, policy):
    from ..core.comparators import VTrsPolicy

    hv.set_policy(VTrsPolicy(pool_cores=policy.get("pool_cores", 1)))


def _install_yield_only(hv, policy):
    hv.set_policy(_micro_slice_engine(policy, accelerate_virq=False, accelerate_vipi=False))
    hv.set_micro_cores(policy.get("micro_cores", 1))


#: Policy modes: mode → (its required fields, the rest having defaults;
#: its installer, run by :func:`install_policy`). ``static``/``dynamic``
#: are the paper's micro-sliced pool, ``vturbo``/``vtrs`` the Table-1
#: comparators, ``yield_only`` the engine without its relay hooks.
#: Adding a mode is adding a row (and its constructor below).
POLICY_MODES = {
    "baseline": ((), lambda hv, policy: None),
    "static": (("micro_cores",), _install_static),
    "dynamic": ((), _install_dynamic),
    "vturbo": ((), _install_vturbo),
    "vtrs": ((), _install_vtrs),
    "yield_only": ((), _install_yield_only),
}


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


#: Canonical JSON (sorted keys, compact) through one encoder: each
#: ``json.dumps`` call with options builds a new one, and the cache
#: keys every job of every plan on each probe pass.
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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

    def __setattr__(self, name, value):
        # cache.job_key keeps the job's key on the instance as
        # ``_key``; assigning any field drops it. A kept job's dicts are
        # never mutated in place (see apply_options), so this is the
        # only way its spec can change.
        self.__dict__.pop("_key", None)
        object.__setattr__(self, name, value)

    def spec(self):
        """The canonical, tag-free description — the cache identity.
        An override equal to its default (:data:`_OVERRIDES`) is left
        out: with or without it, the job is the same simulation."""
        overrides = {name: value for name, value in self.overrides.items()
                     if name not in _OVERRIDES or value != _OVERRIDES[name][1]}
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

    def horizon_ns(self):
        """Simulated nanoseconds the job covers: warm-up plus the
        measured duration."""
        return self.warmup_ns + self.duration_ns

    def canonical(self):
        """Stable string form of :meth:`spec` (hashed by the cache)."""
        return _canonical_json(self.spec())

    def to_dict(self):
        return {"tag": self.tag, **self.spec()}

    @classmethod
    def from_dict(cls, payload):
        return cls(**payload)


def is_int(value, minimum=None):
    """True for an int that is not a bool and is at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        return False
    return minimum is None or value >= minimum


def is_finite(value):
    """True for an int or a finite float that is not a bool."""
    return is_int(value) or (isinstance(value, float) and math.isfinite(value))


def check_scheduler(name):
    """Raise :class:`~repro.errors.ConfigError` unless ``name`` is a
    registered scheduler backend."""
    from ..sched import registry as sched_registry

    if not isinstance(name, str):
        raise ConfigError("override 'scheduler' must be a backend name")
    sched_registry.get(name)  # raises ConfigError on unknown name


def check_policy(policy):
    """Return the installer of ``policy``'s mode (``baseline`` when
    absent), or raise :class:`~repro.errors.ConfigError` unless its
    required fields are there, core counts are integers >= 1,
    ``user_critical`` is a boolean and ``adaptive_kwargs`` fit
    :class:`~repro.core.adaptive.AdaptiveController`."""
    from ..core.adaptive import AdaptiveController

    if not isinstance(policy, dict):
        raise ConfigError("'policy' must be an object")
    mode = policy.get("mode", "baseline")
    if not isinstance(mode, str) or mode not in POLICY_MODES:
        raise ConfigError(
            "unknown policy mode %r (available: %s)" % (mode, ", ".join(POLICY_MODES))
        )
    required, install = POLICY_MODES[mode]
    missing = [field for field in required if field not in policy]
    if missing:
        raise ConfigError("policy mode %r requires %s" % (mode, ", ".join(map(repr, missing))))
    for field in ("micro_cores", "turbo_cores", "pool_cores"):
        if field in policy and not is_int(policy[field], 1):
            raise ConfigError("policy %r must be an integer >= 1" % field)
    if not isinstance(policy.get("user_critical", False), bool):
        raise ConfigError("policy 'user_critical' must be a boolean")
    try:  # a non-mapping fails the ** unpacking with a TypeError too
        inspect.signature(AdaptiveController).bind(**policy.get("adaptive_kwargs", {}))
    except TypeError as err:
        raise ConfigError("policy 'adaptive_kwargs': %s" % err) from None
    return install


def install_policy(hv, policy):
    """Validate the policy dict ``policy`` and wire it into ``hv``
    before ``hv.start()``: the one install path (``Scenario.build``)."""
    install = check_policy(policy)
    install(hv, policy)


def check_job(job):
    """Raise :class:`~repro.errors.ConfigError` unless ``job`` is a spec
    :func:`build_system` can build: the one set of spec rules, for every
    front end and every build. Tag, seed, duration, warmup and the
    object-typed fields have their types; the scenario, its kwargs, the
    workload, overrides and scheduler are known, and a numeric override
    is an integer >= 1; the policy passes :func:`check_policy`; trace
    ``kinds`` is None or a list of strings (unknown kinds match
    nothing); ``faults`` passes
    :meth:`~repro.faults.FaultPlan.from_dict`. Never rewrites the job:
    its spec is the cache identity."""
    from ..workloads import registry as workload_registry

    if not (isinstance(job.tag, str) and job.tag):
        raise ConfigError("'tag' must be a non-empty string")
    for field, minimum in (("seed", None), ("duration_ns", 1), ("warmup_ns", 0)):
        if not is_int(getattr(job, field), minimum):
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

    check_policy(job.policy)

    unknown = sorted(set(job.overrides) - set(_OVERRIDES))
    if unknown:
        raise ConfigError(
            "unknown scenario overrides %r (unknown override names; allowed: %s)"
            % (unknown, ", ".join(_OVERRIDES))
        )
    for name, value in job.overrides.items():
        if name == "scheduler":
            check_scheduler(value)
        elif not is_int(value, 1):
            raise ConfigError("override %r must be an integer >= 1" % name)

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
    """Return a new :class:`SimJob`: ``job`` with the cross-cutting run
    options applied, the one way every front end does it, so one
    request spells one spec. ``job`` and its dicts are left unchanged
    (a planned job may be shared by every request for its plan). A
    ``scheduler`` is validated and pinned unless the job names a
    backend already; ``trace`` is copied in, its ``kinds`` list too;
    ``faults`` (a built-in name, plan-JSON path, plan dict or
    :class:`~repro.faults.FaultPlan`) goes to a job that has none, in
    canonical :meth:`~repro.faults.FaultPlan.to_dict` form, a built-in
    name scaled to the job's warmup + duration."""
    changes = {}
    if scheduler is not None:
        check_scheduler(scheduler)
        if "scheduler" not in job.overrides:
            changes["overrides"] = dict(job.overrides, scheduler=scheduler)
    if trace is not None:
        trace = changes["trace"] = dict(trace)
        if isinstance(trace.get("kinds"), list):
            trace["kinds"] = list(trace["kinds"])
    if faults is not None and job.faults is None:
        from ..faults import resolve_plan

        changes["faults"] = resolve_plan(faults, job.horizon_ns()).to_dict()
    return dataclasses.replace(job, **changes)


def build_system(job):
    """Build the ready-to-run :class:`~repro.experiments.scenarios.System`
    a job describes: its scenario, given the job's policy, overrides,
    trace and faults, installs the policy as it builds (imports
    deferred to avoid import cycles)."""
    from ..hw.ple import PleConfig

    check_job(job)
    scenario = _scenario_builders()[job.scenario](seed=job.seed, **job.scenario_kwargs)
    scenario.policy = job.policy
    for name, value in job.overrides.items():
        if name == "ple_window":
            value = PleConfig(window=value)
        setattr(scenario, _OVERRIDES[name][0], value)

    if job.trace is not None:
        scenario.trace = True
        kinds = job.trace.get("kinds")
        scenario.trace_kinds = tuple(kinds) if kinds else None

    if job.faults is not None:
        scenario.faults = job.faults

    return scenario.build()


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

"""Result collection for experiment runs."""

from ..obs.runstate import encode as encode_runstate, steal_ns


def _jsonable(value):
    """Recursively normalize a result payload to JSON-native types
    (tuples become lists) so that a cached round-trip through JSON is
    bit-identical to the in-memory value."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


class WorkloadResult:
    """Progress + workload-specific extras for one installed workload."""

    def __init__(self, key, progress, rate, extra):
        self.key = key
        self.progress = progress
        self.rate = rate
        self.extra = extra

    def __repr__(self):
        return "<WorkloadResult %s rate=%.1f/s>" % (self.key, self.rate)


class RunResult:
    """Everything an experiment needs from one simulation run."""

    def __init__(self, scenario_name, duration_ns):
        self.scenario_name = scenario_name
        self.duration_ns = duration_ns
        self.workloads = {}
        self.hv_counters = {}
        self.domain_yields = {}
        self.domain_counters = {}
        self.lockstats = {}
        self.tlb_stats = {}
        self.micro_cores = 0
        self.utilization = 0.0
        self.adaptive_decisions = []
        self.runstates = {}      # domain -> {vcpu: state list (obs.runstate)}
        self.histograms = {}     # name -> histogram snapshot
        self._trace = []         # exported trace records (when tracing)
        self._trace_pending = None   # raw record tuples awaiting export
        #: Fault-injection digest + invariant report; None for healthy
        #: runs (and absent from to_dict, keeping them byte-identical).
        self.faults = None

    @property
    def trace(self):
        """Exported trace records (flat dicts). Materialized lazily
        from the raw record tuples snapshotted at collect time, so a
        traced run only pays the export cost when something actually
        reads the trace (serialization, analyze) — not inside the
        simulation wall-clock being measured."""
        pending = self._trace_pending
        if pending is not None:
            from ..sim.trace import export_records

            self._trace_pending = None
            self._trace = export_records(pending)
        return self._trace

    @trace.setter
    def trace(self, value):
        self._trace_pending = None
        self._trace = value

    @classmethod
    def collect(cls, system, duration_ns):
        hv = system.hv
        result = cls(system.scenario.name, duration_ns)
        for key, workload in system.workloads.items():
            result.workloads[key] = WorkloadResult(
                key,
                workload.progress(),
                workload.rate(duration_ns),
                workload.extra_results(),
            )
        result.hv_counters = hv.stats.counters.as_dict()
        for domain in hv.domains:
            result.domain_yields[domain.name] = hv.stats.yields_by_cause(domain)
            result.domain_counters[domain.name] = domain.counters.as_dict()
            result.lockstats[domain.name] = domain.kernel.lockstat.snapshot()
            result.tlb_stats[domain.name] = domain.kernel.tlb.sync_latency.snapshot()
        result.micro_cores = len(hv.micro_pool)
        result.utilization = hv.utilization(duration_ns)
        controller = getattr(hv.policy, "controller", None)
        if controller is not None:
            result.adaptive_decisions = list(controller.decisions)
        now = hv.sim.now
        for domain in hv.domains:
            result.runstates[domain.name] = {
                vcpu.name: encode_runstate(vcpu.runstate, now) for vcpu in domain.vcpus
            }
        result.histograms = hv.histograms.snapshot()
        tracer = system.tracer
        if tracer is not None and tracer.enabled:
            tracer.record_meta(
                "meta",
                scenario=system.scenario.name,
                duration_ns=duration_ns,
                pcpus=len(hv.pcpus),
                domains=[d.name for d in hv.domains],
            )
            for domain in hv.domains:
                for vcpu in domain.vcpus:
                    snap = vcpu.runstate.snapshot(now)
                    tracer.record_meta(
                        "runstate_final",
                        vcpu=vcpu.name,
                        domain=domain.name,
                        running=snap["running"],
                        runnable=snap["runnable"],
                        blocked=snap["blocked"],
                        offline=snap["offline"],
                        elapsed=snap["elapsed"],
                    )
            # Snapshot the raw tuples (cheap: one list of refs); the
            # trace property exports them on first access.
            result._trace_pending = list(tracer.records)
        injector = hv.faults
        if injector is not None:
            from ..faults.invariants import check_system

            digest = injector.summary()
            digest["invariant_violations"] = check_system(system)
            result.faults = digest
        return result

    # ------------------------------------------------------------------
    # serialization (used by the parallel runner and the result cache)
    # ------------------------------------------------------------------
    def to_dict(self):
        """JSON-serializable snapshot of every collected field. The
        ``faults`` key exists only for faulted runs, so healthy payloads
        are byte-identical to what they were before fault injection."""
        payload = {
            "scenario_name": self.scenario_name,
            "duration_ns": self.duration_ns,
            "workloads": {
                key: {
                    "progress": workload.progress,
                    "rate": workload.rate,
                    "extra": _jsonable(workload.extra),
                }
                for key, workload in self.workloads.items()
            },
            "hv_counters": _jsonable(self.hv_counters),
            "domain_yields": _jsonable(self.domain_yields),
            "domain_counters": _jsonable(self.domain_counters),
            "lockstats": _jsonable(self.lockstats),
            "tlb_stats": _jsonable(self.tlb_stats),
            "micro_cores": self.micro_cores,
            "utilization": self.utilization,
            "adaptive_decisions": _jsonable(self.adaptive_decisions),
            "runstates": _jsonable(self.runstates),
            "histograms": _jsonable(self.histograms),
            "trace": _jsonable(self.trace),
        }
        if self.faults is not None:
            payload["faults"] = _jsonable(self.faults)
        return payload

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a result from :meth:`to_dict` output, taking
        ownership of ``payload``: its nested dicts and lists become the
        result's fields, uncopied. Pass a payload nothing else holds (a
        fresh ``json.loads`` or ``run_job``); a caller that hands one
        payload to several results copies it for every one but the
        first (see :func:`repro.runner.executor.execute_many`)."""
        result = cls(payload["scenario_name"], payload["duration_ns"])
        result.workloads = {
            key: WorkloadResult(key, entry["progress"], entry["rate"], entry["extra"])
            for key, entry in payload["workloads"].items()
        }
        result.hv_counters = payload["hv_counters"]
        result.domain_yields = payload["domain_yields"]
        result.domain_counters = payload["domain_counters"]
        result.lockstats = payload["lockstats"]
        result.tlb_stats = payload["tlb_stats"]
        result.micro_cores = payload["micro_cores"]
        result.utilization = payload["utilization"]
        result.adaptive_decisions = payload["adaptive_decisions"]
        result.runstates = payload.get("runstates", {})
        result.histograms = payload.get("histograms", {})
        result.trace = payload.get("trace", [])
        result.faults = payload.get("faults")
        return result

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    def workload(self, key):
        """Find a workload result by exact key or unique suffix."""
        if key in self.workloads:
            return self.workloads[key]
        matches = [w for k, w in self.workloads.items() if k.endswith(key)]
        if len(matches) == 1:
            return matches[0]
        raise KeyError("workload %r not found (have: %s)" % (key, sorted(self.workloads)))

    def rate(self, key):
        return self.workload(key).rate

    def total_yields(self, domain=None):
        if domain is None:
            return self.hv_counters.get("yield", 0)
        return self.domain_counters.get(domain, {}).get("yield", 0)

    def yields_by_cause(self, domain):
        return self.domain_yields.get(domain, {})

    def steal_time(self, domain):
        """Total runnable-but-not-running ns across the domain's vCPUs
        (the Xen runstate notion of steal time)."""
        return sum(steal_ns(states) for states in self.runstates.get(domain, {}).values())

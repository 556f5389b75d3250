"""Declarative fault plans.

A :class:`FaultPlan` is a seed-deterministic, JSON-loadable description
of every failure a run should suffer: *what* breaks (the fault kind),
*when* (a simulation-time window or instant), and *how hard* (kind
parameters such as a drop probability or a pCPU index). Plans carry no
live state — the :class:`~repro.faults.inject.FaultInjector` compiles
one into DES events at scenario build time — so the same plan dict can
ride inside a :class:`~repro.runner.jobs.SimJob` spec, hash into the
result-cache key, and rebuild identically in a worker process.

Times are expressed in milliseconds in the human-facing JSON
(``at_ms``/``until_ms``) and normalised to integer nanoseconds here, so
a plan's canonical dict form is stable regardless of how it was
written.
"""

import dataclasses
import json

from ..errors import FaultError
from ..sim.time import ms, us

#: Known fault kinds and the parameter defaults each accepts. A spec
#: may override any default; unknown parameters are rejected so typos
#: in hand-written plans fail loudly instead of silently not injecting.
FAULT_KINDS = {
    # Guest symbol tables: IP classification degrades (§4.1 input).
    #   mode="miss"    -> resolution unavailable (detector falls back)
    #   mode="corrupt" -> resolution returns the wrong symbol
    "symbol_table": {"mode": "miss", "domain": None},
    # IPI transport: messages are dropped (and re-sent by the
    # hypervisor) or delayed on the wire.
    "ipi_drop": {"prob": 0.1, "max_resends": 3, "resend_ns": int(us(200))},
    "ipi_delay": {"prob": 1.0, "delay_ns": int(us(50))},
    # pCPU hotplug: a core leaves / rejoins the host.
    "pcpu_offline": {"pcpu": None},
    "pcpu_online": {"pcpu": None},
    # Algorithm-1 inputs: profile windows report stale event counts.
    "stale_profile": {},
    # PLE misconfiguration: the spin-budget window is overridden
    # (0 = PLE disabled, i.e. unbounded spinning).
    "ple_misconfig": {"window": 0},
    # cpupool management: set_micro_cores requests are refused.
    "poolmove_fail": {"prob": 1.0},
}

#: Kinds that describe an instant rather than a window (``until_ms`` is
#: meaningless for them).
INSTANT_KINDS = frozenset({"pcpu_offline", "pcpu_online"})


@dataclasses.dataclass
class FaultSpec:
    """One scheduled fault: kind, activation window, parameters."""

    kind: str
    at_ns: int
    until_ns: int = None  # None for instant kinds / open-ended windows
    params: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        defaults = FAULT_KINDS.get(self.kind)
        if defaults is None:
            raise FaultError(
                "unknown fault kind %r (known: %s)"
                % (self.kind, ", ".join(sorted(FAULT_KINDS)))
            )
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise FaultError(
                "fault %r does not accept parameters %s"
                % (self.kind, sorted(unknown))
            )
        if self.at_ns <= 0:
            raise FaultError(
                "fault %r must activate at a strictly positive time "
                "(at_ns=%r)" % (self.kind, self.at_ns)
            )
        if self.until_ns is not None:
            if self.kind in INSTANT_KINDS:
                raise FaultError("fault %r is instantaneous; drop until_ms" % self.kind)
            if self.until_ns <= self.at_ns:
                raise FaultError(
                    "fault %r window is empty (at=%d until=%d)"
                    % (self.kind, self.at_ns, self.until_ns)
                )
        merged = dict(defaults)
        merged.update(self.params)
        self.params = merged

    def to_dict(self):
        payload = {"kind": self.kind, "at_ns": int(self.at_ns), "params": self.params}
        if self.until_ns is not None:
            payload["until_ns"] = int(self.until_ns)
        return payload


class FaultPlan:
    """A named, ordered collection of :class:`FaultSpec` entries."""

    def __init__(self, name, specs=(), description="", seed_salt=0):
        self.name = name
        self.description = description
        self.seed_salt = int(seed_salt)
        self.specs = list(specs)

    def add(self, kind, at_ns, until_ns=None, **params):
        self.specs.append(FaultSpec(kind, at_ns, until_ns, params))
        return self

    def __len__(self):
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @property
    def empty(self):
        return not self.specs

    def to_dict(self):
        """Canonical JSON-native form — the cache-key identity."""
        return {
            "name": self.name,
            "description": self.description,
            "seed_salt": self.seed_salt,
            "faults": [spec.to_dict() for spec in self.specs],
        }

    def canonical(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a plan from :meth:`to_dict` output or from the
        human-facing JSON schema (``at_ms``/``until_ms`` accepted)."""
        if not isinstance(payload, dict):
            raise FaultError("fault plan must be a JSON object, got %r" % type(payload))
        extra = set(payload) - {"name", "description", "seed_salt", "faults"}
        if extra:
            raise FaultError("unknown fault plan keys %s" % sorted(extra))
        plan = cls(
            payload.get("name", "unnamed"),
            description=payload.get("description", ""),
            seed_salt=payload.get("seed_salt", 0),
        )
        entries = payload.get("faults", [])
        if not isinstance(entries, list):
            raise FaultError("'faults' must be a list of fault entries")
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict) or "kind" not in entry:
                raise FaultError("fault entry %d is missing its 'kind'" % index)
            entry = dict(entry)
            kind = entry.pop("kind")
            at_ns = _take_time(entry, "at", index, required=True)
            until_ns = _take_time(entry, "until", index, required=False)
            # Parameters may be nested (canonical to_dict form) or flat
            # (hand-written JSON); both spell the same spec.
            params = entry.pop("params", {})
            if not isinstance(params, dict):
                raise FaultError("fault entry %d: 'params' must be an object" % index)
            plan.add(kind, at_ns, until_ns, **dict(params, **entry))
        return plan

    @classmethod
    def from_json(cls, text):
        try:
            payload = json.loads(text)
        except ValueError as err:
            raise FaultError("fault plan is not valid JSON: %s" % err) from None
        return cls.from_dict(payload)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as err:
            raise FaultError("cannot read fault plan %s: %s" % (path, err)) from None
        return cls.from_json(text)

    def __repr__(self):
        return "<FaultPlan %s faults=%d>" % (self.name, len(self.specs))


def _take_time(entry, stem, index, required):
    """Pop ``<stem>_ns`` or ``<stem>_ms`` from a raw plan entry."""
    ns_key, ms_key = stem + "_ns", stem + "_ms"
    if ns_key in entry and ms_key in entry:
        raise FaultError(
            "fault entry %d gives both %s and %s" % (index, ns_key, ms_key)
        )
    if ns_key in entry:
        return int(entry.pop(ns_key))
    if ms_key in entry:
        return int(ms(entry.pop(ms_key)))
    if required:
        raise FaultError("fault entry %d needs %s or %s" % (index, ms_key, ns_key))
    return None

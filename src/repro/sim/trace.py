"""Structured event tracing, in the spirit of ``xentrace``.

Tracing is off by default (a disabled tracer costs its caller one
attribute check). When enabled, every record carries a monotonically
increasing sequence number and is counted per kind; the buffer keeps
every record and exports losslessly to JSONL (``repro analyze``
consumes that).

Hot-path contract (see ``docs/performance.md``): emit sites hoist a
per-kind handle with :meth:`Tracer.want` — ``None`` when this tracer
would never record the kind (disabled, or filtered out), else a bound
emitter whose call appends directly to the buffer with no dispatch,
filter checks, or schema validation. Tracer configuration (``enabled``
and the kind filter) is fixed at construction, which is what makes
hoisting the handle safe. Schema validation against
:mod:`repro.obs.schema` is a *debug-mode* feature (``debug=True`` or
``REPRO_TRACE_DEBUG=1``) — ``scripts/ci_smoke.sh`` runs its traced
run with it on, so emit-site drift is still caught without taxing every
hot run.

Drop accounting is tracer-lifetime exact: ``dropped + len(records) ==
seq`` always holds — records discarded by :meth:`Tracer.clear` (the
warm-up boundary) count as dropped, while ``seq`` never resets.
"""

import json
import os

from ..errors import ConfigError, TraceError
from ..obs.schema import META_KINDS, RESERVED_KEYS, TRACE_SCHEMA
from .time import fmt


class TraceRecord:
    """Attribute view of one trace record.

    The buffer itself stores bare ``(seq, time, kind, detail)`` tuples —
    the emit path is too hot for a Python-level ``__init__`` per record
    — and the accessors (``find``, iteration) materialize these views
    lazily."""

    __slots__ = ("seq", "time", "kind", "detail")

    def __init__(self, seq, time, kind, detail):
        self.seq = seq
        self.time = time
        self.kind = kind
        self.detail = detail

    def as_dict(self):
        """Flat JSON-native form: reserved keys first, detail inline."""
        record = {"seq": self.seq, "t": self.time, "kind": self.kind}
        record.update(self.detail)
        return record

    def __repr__(self):
        return "[%s] #%d %s %s" % (fmt(self.time), self.seq, self.kind, self.detail)


def export_records(entries):
    """``(seq, time, kind, detail)`` tuples → flat JSON-native dicts
    (the :meth:`Tracer.export` format)."""
    out = []
    append = out.append
    for seq, time_ns, kind, detail in entries:
        record = {"seq": seq, "t": time_ns, "kind": kind}
        record.update(detail)
        append(record)
    return out


def _schema_check(kind, detail):
    expected = TRACE_SCHEMA.get(kind)
    if expected is not None and set(detail) != expected:
        raise ConfigError(
            "trace record %r fields %s do not match schema %s"
            % (kind, sorted(detail), sorted(expected))
        )


class _Emitter:
    """Bound fast-path emitter for one trace kind (``Tracer.want``).

    The call body is the whole hot path: seq and per-kind count bump,
    append. Schema validation happens only when the owning tracer is in
    debug mode."""

    __slots__ = ("tracer", "kind", "validate", "sim", "records", "count")

    def __init__(self, tracer, kind):
        self.tracer = tracer
        self.kind = kind
        self.validate = tracer.debug
        self.sim = tracer.sim
        self.records = tracer.records
        #: Per-emitter record count, folded into ``Tracer.counts`` on
        #: read — a slot bump beats a dict update at emit rates.
        self.count = 0

    def __call__(self, **detail):
        kind = self.kind
        if self.validate:
            _schema_check(kind, detail)
        tracer = self.tracer
        tracer.seq = seq = tracer.seq + 1
        self.count += 1
        self.records.append((seq, self.sim._now, kind, detail))

    def __repr__(self):
        return "<trace emitter %r>" % (self.kind,)


class Tracer:
    """Lossless trace buffer with per-kind counters, JSONL export, and
    debug-mode schema validation."""

    def __init__(self, sim, enabled=False, kinds=None, debug=None):
        self.sim = sim
        self.enabled = enabled
        self.kinds = set(kinds) if kinds else None
        self.records = []
        self.dropped = 0
        self.seq = 0
        if debug is None:
            debug = os.environ.get("REPRO_TRACE_DEBUG", "") in ("1", "true", "yes")
        self.debug = debug
        self._emitters = {}

    @property
    def counts(self):
        """Per-kind record counts, tracer-lifetime since the last
        :meth:`clear`. Aggregated lazily: every record goes through an
        emitter, whose slot counter is folded in here on read."""
        return {
            kind: emitter.count
            for kind, emitter in self._emitters.items()
            if emitter.count
        }

    def want(self, kind):
        """Precomputed emit handle for ``kind``: ``None`` if this tracer
        would never record it (disabled, or excluded by the kind
        filter), else a bound emitter callable taking the detail kwargs.

        Hot emit sites hoist the handle once (configuration is fixed at
        construction) and guard with ``if emit is not None`` — so a
        disabled or filtered kind costs one ``None`` check instead of a
        method call, filter lookups, and schema validation."""
        if not self.enabled:
            return None
        if self.kinds is not None and kind not in self.kinds:
            return None
        return self._emitter(kind)

    def _emitter(self, kind):
        emitter = self._emitters.get(kind)
        if emitter is None:
            emitter = self._emitters[kind] = _Emitter(self, kind)
        return emitter

    def emit(self, kind, **detail):
        """Record one ``kind`` record unless this tracer filters it out
        (the unhoisted form of :meth:`want`)."""
        handle = self.want(kind)
        if handle is not None:
            handle(**detail)

    def record_meta(self, kind, **detail):
        """Emit a metadata record that bypasses the kind filter (but not
        the enable switch): an exported trace must always carry its
        ``meta``/``runstate_final`` records or ``analyze`` cannot anchor
        durations and runstate tables."""
        if not self.enabled:
            return
        if kind not in META_KINDS:
            raise ConfigError("%r is not a meta trace kind" % (kind,))
        self._emitter(kind)(**detail)

    def find(self, kind):
        """All buffered records of ``kind``, oldest first."""
        return [
            TraceRecord(seq, time_ns, rkind, detail)
            for seq, time_ns, rkind, detail in self.records
            if rkind == kind
        ]

    def clear(self):
        """Drop buffered records and per-kind counts (warmup boundary).
        Sequence numbers keep increasing across clears — they are
        tracer-lifetime monotonic — and the discarded records count as
        dropped, so ``dropped + len(records) == seq`` stays exact."""
        self.dropped += len(self.records)
        self.records.clear()
        for emitter in self._emitters.values():
            emitter.count = 0

    def export(self):
        """Buffered records as a list of flat JSON-native dicts."""
        return export_records(self.records)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return (TraceRecord(*entry) for entry in self.records)


def write_record(handle, record, job=None):
    """Append one exported record dict to an open JSONL handle."""
    if job is not None:
        record = dict(record)
        record["job"] = job
    handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
    handle.write("\n")


def write_jsonl(path, records_by_job):
    """Write ``{job_label: [record_dict, ...]}`` to one JSONL file, one
    sorted-key object per line (byte-stable for identical runs). A
    ``None`` label writes that job's records unlabelled."""
    with open(path, "w", encoding="utf-8") as handle:
        for job, records in records_by_job.items():
            for record in records:
                write_record(handle, record, job=job)


def load_jsonl(path):
    """Read a JSONL trace file back into a list of record dicts.

    Raises :class:`~repro.errors.TraceError` — with the offending line
    number — on unreadable files, malformed JSON (including the partial
    last line of a truncated export), non-object records, and records
    missing their ``kind``."""
    records = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as err:
        raise TraceError("cannot read trace %s: %s" % (path, err)) from None
    with handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                raise TraceError(
                    "%s line %d: malformed JSON (truncated or corrupt "
                    "trace export?): %.80r" % (path, lineno, line)
                ) from None
            if not isinstance(record, dict):
                raise TraceError(
                    "%s line %d: trace record must be a JSON object, got %s"
                    % (path, lineno, type(record).__name__)
                )
            if "kind" not in record:
                raise TraceError(
                    "%s line %d: trace record has no 'kind' field" % (path, lineno)
                )
            records.append(record)
    return records


# Re-exported so emit sites and tests can reference the vocabulary
# without importing repro.obs directly.
__all__ = [
    "RESERVED_KEYS",
    "TRACE_SCHEMA",
    "TraceRecord",
    "Tracer",
    "export_records",
    "load_jsonl",
    "write_jsonl",
    "write_record",
]

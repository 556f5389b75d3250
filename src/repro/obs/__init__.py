"""``repro.obs`` — the observability subsystem.

The paper's evaluation *is* observability: xentrace-style profiling of
yields, PLE exits, delayed IPI acks, and vIRQ latency, consumed both by
humans (Tables/Figures) and by Algorithm 1 itself. This package holds
the pieces that are not tied to a single simulator layer:

* :mod:`repro.obs.schema`   — the typed trace-record vocabulary;
* :mod:`repro.obs.runstate` — per-vCPU time-in-state (steal-time)
  accounting plus its conservation invariant;
* :mod:`repro.obs.analyze`  — the ``repro analyze`` engine: span
  reconstruction, runstate tables, yield decompositions, trace diffs;
* :mod:`repro.obs.telemetry` — the *runner-stack* metrics registry
  (executor/pool/cache/engine counters, gauges, log2 histograms)
  with JSON and Prometheus exposition export (``repro telemetry``).

The emitting side lives where the events happen —
:class:`repro.sim.trace.Tracer` (the buffer/export machinery),
:class:`repro.metrics.histogram.Histogram` (deterministic latency
tails), and emit sites threaded through ``hypervisor/``, ``guest/``,
and ``core/adaptive.py``.

``analyze`` is imported lazily (it pulls in the reporting stack); the
schema and runstate modules stay import-light so the simulator core can
use them without cycles.
"""

from . import telemetry
from .runstate import (
    STATES,
    RunstateAccount,
    steal_fraction,
    steal_report,
    validate,
    validate_result,
)
from .schema import META_KINDS, RESERVED_KEYS, TRACE_SCHEMA, known_kinds

__all__ = [
    "META_KINDS",
    "RESERVED_KEYS",
    "RunstateAccount",
    "STATES",
    "TRACE_SCHEMA",
    "known_kinds",
    "steal_fraction",
    "steal_report",
    "telemetry",
    "validate",
    "validate_result",
]

"""The ``repro analyze`` engine — xenalyze for exported traces.

Consumes the JSONL files written by ``--trace --trace-out`` (or
:func:`repro.sim.trace.write_jsonl`) and reconstructs what a
human wants from a raw event stream:

* per-kind record counts;
* the yield decomposition per domain (must match the run's
  ``HvStats`` counters record for record — the round-trip invariant);
* per-vCPU runstate tables with the conservation check
  (``sum(states) == elapsed``);
* latency spans rebuilt from paired records — IPI first-send → complete
  and lock acquire → release — summarised with the deterministic
  :class:`~repro.metrics.histogram.Histogram`;
* the adaptive controller's resize timeline (Algorithm 1's audit log);
* a diff mode comparing two trace files kind by kind.

Everything here is pure post-processing over record dicts: no simulator
state is needed, so traces can be analyzed long after (and far from)
the run that produced them.
"""

from ..metrics.histogram import Histogram
from ..metrics.report import render_table
from ..sim.trace import load_jsonl
from .runstate import STATES
from .schema import META_KINDS


def group_by_job(records):
    """Split a flat record list into ``{job_label: [records]}``,
    preserving first-seen job order. Single-job exports (no ``job``
    field) land under ``""``."""
    jobs = {}
    for record in records:
        jobs.setdefault(record.get("job", ""), []).append(record)
    return jobs


class TraceAnalysis:
    """Everything derived from one job's record stream."""

    def __init__(self, job, records):
        self.job = job
        self.records = records
        self.meta = None
        self.counts = {}
        self.yields = {}          # domain -> {cause: count}
        self.runstates = {}       # domain -> {vcpu: {state: ns, elapsed: ns}}
        self.violations = []      # (domain, vcpu, difference_ns)
        self.ipi_spans = {}       # ipi kind -> Histogram of send->complete ns
        self.lock_waits = {}      # lock -> Histogram of wait ns
        self.lock_holds = {}      # lock -> Histogram of hold ns
        self.adaptive = []        # adaptive_resize records, in order
        self.fault_events = []    # fault_inject/fault_recover, in order
        self.seq_gaps = 0
        self._scan()

    # ------------------------------------------------------------------
    def _scan(self):
        first_send = {}           # op id -> (ipi kind, first send t)
        open_holds = {}           # (vcpu, lock) -> acquire t
        last_seq = None
        for record in self.records:
            kind = record["kind"]
            self.counts[kind] = self.counts.get(kind, 0) + 1
            seq = record.get("seq")
            if seq is not None:
                if last_seq is not None and seq != last_seq + 1:
                    self.seq_gaps += 1
                last_seq = seq
            if kind == "meta":
                self.meta = record
            elif kind == "yield":
                causes = self.yields.setdefault(record["domain"], {})
                causes[record["cause"]] = causes.get(record["cause"], 0) + 1
            elif kind == "runstate_final":
                snap = {name: record[name] for name in STATES}
                snap["elapsed"] = record["elapsed"]
                self.runstates.setdefault(record["domain"], {})[record["vcpu"]] = snap
                total = sum(snap[name] for name in STATES)
                if total != snap["elapsed"]:
                    self.violations.append(
                        (record["domain"], record["vcpu"], total - snap["elapsed"])
                    )
            elif kind == "ipi_send":
                if record["op"] not in first_send:
                    first_send[record["op"]] = (record["ipi_kind"], record["t"])
            elif kind == "ipi_complete":
                sent = first_send.pop(record["op"], None)
                if sent is not None:
                    ipi_kind, sent_at = sent
                    hist = self.ipi_spans.setdefault(
                        ipi_kind, Histogram(name="ipi_span_" + ipi_kind)
                    )
                    hist.record(record["t"] - sent_at)
            elif kind == "lock_acquired":
                lock = record["lock"]
                self.lock_waits.setdefault(
                    lock, Histogram(name="lock_wait_" + lock)
                ).record(record["wait_ns"])
                open_holds[(record["vcpu"], lock)] = record["t"]
            elif kind == "lock_release":
                acquired_at = open_holds.pop((record["vcpu"], record["lock"]), None)
                if acquired_at is not None:
                    self.lock_holds.setdefault(
                        record["lock"], Histogram(name="lock_hold_" + record["lock"])
                    ).record(record["t"] - acquired_at)
            elif kind == "adaptive_resize":
                self.adaptive.append(record)
            elif kind in ("fault_inject", "fault_recover"):
                self.fault_events.append(record)

    # ------------------------------------------------------------------
    def event_counts(self):
        """Non-meta record counts by kind (sorted)."""
        return {
            kind: count
            for kind, count in sorted(self.counts.items())
            if kind not in META_KINDS
        }

    def steal_report(self):
        """Per-domain runstate rollup (same shape as
        :func:`repro.obs.runstate.steal_report`)."""
        report = {}
        for domain, vcpus in sorted(self.runstates.items()):
            rollup = {name: 0 for name in STATES}
            rollup["elapsed"] = 0
            for snap in vcpus.values():
                for name in STATES:
                    rollup[name] += snap[name]
                rollup["elapsed"] += snap["elapsed"]
            report[domain] = rollup
        return report


def analyze_file(path):
    """Load and analyze a JSONL trace: ``{job_label: TraceAnalysis}``."""
    return {
        job: TraceAnalysis(job, records)
        for job, records in group_by_job(load_jsonl(path)).items()
    }


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------
def _ms(ns):
    return ns / 1e6


def _span_rows(histograms):
    rows = []
    for key in sorted(histograms):
        snap = histograms[key].snapshot()
        rows.append(
            [
                key,
                snap["count"],
                "%.1f" % (snap["mean"] / 1e3),
                "%.1f" % (snap["p50"] / 1e3),
                "%.1f" % (snap["p95"] / 1e3),
                "%.1f" % (snap["p99"] / 1e3),
                "%.1f" % (snap["max"] / 1e3),
            ]
        )
    return rows


def format_analysis(analysis):
    """Human-readable report for one job's analysis."""
    sections = []
    label = analysis.job or "(unlabelled)"
    if analysis.meta is not None:
        sections.append(
            "job %s: scenario=%s duration=%.0f ms pcpus=%s domains=%s"
            % (
                label,
                analysis.meta["scenario"],
                _ms(analysis.meta["duration_ns"]),
                analysis.meta["pcpus"],
                ",".join(analysis.meta["domains"]),
            )
        )
    else:
        sections.append("job %s: (no meta record)" % label)
    if analysis.seq_gaps:
        sections.append("WARNING: %d sequence gaps (dropped records?)" % analysis.seq_gaps)

    counts = analysis.event_counts()
    if counts:
        sections.append(
            render_table(
                ["event", "count"],
                [[kind, count] for kind, count in counts.items()],
                title="event counts",
            )
        )

    if analysis.yields:
        causes = sorted({c for d in analysis.yields.values() for c in d})
        rows = [
            [domain] + [analysis.yields[domain].get(cause, 0) for cause in causes]
            for domain in sorted(analysis.yields)
        ]
        sections.append(
            render_table(["domain"] + causes, rows, title="yield decomposition")
        )

    if analysis.runstates:
        rows = []
        for domain in sorted(analysis.runstates):
            for vcpu in sorted(analysis.runstates[domain]):
                snap = analysis.runstates[domain][vcpu]
                elapsed = snap["elapsed"]
                steal_pct = 100.0 * snap["runnable"] / elapsed if elapsed else 0.0
                rows.append(
                    [vcpu]
                    + ["%.2f" % _ms(snap[name]) for name in STATES]
                    + ["%.2f" % _ms(elapsed), "%.1f" % steal_pct]
                )
        sections.append(
            render_table(
                ["vcpu"]
                + ["%s_ms" % name for name in STATES]
                + ["elapsed_ms", "steal_pct"],
                rows,
                title="runstate accounting",
            )
        )
        if analysis.violations:
            sections.append(
                "CONSERVATION VIOLATIONS: "
                + ", ".join(
                    "%s/%s off by %d ns" % entry for entry in analysis.violations
                )
            )
        else:
            sections.append("runstate conservation: OK (sum(states) == elapsed)")

    span_headers = ["span", "count", "mean_us", "p50_us", "p95_us", "p99_us", "max_us"]
    if analysis.ipi_spans:
        sections.append(
            render_table(
                span_headers,
                _span_rows(analysis.ipi_spans),
                title="IPI send -> complete spans",
            )
        )
    if analysis.lock_waits:
        sections.append(
            render_table(span_headers, _span_rows(analysis.lock_waits), title="lock waits")
        )
    if analysis.lock_holds:
        sections.append(
            render_table(span_headers, _span_rows(analysis.lock_holds), title="lock holds")
        )

    if analysis.fault_events:
        rows = [
            [
                "%.1f" % _ms(record["t"]),
                "inject" if record["kind"] == "fault_inject" else "recover",
                record["fault"],
                record.get("target") if record.get("target") is not None else "-",
                record.get("action") or "-",
            ]
            for record in analysis.fault_events
        ]
        sections.append(
            render_table(
                ["t_ms", "event", "fault", "target", "action"],
                rows,
                title="fault timeline (repro.faults)",
            )
        )

    if analysis.adaptive:
        rows = [
            [
                "%.1f" % _ms(record["t"]),
                record["prev_cores"],
                record["cores"],
                record["ipi"],
                record["ple"],
                record["irq"],
            ]
            for record in analysis.adaptive
        ]
        sections.append(
            render_table(
                ["t_ms", "from", "to", "ipi", "ple", "irq"],
                rows,
                title="adaptive resize decisions (Algorithm 1)",
            )
        )
    return "\n\n".join(sections)


def format_report(analyses):
    """Render every job's analysis in one report."""
    return ("\n\n" + "=" * 72 + "\n\n").join(
        format_analysis(analyses[job]) for job in analyses
    )


# ----------------------------------------------------------------------
# machine-readable output (repro analyze --json)
# ----------------------------------------------------------------------
def _span_dicts(histograms):
    return {key: histograms[key].snapshot() for key in sorted(histograms)}


def analysis_to_dict(analysis):
    """One job's analysis as a JSON-native dict — the same sections the
    human report renders (meta, event counts, yield decomposition,
    runstate accounting + conservation, IPI/lock span histograms, fault
    timeline, adaptive decisions), in data form. Span histograms use
    the standard :meth:`~repro.metrics.histogram.Histogram.snapshot`
    shape. Deterministic for a given trace file; dump with
    ``sort_keys=True`` for byte-stable output."""
    return {
        "job": analysis.job,
        "meta": analysis.meta,
        "seq_gaps": analysis.seq_gaps,
        "event_counts": analysis.event_counts(),
        "yields": {
            domain: dict(sorted(causes.items()))
            for domain, causes in sorted(analysis.yields.items())
        },
        "runstates": {
            domain: {str(vcpu): dict(snap) for vcpu, snap in sorted(vcpus.items())}
            for domain, vcpus in sorted(analysis.runstates.items())
        },
        "conservation_violations": [
            {"domain": domain, "vcpu": vcpu, "off_by_ns": delta}
            for domain, vcpu, delta in analysis.violations
        ],
        "ipi_spans": _span_dicts(analysis.ipi_spans),
        "lock_waits": _span_dicts(analysis.lock_waits),
        "lock_holds": _span_dicts(analysis.lock_holds),
        "fault_events": list(analysis.fault_events),
        "adaptive": list(analysis.adaptive),
    }


def report_dict(analyses):
    """Every job's analysis as ``{job_label: analysis dict}`` (what
    ``repro analyze FILE --json`` prints)."""
    return {job: analysis_to_dict(analyses[job]) for job in analyses}


def diff_dict(path_a, path_b):
    """The trace diff as data: ``{job_label: {kind: {"a": .., "b": ..,
    "delta": ..}}}`` — only kinds whose counts differ appear, so an
    empty inner dict means identical event counts for that job."""
    a = analyze_file(path_a)
    b = analyze_file(path_b)
    report = {}
    for job in sorted(set(a) | set(b)):
        counts_a = a[job].counts if job in a else {}
        counts_b = b[job].counts if job in b else {}
        deltas = {}
        for kind in sorted(set(counts_a) | set(counts_b)):
            left = counts_a.get(kind, 0)
            right = counts_b.get(kind, 0)
            if left != right:
                deltas[kind] = {"a": left, "b": right, "delta": right - left}
        report[job] = deltas
    return report


def diff_files(path_a, path_b):
    """Compare two trace files kind by kind, per job label."""
    sections = []
    for job, deltas in diff_dict(path_a, path_b).items():
        title = "job %s" % (job or "(unlabelled)")
        if deltas:
            rows = [[kind, d["a"], d["b"], d["delta"]] for kind, d in deltas.items()]
            sections.append(
                render_table(["event", "a", "b", "delta"], rows, title=title)
            )
        else:
            sections.append("%s: identical event counts" % title)
    return "\n\n".join(sections) if sections else "no jobs found"

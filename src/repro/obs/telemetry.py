"""``repro.obs.telemetry`` — runner-stack metrics registry and export.

PR 3 made the *simulated guest* observable; this module makes the
system that runs the experiments observable: the persistent worker
pool, the result cache, the cost model, and the per-job engine totals
all publish into one process-wide registry of named **counters**,
**gauges**, and deterministic log2 **histograms** (reusing
:class:`repro.metrics.histogram.Histogram`).

Design rules:

* **Telemetry never touches results.** Nothing here is read by the
  simulator; the registry is a write-only side channel, so enabling or
  disabling it cannot change a single RunResult byte (the payload
  manifest gate holds with telemetry on and off).
* **Wall-clock metrics are namespaced by suffix.** A metric whose name
  ends in ``_seconds`` (float seconds), ``_us`` (log2 histogram over
  integer microseconds), or ``_pct`` (percentages derived from wall
  time) is *wall-derived* and therefore varies between identical runs.
  Everything else — job counts, cache hits, crash counts, simulated
  event totals — is deterministic: two identical runs produce
  byte-identical ``dumps(include_wall=False)`` output (asserted by
  ``tests/test_telemetry.py``).
* **Worker snapshots merge losslessly.** Worker processes accumulate
  into their own registry and ship snapshot *deltas* back over their
  pipe (piggybacked on each job's result message);
  :meth:`Registry.merge` folds them in — counters add, histograms
  merge bucket-exactly, gauges keep the max — so merge order cannot
  matter.
* **Export is dashboard-shaped.** :func:`render_prom` emits Prometheus
  text exposition format (``# TYPE`` comments, cumulative ``le``
  buckets, ``_sum``/``_count``) from a snapshot dict, ready for a
  future ``repro serve`` scrape endpoint; :func:`validate_prom` is a
  dependency-free line-grammar checker used by the tests and CI.

``REPRO_TELEMETRY=off`` turns every record call into a no-op (the
benchmark suite measures the difference on the corun job path).

The registry is in-process state; ``repro run`` persists its final
merged snapshot to ``<cache-dir>/meta/telemetry.json`` (overwrite, not
append, so identical runs leave identical files) and ``repro
telemetry`` renders that file long after the run exited.
"""

import json
import os
import re

from ..metrics.histogram import Histogram

ENV_TELEMETRY = "REPRO_TELEMETRY"

#: Snapshot file format version (bump on layout changes).
FORMAT = 1

#: Name suffixes that mark a metric as wall-clock-derived (excluded
#: from the determinism contract and from ``dumps(include_wall=False)``).
WALL_SUFFIXES = ("_seconds", "_us", "_pct")

_OFF_VALUES = ("off", "0", "false", "no", "disabled")

#: Characters legal in a metric name. Dots namespace subsystems
#: (``pool.jobs.completed``); ``|`` appears in cost-model feature
#: classes. Both are sanitised for Prometheus export.
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.|-]*$")


def env_enabled():
    """Whether ``REPRO_TELEMETRY`` asks for telemetry (default: on)."""
    return os.environ.get(ENV_TELEMETRY, "on").strip().lower() not in _OFF_VALUES


def is_wall(name):
    """Is ``name`` a wall-clock-derived (nondeterministic) metric?"""
    return name.endswith(WALL_SUFFIXES)


class Counter:
    """A monotonically increasing named value (int or float)."""

    __slots__ = ("name", "value", "_registry")

    def __init__(self, name, registry):
        self.name = name
        self.value = 0
        self._registry = registry

    def inc(self, amount=1):
        if self._registry.enabled:
            self.value += amount


class Gauge:
    """A named value that can move both ways (pool size, queue depth)."""

    __slots__ = ("name", "value", "_registry")

    def __init__(self, name, registry):
        self.name = name
        self.value = 0
        self._registry = registry

    def set(self, value):
        if self._registry.enabled:
            self.value = value

    def max(self, value):
        if self._registry.enabled and value > self.value:
            self.value = value


class Registry:
    """A process-wide set of named counters, gauges, and histograms.

    Metrics are created on first use and live for the process lifetime;
    handles are cached so hot callers pay one dict lookup at
    instrumentation-site setup, then one attribute store per event.
    """

    def __init__(self, enabled=None):
        self.enabled = env_enabled() if enabled is None else bool(enabled)
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    # -- handle creation ----------------------------------------------
    def _check_name(self, name, kind_map):
        if not _NAME_RE.match(name):
            raise ValueError("invalid metric name %r" % name)
        return kind_map.get(name)

    def counter(self, name):
        handle = self._check_name(name, self._counters)
        if handle is None:
            handle = self._counters[name] = Counter(name, self)
        return handle

    def gauge(self, name):
        handle = self._check_name(name, self._gauges)
        if handle is None:
            handle = self._gauges[name] = Gauge(name, self)
        return handle

    def histogram(self, name):
        handle = self._check_name(name, self._histograms)
        if handle is None:
            handle = self._histograms[name] = Histogram(name=name)
        return handle

    def observe(self, name, value):
        """Record ``value`` into histogram ``name`` (no-op when off)."""
        if self.enabled:
            self.histogram(name).record(value)

    # -- snapshot / merge ---------------------------------------------
    def snapshot(self, include_wall=True):
        """JSON-native state: ``{"counters": {...}, "gauges": {...},
        "histograms": {...}}`` (plus a ``meta`` header). Zero-valued
        counters/gauges are included — a zero crash count is a
        statement, not noise."""
        keep = (lambda _name: True) if include_wall else (lambda name: not is_wall(name))
        return {
            "meta": {"format": FORMAT, "wall_suffixes": list(WALL_SUFFIXES)},
            "counters": {
                name: handle.value
                for name, handle in self._counters.items()
                if keep(name)
            },
            "gauges": {
                name: handle.value
                for name, handle in self._gauges.items()
                if keep(name)
            },
            "histograms": {
                # The standard Histogram snapshot plus the exact total,
                # so merges reconstruct sums without float round-trips.
                name: dict(hist.snapshot(), total=hist.total)
                for name, hist in self._histograms.items()
                if keep(name)
            },
        }

    def dumps(self, include_wall=True):
        """The snapshot as sorted-key JSON text (the canonical dump the
        determinism tests compare)."""
        return json.dumps(self.snapshot(include_wall), sort_keys=True, indent=2)

    def merge(self, snapshot):
        """Fold a snapshot dict (e.g. shipped back by a worker process)
        into this registry: counters add, histograms merge bucket
        counts exactly, gauges keep the maximum — all three are
        insensitive to merge order, so streaming worker completions in
        any order yields the same merged state."""
        if not isinstance(snapshot, dict):
            return
        for name, value in snapshot.get("counters", {}).items():
            if isinstance(value, (int, float)):
                self.counter(name).value += value
        for name, value in snapshot.get("gauges", {}).items():
            if isinstance(value, (int, float)):
                gauge = self.gauge(name)
                if value > gauge.value:
                    gauge.value = value
        for name, snap in snapshot.get("histograms", {}).items():
            if isinstance(snap, dict):
                self.histogram(name).merge(_histogram_from_snapshot(snap))

    def take_snapshot(self, include_wall=True):
        """Snapshot-and-reset: what the workers ship after each job so
        the parent merge sees *deltas*, never double counts."""
        snap = self.snapshot(include_wall)
        self.reset()
        return snap

    def reset(self):
        """Zero every metric (keeps the handles alive — cached handles
        at instrumentation sites stay valid)."""
        for handle in self._counters.values():
            handle.value = 0
        for handle in self._gauges.values():
            handle.value = 0
        for name, hist in self._histograms.items():
            self._histograms[name] = Histogram(name=name)


def _histogram_from_snapshot(snap):
    """Rebuild a mergeable :class:`Histogram` from its snapshot dict
    (the canonical inverse now lives on the class itself; the fleet
    layer uses the same path to merge per-host latency histograms)."""
    return Histogram.from_snapshot(snap)


# ----------------------------------------------------------------------
# the process-wide registry
# ----------------------------------------------------------------------
REGISTRY = Registry()


def counter(name):
    return REGISTRY.counter(name)


def gauge(name):
    return REGISTRY.gauge(name)


def histogram(name):
    return REGISTRY.histogram(name)


def observe(name, value):
    REGISTRY.observe(name, value)


def snapshot(include_wall=True):
    return REGISTRY.snapshot(include_wall)


def merge(snap):
    REGISTRY.merge(snap)


def reset():
    REGISTRY.reset()


def set_enabled(value):
    """Flip telemetry at runtime (tests and the overhead benchmark;
    normal use reads ``REPRO_TELEMETRY`` once at import)."""
    REGISTRY.enabled = bool(value)


# ----------------------------------------------------------------------
# persistence (so `repro telemetry` outlives the run process)
# ----------------------------------------------------------------------
def snapshot_path(cache_dir=None):
    """Where the last run's merged snapshot lives: ``meta/`` next to
    the result cache entries (the directory resolves independently of
    whether result caching is enabled)."""
    from ..runner import cache as result_cache  # lazy: avoids a cycle

    return result_cache.cache_dir(cache_dir) / "meta" / "telemetry.json"


def persist(cache_dir=None):
    """Write the registry's current snapshot (atomic tmp + rename,
    best-effort — telemetry must never fail a run). Overwrites: the
    file always describes exactly one process's runs, so identical
    processes leave identical files modulo wall metrics."""
    if not REGISTRY.enabled:
        return None
    path = snapshot_path(cache_dir)
    tmp = path.with_name("telemetry.json.tmp.%d" % os.getpid())
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(REGISTRY.dumps() + "\n", encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        return None
    return path


def load_persisted(cache_dir=None, path=None):
    """The last persisted snapshot dict, or ``None`` when no run has
    persisted one (or the file is unreadable)."""
    target = path if path is not None else snapshot_path(cache_dir)
    try:
        with open(target, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_PREFIX = "repro_"


def prom_name(name):
    """Sanitise a registry name into a Prometheus metric name:
    ``pool.jobs.completed`` → ``repro_pool_jobs_completed``."""
    cleaned = _PROM_INVALID.sub("_", name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] in "_:"):
        cleaned = "_" + cleaned
    return _PROM_PREFIX + cleaned


def render_prom(snap):
    """Render a snapshot dict as Prometheus text exposition format.

    Counters and gauges map directly; log2 histograms export as native
    Prometheus histograms with cumulative ``le`` buckets at the log2
    upper edges plus the mandatory ``+Inf`` bucket, ``_sum`` and
    ``_count`` samples. Families are emitted in sorted name order so
    the output is deterministic.
    """
    lines = []
    for name in sorted(snap.get("counters", {})):
        metric = prom_name(name)
        lines.append("# TYPE %s counter" % metric)
        lines.append("%s %s" % (metric, _prom_value(snap["counters"][name])))
    for name in sorted(snap.get("gauges", {})):
        metric = prom_name(name)
        lines.append("# TYPE %s gauge" % metric)
        lines.append("%s %s" % (metric, _prom_value(snap["gauges"][name])))
    for name in sorted(snap.get("histograms", {})):
        hist = snap["histograms"][name]
        metric = prom_name(name)
        lines.append("# TYPE %s histogram" % metric)
        cumulative = 0
        for index, count in hist.get("buckets", []):
            cumulative += count
            upper = Histogram.bucket_bounds(index)[1]
            lines.append('%s_bucket{le="%d"} %d' % (metric, upper, cumulative))
        lines.append('%s_bucket{le="+Inf"} %d' % (metric, hist.get("count", 0)))
        total = hist.get("total")
        if total is None:
            total = hist.get("mean", 0.0) * hist.get("count", 0)
        lines.append("%s_sum %s" % (metric, _prom_value(total)))
        lines.append("%s_count %d" % (metric, hist.get("count", 0)))
    return "\n".join(lines) + "\n"


def _prom_value(value):
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return "%d" % int(value)


#: One exposition sample line: ``name{labels} value`` (no timestamp —
#: we never emit one).
_PROM_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"\\]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"\\]*\")*\})?"
    r" (?P<value>[+-]?(Inf|NaN|[0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?))$"
)
_PROM_TYPE_RE = re.compile(
    r"^# TYPE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) "
    r"(?P<type>counter|gauge|histogram|summary|untyped)$"
)


def validate_prom(text):
    """Check ``text`` against the Prometheus text exposition grammar
    (the useful subset: TYPE comments, samples, histogram structure).
    Returns a list of problem strings — empty means valid. No external
    dependencies; this is the checker the tests and CI run against
    ``repro telemetry --format prom`` output."""
    problems = []
    types = {}
    samples = {}  # family name -> [(labels, value)]
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue  # blank lines are tolerated by every real scraper
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            match = _PROM_TYPE_RE.match(line)
            if match is None:
                problems.append("line %d: malformed TYPE comment: %r" % (lineno, line))
                continue
            name = match.group("name")
            if name in types:
                problems.append("line %d: duplicate TYPE for %s" % (lineno, name))
            types[name] = match.group("type")
            continue
        if line.startswith("#"):
            continue  # other comments are legal
        match = _PROM_SAMPLE_RE.match(line)
        if match is None:
            problems.append("line %d: malformed sample line: %r" % (lineno, line))
            continue
        name = match.group("name")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                family = name[: -len(suffix)]
                break
        if family not in types:
            problems.append("line %d: sample %s has no preceding TYPE" % (lineno, name))
        samples.setdefault(family, []).append((name, match.group("labels"), match.group("value")))
    for family, declared in types.items():
        rows = samples.get(family, [])
        if declared != "histogram":
            continue
        buckets = [row for row in rows if row[0] == family + "_bucket"]
        if not any(row[1] and 'le="+Inf"' in row[1] for row in buckets):
            problems.append("histogram %s: missing le=\"+Inf\" bucket" % family)
        if not any(row[0] == family + "_sum" for row in rows):
            problems.append("histogram %s: missing _sum sample" % family)
        if not any(row[0] == family + "_count" for row in rows):
            problems.append("histogram %s: missing _count sample" % family)
        counts = [float(row[2]) for row in buckets]
        if counts != sorted(counts):
            problems.append("histogram %s: bucket counts are not cumulative" % family)
    return problems

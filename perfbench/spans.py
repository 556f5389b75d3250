"""Span recording around the program's public layer functions.

The benchmark times each layer from outside the program: it replaces
the layer's public functions with wrappers that record a span
``(name, start, end, parent, op)`` per call. Spans stay in memory and
are written as JSON lines when the run ends. Nothing here edits the
program; :func:`install` only rebinds module and class attributes in
the running process.

Layer boundaries wrapped (span name ← function):

* ``sim.run`` ← ``experiments.scenarios.System.run`` (the engine and
  every module below it: hypervisor, sched, guest, workloads, core, hw)
* ``experiments.build`` ← ``runner.jobs.build_system``
* ``experiments.plan`` / ``.reduce`` / ``.format`` ← each experiment
  module's ``plan`` / ``reduce`` / ``format_result``
* ``experiments.from_dict`` ← ``experiments.results.RunResult.from_dict``
* ``runner.run_job`` ← ``runner.jobs.run_job``
* ``runner.execute`` ← ``runner.executor.execute_many`` (``execute``
  delegates to it)
* ``runner.job_key`` / ``.cache_load`` / ``.cache_store`` ←
  ``runner.cache.job_key`` / ``load`` / ``store``
* ``obs.persist`` ← ``obs.telemetry.persist``
* ``serve.read_request`` ← ``serve.http.read_request`` (timed from the
  arrival of the request line, so keep-alive idle time is excluded)
* ``serve.handle`` ← ``serve.app.ServeApp.handle``
* ``serve.compile`` ← ``serve.jobs.compile_job``
* ``serve.probe`` ← ``serve.jobs.JobManager.probe_cache_sync``
* ``serve.wave`` ← ``serve.jobs.JobManager._run_wave_sync``
"""

import asyncio
import contextvars
import functools
import json
import sys
import threading
import time


class Spans:
    """In-memory span store. A span's parent is the innermost span open
    in the same context (asyncio task or thread); its op is the op id
    current in that context when it began."""

    def __init__(self):
        self.records = []  # [name, start, end, parent_index, op, extra]
        self.current = contextvars.ContextVar("perfbench_span", default=None)
        self.op = contextvars.ContextVar("perfbench_op", default=None)
        self._lock = threading.Lock()

    def begin(self, name, op=None, start=None):
        record = [name, time.monotonic() if start is None else start, None,
                  self.current.get(), self.op.get() if op is None else op, None]
        with self._lock:
            index = len(self.records)
            self.records.append(record)
        return index, self.current.set(index)

    def end(self, index, token, extra=None):
        record = self.records[index]
        record[2] = time.monotonic()
        record[5] = extra
        self.current.reset(token)

    def write(self, path, process):
        """Dump every closed span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op, extra) in enumerate(self.records):
                if end is None:
                    continue
                handle.write(json.dumps({
                    "process": process, "id": index, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "op": op, "extra": extra,
                }) + "\n")


def _wrap(spans, name, fn, extra=None):
    """A wrapper recording one ``name`` span per call of ``fn``.
    ``extra(args, result)`` may return a value stored on the span."""
    if asyncio.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            index, token = spans.begin(name)
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                spans.end(index, token, extra(args, result) if extra else None)
        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index, token = spans.begin(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            spans.end(index, token, extra(args, result) if extra else None)
    return traced


def _rebind(original, replacement):
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (``from x import f`` copies the reference)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(spans, module, attr, name, extra=None):
    original = getattr(module, attr)
    _rebind(original, _wrap(spans, name, original, extra))


def _patch_method(spans, cls, attr, name, extra=None):
    original = cls.__dict__[attr]
    if isinstance(original, classmethod):
        setattr(cls, attr, classmethod(_wrap(spans, name, original.__func__, extra)))
    else:
        setattr(cls, attr, _wrap(spans, name, original, extra))


def _events_of(args, _result):
    """Exact simulated-event count of the ``System`` just run."""
    return args[0].sim.executed_events


def install(spans, serve=False):
    """Wrap every layer boundary (plus the serve layer when ``serve``)."""
    from repro.experiments import registry
    from repro.experiments.results import RunResult
    from repro.experiments.scenarios import System
    from repro.obs import telemetry
    from repro.runner import cache, executor, jobs

    _patch_method(spans, System, "run", "sim.run", extra=_events_of)
    _patch_method(spans, RunResult, "from_dict", "experiments.from_dict")
    _patch_function(spans, jobs, "build_system", "experiments.build")
    _patch_function(spans, jobs, "run_job", "runner.run_job")
    _patch_function(spans, executor, "execute_many", "runner.execute")
    _patch_function(spans, cache, "job_key", "runner.job_key")
    _patch_function(spans, cache, "load", "runner.cache_load")
    _patch_function(spans, cache, "store", "runner.cache_store")
    _patch_function(spans, telemetry, "persist", "obs.persist")
    for experiment in registry.available():
        module = registry.get(experiment)
        for attr, name in (("plan", "experiments.plan"),
                           ("reduce", "experiments.reduce"),
                           ("format_result", "experiments.format")):
            if hasattr(module, attr):
                setattr(module, attr, _wrap(spans, name, getattr(module, attr)))
    if serve:
        _install_serve(spans)


def _install_serve(spans):
    from repro.serve import app, http
    from repro.serve import jobs as serve_jobs

    # A Work object (slotted, so no attribute can be added) → the op id
    # of the request that compiled it, so thread-side spans (probe,
    # wave) join the right op.
    work_ops = {}

    original_read = http.read_request

    class StampedReader:
        """Passes reads through; remembers when the first line arrived."""

        def __init__(self, reader):
            self._reader = reader
            self.first_line_at = None

        async def readline(self):
            line = await self._reader.readline()
            if self.first_line_at is None:
                self.first_line_at = time.monotonic()
            return line

        async def readexactly(self, count):
            return await self._reader.readexactly(count)

    @functools.wraps(original_read)
    async def read_request(reader, client):
        stamped = StampedReader(reader)
        request = await original_read(stamped, client)
        if request is not None and stamped.first_line_at is not None:
            op = request.header("x-bench-op")
            spans.op.set(op)  # the connection task handles this request next
            index, token = spans.begin("serve.read_request", op=op,
                                       start=stamped.first_line_at)
            spans.end(index, token)
        return request

    _rebind(original_read, read_request)

    original_compile = serve_jobs.compile_job

    @functools.wraps(original_compile)
    def compile_job(payload):
        index, token = spans.begin("serve.compile")
        work = None
        try:
            work = original_compile(payload)
            return work
        finally:
            spans.end(index, token)
            if work is not None:
                work_ops[id(work)] = (work, spans.op.get())

    _rebind(original_compile, compile_job)

    original_probe = serve_jobs.JobManager.probe_cache_sync

    @functools.wraps(original_probe)
    def probe_cache_sync(self, work):
        op = work_ops.get(id(work), (None, None))[1]
        index, token = spans.begin("serve.probe", op=op)
        try:
            return original_probe(self, work)
        finally:
            spans.end(index, token)

    serve_jobs.JobManager.probe_cache_sync = probe_cache_sync

    original_wave = serve_jobs.JobManager._run_wave_sync

    @functools.wraps(original_wave)
    def run_wave_sync(self, wave):
        # Waves run on executor threads; the wave joins its first
        # submission's op (the others wait for it).
        op = work_ops.pop(id(wave[0].work), (None, None))[1] if wave else None
        for sub in wave[1:]:
            work_ops.pop(id(sub.work), None)
        op_token = spans.op.set(op)
        index, token = spans.begin("serve.wave")
        try:
            return original_wave(self, wave)
        finally:
            spans.end(index, token)
            spans.op.reset(op_token)

    serve_jobs.JobManager._run_wave_sync = run_wave_sync
    _patch_method(spans, app.ServeApp, "handle", "serve.handle")

    original_submit = serve_jobs.JobManager.submit

    @functools.wraps(original_submit)
    async def submit(self, work, client, admission):
        result = await original_submit(self, work, client, admission)
        if result[1]:  # cache hit: no wave will claim this work
            work_ops.pop(id(work), None)
        return result

    serve_jobs.JobManager.submit = submit


# -- analysis ----------------------------------------------------------


def load(paths):
    """Spans from one or more JSONL files."""
    spans = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def _union_length(intervals, low, high):
    """Total length of the union of ``intervals`` clipped to [low, high]."""
    clipped = sorted((max(s, low), min(e, high)) for s, e in intervals if e > low and s < high)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """``{name: [self_seconds per span]}``: each span's duration minus
    the part of it covered by its own child spans."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault((span["process"], span["parent"]), []).append(span)
    out = {}
    for span in spans:
        kids = children.get((span["process"], span["id"]), ())
        covered = _union_length([(k["start"], k["end"]) for k in kids],
                                span["start"], span["end"])
        out.setdefault(span["name"], []).append(span["end"] - span["start"] - covered)
    return out


def op_residuals(spans, op_roots):
    """Per op, the part of its duration that no other span of the op
    covers. ``op_roots`` maps an op id to its root span; the other
    spans of the op (client or server side, possibly overlapping, since
    a wave runs on its own thread) are merged before subtracting."""
    by_op = {}
    for span in spans:
        if span["op"] is not None:
            by_op.setdefault(span["op"], []).append(span)
    return [
        root["end"] - root["start"] - _union_length(
            [(s["start"], s["end"]) for s in by_op.get(op, ()) if s is not root],
            root["start"], root["end"])
        for op, root in op_roots.items()
    ]


# -- per-layer report --------------------------------------------------

#: Every per-layer metric: name → (unit, better). ``_ms`` metrics are
#: mean self time per call of the layer's span (self time excludes the
#: span's own children), so they move only when that layer's own code
#: does.
PER_LAYER = {
    "sim.run_ms": ("ms", "lower"),
    "sim.events": ("count", "lower"),
    "sim.host_us_per_event": ("us", "lower"),
    "experiments.build_ms": ("ms", "lower"),
    "experiments.from_dict_ms": ("ms", "lower"),
    "experiments.plan_ms": ("ms", "lower"),
    "experiments.reduce_ms": ("ms", "lower"),
    "experiments.format_ms": ("ms", "lower"),
    "runner.encode_ms": ("ms", "lower"),
    "runner.execute_other_ms": ("ms", "lower"),
    "runner.job_key_ms": ("ms", "lower"),
    "runner.cache_load_ms": ("ms", "lower"),
    "runner.cache_store_ms": ("ms", "lower"),
    "runner.cache_hit_bytes": ("bytes", "lower"),
    "runner.cache_hit_ratio": ("ratio", "higher"),
    "obs.persist_ms": ("ms", "lower"),
    "obs.persist_calls": ("count/op", "lower"),
    "serve.read_request_ms": ("ms", "lower"),
    "serve.handle_ms": ("ms", "lower"),
    "serve.compile_ms": ("ms", "lower"),
    "serve.probe_ms": ("ms", "lower"),
    "serve.submit_ms": ("ms", "lower"),
    "serve.wave_ms": ("ms", "lower"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.stream_ms": ("ms", "lower"),
    "serve.probes_per_cold": ("count", "lower"),
    "serve.admission_rejected": ("count", "lower"),
    "op.residual_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

#: Span name → the per-layer metric its mean self time reports.
SELF_TIME_METRICS = {
    "sim.run": "sim.run_ms",
    "experiments.build": "experiments.build_ms",
    "experiments.from_dict": "experiments.from_dict_ms",
    "experiments.plan": "experiments.plan_ms",
    "experiments.reduce": "experiments.reduce_ms",
    "experiments.format": "experiments.format_ms",
    "runner.run_job": "runner.encode_ms",
    "runner.execute": "runner.execute_other_ms",
    "runner.job_key": "runner.job_key_ms",
    "runner.cache_load": "runner.cache_load_ms",
    "runner.cache_store": "runner.cache_store_ms",
    "obs.persist": "obs.persist_ms",
    "serve.read_request": "serve.read_request_ms",
    "serve.handle": "serve.handle_ms",
    "serve.compile": "serve.compile_ms",
    "serve.probe": "serve.probe_ms",
}


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_report(spans, ops, counters, extra=None):
    """``{metric: (value, samples)}`` for every :data:`PER_LAYER` name.

    ``spans`` are the traced phase's span dicts, ``ops`` the number of
    ops it completed, ``counters`` the program telemetry's counter
    deltas over it, ``extra`` metrics measured elsewhere (client-side
    spans, overhead); a layer the workload never calls reads 0 with 0
    samples."""
    selfs = self_times(spans)
    report = {name: (0.0, 0) for name in PER_LAYER}
    for span_name, metric_name in SELF_TIME_METRICS.items():
        values = selfs.get(span_name, [])
        report[metric_name] = (_mean(values) * 1e3, len(values))
    runs = [s for s in spans if s["name"] == "sim.run"]
    events = sum(s["extra"] or 0 for s in runs)
    report["sim.events"] = (events / len(runs) if runs else 0.0, len(runs))
    run_self = sum(selfs.get("sim.run", []))
    report["sim.host_us_per_event"] = (run_self * 1e6 / events if events else 0.0, events)
    report["serve.wave_ms"] = (
        _mean([s["end"] - s["start"] for s in spans
               if s["name"] == "runner.execute" and s["process"] == "server"]) * 1e3,
        sum(1 for s in spans if s["name"] == "runner.execute" and s["process"] == "server"),
    )
    persists = len(selfs.get("obs.persist", []))
    report["obs.persist_calls"] = (persists / ops if ops else 0.0, persists)
    hits = counters.get("cache.hits", 0)
    probes = hits + counters.get("cache.misses", 0)
    report["runner.cache_hit_bytes"] = (
        counters.get("cache.hit_bytes", 0) / hits if hits else 0.0, hits)
    report["runner.cache_hit_ratio"] = (hits / probes if probes else 0.0, probes)
    report.update(extra or {})
    return report


def print_report(report):
    for name in PER_LAYER:
        value, samples = report[name]
        print("# layer %-28s %14.4f %-9s samples=%d"
              % (name, value, PER_LAYER[name][0], samples), flush=True)


def report_metrics(report):
    return {name: {"value": report[name][0], "unit": PER_LAYER[name][0]}
            for name in PER_LAYER}

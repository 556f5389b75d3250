"""Submissions, validation, and the dispatcher behind ``repro serve``.

A **submission** is one client request for simulation work — either a
named experiment (``POST /experiments``) or a raw
:class:`~repro.runner.jobs.SimJob` spec (``POST /jobs``). Submissions
get server-assigned IDs and walk the lifecycle::

    queued -> running -> done | failed
    queued -> cancelled

The :class:`JobManager` owns them end to end:

* **validation first** — experiment names, scenario names, policy
  modes, scheduler backends, fault plans, and placement policies are
  all checked against their registries *at submission time*, so a bad
  spec is a 400 before it costs a queue slot, never a worker-side
  stack trace;
* **cache fast path** — a submission whose every job is already in the
  content-addressed result cache is answered synchronously (state
  ``done`` before ``POST`` even returns, ``X-Repro-Cache: hit``), with
  no pool round-trip and no admission slot consumed;
* **one dispatcher task** — cold submissions queue onto a single
  asyncio consumer that drains waves of them into one
  :func:`repro.runner.execute_many` call each (cross-submission dedup
  and longest-first dispatch for free), run in a worker thread so the
  event loop keeps serving requests and streams;
* **a dedicated simulation core** — the manager owns a
  :class:`~repro.runner.pool.WorkerPool` of ``workers`` processes,
  spawned at start-up and bound, with the server's cache settings, into
  the one ``execute`` that planned and driver waves alike run through;
  once it is warm every wave simulates there, so hits and streams
  never queue behind a simulation for this process's interpreter lock.
  Waves that arrive while it warms up (or after a spawn failure) run
  inline in the wave thread, unless the executor would have fanned
  them out anyway (:func:`repro.runner.executor._pick_pool`);
* **event streams** — every lifecycle transition and every executor
  progress callback (cache hits, pool hand-offs, completions)
  appends to the submission's ordered event list; any number of
  ``/jobs/<id>/events`` streams replay and then follow it live.
"""

import asyncio
import dataclasses
import functools
import itertools
import threading
import time
import warnings

from ..errors import ReproError
from ..experiments import registry as experiment_registry
from ..experiments.results import RunResult
from ..obs import telemetry
from ..runner import cache as result_cache
from ..runner import execute_many
from ..runner.jobs import SimJob, apply_options, check_job
from ..runner.pool import WorkerPool

_SUBMITTED = telemetry.counter("serve.submissions.accepted")
_CACHE_FAST = telemetry.counter("serve.submissions.cache_fast_path")
_DONE = telemetry.counter("serve.submissions.done")
_FAILED = telemetry.counter("serve.submissions.failed")
_CANCELLED = telemetry.counter("serve.submissions.cancelled")
_WAVES = telemetry.counter("serve.dispatch_waves")
_QUEUE_DEPTH = telemetry.gauge("serve.queue_depth")

#: Lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL = (DONE, FAILED, CANCELLED)

#: Most submissions folded into one ``execute_many`` wave. Bounded so
#: one wave cannot hold the dispatcher (and every later submission)
#: hostage for arbitrarily long.
WAVE_MAX = 16

#: Coarse wall-time guess for a driver experiment (fleet), which has no
#: enumerable job plan to predict from; feeds Retry-After only.
DRIVER_PREDICT_SECONDS = 5.0

#: Wall seconds per simulated nanosecond that a server predicts from
#: until its first planned wave finishes (~2 wall-sec per simulated
#: second, the observed order of magnitude for this engine); feeds
#: Retry-After only.
DEFAULT_RATE = 2e-9

#: Experiment-submission knobs every experiment accepts; a driver also
#: takes its module's ``OPTIONS``.
_EXPERIMENT_KEYS = ("experiment", "seed", "scale", "scheduler", "faults")
#: Keys a raw SimJob submission may carry.
_JOB_KEYS = tuple(field.name for field in dataclasses.fields(SimJob))

#: Hard ceiling on one raw job's simulated horizon (warmup + duration):
#: 10 simulated seconds is ~40x the longest registry experiment job and
#: already minutes of wall time — anything larger is a typo'd unit.
MAX_JOB_HORIZON_NS = 10_000_000_000

#: Ceiling on one fleet request's planned host jobs (hosts x epochs x
#: policies) and on its expected session arrivals (rate x epochs):
#: ~38x the default fleet's 108 host jobs and ~28x its 144 sessions.
#: Past that it is a typo'd knob, and a huge ``rate`` or ``hosts``
#: would exhaust the server's memory in the wave thread.
MAX_FLEET_SIZE = 4096


class ValidationError(ReproError):
    """A submission failed registry/type validation (HTTP 400)."""


def _require(condition, detail):
    if not condition:
        raise ValidationError(detail)


class Work:
    """A validated submission compiled to something executable: either
    a job plan plus a finalizer, or a driver callable."""

    __slots__ = ("kind", "name", "jobs", "finalize", "driver")

    def __init__(self, kind, name, jobs=None, finalize=None, driver=None):
        self.kind = kind  # "experiment" | "job"
        self.name = name
        self.jobs = jobs  # [SimJob] or None for drivers
        self.finalize = finalize  # {tag: RunResult} -> result dict
        self.driver = driver  # execute -> result (execute: plans -> by_plan)


def _check_horizon(tag, horizon_ns):
    _require(horizon_ns <= MAX_JOB_HORIZON_NS,
             "job %r: simulated horizon %d ns exceeds the %d ns service limit"
             % (tag, horizon_ns, MAX_JOB_HORIZON_NS))


def _validate_faults(faults):
    """Service policy for a fault request: a built-in plan name or a
    plan dict, never a path on the server."""
    from ..faults import builtin_plans

    _require(faults is None or isinstance(faults, dict) or faults in builtin_plans(),
             "unknown fault plan %r (a plan dict, or one of: %s)"
             % (faults, ", ".join(builtin_plans())))
    return faults


def _rendered(prepared, outcome):
    results, text = outcome
    return {"results": results, "formatted": text, "claims": prepared.claims(results)}


def compile_experiment(payload):
    """Validate an experiment submission and compile it to
    :class:`Work` through :func:`repro.experiments.registry.prepare`
    (its ReproError is the 400), adding only service policy: known
    keys, faults, the horizon limit and :data:`MAX_FLEET_SIZE`."""
    _require(isinstance(payload, dict), "expected a JSON object")
    name = payload.get("experiment")
    _require(isinstance(name, str) and name,
             "'experiment' is required (see GET /experiments)")
    try:
        module = experiment_registry.get(name)
    except ReproError as err:
        raise ValidationError(str(err))
    allowed = _EXPERIMENT_KEYS + getattr(module, "OPTIONS", ())
    unknown = sorted(set(payload) - set(allowed))
    _require(not unknown, "unknown field(s) %s (allowed: %s)"
             % (", ".join(map(repr, unknown)), ", ".join(allowed)))

    options = dict(payload)
    del options["experiment"]
    if "scale" in options:
        options["scale_override"] = options.pop("scale")
    faults = _validate_faults(options.pop("faults", None))
    try:
        prepared = experiment_registry.prepare(name, faults=faults, **options)
    except ReproError as err:
        raise ValidationError(str(err))
    if prepared.jobs is None:
        spec, policies = prepared.options["spec"], prepared.options["policies"]
        _check_horizon("fleet host", spec.epoch_ns())
        for what, size in (("host jobs", spec.hosts * spec.epochs * len(policies)),
                           ("expected sessions", spec.rate * spec.epochs)):
            _require(size <= MAX_FLEET_SIZE, "fleet: %g planned %s exceed the %d "
                     "service limit" % (size, what, MAX_FLEET_SIZE))
        return Work("experiment", name, driver=lambda execute: _rendered(
            prepared, prepared.drive(execute)))
    for job in prepared.jobs:
        _check_horizon(job.tag, job.horizon_ns())

    def finalize(by_tag):
        return _rendered(prepared, prepared.finish(by_tag))

    return Work("experiment", name, jobs=prepared.jobs, finalize=finalize)


def compile_job(payload):
    """Validate a raw SimJob submission and compile it to :class:`Work`.
    The spec rules are :func:`repro.runner.jobs.check_job`'s, and
    :func:`~repro.runner.jobs.apply_options` stores the fault plan in
    canonical form. This adds only service policy: no unknown keys,
    faults by built-in name or as a dict (never a server-side path),
    and the horizon limit."""
    _require(isinstance(payload, dict), "expected a JSON object")
    unknown = sorted(set(payload) - set(_JOB_KEYS))
    _require(not unknown, "unknown field(s) %s (allowed: %s)"
             % (", ".join(map(repr, unknown)), ", ".join(_JOB_KEYS)))
    fields = dict(payload)
    faults = _validate_faults(fields.pop("faults", None))
    job = SimJob(**dict({"tag": "job", "scenario": None, "duration_ns": None}, **fields))
    try:
        check_job(job)
        job = apply_options(job, faults=faults)
    except ReproError as err:
        raise ValidationError(str(err))
    _check_horizon(job.tag, job.horizon_ns())

    def finalize(by_tag):
        return {"payload": by_tag[job.tag].to_dict()}

    return Work("job", "%s:%s" % (job.scenario, job.tag), jobs=[job], finalize=finalize)


class Submission:
    """One accepted unit of client work and its event history."""

    _ids = itertools.count(1)

    __slots__ = ("id", "work", "client", "state", "events", "result", "error",
                 "cache", "jobs_done", "jobs_total", "created_unix",
                 "_queued_at", "cond", "predicted_seconds")

    def __init__(self, work, client, predicted_seconds=0.0):
        self.id = "j-%06d" % next(Submission._ids)
        self.work = work
        self.client = client
        self.state = QUEUED
        self.events = []
        self.result = None
        self.error = None
        self.cache = None  # "hit" | "miss"
        self.jobs_done = 0
        self.jobs_total = len(work.jobs) if work.jobs is not None else None
        self.created_unix = time.time()
        self._queued_at = time.monotonic()
        self.cond = asyncio.Condition()
        self.predicted_seconds = predicted_seconds

    def summary(self):
        out = {
            "id": self.id,
            "kind": self.work.kind,
            "name": self.work.name,
            "client": self.client,
            "state": self.state,
            "cache": self.cache,
            "jobs_total": self.jobs_total,
            "jobs_done": self.jobs_done,
            "events": len(self.events),
            "created_unix": round(self.created_unix, 3),
        }
        if self.error is not None:
            out["error"] = self.error
        return out


class JobManager:
    """Owns every submission, the dispatch queue, the worker-thread
    bridge, and the server's worker pool. Constructed by
    :class:`repro.serve.app.ServeApp`; all public methods run on the
    event loop."""

    def __init__(self, workers=1, cache=None, cache_dir=None, history_limit=512):
        self.workers = max(1, int(workers))
        self.cache = cache
        self.cache_dir = cache_dir
        self.history_limit = history_limit
        self.submissions = {}
        self._order = []  # insertion-ordered ids (capped to history_limit)
        self._queue = asyncio.Queue()
        self._active = set()  # ids queued or running
        self._idle = asyncio.Event()
        self._idle.set()
        self._loop = None
        self._dispatcher = None
        self._rate = DEFAULT_RATE
        self.pool = None
        #: Held by the wave thread for a whole wave, so the pool is
        #: never closed under a running ``execute_many``.
        self._wave_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    async def start(self):
        """Spawn the pool (its warm-up overlaps the rest of start-up)
        and start the dispatcher."""
        self._loop = asyncio.get_running_loop()
        try:
            self.pool = WorkerPool(self.workers)
        except (OSError, ValueError) as err:
            warnings.warn(
                "could not start the server's worker pool (%s); "
                "running waves inline" % err,
                RuntimeWarning,
                stacklevel=2,
            )
        self._dispatcher = asyncio.create_task(self._run_waves())

    async def stop(self):
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None

    async def wait_idle(self):
        """Block until no submission is queued or running."""
        await self._idle.wait()

    async def close_pool(self):
        """Shut the worker pool down once any running wave has ended;
        idempotent. Later waves (if any) run inline."""
        await asyncio.get_running_loop().run_in_executor(None, self._close_pool_sync)

    def _close_pool_sync(self):
        with self._wave_lock:
            if self.pool is not None:
                self.pool.close()

    def pool_state(self):
        """Where the next wave simulates (``/healthz`` ``pool``):
        ``ready`` (in the pool), ``warming`` (inline; the pool is still
        importing) or ``inline`` (no pool: spawn failed or drained)."""
        if self.pool is None or not self.pool.alive:
            return "inline"
        return "ready" if self.pool.warm else "warming"

    # -- admission support --------------------------------------------

    def backlog_seconds(self):
        """Predicted wall seconds to drain everything queued or
        running, divided across the workers — the Retry-After basis."""
        pending = sum(
            self.submissions[sid].predicted_seconds
            for sid in self._active
            if sid in self.submissions
        )
        return pending / self.workers

    def predict_seconds(self, work):
        if work.jobs is None:
            return DRIVER_PREDICT_SECONDS
        return self._rate * sum(job.horizon_ns() for job in work.jobs)

    def _learn_rate(self, subs, seconds):
        """Fold one planned wave's wall time into the rate, weighing it
        equally with the rate before. The wave's seconds are multiplied
        by the workers because :meth:`backlog_seconds` divides by them:
        the same wave queued again then predicts its own wall time."""
        horizon = sum(job.horizon_ns() for sub in subs for job in sub.work.jobs)
        if horizon > 0:
            self._rate = (self._rate + seconds * self.workers / horizon) / 2

    # -- submission ----------------------------------------------------

    def probe_cache_sync(self, work):
        """Blocking cache probe: ``{tag: frozen payload}`` when *every*
        job of ``work`` is cached, else ``None``. Runs in an executor
        thread (payloads can be megabytes)."""
        if work.jobs is None:
            return None
        if not (result_cache.enabled() if self.cache is None else bool(self.cache)):
            return None
        directory = result_cache.dir_name(self.cache_dir)
        payloads = {}
        for job in work.jobs:
            hit = result_cache.load(result_cache.job_key(job), directory)
            if hit is None:
                return None
            payloads[job.tag] = hit
        return payloads

    async def submit(self, work, client, admission):
        """Admit and enqueue (or fast-path) one compiled submission.
        Returns ``(submission, cache_hit)``; raises
        :class:`~repro.serve.admission.Rejection` on refusal."""
        if admission.draining:
            admission.admit(client)  # raises the 503
        payloads = await asyncio.get_running_loop().run_in_executor(
            None, self.probe_cache_sync, work
        )
        if payloads is not None:
            sub = Submission(work, client)
            self._register(sub)
            sub.cache = "hit"
            sub.jobs_done = sub.jobs_total
            _SUBMITTED.inc()
            _CACHE_FAST.inc()
            self._post_event(sub, {"event": "queued", "cache": "hit"})
            try:
                by_tag = {
                    tag: RunResult.from_frozen(payload)
                    for tag, payload in payloads.items()
                }
                sub.result = work.finalize(by_tag)
                self._finish(sub, DONE, {"cache": "hit"})
            except ReproError as err:
                sub.error = str(err)
                self._finish(sub, FAILED, {"error": sub.error})
            return sub, True

        admission.admit(client)
        sub = Submission(work, client, predicted_seconds=self.predict_seconds(work))
        sub.cache = "miss"
        self._register(sub)
        self._active.add(sub.id)
        self._idle.clear()
        _SUBMITTED.inc()
        _QUEUE_DEPTH.set(self._queue.qsize() + 1)
        self._post_event(sub, {"event": "queued", "cache": "miss"})
        await self._queue.put((sub, admission))
        return sub, False

    def _register(self, sub):
        self.submissions[sub.id] = sub
        self._order.append(sub.id)
        # Cap memory: forget the oldest *terminal* submissions past the
        # history limit (active ones are never evicted).
        while len(self._order) > self.history_limit:
            for index, sid in enumerate(self._order):
                old = self.submissions.get(sid)
                if old is None or old.state in TERMINAL:
                    self._order.pop(index)
                    self.submissions.pop(sid, None)
                    break
            else:
                break

    def cancel(self, sub, admission):
        """Cancel a still-queued submission; returns ``False`` when it
        already left the queue (running or terminal)."""
        if sub.state != QUEUED:
            return False
        sub.state = CANCELLED
        self._active.discard(sub.id)
        admission.unqueue(sub.client)
        admission.finished(sub.client)
        _CANCELLED.inc()
        self._post_event(sub, {"event": "cancelled"})
        if not self._active:
            self._idle.set()
        return True

    # -- events --------------------------------------------------------

    def _post_event(self, sub, payload):
        """Append one event and wake the streamers. Loop thread only —
        worker threads go through ``call_soon_threadsafe``."""
        event = dict(payload)
        event["seq"] = len(sub.events)
        event["id"] = sub.id
        event["ts_unix"] = round(time.time(), 3)
        sub.events.append(event)

        async def _notify():
            async with sub.cond:
                sub.cond.notify_all()

        asyncio.ensure_future(_notify())

    def _post_threadsafe(self, sub, payload):
        self._loop.call_soon_threadsafe(self._post_event, sub, payload)

    def _finish(self, sub, state, extra=None):
        sub.state = state
        self._active.discard(sub.id)
        (_DONE if state == DONE else _FAILED if state == FAILED else _CANCELLED).inc()
        self._post_event(sub, dict(extra or {}, event=state))
        if not self._active:
            self._idle.set()

    # -- dispatch ------------------------------------------------------

    async def _run_waves(self):
        while True:
            sub, admission = await self._queue.get()
            wave = [(sub, admission)]
            while len(wave) < WAVE_MAX:
                try:
                    wave.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            live = [(s, a) for s, a in wave if s.state == QUEUED]
            _QUEUE_DEPTH.set(self._queue.qsize())
            if not live:
                continue
            _WAVES.inc()
            for s, a in live:
                s.state = RUNNING
                a.started(s.client)
                telemetry.observe(
                    "serve.queue_wait_us",
                    (time.monotonic() - s._queued_at) * 1e6,
                )
                self._post_event(s, {"event": "running"})
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, self._run_wave_sync, [s for s, _ in live]
                )
            finally:
                for s, a in live:
                    a.finished(s.client)

    # -- worker-thread side -------------------------------------------

    def _run_wave_sync(self, wave):
        """Execute one wave in a worker thread: a single
        ``execute_many`` over every planned submission (drivers run
        after, one by one). Never raises — failures land on the
        submissions they belong to."""
        planned = [s for s in wave if s.work.jobs is not None]
        drivers = [s for s in wave if s.work.jobs is None]

        with self._wave_lock:
            if planned:
                start = time.perf_counter()
                self._execute_planned(planned)
                self._learn_rate(planned, time.perf_counter() - start)
            for sub in drivers:
                self._execute_driver(sub)

    def _execute(self, subs_of):
        """``execute_many`` bound to this server's workers, cache, cache
        directory and pool; each progress event of a job tagged ``tag``
        posts to every submission in ``subs_of(tag)``."""
        def progress(event, tag, done, total):
            for sub in subs_of(tag):
                if event in ("hit", "done"):
                    sub.jobs_done += 1
                self._post_threadsafe(sub, {
                    "event": "progress",
                    "phase": event,
                    "tag": tag,
                    "jobs_done": sub.jobs_done,
                    "jobs_total": sub.jobs_total,
                })

        return functools.partial(
            execute_many, workers=self.workers, cache=self.cache,
            cache_dir=self.cache_dir, progress=progress, pool=self.pool,
        )

    def _execute_planned(self, subs):
        tag_subs = {}
        for sub in subs:
            for job in sub.work.jobs:
                tag_subs.setdefault(job.tag, []).append(sub)
        plans = {sub.id: sub.work.jobs for sub in subs}
        before = _engine_counters()
        try:
            by_plan = self._execute(lambda tag: tag_subs.get(tag, ()))(plans)
        except Exception:
            # One poisoned job fails a whole batch; isolate by retrying
            # each submission on its own so innocent ones still land.
            if len(subs) == 1:
                self._fail_sync(subs[0])
                return
            for sub in subs:
                sub.jobs_done = 0  # the retry re-reports every job
                self._execute_planned([sub])
            return
        # The engine/cache counter movement this wave caused rides on
        # each terminal event, so streaming clients see what the wave
        # cost without scraping /metrics.
        delta = _counter_delta(before, _engine_counters())
        for sub in subs:
            try:
                sub.result = sub.work.finalize(by_plan[sub.id])
                self._complete_sync(sub, DONE, {"cache": "miss", "telemetry": delta})
            except Exception as err:
                sub.error = str(err)
                self._complete_sync(sub, FAILED, {"error": sub.error})

    def _execute_driver(self, sub):
        before = _engine_counters()
        try:
            sub.result = sub.work.driver(self._execute(lambda tag: (sub,)))
        except Exception:
            self._fail_sync(sub)
            return
        delta = _counter_delta(before, _engine_counters())
        self._complete_sync(sub, DONE, {"cache": "miss", "telemetry": delta})

    def _fail_sync(self, sub):
        import traceback

        sub.error = traceback.format_exc(limit=8).strip().splitlines()[-1]
        self._complete_sync(sub, FAILED, {"error": sub.error})

    def _complete_sync(self, sub, state, extra):
        self._loop.call_soon_threadsafe(self._finish, sub, state, extra)


def _engine_counters():
    """The deterministic engine/cache counters attached (as a wave
    delta) to completion events."""
    counters = telemetry.snapshot().get("counters", {})
    keep = ("engine.jobs_simulated", "engine.events_simulated",
            "cache.hits", "cache.misses", "cache.stores",
            "pool.jobs_completed", "runner.jobs_inline")
    return {name: counters.get(name, 0) for name in keep}


def _counter_delta(before, after):
    return {name: after[name] - before.get(name, 0) for name in after}

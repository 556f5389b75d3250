"""Scale-out job execution.

:func:`execute` takes the declarative job plan an experiment emitted
and returns ``{tag: RunResult}``; :func:`execute_many` does the same
for a whole batch of plans at once (``repro run --all``). Within one
call the executor:

1. deduplicates jobs whose canonical specs coincide — across *all*
   plans in the batch (several tags, and several experiments, can
   describe the same physical simulation);
2. replays every point already present in the on-disk result cache in
   one probe pass;
3. fans the remaining simulations out over the **persistent worker
   pool** (:mod:`repro.runner.pool` — spawned once per process
   lifetime, shared across calls), or runs them inline when
   ``workers <= 1`` / the pool is unavailable. A caller that owns a
   pool (``repro serve``) passes it as ``pool=``: it takes what the
   shared pool would have taken and, once it is warm, every pending
   job, even one job at ``workers=1``.

Pooled jobs are submitted longest-first using the persisted cost
model (:mod:`repro.runner.costmodel`), many-small-job plans go out in
chunks so the per-task queue round-trip amortises, and completions
stream back unordered instead of blocking on a barrier. Workers return
the payload itself; inline or pooled, every simulated result lands in
the parent through one function that updates the cost model, stores
the cache entry and reports progress — so the parent is the cache's
only writer and its hit/miss counters mean what they say.

``REPRO_RUNNER_WORKERS`` sets the default pool size (1 = serial,
inline execution; ``auto`` = one per CPU); ``REPRO_CACHE=off`` disables
result caching. Explicit arguments win over all knobs.
"""

import os
import threading
import time
import warnings

from ..errors import ConfigError, WorkerError
from ..obs import telemetry
from . import cache as result_cache
from . import costmodel, pool as pool_mod
from .jobs import run_job

#: Executor telemetry: plan-level job accounting (the cache layer
#: counts hits/misses itself; the pool counts dispatches).
_BATCHES = telemetry.counter("runner.batches")
_PLANNED = telemetry.counter("runner.jobs_planned")
_UNIQUE = telemetry.counter("runner.jobs_unique")
_INLINE = telemetry.counter("runner.jobs_inline")

ENV_WORKERS = "REPRO_RUNNER_WORKERS"

#: Serialises the simulation phase across threads. The persistent pool
#: is strictly single-dispatcher (``WorkerPool.run`` raises on
#: re-entry), which was fine while every process had exactly one
#: ``execute*`` caller — but a long-lived multi-client host
#: (``repro serve``) reaches this module from several request threads
#: at once. Without the lock the second thread would trip the
#: re-entrancy error; with it, batches queue up and share the pool in
#: turn, and pool epoch accounting stays coherent. Cache probes and
#: reduce() stay lock-free — only the simulate-the-misses phase is
#: serialised.
_DISPATCH_LOCK = threading.Lock()

#: Chunking kicks in when a plan carries more than ``CHUNK_THRESHOLD``
#: pending jobs per worker; chunks never exceed ``CHUNK_CAP`` jobs so
#: a crash retries at most that many.
CHUNK_THRESHOLD = 4
CHUNK_CAP = 8


def parse_workers(text):
    """``N|auto`` -> a worker count: a positive integer, or ``auto`` for
    one worker per CPU. The one grammar of ``--workers`` and
    ``REPRO_RUNNER_WORKERS``; anything else raises ConfigError."""
    text = text.strip()
    if text.lower() == "auto":
        return max(1, os.cpu_count() or 1)
    if not text.isdecimal() or int(text) < 1:
        raise ConfigError("expected a positive integer or 'auto', got %r" % text)
    return int(text)


def env_setting(name, parse, default, fallback):
    """``parse`` of environment variable ``name`` (the grammar of its
    flag; ``parse`` raises ConfigError on anything else); unset or
    empty means ``default``. An invalid value is almost certainly a
    typo: it warns, then returns ``default`` (``fallback`` says so)."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return parse(raw)
    except ConfigError as err:
        warnings.warn(
            "ignoring %s: %s; %s" % (name, err, fallback),
            RuntimeWarning,
            stacklevel=3,
        )
        return default


def default_workers():
    """Worker count from ``REPRO_RUNNER_WORKERS`` (:func:`parse_workers`
    through :func:`env_setting`); unset, empty or invalid means 1."""
    return env_setting(ENV_WORKERS, parse_workers, 1, "running serial")


def _chunk_size(pending_count, workers):
    """Jobs per dispatch chunk: 1 until the plan is big enough that the
    queue round-trip would dominate, then roughly ``CHUNK_THRESHOLD``
    waves per worker, capped."""
    if pending_count <= workers * CHUNK_THRESHOLD:
        return 1
    return max(1, min(CHUNK_CAP, pending_count // (workers * CHUNK_THRESHOLD)))


class Progress:
    """Streams job lifecycle events to a caller-provided callback.

    The callback signature is ``callback(event, tag, done, total)``
    where ``event`` is ``"hit"`` (replayed from the result cache),
    ``"start"`` (a worker — or the inline loop — picked the job up) or
    ``"done"`` (result landed). ``done``/``total`` count *finished*
    unique jobs, cache hits included, so a renderer can draw
    ``[done/total]`` without keeping its own books. A ``None`` callback
    makes every notification a no-op.
    """

    __slots__ = ("callback", "total", "done")

    def __init__(self, callback=None, total=0):
        self.callback = callback
        self.total = total
        self.done = 0

    def hit(self, tag):
        self.done += 1
        if self.callback is not None:
            self.callback("hit", tag, self.done, self.total)

    def start(self, tag):
        if self.callback is not None:
            self.callback("start", tag, self.done, self.total)

    def finish(self, tag):
        self.done += 1
        if self.callback is not None:
            self.callback("done", tag, self.done, self.total)


def _pick_pool(pending, workers, owned):
    """The pool this batch runs on, or ``None`` for inline execution.
    Without a caller-owned pool, the shared pool takes batches of more
    than one job at ``workers > 1``. A caller-owned pool takes those
    too, warm or not, and once it is warm it takes every batch; while
    it warms up (or once closed) a batch the shared pool would not have
    taken runs inline."""
    fans_out = len(pending) > 1 and workers > 1
    if owned is not None:
        return owned if owned.alive and (owned.warm or fans_out) else None
    return pool_mod.shared_pool(workers) if fans_out else None


def _simulate_pending(pending, workers, use_cache, cache_dir, progress, owned):
    """Simulate the deduplicated cache-miss jobs; returns ``{key:
    frozen payload}`` (:func:`~repro.runner.cache.freeze`). Chooses a
    pool or inline execution (:func:`_pick_pool`); either way each
    result goes through ``land``."""
    payloads = {}
    with _DISPATCH_LOCK:
        model = costmodel.CostModel.load(cache_dir)

        def land(job, key, payload, seconds):
            model.observe(job, seconds)
            if use_cache:
                result_cache.store(key, job, payload, cache_dir)
            payloads[key] = result_cache.freeze(payload)
            progress.finish(job.tag)

        try:
            chosen = _pick_pool(pending, workers, owned)
            if chosen is None:
                _simulate_inline(pending, land, progress)
            else:
                _simulate_on_pool(chosen, pending, workers, model, land, progress)
        finally:
            if use_cache:  # the model lives inside the cache directory
                model.save()
    return payloads


def _simulate_inline(pending, land, progress):
    """Serial path: run every pending job in this process."""
    for job, key in pending:
        progress.start(job.tag)
        start = time.perf_counter()
        payload = run_job(job)
        _INLINE.inc()
        land(job, key, payload, time.perf_counter() - start)


def _simulate_on_pool(worker_pool, pending, workers, model, land, progress):
    """Dispatch ``pending`` over ``worker_pool``: longest-first
    submission, each result landed as it streams back."""
    ordered = costmodel.order_longest_first([job for job, _ in pending], model)
    key_of = {id(job): key for job, key in pending}

    def on_result(job_id, outcome):
        job = ordered[job_id]
        if outcome.kind == "payload":
            land(job, key_of[id(job)], outcome.value, outcome.seconds)

    outcomes = worker_pool.run(
        [job.to_dict() for job in ordered],
        chunk_size=_chunk_size(len(ordered), workers),
        max_workers=workers,
        on_result=on_result,
        on_progress=lambda job_id, _tag: progress.start(ordered[job_id].tag),
    )
    for job, outcome in zip(ordered, outcomes):
        if outcome.kind == "error":
            raise WorkerError(
                "job %r failed in a worker process:\n%s" % (job.tag, outcome.value)
            )


def _probe_plans(plans, use_cache, cache_dir):
    """One cache-probe pass across every plan in the batch. Returns
    ``(keyed, payloads, pending, hit_tags)`` where ``keyed`` maps each
    plan name to its ``[(job, key)]`` list, ``payloads`` holds every
    cache hit (frozen), ``pending`` lists the deduplicated misses, and
    ``hit_tags`` the tags replayed from cache (for progress
    reporting). The cache directory is resolved once for the pass."""
    directory = result_cache.dir_name(cache_dir)
    keyed = {}
    payloads = {}
    pending = []
    pending_keys = set()
    hit_tags = []
    for name, jobs in plans.items():
        jobs = list(jobs)
        tags = [job.tag for job in jobs]
        if len(set(tags)) != len(tags):
            raise ConfigError(
                "duplicate job tags in plan%s: %r"
                % (" %r" % name if name else "", sorted(tags))
            )
        keyed[name] = [(job, result_cache.job_key(job)) for job in jobs]
        for job, key in keyed[name]:
            if key in payloads or key in pending_keys:
                continue  # duplicate physical point inside this batch
            if use_cache:
                hit = result_cache.load(key, directory)
                if hit is not None:
                    payloads[key] = hit
                    hit_tags.append(job.tag)
                    continue
            pending.append((job, key))
            pending_keys.add(key)
    return keyed, payloads, pending, hit_tags


def execute(jobs, workers=None, cache=None, cache_dir=None, progress=None):
    """Execute a job plan; returns ``{tag: RunResult}`` in plan order.

    ``workers=None`` reads ``REPRO_RUNNER_WORKERS``; ``cache=None``
    reads ``REPRO_CACHE`` (``True``/``False`` force it); ``cache_dir``
    overrides the cache location (mainly for tests); ``progress`` is a
    ``callback(event, tag, done, total)`` live-progress hook (see
    :class:`Progress`).
    """
    return execute_many(
        {"": jobs}, workers=workers, cache=cache, cache_dir=cache_dir,
        progress=progress,
    )[""]


def execute_many(plans, workers=None, cache=None, cache_dir=None, progress=None,
                 pool=None):
    """Execute a batch of job plans sharing one pool and one
    cache-probe pass; returns ``{name: {tag: RunResult}}``.

    ``pool`` is a :class:`~repro.runner.pool.WorkerPool` the caller
    owns and closes; ``None`` uses the process-wide shared pool.

    ``plans`` maps a plan name to its job list. Jobs that describe the
    same physical simulation — within one plan or across plans — are
    simulated once. This is what ``repro run --all`` (and any
    multi-experiment invocation) goes through, so e.g. the seed-42
    gmake co-run baseline shared by fig4, table2, and table4a costs
    one simulation for the whole batch.

    Worker telemetry deltas merge into this process's registry; the
    commands that own a run (``repro run``, ``repro fleet``, ``repro
    serve`` at drain) persist it once for ``repro telemetry``.
    """
    from ..experiments.results import RunResult

    plans = {name: list(jobs) for name, jobs in plans.items()}
    if workers is None:
        workers = default_workers()
    use_cache = result_cache.enabled() if cache is None else bool(cache)

    keyed, payloads, pending, hit_tags = _probe_plans(plans, use_cache, cache_dir)
    _BATCHES.inc()
    _PLANNED.inc(sum(len(pairs) for pairs in keyed.values()))
    _UNIQUE.inc(len(payloads) + len(pending))
    tracker = Progress(progress, total=len(payloads) + len(pending))
    for tag in hit_tags:
        tracker.hit(tag)
    if pending:
        payloads.update(
            _simulate_pending(pending, workers, use_cache, cache_dir, tracker, pool)
        )
    # Every payload is frozen, so each tag sharing a key (in this plan
    # or another) builds its own result from the same blobs.
    return {
        name: {job.tag: RunResult.from_frozen(payloads[key]) for job, key in pairs}
        for name, pairs in keyed.items()
    }

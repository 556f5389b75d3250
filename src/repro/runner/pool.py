"""Persistent simulation worker pool.

Workers spawn **once per process lifetime** and are shared by every
:func:`~repro.runner.executor.execute` call and experiment, so a
multi-experiment invocation pays the ``spawn`` + ``import repro`` tax
once instead of once per call:

* each worker pre-imports the scenario machinery before accepting its
  first job;
* the parent dispatches jobs to idle workers one chunk at a time and
  streams completions off a shared result queue — no ``pool.map``
  barrier, so a straggler never blocks the jobs behind it;
* each worker sets one pool-wide ``warm`` event once its pre-imports
  are done, so a caller that must not wait for start-up (``repro
  serve``) can run work inline until :attr:`WorkerPool.warm` is true;
* every result travels back as the payload dict itself plus its wall
  time; the parent lands it (cost model, cache store, progress — see
  :mod:`repro.runner.executor`) as it streams in;
* a worker that dies mid-job is detected (liveness poll on queue
  timeouts), respawned, and its in-flight chunk retried up to
  :data:`MAX_RETRIES` times before the job surfaces a
  :class:`~repro.errors.WorkerError`;
* anything that prevents spawning at all (a sandboxed environment
  refusing ``fork``/``spawn``) degrades to inline execution in the
  caller, never to a crash.

The executor reaches the pool through the module-level singleton
(:func:`shared_pool`) or through a pool its caller owns (``repro serve``
keeps one per server); tests drive :class:`WorkerPool` directly.
"""

import atexit
import multiprocessing
import os
import queue as queue_mod
import time
import traceback
import warnings

from ..errors import WorkerError
from ..obs import telemetry

#: Pool telemetry (parent side). Worker-side metrics — engine event
#: totals, per-job wall time — accumulate in each
#: worker's own registry and ride back piggybacked on the chunk result
#: messages; :func:`WorkerPool._run` merges them in.
_SPAWNED = telemetry.counter("pool.workers_spawned")
_RESPAWNED = telemetry.counter("pool.workers_respawned")
_CRASHES = telemetry.counter("pool.worker_crashes")
_RUNS = telemetry.counter("pool.runs")
_CHUNKS = telemetry.counter("pool.chunks_dispatched")
_DISPATCHED = telemetry.counter("pool.jobs_dispatched")
_COMPLETED = telemetry.counter("pool.jobs_completed")
_FAILED = telemetry.counter("pool.jobs_failed")
_RETRIED = telemetry.counter("pool.jobs_retried")
_DISCARDS = telemetry.counter("pool.epoch_discards")
_SIZE = telemetry.gauge("pool.size")
_BUSY_SECONDS = telemetry.counter("pool.busy_seconds")
_RUN_SECONDS = telemetry.counter("pool.run_seconds")

#: How many times one job is re-dispatched to a fresh worker after the
#: worker holding it died. One retry tolerates a transient kill (OOM,
#: operator signal); a job that kills two workers in a row is treated
#: as deterministic poison and surfaced as a WorkerError.
MAX_RETRIES = 1

#: Liveness-poll interval while waiting on the result queue. Only paid
#: when no result is ready; results arriving faster are consumed
#: back-to-back without sleeping.
POLL_SECONDS = 0.2

#: Test-only fault hook (see ``_maybe_test_crash``): crash a worker
#: deterministically when it picks up a given job tag.
ENV_TEST_CRASH = "REPRO_RUNNER_TEST_CRASH"


def _maybe_test_crash(tag):
    """Deterministic worker-crash hook for the resilience tests.

    ``REPRO_RUNNER_TEST_CRASH=<tag>`` kills the worker (hard
    ``os._exit``, no cleanup — modelling a SIGKILL) every time a job
    with that tag is picked up; ``<tag>:<marker-path>`` kills it only
    while the marker file does not exist (the crashing worker creates
    it first, so exactly one attempt dies and the retry succeeds).
    """
    spec = os.environ.get(ENV_TEST_CRASH)
    if not spec:
        return
    crash_tag, _, marker = spec.partition(":")
    if tag != crash_tag:
        return
    if marker:
        if os.path.exists(marker):
            return
        with open(marker, "w") as handle:
            handle.write("crashed once\n")
    os._exit(17)


def _worker_main(worker_index, task_queue, result_queue, warm):
    """Worker process body: warm up once, set ``warm``, then serve job
    chunks forever.

    A task is ``(epoch, chunk_id, [(job_id, job_dict), ...])`` or
    ``None`` to shut down. Two message shapes flow back, both
    epoch-tagged so the parent can discard leftovers from a previous
    ``run()`` call (a worker that posted its result and then died is
    presumed lost and retried; the late message must not corrupt the
    next run's bookkeeping):

    * ``("progress", worker_index, epoch, job_id, tag)`` — a heartbeat
      posted the moment a job is picked up, so ``repro run --progress``
      can render a live per-job status line;
    * ``("result", worker_index, epoch, chunk_id, [(job_id, kind,
      value, seconds), ...], telem)`` — one per chunk, where ``kind``
      is ``"payload"`` (value = payload dict) or ``"error"`` (value =
      worker-side traceback text), and ``telem`` is this worker's
      telemetry snapshot *delta* since its last message (engine event
      totals, job wall times) for the parent registry to merge.
    """
    # One-time warm-up, amortised over every job this worker will run.
    from .jobs import SimJob, run_job

    import repro.experiments.scenarios  # noqa: F401  (pre-import, heavy)

    warm.set()
    while True:
        task = task_queue.get()
        if task is None:
            return
        epoch, chunk_id, entries = task
        results = []
        for job_id, job_dict in entries:
            _maybe_test_crash(job_dict.get("tag"))
            try:  # heartbeat: best-effort, never blocks the job
                result_queue.put(
                    ("progress", worker_index, epoch, job_id, job_dict.get("tag"))
                )
            except (OSError, ValueError):
                pass
            start = time.perf_counter()
            try:
                payload = run_job(SimJob.from_dict(job_dict))
                results.append((job_id, "payload", payload, time.perf_counter() - start))
            except Exception:
                seconds = time.perf_counter() - start
                results.append((job_id, "error", traceback.format_exc(), seconds))
        telem = telemetry.REGISTRY.take_snapshot()
        result_queue.put(("result", worker_index, epoch, chunk_id, results, telem))


class JobOutcome:
    """One job's result as it came back from the pool."""

    __slots__ = ("kind", "value", "seconds", "retries")

    def __init__(self, kind, value, seconds, retries=0):
        self.kind = kind  # "payload" | "error"
        self.value = value
        self.seconds = seconds
        self.retries = retries


class _Worker:
    __slots__ = ("index", "process", "task_queue", "chunk")

    def __init__(self, index, process, task_queue):
        self.index = index
        self.process = process
        self.task_queue = task_queue
        self.chunk = None  # (chunk_id, entries, retries) while busy


class WorkerPool:
    """A fixed set of pre-warmed ``spawn`` worker processes.

    ``run()`` may be called any number of times; workers survive
    between calls. The pool can :meth:`grow` but never shrinks — a
    ``run(..., max_workers=k)`` with ``k < size`` simply limits how
    many workers are dispatched to concurrently.
    """

    def __init__(self, workers, context=None):
        self._ctx = context or multiprocessing.get_context("spawn")
        self._result_queue = self._ctx.Queue()
        self._warm = self._ctx.Event()
        self._workers = []
        self._closed = False
        self._running = False
        self._epoch = 0
        for _ in range(max(1, int(workers))):
            self._spawn_worker()

    # -- lifecycle ----------------------------------------------------

    def _start_process(self, index):
        """Start one worker process; returns ``(process, task_queue)``."""
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(index, task_queue, self._result_queue, self._warm),
            daemon=True,
            name="repro-worker-%d" % index,
        )
        process.start()
        return process, task_queue

    def _spawn_worker(self):
        index = len(self._workers)
        self._workers.append(_Worker(index, *self._start_process(index)))
        _SPAWNED.inc()
        _SIZE.set(len(self._workers))
        return self._workers[-1]

    def _respawn(self, worker):
        """Replace a dead worker in place (same index, fresh process)."""
        worker.process, worker.task_queue = self._start_process(worker.index)
        worker.chunk = None
        _RESPAWNED.inc()

    @property
    def size(self):
        return len(self._workers)

    @property
    def alive(self):
        return not self._closed

    @property
    def warm(self):
        """True once any worker has finished its pre-imports."""
        return self._warm.is_set()

    @property
    def running(self):
        return self._running

    def worker_pids(self):
        """Live worker PIDs (test/introspection aid)."""
        return [w.process.pid for w in self._workers]

    def grow(self, workers):
        while len(self._workers) < workers:
            self._spawn_worker()

    def close(self, timeout=2.0):
        """Shut every worker down; idempotent, safe on crashed workers."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.task_queue.put(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        self._workers = []

    # -- execution ----------------------------------------------------

    def run(self, entries, chunk_size=1, max_workers=None, on_result=None,
            on_progress=None):
        """Execute ``entries`` and return a list of :class:`JobOutcome`
        in *input order* (dispatch order is the caller's submission
        order — sort longest-first for straggler-aware scheduling).

        ``entries`` is a list of job dicts (``SimJob.to_dict()``).
        Completions stream back unordered; ``on_result(job_id,
        outcome)`` fires as each job lands, and ``on_progress(job_id,
        tag)`` fires when a worker's heartbeat says it *picked the job
        up* (the live-progress hook). Jobs on a crashed worker are
        retried up to :data:`MAX_RETRIES` times, then reported as
        ``kind="error"`` outcomes.
        """
        if self._closed:
            raise WorkerError("worker pool is closed")
        if self._running:
            raise WorkerError("worker pool is busy (re-entrant run() call)")
        self._running = True
        self._epoch += 1
        _RUNS.inc()
        started = time.perf_counter()
        try:
            return self._run(entries, chunk_size, max_workers, on_result, on_progress)
        finally:
            self._running = False
            _RUN_SECONDS.inc(time.perf_counter() - started)

    def _run(self, entries, chunk_size, max_workers, on_result, on_progress):
        epoch = self._epoch
        outcomes = [None] * len(entries)
        chunk_size = max(1, int(chunk_size))
        chunks = []
        for start in range(0, len(entries), chunk_size):
            block = list(enumerate(entries[start : start + chunk_size], start))
            chunks.append((len(chunks), block, 0))
        pending = list(reversed(chunks))  # pop() takes submission order
        remaining = len(entries)
        limit = self.size if max_workers is None else max(1, min(max_workers, self.size))

        # A worker is dispatchable iff worker.chunk is None. A chunk
        # left over from a previous run (result never arrived) keeps
        # its worker out of rotation until the stale message lands.
        def dispatch():
            while pending:
                busy = sum(1 for w in self._workers if w.chunk is not None)
                if busy >= limit:
                    return
                idle = next((w for w in self._workers if w.chunk is None), None)
                if idle is None:
                    return
                if not idle.process.is_alive():
                    self._respawn(idle)
                chunk_id, block, retries = pending.pop()
                live = [e for e in block if outcomes[e[0]] is None]
                if not live:
                    continue
                idle.chunk = (epoch, chunk_id, live, retries, time.perf_counter())
                idle.task_queue.put((epoch, chunk_id, live))
                _CHUNKS.inc()
                _DISPATCHED.inc(len(live))

        def absorb(message):
            nonlocal remaining
            if message[0] == "progress":
                _worker_index, msg_epoch, job_id, tag = message[1:]
                if msg_epoch == epoch and on_progress is not None:
                    on_progress(job_id, tag)
                return
            _kind, worker_index, msg_epoch, msg_chunk_id, results, telem = message
            # Worker-side telemetry (engine totals, job wall times) is a
            # delta: merging it is correct even for stale-epoch
            # messages — the work really happened.
            telemetry.REGISTRY.merge(telem)
            worker = self._workers[worker_index]
            retries = 0
            if worker.chunk is not None and worker.chunk[:2] == (msg_epoch, msg_chunk_id):
                retries = worker.chunk[3]
                dispatched_at = worker.chunk[4]
                worker.chunk = None
            else:
                dispatched_at = None
            if msg_epoch != epoch:
                _DISCARDS.inc()
                return  # stale message from an earlier run
            arrived_at = time.perf_counter()
            for job_id, kind, value, seconds in results:
                if outcomes[job_id] is not None:
                    continue  # late duplicate after a presumed-lost chunk
                outcomes[job_id] = JobOutcome(kind, value, seconds, retries)
                remaining -= 1
                _COMPLETED.inc()
                _BUSY_SECONDS.inc(seconds)
                if dispatched_at is not None:
                    # Queue wait: chunk turnaround minus simulation time
                    # (dispatch overhead + time spent behind chunk-mates).
                    wait = arrived_at - dispatched_at - seconds
                    telemetry.observe("pool.queue_wait_us", max(0.0, wait) * 1e6)
                if on_result is not None:
                    on_result(job_id, outcomes[job_id])

        def reap_crashes():
            nonlocal remaining
            for worker in self._workers:
                if worker.chunk is None or worker.process.is_alive():
                    continue
                chunk_epoch, chunk_id, block, retries = worker.chunk[:4]
                worker.chunk = None
                _CRASHES.inc()
                self._respawn(worker)
                if chunk_epoch != epoch:
                    continue  # a previous run's leftovers; nobody is waiting
                live = [e for e in block if outcomes[e[0]] is None]
                if not live:
                    continue
                if retries < MAX_RETRIES:
                    warnings.warn(
                        "worker died while running job(s) %s; retrying"
                        % ", ".join(repr(e[1].get("tag")) for e in live),
                        RuntimeWarning,
                        stacklevel=4,
                    )
                    _RETRIED.inc(len(live))
                    pending.append((chunk_id, live, retries + 1))
                else:
                    for job_id, job_dict in live:
                        outcomes[job_id] = JobOutcome(
                            "error",
                            "worker process died repeatedly while running job %r "
                            "(%d attempts)" % (job_dict.get("tag"), retries + 1),
                            0.0,
                            retries,
                        )
                        remaining -= 1
                        _FAILED.inc()

        dispatch()
        while remaining:
            try:
                absorb(self._result_queue.get(timeout=POLL_SECONDS))
            except queue_mod.Empty:
                # Nothing ready: look for corpses among the busy workers.
                reap_crashes()
            except (OSError, EOFError):  # torn pickle from a dying worker
                reap_crashes()
            dispatch()
        return outcomes


# -- shared singleton -------------------------------------------------

_SHARED = None
_ATEXIT_REGISTERED = False


def shared_pool(workers):
    """The process-wide pool, created on first use and grown on demand.

    Returns ``None`` when a pool should not (``workers <= 1``) or
    cannot (spawn failure — warns and degrades) be used; callers fall
    back to inline execution.
    """
    global _SHARED, _ATEXIT_REGISTERED
    if workers <= 1:
        return None
    if _SHARED is not None and _SHARED.alive:
        if _SHARED.size < workers:
            _SHARED.grow(workers)
        return _SHARED
    try:
        _SHARED = WorkerPool(workers)
    except (OSError, ValueError) as err:
        warnings.warn(
            "could not start the persistent worker pool (%s); "
            "running jobs inline" % err,
            RuntimeWarning,
            stacklevel=2,
        )
        _SHARED = None
        return None
    if not _ATEXIT_REGISTERED:
        atexit.register(shutdown_shared)
        _ATEXIT_REGISTERED = True
    return _SHARED


def shutdown_shared():
    """Close the shared pool (atexit hook; also used by tests to force
    a fresh spawn)."""
    global _SHARED
    if _SHARED is not None:
        _SHARED.close()
        _SHARED = None

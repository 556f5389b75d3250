"""Persistent simulation worker pool.

Workers spawn **once per process lifetime** and are shared by every
:func:`~repro.runner.executor.execute` call and experiment, so a
multi-experiment invocation pays the ``spawn`` + ``import repro`` tax
once instead of once per call:

* each worker pre-imports the scenario machinery before accepting its
  first job;
* the parent hands each job to an idle worker, one job per task, and
  streams completions off a shared result pipe — no ``pool.map``
  barrier, so a straggler never blocks the jobs behind it, and the
  hand-off itself marks the job started;
* each worker sets one pool-wide ``warm`` event once its pre-imports
  are done, so a caller that must not wait for start-up (``repro
  serve``) can run work inline until :attr:`WorkerPool.warm` is true;
* every result travels back as the payload dict itself plus its wall
  time; the parent lands it (cost model, cache store, progress — see
  :mod:`repro.runner.executor`) as it streams in;
* a worker that dies mid-job is detected (liveness poll whenever no
  result is ready), respawned, and its in-flight job retried up to
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
import time
import traceback
import warnings

from ..errors import WorkerError
from ..obs import telemetry

#: Pool telemetry (parent side). Worker-side metrics — engine event
#: totals, per-job wall time — accumulate in each
#: worker's own registry and ride back piggybacked on each job's result
#: message; :func:`WorkerPool._run` merges them in.
_SPAWNED = telemetry.counter("pool.workers_spawned")
_RESPAWNED = telemetry.counter("pool.workers_respawned")
_CRASHES = telemetry.counter("pool.worker_crashes")
_RUNS = telemetry.counter("pool.runs")
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

#: Liveness-poll interval while waiting on the result pipe. Only paid
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


def _worker_main(worker_index, task_queue, results, result_lock, warm):
    """Worker process body: warm up once, set ``warm``, then serve jobs
    forever.

    A task is ``(epoch, job_id, job_dict)`` or ``None`` to shut down.
    Each job answers with exactly one message, ``(worker_index, epoch,
    job_id, kind, value, seconds, telem)``, where ``kind`` is
    ``"payload"`` (value = payload dict) or ``"error"`` (value =
    worker-side traceback text), and ``telem`` is this worker's
    telemetry snapshot *delta* since its last message (engine event
    totals, job wall times) for the parent registry to merge. The epoch
    tag lets the parent discard leftovers from a previous ``run()``
    call (a worker that posted its result and then died is presumed
    lost and retried; the late message must not corrupt the next run's
    bookkeeping). The message goes out on the shared ``results`` pipe
    under ``result_lock``, synchronously: the worker has released the
    lock before it can take its next job, so dying there cannot leave
    the lock held and wedge every other worker's send.
    """
    # One-time warm-up, amortised over every job this worker will run.
    from .jobs import SimJob, run_job

    import repro.experiments.scenarios  # noqa: F401  (pre-import, heavy)

    warm.set()
    while True:
        task = task_queue.get()
        if task is None:
            return
        epoch, job_id, job_dict = task
        _maybe_test_crash(job_dict.get("tag"))
        start = time.perf_counter()
        try:
            kind, value = "payload", run_job(SimJob.from_dict(job_dict))
        except Exception:
            kind, value = "error", traceback.format_exc()
        seconds = time.perf_counter() - start
        telem = telemetry.REGISTRY.take_snapshot()
        with result_lock:
            results.send((worker_index, epoch, job_id, kind, value, seconds, telem))


class JobOutcome:
    """One job's result as it came back from the pool."""

    __slots__ = ("kind", "value", "seconds")

    def __init__(self, kind, value, seconds):
        self.kind = kind  # "payload" | "error"
        self.value = value
        self.seconds = seconds


class _Worker:
    __slots__ = ("index", "process", "task_queue", "job")

    def __init__(self, index, process, task_queue):
        self.index = index
        self.process = process
        self.task_queue = task_queue
        self.job = None  # (epoch, job_id, retries, dispatched_at) while busy


class WorkerPool:
    """A fixed set of pre-warmed ``spawn`` worker processes.

    ``run()`` may be called any number of times; workers survive
    between calls. The pool can :meth:`grow` but never shrinks — a
    ``run(..., max_workers=k)`` with ``k < size`` simply limits how
    many workers are dispatched to concurrently.
    """

    def __init__(self, workers, context=None):
        self._ctx = context or multiprocessing.get_context("spawn")
        self._results, self._result_writer = self._ctx.Pipe(duplex=False)
        self._result_lock = self._ctx.Lock()
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
            args=(index, task_queue, self._result_writer, self._result_lock,
                  self._warm),
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
        worker.job = None
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

    def run(self, entries, max_workers=None, on_result=None, on_start=None):
        """Execute ``entries`` and return a list of :class:`JobOutcome`
        in *input order* (dispatch order is the caller's submission
        order — sort longest-first for straggler-aware scheduling).

        ``entries`` is a list of job dicts (``SimJob.to_dict()``), each
        handed to an idle worker on its own. ``on_start(job_id)`` fires
        at that hand-off (again if a crash re-dispatches the job), and
        ``on_result(job_id, outcome)`` fires once as each job lands;
        completions stream back unordered. A job on a crashed worker is
        retried up to :data:`MAX_RETRIES` times, then reported as a
        ``kind="error"`` outcome.
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
            return self._run(entries, max_workers, on_result, on_start)
        finally:
            self._running = False
            _RUN_SECONDS.inc(time.perf_counter() - started)

    def _run(self, entries, max_workers, on_result, on_start):
        epoch = self._epoch
        outcomes = [None] * len(entries)
        # (job_id, retries); pop() takes submission order.
        pending = [(job_id, 0) for job_id in reversed(range(len(entries)))]
        remaining = len(entries)
        limit = self.size if max_workers is None else max(1, min(max_workers, self.size))

        # A worker is idle iff worker.job is None. A job left over from
        # a previous run (result never arrived) keeps its worker out of
        # rotation until the stale message lands.
        def dispatch():
            while pending:
                busy = sum(1 for w in self._workers if w.job is not None)
                if busy >= limit:
                    return
                idle = next((w for w in self._workers if w.job is None), None)
                if idle is None:
                    return
                if not idle.process.is_alive():
                    self._respawn(idle)
                job_id, retries = pending.pop()
                if outcomes[job_id] is not None:
                    continue  # a presumed-lost attempt landed after all
                idle.job = (epoch, job_id, retries, time.perf_counter())
                idle.task_queue.put((epoch, job_id, entries[job_id]))
                _DISPATCHED.inc()
                if on_start is not None:
                    on_start(job_id)

        def absorb(message):
            nonlocal remaining
            worker_index, msg_epoch, job_id, kind, value, seconds, telem = message
            # Worker-side telemetry (engine totals, job wall times) is a
            # delta: merging it is correct even for stale-epoch
            # messages — the work really happened.
            telemetry.REGISTRY.merge(telem)
            worker = self._workers[worker_index]
            dispatched_at = None
            if worker.job is not None and worker.job[:2] == (msg_epoch, job_id):
                dispatched_at = worker.job[3]
                worker.job = None
            if msg_epoch != epoch:
                _DISCARDS.inc()
                return  # stale message from an earlier run
            if outcomes[job_id] is not None:
                return  # late duplicate after a presumed-lost attempt
            outcomes[job_id] = outcome = JobOutcome(kind, value, seconds)
            remaining -= 1
            _COMPLETED.inc()
            _BUSY_SECONDS.inc(seconds)
            if dispatched_at is not None:
                # Queue wait: hand-off to result minus simulation time.
                wait = time.perf_counter() - dispatched_at - seconds
                telemetry.observe("pool.queue_wait_us", max(0.0, wait) * 1e6)
            if on_result is not None:
                on_result(job_id, outcome)

        def reap_crashes():
            nonlocal remaining
            for worker in self._workers:
                if worker.job is None or worker.process.is_alive():
                    continue
                job_epoch, job_id, retries, _dispatched_at = worker.job
                worker.job = None
                _CRASHES.inc()
                self._respawn(worker)
                if job_epoch != epoch or outcomes[job_id] is not None:
                    continue  # a previous run's leftover, or already landed
                tag = entries[job_id].get("tag")
                if retries < MAX_RETRIES:
                    warnings.warn(
                        "worker died while running job %r; retrying" % tag,
                        RuntimeWarning,
                        stacklevel=4,
                    )
                    _RETRIED.inc()
                    pending.append((job_id, retries + 1))
                else:
                    outcomes[job_id] = JobOutcome(
                        "error",
                        "worker process died repeatedly while running job %r "
                        "(%d attempts)" % (tag, retries + 1),
                        0.0,
                    )
                    remaining -= 1
                    _FAILED.inc()

        dispatch()
        while remaining:
            try:
                ready = self._results.poll(POLL_SECONDS)
                message = self._results.recv() if ready else None
            except (OSError, EOFError):  # torn pickle from a dying worker
                message = None
            if message is None:
                # Nothing ready: look for corpses among the busy workers.
                reap_crashes()
            else:
                absorb(message)
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

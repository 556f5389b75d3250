"""Persistent simulation worker pool.

Workers spawn **once per process lifetime** and are shared by every
:func:`~repro.runner.executor.execute` call and experiment, so a
multi-experiment invocation pays the ``spawn`` + ``import repro`` tax
once instead of once per call:

* each worker pre-imports the scenario machinery before accepting its
  first job;
* each worker has its own duplex pipe, shared with no other process:
  the parent hands a job down an idle worker's pipe, one job per task,
  and waits on the busy workers' pipes for completions — no
  ``pool.map`` barrier, so a straggler never blocks the jobs behind
  it, and the hand-off itself marks the job started;
* each worker sets one pool-wide, lock-free ``warm`` flag once its
  pre-imports are done, so a caller that must not wait for start-up
  (``repro serve``) can run work inline until :attr:`WorkerPool.warm`
  is true;
* every result travels back as the payload dict itself plus its wall
  time; the parent lands it (cache store, progress — see
  :mod:`repro.runner.executor`) as it streams in;
* the parent keeps no copy of a worker's end of its pipe, so a worker
  that dies reads as end-of-file (after any result it had finished
  sending), and a result cut off mid-write fails to read; either way
  the worker is respawned and its in-flight job retried up to
  :data:`MAX_RETRIES` times before the job surfaces a
  :class:`~repro.errors.WorkerError`. The pool shares no lock with its
  workers, so no death can wedge another worker or the parent;
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


def _worker_main(conn, warm):
    """Worker process body: warm up once, set ``warm``, then serve the
    jobs that arrive on ``conn`` until it sends ``None`` or closes.

    Each job dict answers with exactly one message on ``conn``,
    ``(kind, value, seconds, telem)``, where ``kind`` is ``"payload"``
    (value = payload dict) or ``"error"`` (value = worker-side
    traceback text), and ``telem`` is this worker's telemetry snapshot
    *delta* since its last message (engine event totals, job wall
    times) for the parent registry to merge. The pipe is this worker's
    alone, so the parent knows which job a message answers.
    """
    # One-time warm-up, amortised over every job this worker will run.
    from .jobs import SimJob, run_job

    import repro.experiments.scenarios  # noqa: F401  (pre-import, heavy)

    warm.value = 1
    while True:
        try:
            job_dict = conn.recv()
        except EOFError:
            return  # the parent is gone
        if job_dict is None:
            return
        _maybe_test_crash(job_dict.get("tag"))
        start = time.perf_counter()
        try:
            kind, value = "payload", run_job(SimJob.from_dict(job_dict))
        except Exception:
            kind, value = "error", traceback.format_exc()
        seconds = time.perf_counter() - start
        conn.send((kind, value, seconds, telemetry.REGISTRY.take_snapshot()))


class JobOutcome:
    """One job's result as it came back from the pool."""

    __slots__ = ("kind", "value", "seconds")

    def __init__(self, kind, value, seconds):
        self.kind = kind  # "payload" | "error"
        self.value = value
        self.seconds = seconds


class _Worker:
    __slots__ = ("process", "conn", "job")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn  # the parent's end of this worker's pipe
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
        self._warm = self._ctx.RawValue("b", 0)
        self._workers = []
        self._closed = False
        self._running = False
        self._epoch = 0
        for _ in range(max(1, int(workers))):
            self._spawn_worker()

    # -- lifecycle ----------------------------------------------------

    def _start_process(self):
        """Start one worker process; returns ``(process, conn)``, where
        ``conn`` is the parent's end of the worker's pipe."""
        conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._warm),
            daemon=True,
            name="repro-worker",
        )
        process.start()
        # The worker now holds the only other end, so its death reads
        # as end-of-file on ``conn``.
        child_conn.close()
        return process, conn

    def _spawn_worker(self):
        self._workers.append(_Worker(*self._start_process()))
        _SPAWNED.inc()
        _SIZE.set(len(self._workers))

    def _respawn(self, worker):
        """Replace a dead worker in place (fresh process and pipe)."""
        worker.conn.close()
        worker.process, worker.conn = self._start_process()
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
        return bool(self._warm.value)

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
                worker.conn.send(None)
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            worker.conn.close()
        self._workers = []

    # -- execution ----------------------------------------------------

    def run(self, entries, max_workers=None, on_result=None, on_start=None):
        """Execute ``entries`` and return a list of :class:`JobOutcome`
        in *input order* (dispatch order is the caller's submission
        order; the executor sorts longest simulated horizon first, so a
        straggler starts at once).

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
        # Imported here, not at module level: a process that runs every
        # job inline (``workers=1``) never pays for it.
        from multiprocessing.connection import wait

        epoch = self._epoch
        outcomes = [None] * len(entries)
        # (job_id, retries); pop() takes submission order.
        pending = [(job_id, 0) for job_id in reversed(range(len(entries)))]
        remaining = len(entries)
        limit = self.size if max_workers is None else max(1, min(max_workers, self.size))

        # A worker is idle iff worker.job is None. A job left over from
        # a run that ended early keeps its worker out of rotation until
        # its (discarded) result or its death lands.
        def dispatch():
            while pending:
                busy = sum(1 for w in self._workers if w.job is not None)
                if busy >= limit:
                    return
                # busy < limit <= size, so some worker is idle.
                idle = next(w for w in self._workers if w.job is None)
                if not idle.process.is_alive():
                    self._respawn(idle)
                job_id, retries = pending.pop()
                idle.job = (epoch, job_id, retries, time.perf_counter())
                try:
                    idle.conn.send(entries[job_id])
                except OSError:
                    pass  # died since the check: its pipe reads EOF below
                _DISPATCHED.inc()
                if on_start is not None:
                    on_start(job_id)

        def absorb(worker, message):
            nonlocal remaining
            kind, value, seconds, telem = message
            # Worker-side telemetry (engine totals, job wall times) is a
            # delta: merging it is correct even for a leftover's
            # message — the work really happened.
            telemetry.REGISTRY.merge(telem)
            job_epoch, job_id, _retries, dispatched_at = worker.job
            worker.job = None
            if job_epoch != epoch:
                _DISCARDS.inc()
                return  # a leftover from a run that ended early
            outcomes[job_id] = outcome = JobOutcome(kind, value, seconds)
            remaining -= 1
            _COMPLETED.inc()
            _BUSY_SECONDS.inc(seconds)
            # Queue wait: hand-off to result minus simulation time.
            queued = time.perf_counter() - dispatched_at - seconds
            telemetry.observe("pool.queue_wait_us", max(0.0, queued) * 1e6)
            if on_result is not None:
                on_result(job_id, outcome)

        def crashed(worker):
            nonlocal remaining
            job_epoch, job_id, retries, _dispatched_at = worker.job
            _CRASHES.inc()
            self._respawn(worker)
            if job_epoch != epoch:
                return  # a leftover from a run that ended early
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
            busy = {w.conn: w for w in self._workers if w.job is not None}
            for conn in wait(list(busy)):
                try:
                    message = conn.recv()
                except (EOFError, OSError):  # died, perhaps mid-send
                    crashed(busy[conn])
                else:
                    absorb(busy[conn], message)
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

"""The discrete-event simulation core.

:class:`Simulator` owns the pending-event set and a monotonically
increasing clock in integer nanoseconds. On top of the raw callback
layer, :class:`Process` runs a Python generator as a cooperative
process: the generator yields :class:`~repro.sim.events.Event` objects
(usually :class:`~repro.sim.events.Timeout`) and is resumed with the
event's value. Processes can be interrupted out of a wait, which the
pCPU executors use to model preemption, lock hand-off, and interrupt
delivery with exact (non-polled) latency.

Hot-path design (see ``docs/performance.md`` for the measurements):

* Pending events live in a **two-level bucketed structure**: a
  zero-delay *now lane* (a plain FIFO for everything scheduled at the
  current instant — process-resume trampolines, event triggers) in
  front of a **far-term queue** holding every entry with a positive
  delay. Because a zero-delay entry always carries a larger sequence
  number than any same-time far entry (delays cannot land *on* the
  current instant), draining far-due entries first and then the lane in
  FIFO order reproduces the exact global ``(time, seq)`` order a single
  heap would give — byte-identical simulations, without paying O(log n)
  sifts (or a handle allocation) for the massed trampoline traffic.
* The far-term queue is a plain ``heapq`` list driven by the C
  functions directly: on the captured real event mix it beats a
  calendar queue (see ``docs/performance.md`` §2).
* All same-timestamp far entries dispatch in one drain: the clock is
  advanced once per distinct timestamp, not once per event.
* Cancelled entries are dropped lazily but compacted whenever garbage
  exceeds half the pending set, so mass cancellation (the adaptive
  controller re-arming timers for hours of simulated time) cannot grow
  the queue unboundedly; a process interrupted out of a Timeout wait
  cancels the stale timer on the spot instead of letting it fire into
  the identity filter.
* Process event waits register a bound method, not a fresh closure per
  wait.
* A process may yield a bare ``int`` — a *handle-level timer wait* that
  skips the :class:`~repro.sim.events.Timeout` object, the trigger
  machinery and the waiter list entirely. It consumes exactly the same
  ``(time, seq)`` slots as ``yield sim.timeout(n)`` (one at arm, one at
  the fire-time trampoline), so the two spellings are byte-identical;
  the pCPU executors use it for the dominant fixed-delay event classes
  (charges, compute chunks, spin windows).
"""

import heapq
import types
from collections import deque

from ..errors import SimulationError
from .events import Event, Interrupt, Timeout

#: Compaction kicks in once at least this many cancelled entries are
#: pending *and* they outnumber the live ones (garbage > half the
#: pending set).
_COMPACT_MIN_GARBAGE = 8


class _Scheduled:
    """Handle for a scheduled callback; supports O(1) cancellation.

    The handle no longer carries its own ``(time, seq)`` ordering key —
    that lives in the queue entry — so the object stays small and is
    never compared during sifts. Executed entries are flagged exactly
    like cancelled ones, which makes a late ``cancel()`` a no-op and
    keeps the simulator's garbage accounting exact.
    """

    __slots__ = ("sim", "callback", "arg", "cancelled")

    def __init__(self, sim, callback, arg):
        self.sim = sim
        self.callback = callback
        self.arg = arg
        self.cancelled = False

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        sim._garbage += 1
        if (
            sim._garbage >= _COMPACT_MIN_GARBAGE
            and sim._garbage * 2 > len(sim._queue) + len(sim._now_lane)
        ):
            sim._compact()


def _entry_live(entry):
    """Is this far-queue entry still live? Covers both entry kinds:
    handle-carrying ``(time, seq, _Scheduled)`` schedules and
    handle-free ``(time, seq, Process)`` timer waits (live while the
    process's arm token still matches the entry's seq)."""
    obj = entry[2]
    if obj.__class__ is _Scheduled:
        return not obj.cancelled
    return obj._timer_seq == entry[1]


class Simulator:
    """Event loop with an integer-nanosecond clock."""

    def __init__(self):
        self._now = 0
        self._seq = 0
        #: Far-term entries, (time, seq, handle) tuples, as a ``heapq``
        #: list.
        self._queue = []
        #: The now lane: entries due at the current instant, FIFO.
        #: ``(seq, callback, arg, handle_or_None)`` — trampolines from
        #: :meth:`_schedule_now` carry no handle (they are never
        #: cancelled), public zero-delay schedules carry one.
        self._now_lane = deque()
        self._garbage = 0  # cancelled-but-unpopped entries (all levels)
        self._processes = []
        self.executed_events = 0

    @property
    def now(self):
        """Current simulation time in nanoseconds."""
        return self._now

    def schedule(self, delay, callback, arg=None):
        """Run ``callback(arg)`` after ``delay`` ns; returns a cancellable
        handle. Zero delays run after currently pending same-time events
        (FIFO within a timestamp)."""
        if delay < 0:
            raise SimulationError("cannot schedule in the past (delay=%r)" % delay)
        self._seq = seq = self._seq + 1
        handle = _Scheduled(self, callback, arg)
        if delay == 0:
            self._now_lane.append((seq, callback, arg, handle))
        else:
            heapq.heappush(self._queue, (self._now + delay, seq, handle))
        return handle

    def _schedule_now(self, callback, arg):
        """Internal zero-delay schedule without a cancellation handle:
        the trampoline lane for event triggers and process resumes.
        Ordering is identical to ``schedule(0, ...)``."""
        self._seq = seq = self._seq + 1
        self._now_lane.append((seq, callback, arg, None))

    def timeout(self, delay, value=None, name=""):
        """Create a :class:`Timeout` event firing after ``delay`` ns."""
        return Timeout(self, delay, value=value, name=name)

    def event(self, name=""):
        """Create an untriggered :class:`Event`."""
        return Event(self, name=name)

    def process(self, generator, name=""):
        """Start ``generator`` as a simulation process."""
        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        return proc

    def run(self, until=None):
        """Execute events until the queue is empty or the clock would pass
        ``until`` (ns). The clock is left at ``until`` if the limit was
        reached, else at the last executed event's time."""
        now = self._run(until)
        if until is not None and now < until:
            self._now = now = until
        return now

    def _run(self, until):
        """The hot loop."""
        queue = self._queue
        lane = self._now_lane
        pop = heapq.heappop
        popleft = lane.popleft
        now = self._now
        if until is not None and until < now:
            return now
        executed = 0
        try:
            while True:
                # Far entries due at the current instant run first: they
                # were scheduled strictly earlier, so their sequence
                # numbers are smaller than anything in the now lane.
                while queue:
                    entry = queue[0]
                    handle = entry[2]
                    if handle.__class__ is not _Scheduled:
                        # Handle-free process timer wait: entry[1] (the
                        # arm seq) doubles as the validity token.
                        if handle._timer_seq != entry[1]:
                            pop(queue)  # stale (interrupted) timer
                            continue
                        if entry[0] > now:
                            break
                        pop(queue)
                        executed += 1
                        # Append the resume trampoline exactly where an
                        # Event.trigger would.
                        self._seq = seq = self._seq + 1
                        if lane or (queue and queue[0][0] <= now):
                            lane.append((seq, handle._timer_cb, None, None))
                            continue
                        # The trampoline is provably the next dispatch
                        # (lane empty, no far entry due): run it now,
                        # skipping the lane round trip. Same two events
                        # in the same order — only the buffering differs.
                        executed += 1
                        handle._timer_cb(None)
                        continue
                    if handle.cancelled:
                        pop(queue)
                        self._garbage -= 1
                        continue
                    if entry[0] > now:
                        break
                    pop(queue)
                    handle.cancelled = True  # consumed: late cancel() no-ops
                    executed += 1
                    handle.callback(handle.arg)
                if lane:
                    _seq, callback, arg, handle = popleft()
                    if handle is not None:
                        if handle.cancelled:
                            self._garbage -= 1
                            continue
                        handle.cancelled = True
                    executed += 1
                    callback(arg)
                    continue
                if not queue:
                    break
                time = queue[0][0]
                if until is not None and time > until:
                    break
                self._now = now = time
        finally:
            # Batched: one attribute RMW per run() call, not per event.
            self.executed_events += executed
        return now

    def pending(self):
        """Total queued entries (live + not-yet-released cancelled)."""
        return len(self._queue) + len(self._now_lane)

    def peek(self):
        """Time of the next pending event, or ``None`` if the queue is
        empty. Cancelled entries are skipped (and released)."""
        lane = self._now_lane
        while lane:
            handle = lane[0][3]
            if handle is not None and handle.cancelled:
                lane.popleft()
                self._garbage -= 1
                continue
            return self._now
        queue = self._queue
        while queue:
            entry = queue[0]
            obj = entry[2]
            if obj.__class__ is _Scheduled:
                if obj.cancelled:
                    heapq.heappop(queue)
                    self._garbage -= 1
                    continue
            elif obj._timer_seq != entry[1]:
                heapq.heappop(queue)  # stale process timer
                continue
            return entry[0]
        return None

    def _compact(self):
        """Drop every cancelled entry and restore queue invariants.
        O(live + garbage), amortised against the cancellations that
        triggered it.

        Compacts *in place*: :meth:`run` holds local aliases to the
        queue and the now lane while dispatching, and cancellations from
        inside a callback can trigger compaction mid-run — rebinding
        either container would leave the loop draining a stale structure
        and drop later-scheduled events.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if _entry_live(entry)]
        heapq.heapify(queue)
        lane = self._now_lane
        if lane:
            live = [
                entry
                for entry in lane
                if entry[3] is None or not entry[3].cancelled
            ]
            if len(live) != len(lane):
                lane.clear()
                lane.extend(live)
        self._garbage = 0


#: Process states.
RUNNING = "running"
FINISHED = "finished"
FAILED = "failed"


class Process:
    """A generator running as a cooperative simulation process.

    The generator yields events; it is resumed with ``event.value`` when
    the event triggers. A process is itself waitable through
    :attr:`completed`, which carries the generator's return value.

    :meth:`interrupt` throws :class:`Interrupt` into the generator at the
    current time, cancelling whatever wait was in progress. Interrupts
    that land while a resume is already scheduled are coalesced into one
    :class:`Interrupt` carrying every cause.

    Stale wakeups (e.g. a timeout that fires after an interrupt already
    resumed us) are filtered by identity: the process remembers the one
    event it is blocked on in :attr:`_waiting_on`, and the single bound
    callback :meth:`_on_event` ignores anything else. This replaces a
    per-wait closure allocation on the hottest path in the engine. When
    the abandoned wait is a plain Timeout, the stale timer is cancelled
    outright so it never has to fire into the filter at all.

    **Handle-level timer waits**: yielding a bare non-negative ``int``
    sleeps for that many nanoseconds without constructing a Timeout (or
    any Event) at all — the process arms a raw engine timer whose fire
    callback rides the now lane exactly like an event trigger would.
    Ordering is provably identical to ``yield sim.timeout(n)``: both
    spellings consume one sequence number when the timer is armed and
    one when the fire-time trampoline is appended, and an interrupt
    cancels the armed timer in both. The resume value is always
    ``None``. This is the executors' fast path; rich waits (fan-out,
    values, names) still use Event objects.
    """

    __slots__ = (
        "sim",
        "name",
        "state",
        "completed",
        "error",
        "_gen",
        "_waiting_on",
        "_pending_interrupt",
        "_resume_scheduled",
        "_begun",
        "_timer_seq",
        "_timer_cb",
    )

    def __init__(self, sim, generator, name=""):
        if not isinstance(generator, types.GeneratorType):
            raise SimulationError("process target must be a generator, got %r" % (generator,))
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self.state = RUNNING
        self.completed = Event(sim, name="%s.completed" % self.name)
        self.error = None
        self._gen = generator
        #: The event this process is currently blocked on; ``None`` when
        #: runnable or when the current wait has been invalidated.
        self._waiting_on = None
        self._pending_interrupt = None
        self._resume_scheduled = True
        self._begun = False
        #: Arm token of the in-flight handle-free timer wait (0 = none);
        #: the run loop fires the entry only while it matches entry[1].
        self._timer_seq = 0
        #: Prebound resume callback (avoids a method bind per fire).
        self._timer_cb = self._timer_resume
        sim._schedule_now(self._step, None)

    @property
    def alive(self):
        return self.state == RUNNING

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at the current time.

        No-op on a finished process. Multiple interrupts before the
        process next runs are coalesced (all causes preserved).
        """
        if self.state != RUNNING:
            return
        if self._pending_interrupt is not None:
            self._pending_interrupt.add_cause(cause)
            return
        self._pending_interrupt = Interrupt(cause)
        waiting = self._waiting_on
        if waiting is not None:
            self._waiting_on = None  # invalidate the current wait
            if waiting is self:
                # Handle-free timer wait: revoke the arm token; the
                # queue entry becomes stale and is skipped at pop (or
                # dropped by compaction). If the run loop already
                # consumed the entry, the fire-time trampoline finds
                # the wait invalidated instead.
                self._timer_seq = 0
            else:
                wcls = waiting.__class__
                if wcls is _Scheduled:
                    # Zero-delay timer wait: cancel the lane entry.
                    waiting.cancel()
                elif wcls is Timeout and not waiting.triggered:
                    # A plain timeout nobody else can be waiting on:
                    # cancel the timer instead of letting it fire as a
                    # stale wakeup.
                    waiting.cancel()
                    waiting.discard_callback(self._on_event)
        if not self._resume_scheduled:
            self._resume_scheduled = True
            self.sim._schedule_now(self._step, None)

    def _on_event(self, event):
        if event is not self._waiting_on or self.state != RUNNING:
            return
        self._waiting_on = None
        self._step(event.value)

    def _on_timer(self, _arg):
        """Fire callback of a handle-level timer wait: append the resume
        trampoline, exactly where :meth:`Event.trigger` would."""
        self.sim._schedule_now(self._timer_resume, None)

    def _timer_resume(self, _arg):
        # Between fire and trampoline only interrupt() can touch
        # _waiting_on (it nulls it), and the lane's FIFO order means no
        # newer wait can have been armed yet — so any non-None value
        # here is this wait's own handle.
        if self._waiting_on is None or self.state != RUNNING:
            return
        self._waiting_on = None
        self._step(None)

    def _step(self, value):
        self._resume_scheduled = False
        exc = self._pending_interrupt
        self._pending_interrupt = None
        if exc is not None and not self._begun:
            # A not-yet-started generator cannot catch a thrown
            # exception; start it first and deliver the interrupt at its
            # first yield point instead.
            self._pending_interrupt = exc
            exc = None
        try:
            self._begun = True
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self._finish(FINISHED, getattr(stop, "value", None))
            return
        except Interrupt as leaked:
            # The generator chose not to handle the interrupt; treat it as
            # a normal (non-error) termination — executors use this to
            # unwind cleanly.
            self._finish(FINISHED, leaked.cause)
            return
        except Exception as err:  # noqa: BLE001 - surfaced via .error
            self.error = err
            self._finish(FAILED, None)
            raise
        if target.__class__ is int:
            # Handle-level timer wait: arm a handle-free far-queue entry
            # (time, seq, self) — the arm consumes one sequence number,
            # exactly where a Timeout's schedule() call would consume
            # it, and the entry's seq doubles as the validity token an
            # interrupt revokes.
            sim = self.sim
            if target < 0:
                raise SimulationError(
                    "process %r yielded negative timer delay %r" % (self.name, target)
                )
            if self._pending_interrupt is not None:
                # Interrupted before the first yield: the wait is
                # stillborn. Consume the arm's sequence number (parity
                # with an armed-then-cancelled timer) but leave nothing
                # in the queue.
                sim._seq += 1
                if not self._resume_scheduled:
                    self._resume_scheduled = True
                    sim._schedule_now(self._step, None)
                return
            if target > 0:
                sim._seq = seq = sim._seq + 1
                self._timer_seq = seq
                heapq.heappush(sim._queue, (sim._now + target, seq, self))
                self._waiting_on = self
            else:
                # Zero delay: ride the now lane with a cancellable
                # handle (same ordering as schedule(0, ...)).
                self._waiting_on = sim.schedule(0, self._on_timer, None)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                "process %r yielded %r; processes must yield Event objects "
                "or int timer delays" % (self.name, target)
            )
        if self._pending_interrupt is not None:
            # An interrupt arrived before the generator's first yield;
            # deliver it now that there is a wait to break.
            if not self._resume_scheduled:
                self._resume_scheduled = True
                self.sim._schedule_now(self._step, None)
            return
        self._waiting_on = target
        target.add_callback(self._on_event)

    def _finish(self, state, value):
        self.state = state
        self._waiting_on = None
        if not self.completed.triggered:
            self.completed.trigger(value)

    def __repr__(self):
        return "<Process %s %s>" % (self.name, self.state)

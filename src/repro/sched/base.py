"""The scheduler-backend interface.

A :class:`Scheduler` drives one :class:`~repro.hypervisor.cpupool.CpuPool`:
pCPU executors call :meth:`pick`/:meth:`slice_for`, the hypervisor's
wake/deschedule paths call :meth:`enqueue`/:meth:`requeue`/:meth:`wake`/
:meth:`remove`/:meth:`bounce`, and the periodic loops call
:meth:`account` and :meth:`on_tick`. Concrete backends live in sibling
modules and register themselves in :mod:`repro.sched.registry`; the
shared plumbing here — idle-pCPU bookkeeping, the one-shot yield-flag
pass-over, affinity eligibility, credit refill, slice jitter, trace
emission — used to be copy-pasted between ``CreditScheduler`` and
``MicroScheduler`` and is now written once.

Contract highlights (the cross-backend invariants the test suite
asserts for every registered backend):

* a runnable vCPU sits on exactly one runqueue — ``pick``/``remove``
  take it off, ``enqueue``/``requeue``/``wake`` put it back;
* :meth:`account` hands out at most one accounting period's worth of
  pCPU time per call, and never lifts a vCPU above ``credit_cap``;
* a vCPU queued with ``yielded=True`` is passed over exactly once in
  favour of another eligible vCPU, then competes normally;
* ``pick`` is work conserving (no pCPU idles while stealable work
  waits) unless the backend documents otherwise
  (:class:`~repro.sched.cosched.CoScheduler` gang-idles by design).
"""

from ..errors import SchedulerError
from ..sim.time import ms

#: Priorities, best first (credit1 vocabulary; backends that do not use
#: priority classes still label vCPUs UNDER/OVER for introspection).
BOOST = 0
UNDER = 1
OVER = 2

PRIORITY_NAMES = {BOOST: "boost", UNDER: "under", OVER: "over"}
_PRIORITIES = (BOOST, UNDER, OVER)


class Scheduler:
    """Base class for cpupool scheduler backends."""

    #: Registry name (None = not a selectable normal-pool backend).
    name = None
    #: One-line description shown by ``repro schedulers``.
    description = ""
    #: Defaults a subclass may override.
    default_slice = ms(30)
    default_jitter = 0.0

    def __init__(
        self,
        sim,
        slice_ns=None,
        period_ns=None,
        credit_cap_periods=2,
        rng=None,
        slice_jitter=None,
        tick_ns=None,
        tracer=None,
    ):
        self.sim = sim
        self.tracer = tracer
        self.slice = self.default_slice if slice_ns is None else slice_ns
        self.period = ms(30) if period_ns is None else period_ns
        #: Cadence of the hypervisor's per-pCPU tick loop (credit1 runs
        #: its scheduler at every 10 ms tick).
        self.tick = ms(10) if tick_ns is None else tick_ns
        self.credit_cap = credit_cap_periods * self.period
        self._rng = rng
        self.slice_jitter = self.default_jitter if slice_jitter is None else slice_jitter
        self.pool = None
        #: Optional :class:`~repro.hypervisor.stats.HvStats` hook; the
        #: hypervisor attaches its own so backend-specific events (gang
        #: idling, steals) land in the run's counters.
        self.stats = None
        self._idle = []
        self.steals = 0

    # ------------------------------------------------------------------
    # pCPU membership
    # ------------------------------------------------------------------
    def register_pcpu(self, pcpu):
        """A pCPU joined this scheduler's pool."""

    def unregister_pcpu(self, pcpu):
        """Detach a pCPU; returns a stranded pending vCPU, if any."""
        self.remove_idle(pcpu)
        return None

    # ------------------------------------------------------------------
    # scheduling entry points (executor / hypervisor facing)
    # ------------------------------------------------------------------
    def pick(self, pcpu):
        """Next vCPU for ``pcpu`` (dequeued), or None to idle."""
        raise NotImplementedError

    def enqueue(self, vcpu, boost=False, yielded=False):
        """Queue a runnable vCPU and tickle a pCPU for it."""
        raise NotImplementedError

    def requeue(self, vcpu, yielded=False):
        """Re-queue after a slice end or yield (no boost — boost is
        consumed by being scheduled once)."""
        self.enqueue(vcpu, boost=False, yielded=yielded)

    def wake(self, vcpu):
        """Queue a vCPU waking from blocked (the BOOST path where the
        backend has one)."""
        self.enqueue(vcpu, boost=True)

    def assign(self, vcpu):
        """Place a migrated vCPU directly (slot schedulers only)."""
        raise SchedulerError(
            "%s does not accept direct vCPU assignment" % type(self).__name__
        )

    def remove(self, vcpu):
        """Pull a queued vCPU out (e.g. migration to the micro pool).
        Returns ``True`` when the vCPU was found in a runqueue."""
        raise NotImplementedError

    def bounce(self, vcpu):
        """Send a queued vCPU home after a failed acceleration: exactly
        :meth:`remove` then :meth:`requeue` (BOOST dropped, yield flag
        cleared, re-placed on an idle pCPU or at a queue tail). Returns
        ``False``, changing nothing, when the vCPU was not queued."""
        if not self.remove(vcpu):
            return False
        self.requeue(vcpu)
        return True

    def steal(self, pcpu):
        """Work stealing: take a vCPU queued elsewhere for ``pcpu`` to
        run. Backends without stealing return None."""
        return None

    # ------------------------------------------------------------------
    # periodic hooks (hypervisor loops)
    # ------------------------------------------------------------------
    def account(self, domains, num_pcpus):
        """Periodic credit refill (one accounting period's worth of pCPU
        time, split by domain weight, then evenly inside the domain)."""
        total_weight = sum(d.weight for d in domains) or 1
        budget = self.period * num_pcpus
        for domain in domains:
            share = budget * domain.weight // total_weight
            if not domain.vcpus:
                continue
            per_vcpu = share // len(domain.vcpus)
            for vcpu in domain.vcpus:
                vcpu.credits = min(self.credit_cap, vcpu.credits + per_vcpu)

    def on_tick(self, pcpu):
        """Per-pCPU scheduler tick (tick-granularity preemption where
        the backend wants it)."""

    def charge(self, vcpu, runtime):
        vcpu.credits -= runtime

    def slice_for(self, vcpu):
        if self._rng is None or not self.slice_jitter:
            return self.slice
        spread = 1.0 + self.slice_jitter * (2.0 * self._rng.random() - 1.0)
        return int(self.slice * spread)

    # ------------------------------------------------------------------
    # introspection (tests / invariants)
    # ------------------------------------------------------------------
    def queued(self):
        """Every vCPU currently sitting on a runqueue."""
        return []

    def queue_depth(self):
        return len(self.queued())

    def best_waiting_priority(self, pcpu):
        return None

    # ------------------------------------------------------------------
    # idling (shared bookkeeping — was copy-pasted per scheduler)
    # ------------------------------------------------------------------
    def add_idle(self, pcpu):
        if pcpu not in self._idle:
            self._idle.append(pcpu)

    def remove_idle(self, pcpu):
        try:
            self._idle.remove(pcpu)
        except ValueError:
            pass

    def _claim_idle(self, vcpu):
        """Pop and return the first idle pCPU eligible for ``vcpu``
        (it can run the vCPU immediately), or None."""
        idle = self._idle
        if not idle:
            return None
        affinity = vcpu.affinity
        if affinity is None:
            return idle.pop(0)
        for position, pcpu in enumerate(idle):
            if pcpu.info.index in affinity:
                del idle[position]
                return pcpu
        return None

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _eligible(self, vcpu, pcpu):
        return vcpu.affinity is None or pcpu.info.index in vcpu.affinity

    @staticmethod
    def _weight_of(vcpu):
        return getattr(vcpu.domain, "weight", 256) or 1

    def take_eligible(self, queue, runner):
        """Take the first vCPU from ``queue`` (a list, best first) that
        may run on pCPU ``runner`` (its affinity allows it), honouring
        the one-shot yield flag.

        Yield-flag semantics follow csched_vcpu_yield: a yielding vCPU
        defers to eligible peers in the same queue once — the flag is
        cleared the first time the vCPU is passed over (or when it runs
        because nothing else was eligible). A spinner therefore keeps
        burning its share in spin/yield cycles instead of silently
        donating it to the other VM.
        """
        index = runner.info.index
        flagged = None
        skipped = []
        for position, vcpu in enumerate(queue):
            affinity = vcpu.affinity
            if affinity is not None and index not in affinity:
                continue
            if vcpu.yield_flag:
                skipped.append(vcpu)
                if flagged is None:
                    flagged = vcpu
                continue
            del queue[position]
            vcpu.runq_pcpu = None
            # Same-queue vCPUs we passed over were "skipped once".
            for passed in skipped:
                passed.yield_flag = False
            return vcpu
        if flagged is not None:
            queue.remove(flagged)
            flagged.runq_pcpu = None
            flagged.yield_flag = False
            return flagged
        return None

    def trace(self, kind, **fields):
        """Emit a trace record when tracing is on (one attribute check
        when it is not)."""
        tracer = self.tracer
        if tracer is not None:
            emit = tracer.want(kind)
            if emit is not None:
                emit(**fields)

    def count(self, counter, amount=1):
        """Bump a hypervisor-wide counter when stats are attached (they
        are in every real run; unit tests may run detached)."""
        if self.stats is not None:
            self.stats.counters.inc(counter, amount)

"""Virtual CPUs.

A :class:`VCpu` is the hypervisor's schedulable unit. It carries the
guest-side execution state (task scheduler, pending kernel work, the
instruction-pointer symbol the detector reads) and the hypervisor-side
scheduling state (pool, priority, credits, affinity).
"""

from collections import deque

from ..guest.sched import GuestCpu
from ..guest.task import ExecContext
from ..hw.cache import CacheState
from ..obs.runstate import RunstateAccount

#: vCPU states.
RUNNING = "running"
RUNNABLE = "runnable"   # wants a pCPU but is preempted / queued
BLOCKED = "blocked"     # halted: idle guest or parked lock waiter


class VCpu:
    """One virtual CPU of a domain."""

    def __init__(self, domain, index, cache_model, now=0):
        self.domain = domain
        self.index = index
        self.name = "%s.v%d" % (domain.name, index)
        self.hv = domain.hv
        self.runstate = RunstateAccount(now, RUNNABLE)
        self._state = RUNNABLE
        # Hoisted runstate emit handle (the hottest trace kind: every
        # state transition); None unless the tracer records it.
        tracer = self.hv.tracer
        self._trace_runstate = tracer.want("runstate") if tracer is not None else None
        self.pool = None
        self.pcpu = None           # executor currently running us
        self.priority = None       # managed by the pool scheduler
        self.credits = 0
        self.affinity = None       # None = any pCPU, else frozenset of indices
        self.guest_cpu = GuestCpu(self)
        self.kernel_work = deque()
        self.current_symbol = None
        self.cache = CacheState(cache_model, now=now)
        #: True while halted idle (Linux lazy-TLB mode: skipped by
        #: shootdowns).
        self.lazy_tlb = False
        self.total_ran = 0
        self.migrations_to_micro = 0
        #: credit1 bookkeeping: one-shot yield flag, placement hints.
        self.yield_flag = False
        self.last_pcpu = None
        self.runq_pcpu = None
        #: Comparator policies (vTurbo/vTRS models) pin vCPUs to the
        #: short-slice pool permanently instead of bouncing them back.
        self.micro_resident = False

    # ------------------------------------------------------------------
    # runstate accounting
    # ------------------------------------------------------------------
    @property
    def state(self):
        return self._state

    @state.setter
    def state(self, value):
        """Every transition flows through here, so the runstate ledger
        (time running / runnable / blocked — steal-time accounting) is
        exact by construction."""
        if value == self._state:
            return
        now = self.hv.sim._now
        self.runstate.transition(now, value)
        emit = self._trace_runstate
        if emit is not None:
            emit(vcpu=self.name, from_state=self._state, to_state=value)
        self._state = value

    # ------------------------------------------------------------------
    # detector-visible state
    # ------------------------------------------------------------------
    @property
    def ip(self):
        """Instruction pointer: the address inside the symbol the vCPU
        was last executing (user-space address when in user code)."""
        return self.domain.kernel.addr_for(self.current_symbol)

    @property
    def running(self):
        return self.state == RUNNING

    # ------------------------------------------------------------------
    # cross-CPU notification
    # ------------------------------------------------------------------
    def notify(self, cause):
        """Break this vCPU's executor out of an in-progress wait (lock
        granted, IPI completed, kernel work posted). No-op unless the
        vCPU is on a pCPU right now."""
        pcpu = self.pcpu
        if pcpu is not None:
            pcpu.interrupt_current(cause, self)

    def post_kernel_work(self, gen, name=""):
        """Queue IRQ-context work (IPI/vIRQ handler). Wakes a halted
        vCPU through the hypervisor (the BOOST path); pokes a running
        one so the work is serviced at the next boundary."""
        self.kernel_work.append(ExecContext(gen, name=name))
        if self.state == BLOCKED:
            self.hv.wake_vcpu(self)
        elif self.state == RUNNING:
            self.notify(("kernel_work",))

    # ------------------------------------------------------------------
    # execution-context selection (IRQ work preempts tasks)
    # ------------------------------------------------------------------
    def next_context(self):
        """``(context, task, switched)`` to execute next; context is
        ``None`` when the guest is fully idle."""
        if self.kernel_work:
            return self.kernel_work[0], None, False
        task, switched = self.guest_cpu.pick()
        if task is None:
            return None, None, False
        return task.context, task, switched

    def finish_kernel_work(self, ctx):
        """Pop an exhausted IRQ-work context."""
        if self.kernel_work and self.kernel_work[0] is ctx:
            self.kernel_work.popleft()

    def __repr__(self):
        return "<VCpu %s %s>" % (self.name, self.state)

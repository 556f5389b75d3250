"""pCPU executors.

Each physical CPU is a simulation process: it asks its pool's scheduler
for a vCPU, charges the world-switch cost, and then interprets the
vCPU's action stream (task programs and IRQ-context kernel work)
against shared guest state until the slice expires, the vCPU blocks, or
it yields. All VTD pathologies emerge here: a descheduled vCPU's
in-flight action (a held lock's critical section, an unacknowledged
shootdown) simply stays frozen until the vCPU runs again.

Hot-path notes (this module dominates the engine's per-event cost; see
``docs/performance.md``):

* Timer waits yield bare ``int`` delays — the engine's handle-level
  timer wait — instead of allocating a Timeout per chunk. The two
  spellings are byte-identical by construction.
* ``Compute`` and ``Release`` (the bulk of the action mix) run inline
  in :meth:`PCpu._run`; every other action dispatches through a
  class-keyed table (``_GEN_EXEC`` / ``_PLAIN_EXEC``). Exact class match
  only: an action class in neither raises ``SimulationError``.
* The short fixed-cost charges (world switch, lock release, wake) are
  inlined rather than delegated to a ``_charge`` sub-generator, saving
  a generator frame per action.
* The loops read ``sim._now`` directly; the ``now`` property shows up
  at these call rates.
"""

from math import ceil as _ceil

from ..errors import SimulationError
from ..guest import actions as act
from ..guest import spinlock as sl
from ..sim.events import Interrupt

#: Stop reasons returned by the executor to the hypervisor.
STOP_SLICE = "slice"          # time slice expired
STOP_PREEMPT = "preempt"      # tickled off for a BOOST vCPU / pool change
STOP_IDLE = "idle"            # guest has nothing to run (halt)
STOP_PARK = "park"            # pv_wait: parked lock waiter
STOP_PLE = "ple"              # pause-loop exit while spinning on a lock
STOP_IPI_WAIT = "ipi_wait"    # voluntary yield while awaiting IPI acks


class PCpu:
    """Executor bound to one physical CPU."""

    def __init__(self, hv, info):
        self.hv = hv
        self.sim = hv.sim
        self.info = info
        self.pool = None
        self.pending_pool = None
        self.current = None
        self.preempt_requested = False
        #: Hotplug (fault injection): ``offline_requested`` is the
        #: desired state, ``offline`` the actual one — the flip happens
        #: at the loop boundary, like pool changes.
        self.offline_requested = False
        self.offline = False
        self.proc = None
        tracer = hv.tracer
        self._trace_release = tracer.want("lock_release") if tracer is not None else None
        self.slice_end = 0
        self.idle_since = None
        self.busy_ns = 0
        self._last_vcpu = None

    def __repr__(self):
        return "<PCpu %d pool=%s cur=%s>" % (
            self.info.index,
            self.pool.name if self.pool else None,
            self.current.name if self.current else None,
        )

    # ------------------------------------------------------------------
    # external pokes
    # ------------------------------------------------------------------
    def tickle(self):
        """Wake this pCPU out of its idle wait."""
        if self.proc is not None and self.current is None:
            self.proc.interrupt(("tickle",))

    def request_preempt(self):
        """Ask the executor to deschedule its current vCPU ASAP."""
        self.preempt_requested = True
        if self.proc is not None:
            self.proc.interrupt(("preempt",))

    def interrupt_current(self, cause, vcpu):
        """Deliver a wait-breaking cause to the vCPU running here."""
        if self.current is vcpu and self.proc is not None:
            self.proc.interrupt(cause)

    def request_pool_change(self, pool):
        self.pending_pool = pool
        if self.current is not None:
            self.request_preempt()
        else:
            self.tickle()

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def start(self):
        self.proc = self.sim.process(self._loop(), name="pcpu%d" % self.info.index)
        return self.proc

    def _loop(self):
        while True:
            if self.offline_requested:
                yield from self._offline_wait()
                continue
            if self.pending_pool is not None and self.pending_pool is not self.pool:
                self.hv.complete_pool_change(self)
            self.pending_pool = None
            vcpu = self.pool.scheduler.pick(self)
            if vcpu is None:
                yield from self._idle()
                continue
            yield from self._run(vcpu)

    def _offline_wait(self):
        """Leave the pool and park until brought back online."""
        self.hv.on_pcpu_offline(self)
        while self.offline_requested:
            try:
                yield self.sim.event(name="offline:pcpu%d" % self.info.index)
            except Interrupt:
                pass
        self.hv.on_pcpu_online(self)

    def _idle(self):
        scheduler = self.pool.scheduler
        scheduler.add_idle(self)
        self.idle_since = self.sim.now
        try:
            yield self.sim.event(name="idle:pcpu%d" % self.info.index)
        except Interrupt:
            pass
        finally:
            scheduler.remove_idle(self)
            self.idle_since = None

    def _charge(self, duration):
        """Burn uninterruptible pCPU time (world switches); interrupts
        land but only set flags consumed later."""
        sim = self.sim
        end = sim._now + duration
        while sim._now < end:
            try:
                yield end - sim._now
            except Interrupt:
                continue

    def _run(self, vcpu):
        sim = self.sim
        hv = self.hv
        self.preempt_requested = False
        if vcpu is self._last_vcpu:
            # Re-entering the vCPU we just ran (e.g. after a PLE yield
            # with no competitor): a VMEXIT/VMENTER round trip, not a
            # full world switch.
            cost = hv.costs.vmexit
        else:
            cost = hv.costs.ctx_switch
        end = sim._now + cost
        while sim._now < end:
            try:
                yield end - sim._now
            except Interrupt:
                pass
        polluted = self._last_vcpu is not None and self._last_vcpu is not vcpu
        self._last_vcpu = vcpu
        self.current = vcpu
        vcpu.pcpu = self
        vcpu.last_pcpu = self
        hv.mark_running(vcpu)
        vcpu.cache.on_schedule_in(sim._now, polluted=polluted)
        hv.stats.count_schedule(vcpu)
        started = sim._now
        self.slice_end = slice_end = started + self.pool.scheduler.slice_for(vcpu)
        guest_ctx_cost = hv.costs.guest_ctx_switch
        kernel_work = vcpu.kernel_work
        guest_pick = vcpu.guest_cpu.pick
        gen_exec = _GEN_EXEC
        plain_exec = _PLAIN_EXEC
        cls_compute = act.Compute
        cls_release = act.Release
        emit_release = self._trace_release
        cache_speed = vcpu.cache.speed
        stop = None
        while stop is None:
            if self.preempt_requested or self.pending_pool is not None:
                stop = (STOP_PREEMPT, None)
                break
            if sim._now >= slice_end:
                stop = (STOP_SLICE, None)
                break
            # Inlined vcpu.next_context(): IRQ work preempts tasks.
            if kernel_work:
                ctx = kernel_work[0]
                task = None
            else:
                task, switched = guest_pick()
                if task is None:
                    stop = (STOP_IDLE, None)
                    break
                ctx = task.context
                if switched:
                    vcpu.current_symbol = "schedule"
                    end = sim._now + guest_ctx_cost
                    while sim._now < end:
                        try:
                            yield end - sim._now
                        except Interrupt:
                            pass
            # Inlined ctx.peek() fast path: the in-flight action.
            action = ctx.current
            if action is None or action.done:
                action = ctx.peek()
            if action is None:
                # Exhausted context: IRQ work completes; a task exits.
                if task is None:
                    vcpu.finish_kernel_work(ctx)
                else:
                    hv.on_task_exit(vcpu, task)
                continue
            acls = action.__class__
            if acls is cls_compute:
                # Compute runs inline: it dominates the action mix, and
                # at this call rate a generator frame per dispatch is
                # measurable.
                remaining = action.remaining
                while True:
                    if self.preempt_requested or self.pending_pool is not None:
                        stop = (STOP_PREEMPT, None)
                        break
                    now = sim._now
                    if now >= slice_end:
                        stop = (STOP_SLICE, None)
                        break
                    if task is not None and kernel_work:
                        break
                    if action.user:
                        speed = cache_speed(now)
                        want = _ceil(remaining / speed)
                    else:
                        speed = 1.0
                        want = remaining
                    dt = slice_end - now
                    if want < dt:
                        dt = want
                    vcpu.current_symbol = action.symbol
                    interrupted = False
                    try:
                        yield dt
                    except Interrupt:
                        interrupted = True
                    elapsed = sim._now - now
                    if not interrupted and dt == want:
                        progressed = remaining
                    else:
                        progressed = min(remaining, int(elapsed * speed))
                        if progressed == 0 and elapsed > 0:
                            progressed = min(remaining, 1)
                    if task is not None:
                        task.ran_ns += elapsed
                        task.total_ns += elapsed
                    if progressed >= remaining:
                        action.remaining = 0
                        action.done = True
                        break
                    action.remaining = remaining = remaining - progressed
            elif acls is cls_release:
                # Release runs inline for the same reason.
                lock = action.lock
                vcpu.current_symbol = action.symbol
                end = sim._now + 300
                while sim._now < end:
                    try:
                        yield end - sim._now
                    except Interrupt:
                        pass
                if emit_release is not None:
                    emit_release(vcpu=vcpu.name, lock=lock.name)
                grantee = lock.release(vcpu)
                if grantee is not None and lock.user_level:
                    self._futex_wake(vcpu, lock, grantee)
                action.done = True
            else:
                handler = gen_exec.get(acls)
                if handler is not None:
                    stop = yield from handler(self, vcpu, task, action)
                else:
                    handler = plain_exec.get(acls)
                    if handler is None:
                        raise SimulationError("unknown action %r" % (action,))
                    stop = handler(self, vcpu, task, action)
        runtime = sim._now - started
        self.busy_ns += runtime
        vcpu.cache.on_schedule_out(sim._now)
        vcpu.pcpu = None
        self.current = None
        self.preempt_requested = False
        hv.on_deschedule(vcpu, stop, runtime)

    # ------------------------------------------------------------------
    # action handlers
    # ------------------------------------------------------------------
    def _exec_acquire(self, vcpu, task, action):
        sim = self.sim
        lock = action.lock
        if lock.granted_to(vcpu):
            lock.finish_grant(vcpu)
            self._finish_lock_wait(vcpu, lock, action)
            return None
        if action.wait_started is None and lock.try_acquire(vcpu):
            action.done = True
            return None
        waiter = lock.add_waiter(vcpu)
        if action.wait_started is None:
            action.wait_started = sim._now
        ple_budget = self.hv.ple.spin_budget()
        while True:
            if waiter.granted:
                lock.finish_grant(vcpu)
                self._finish_lock_wait(vcpu, lock, action)
                return None
            if self.preempt_requested or self.pending_pool is not None:
                waiter.state = sl.WAITING
                return (STOP_PREEMPT, None)
            if sim._now >= self.slice_end:
                waiter.state = sl.WAITING
                return (STOP_SLICE, None)
            if task is not None and vcpu.kernel_work:
                waiter.state = sl.WAITING
                return None
            slice_left = self.slice_end - sim._now
            budget = slice_left if ple_budget is None else min(ple_budget, slice_left)
            waiter.state = sl.SPINNING
            vcpu.current_symbol = action.symbol
            start = sim._now
            interrupted = False
            try:
                yield budget
            except Interrupt:
                interrupted = True
            if task is not None:
                elapsed = sim._now - start
                task.ran_ns += elapsed
                task.total_ns += elapsed
            if interrupted:
                continue
            if waiter.granted:
                continue
            if ple_budget is not None and budget == ple_budget:
                # Full PLE window elapsed: PAUSE-loop VMEXIT. The pv
                # slowpath parks after its spin rounds are exhausted; a
                # user-level mutex futex-sleeps the task instead so the
                # vCPU stays available for other guest work.
                action.spun += 1
                if action.spun >= self.hv.pv_spin_rounds:
                    action.spun = 0
                    if lock.user_level and task is not None:
                        waiter.state = sl.FUTEX
                        waiter.task = task
                        if waiter.waitq is None:
                            from ..guest.waitqueue import WaitQueue

                            waiter.waitq = WaitQueue(name="futex:%s" % lock.name)
                        vcpu.current_symbol = None
                        vcpu.guest_cpu.sleep(task, waiter.waitq)
                        return None
                    waiter.state = sl.PARKED
                    return (STOP_PARK, lock)
                waiter.state = sl.WAITING
                return (STOP_PLE, lock)
            waiter.state = sl.WAITING
            return (STOP_SLICE, None)

    def _finish_lock_wait(self, vcpu, lock, action):
        action.done = True
        if action.wait_started is not None:
            kernel = vcpu.domain.kernel
            kernel.record_lock_wait(lock, self.sim.now - action.wait_started, vcpu=vcpu)

    def _futex_wake(self, vcpu, lock, grantee):
        """futex wake: make the sleeping task runnable (cross-vCPU wakes
        ride a fire-and-forget reschedule IPI)."""
        waiter = lock.waiter(grantee)
        if waiter is not None and waiter.state == sl.FUTEX:
            woken = waiter.task
            waiter.waitq.discard_sleeper(woken)
            woken.sleeping_on = None
            if woken.vcpu is vcpu:
                vcpu.guest_cpu.enqueue(woken)
            else:
                vcpu.domain.kernel.send_resched_ipi(vcpu, woken, self.sim._now)

    def _exec_shootdown(self, vcpu, task, action):
        sim = self.sim
        kernel = vcpu.domain.kernel
        if action.op is None:
            vcpu.current_symbol = "native_flush_tlb_others"
            yield from self._charge(kernel.costs.tlb_flush_local)
            action.op = kernel.tlb.start(vcpu, sim._now)
            action.wait_started = sim._now
        op = action.op
        stop = yield from self._await_ipi(vcpu, task, action, op)
        return stop

    def _exec_wake(self, vcpu, task, action):
        sim = self.sim
        kernel = vcpu.domain.kernel
        if action.ipi_op is None:
            vcpu.current_symbol = action.symbol
            yield from self._charge(700)
            woken = action.waitq.pop_sleeper()
            if woken is None:
                action.done = True
                return None
            woken.sleeping_on = None
            if woken.vcpu is vcpu:
                vcpu.guest_cpu.enqueue(woken)
                action.done = True
                return None
            action.ipi_op = kernel.send_resched_ipi(vcpu, woken, sim._now)
            action.wait_started = sim._now
            if not action.sync:
                action.done = True
                return None
        return (yield from self._await_ipi(vcpu, task, action, action.ipi_op))

    def _exec_smp_call(self, vcpu, task, action):
        sim = self.sim
        kernel = vcpu.domain.kernel
        if action.op is None:
            vcpu.current_symbol = action.symbol
            yield from self._charge(500)
            siblings = vcpu.domain.siblings_of(vcpu)
            if not siblings:
                action.done = True
                return None
            if action.target_index is not None:
                target = vcpu.domain.vcpus[action.target_index]
            else:
                target = siblings[vcpu.index % len(siblings)]
            action.op = kernel.send_call_function(vcpu, target, sim._now)
            action.wait_started = sim._now
        return (yield from self._await_ipi(vcpu, task, action, action.op))

    def _await_ipi(self, vcpu, task, action, op):
        """Spin until ``op`` completes, yielding the pCPU (an ``ipi``
        yield) every exhausted spin window — the
        ``smp_call_function_*`` wait behaviour."""
        sim = self.sim
        ple_budget = self.hv.ple.spin_budget()
        while not op.complete:
            if self.preempt_requested or self.pending_pool is not None:
                return (STOP_PREEMPT, None)
            if sim._now >= self.slice_end:
                return (STOP_SLICE, None)
            if task is not None and vcpu.kernel_work:
                return None
            slice_left = self.slice_end - sim._now
            budget = slice_left if ple_budget is None else min(ple_budget, slice_left)
            vcpu.current_symbol = action.symbol
            start = sim._now
            interrupted = False
            try:
                yield budget
            except Interrupt:
                interrupted = True
            if task is not None:
                elapsed = sim._now - start
                task.ran_ns += elapsed
                task.total_ns += elapsed
            if interrupted or op.complete:
                continue
            if ple_budget is not None and budget == ple_budget:
                return (STOP_IPI_WAIT, op)
            return (STOP_SLICE, None)
        action.done = True
        return None

    def _exec_sleep(self, vcpu, task, action):
        if task is None:
            raise SimulationError("Sleep action in IRQ context")
        vcpu.current_symbol = "schedule"
        vcpu.guest_cpu.sleep(task, action.waitq)
        action.done = True
        return None

    def _exec_gyield(self, vcpu, task, action):
        if task is not None:
            vcpu.guest_cpu.yield_current()
        action.done = True
        return None

    def _exec_emit(self, vcpu, task, action):
        if action.cost:
            vcpu.current_symbol = action.symbol
            yield from self._charge(action.cost)
        action.fn(self.sim.now)
        action.done = True
        return None


#: Class-keyed dispatch tables for the run loop: generator handlers are
#: driven with ``yield from``, plain handlers called directly. Exact
#: class match only; Compute and Release are inlined in the run loop.
_GEN_EXEC = {
    act.Acquire: PCpu._exec_acquire,
    act.Shootdown: PCpu._exec_shootdown,
    act.Wake: PCpu._exec_wake,
    act.SmpCallSingle: PCpu._exec_smp_call,
    act.Emit: PCpu._exec_emit,
}
_PLAIN_EXEC = {
    act.Sleep: PCpu._exec_sleep,
    act.GYield: PCpu._exec_gyield,
}

"""The default backend: a model of Xen's credit1 scheduler.

Faithful behaviours (the ones the paper's pathologies depend on):

* 30 ms default time slice;
* **per-pCPU runqueues**, priority-ordered (BOOST > UNDER > OVER), with
  work stealing only when a pCPU would otherwise idle — so in an
  overcommitted host a descheduled vCPU waits out the slice of whatever
  its local pCPU runs next;
* credits refilled every accounting period in proportion to domain
  weight; priority is UNDER while credits remain, OVER when exhausted;
* **BOOST**: a vCPU that wakes from blocked with credits left enters
  BOOST priority and may preempt a non-BOOST vCPU — but a vCPU that is
  *already runnable* (the mixed-workload case) gets no boost;
* **yield flag** (``csched_vcpu_yield``): a vCPU that yielded (PLE exit
  or voluntary hypercall) is passed over once in favour of anything else
  runnable, even lower priority — this is what makes every yield cost
  up to a full co-runner slice, the heart of the VTD problem;
* a small random slice perturbation models the desynchronisation that
  Xen's 100 Hz ticks and wakeup traffic produce (without it the two VMs
  run in artificial lockstep and no preemption ever lands mid-service).
"""

from ..errors import SchedulerError
from .base import _PRIORITIES, BOOST, OVER, PRIORITY_NAMES, UNDER, Scheduler
from .registry import register

__all__ = ["BOOST", "UNDER", "OVER", "PRIORITY_NAMES", "CreditScheduler"]


@register
class CreditScheduler(Scheduler):
    """Per-pCPU-runqueue credit scheduler for one cpupool."""

    name = "credit"
    description = (
        "Xen credit1: per-pCPU runqueues, 30 ms slice, BOOST on wake, "
        "one-shot yield flag (the paper's baseline)"
    )
    default_jitter = 0.10

    def __init__(self, sim, **kwargs):
        super().__init__(sim, **kwargs)
        self._runqs = {}        # pcpu -> {priority: list of vcpus}
        self._depths = {}       # pcpu -> vcpus queued there (same key order)

    # ------------------------------------------------------------------
    # runqueue plumbing
    # ------------------------------------------------------------------
    def register_pcpu(self, pcpu):
        if pcpu not in self._runqs:
            self._runqs[pcpu] = {p: [] for p in _PRIORITIES}
            self._depths[pcpu] = 0

    def unregister_pcpu(self, pcpu):
        """Detach a pCPU, respreading its queued vCPUs."""
        self.remove_idle(pcpu)
        queues = self._runqs.pop(pcpu, None)
        self._depths.pop(pcpu, None)
        if queues:
            for priority in _PRIORITIES:
                for vcpu in queues[priority]:
                    vcpu.runq_pcpu = None
                    self._place(vcpu, priority)
        return None

    def _depth(self, pcpu):
        return self._depths[pcpu]

    def _push(self, pcpu, priority, vcpu):
        """Append ``vcpu`` to ``pcpu``'s ``priority`` queue: the one
        place a vCPU joins a runqueue."""
        self._runqs[pcpu][priority].append(vcpu)
        self._depths[pcpu] += 1
        vcpu.runq_pcpu = pcpu

    def _place(self, vcpu, priority):
        """Insert ``vcpu`` into a pCPU runqueue: last-ran pCPU when
        eligible (cache affinity), else the shallowest eligible queue
        (the first one in registration order on a tie)."""
        last = vcpu.last_pcpu
        if (
            last is not None
            and last in self._runqs
            and (vcpu.affinity is None or self._eligible(vcpu, last))
        ):
            target = last
        else:
            target = self._shallowest(vcpu, self._depths)
            if target is None:
                raise SchedulerError(
                    "no pCPU in pool %r satisfies affinity of %s"
                    % (self.pool.name if self.pool else "?", vcpu.name)
                )
        self._push(target, priority, vcpu)
        return target

    def _shallowest(self, vcpu, depths):
        """The first pCPU of ``depths`` (a ``{pcpu: depth}`` dict) with
        the fewest queued vCPUs that ``vcpu`` may run on, or None."""
        if vcpu.affinity is None:
            return min(depths, key=depths.__getitem__) if depths else None
        target = best_depth = None
        for pcpu, depth in depths.items():
            if self._eligible(vcpu, pcpu) and (best_depth is None or depth < best_depth):
                target, best_depth = pcpu, depth
        return target

    # ------------------------------------------------------------------
    # scheduling entry points
    # ------------------------------------------------------------------
    def pick(self, pcpu):
        """Next vCPU for ``pcpu``: best priority from its own runqueue
        (yield-flagged vCPUs are passed over once), stealing from other
        runqueues only when the local one is empty."""
        vcpu = self._pick_from(pcpu, pcpu)
        if vcpu is not None:
            return vcpu
        # Local queue exhausted: steal rather than idle (work conserving).
        return self.steal(pcpu)

    def steal(self, pcpu):
        for other, depth in self._depths.items():
            if not depth or other is pcpu:
                continue
            vcpu = self._pick_from(other, pcpu)
            if vcpu is not None:
                self.steals += 1
                self.trace(
                    "sched_steal",
                    vcpu=vcpu.name,
                    from_pcpu=other.info.index,
                    to_pcpu=pcpu.info.index,
                )
                return vcpu
        return None

    def _pick_from(self, owner, runner):
        """Take the best eligible vCPU from ``owner``'s runqueue for
        ``runner`` to execute (yield flag honoured per priority class:
        a yielding vCPU defers to same-priority peers once, but still
        beats lower-priority vCPUs). An empty or unknown runqueue costs
        one dict lookup."""
        if not self._depths.get(owner):
            return None
        queues = self._runqs[owner]
        for priority in _PRIORITIES:
            queue = queues[priority]
            if queue:
                vcpu = self.take_eligible(queue, runner)
                if vcpu is not None:
                    self._depths[owner] -= 1
                    return vcpu
        return None

    def enqueue(self, vcpu, boost=False, yielded=False):
        """Queue a runnable vCPU and tickle a pCPU for it."""
        # Xen boosts a waking vCPU whose priority is (still) UNDER; the
        # priority label is sticky between accounting points, so a vCPU
        # that slept before burning through its credits keeps its boost
        # eligibility even if the balance dipped to zero.
        credited = vcpu.credits > 0
        if boost and (credited or vcpu.priority in (BOOST, UNDER)):
            priority = BOOST
        else:
            priority = UNDER if credited else OVER
        vcpu.priority = priority
        vcpu.yield_flag = yielded
        tracer = self.tracer
        trace_on = tracer is not None and tracer.enabled
        # Prefer an idle pCPU outright (it can run us immediately).
        pcpu = self._claim_idle(vcpu) if self._idle else None
        if pcpu is not None:
            self._push(pcpu, priority, vcpu)
            if trace_on:
                if priority == BOOST:
                    self.trace("sched_boost", vcpu=vcpu.name, pcpu=pcpu.info.index)
                self.trace(
                    "sched_tickle", vcpu=vcpu.name, pcpu=pcpu.info.index, why="idle"
                )
            pcpu.tickle()
            return
        target = self._place(vcpu, priority)
        if trace_on and priority == BOOST:
            self.trace("sched_boost", vcpu=vcpu.name, pcpu=target.info.index)
        if priority == BOOST:
            current = target.current
            if (
                current is not None
                and not target.preempt_requested
                and current.priority is not None
                and current.priority > BOOST
            ):
                if trace_on:
                    self.trace(
                        "sched_tickle",
                        vcpu=vcpu.name,
                        pcpu=target.info.index,
                        why="boost_preempt",
                    )
                target.request_preempt()

    def remove(self, vcpu):
        """Pull a queued vCPU out (migration to the micro pool).

        Returns ``True`` when the vCPU was found in a runqueue. A queued
        vCPU always sits in ``_runqs[vcpu.runq_pcpu][vcpu.priority]``:
        :meth:`_push` sets the pCPU, :meth:`enqueue` and
        :meth:`_rebucket_queued` keep the priority in step.
        """
        pcpu = vcpu.runq_pcpu
        if pcpu is None:
            return False
        self._runqs[pcpu][vcpu.priority].remove(vcpu)
        self._depths[pcpu] -= 1
        vcpu.runq_pcpu = None
        return True

    def bounce(self, vcpu):
        """:meth:`remove` then :meth:`requeue`, inlined: the one call a
        failed acceleration makes. Queues through :meth:`enqueue`, so a
        subclass's placement (balance's ``_place``) still applies."""
        pcpu = vcpu.runq_pcpu
        if pcpu is None:
            return False
        self._runqs[pcpu][vcpu.priority].remove(vcpu)
        self._depths[pcpu] -= 1
        vcpu.runq_pcpu = None
        self.enqueue(vcpu)
        return True

    def queued(self):
        return [
            vcpu
            for queues in self._runqs.values()
            for priority in _PRIORITIES
            for vcpu in queues[priority]
        ]

    def queue_depth(self):
        return sum(self._depths.values())

    def best_waiting_priority(self, pcpu):
        """Best priority queued on ``pcpu``'s local runqueue; the tick
        uses it to preempt an OVER vCPU when something better waits."""
        queues = self._runqs.get(pcpu)
        if queues is None:
            return None
        for priority in _PRIORITIES:
            for vcpu in queues[priority]:
                if self._eligible(vcpu, pcpu):
                    return priority
        return None

    def on_tick(self, pcpu):
        """credit1's per-pCPU 10 ms tick: preempt an OVER vCPU when
        something better waits on the local runqueue."""
        current = pcpu.current
        if current is not None and not pcpu.preempt_requested:
            best = self.best_waiting_priority(pcpu)
            if (
                best is not None
                and current.priority is not None
                and current.priority > best
            ):
                pcpu.request_preempt()

    # ------------------------------------------------------------------
    # credit accounting
    # ------------------------------------------------------------------
    def account(self, domains, num_pcpus):
        super().account(domains, num_pcpus)
        self._rebucket_queued()

    def _rebucket_queued(self):
        """Refresh the priority class of queued vCPUs after an
        accounting refill (csched_acct updates every vCPU's priority,
        not just running ones -- otherwise a vCPU queued as OVER starves
        behind an UNDER co-runner forever)."""
        for queues in self._runqs.values():
            for priority in (UNDER, OVER):
                queue = queues[priority]
                for vcpu in list(queue):
                    wanted = UNDER if vcpu.credits > 0 else OVER
                    if wanted != priority:
                        queue.remove(vcpu)
                        queues[wanted].append(vcpu)
                        vcpu.priority = wanted

"""The micro-sliced pool's slot scheduler.

Per-pCPU runqueues capped at one vCPU (§5 of the paper),
sub-millisecond slice, no boosting, no load balancing, no credit
charging (a micro-sliced vCPU's credits are managed by the parent
pool's master, per the paper's implementation). Not a selectable
normal-pool backend — the micro pool always uses it; it subclasses
:class:`~repro.sched.base.Scheduler` so the CpuPool/executor machinery
is uniform across pools.
"""

from ..errors import SchedulerError
from .base import Scheduler


class MicroScheduler(Scheduler):
    """Micro-pool scheduler: one-vCPU slots, no boosting, no stealing."""

    name = None  # internal: not selectable via --scheduler
    description = "micro-sliced pool slot scheduler (one vCPU per pCPU)"

    def __init__(self, sim, slice_ns):
        super().__init__(sim, slice_ns=slice_ns, slice_jitter=0)
        self._slots = {}   # pcpu -> pending vcpu (not running yet)

    def register_pcpu(self, pcpu):
        self._slots.setdefault(pcpu, None)

    def unregister_pcpu(self, pcpu):
        """Drop a pCPU from the pool; returns any vCPU stranded in its
        slot so the caller can send it home."""
        self.remove_idle(pcpu)
        return self._slots.pop(pcpu, None)

    def has_free_slot(self):
        return None in self._slots.values()

    def free_slots(self):
        return sum(1 for v in self._slots.values() if v is None)

    def assign(self, vcpu):
        """Place a migrated vCPU into a free slot; returns ``False`` when
        every runqueue already holds its one allowed vCPU."""
        target = None
        for pcpu in self._idle:
            if self._slots.get(pcpu) is None:
                target = pcpu
                break
        if target is None:
            for pcpu, pending in self._slots.items():
                if pending is None and pcpu.current is None:
                    target = pcpu
                    break
        if target is None:
            for pcpu, pending in self._slots.items():
                if pending is None:
                    target = pcpu
                    break
        if target is None:
            return False
        self._slots[target] = vcpu
        if target in self._idle:
            self._idle.remove(target)
            target.tickle()
        return True

    def pick(self, pcpu):
        vcpu = self._slots.get(pcpu)
        if vcpu is not None:
            self._slots[pcpu] = None
        return vcpu

    def enqueue(self, vcpu, boost=False, yielded=False):  # noqa: ARG002
        raise SchedulerError("vCPUs cannot be enqueued directly on the micro pool")

    def remove(self, vcpu):
        for pcpu, pending in self._slots.items():
            if pending is vcpu:
                self._slots[pcpu] = None
                return True
        return False

    def charge(self, vcpu, runtime):
        # Credits are managed by the parent pool's master (per the
        # paper's implementation); the micro pool burns none.
        pass

    def queued(self):
        return [vcpu for vcpu in self._slots.values() if vcpu is not None]

"""A credit2-style backend (Xen's successor scheduler).

The design points that distinguish it from credit1, as modelled here:

* **global (well, dual) runqueues** instead of per-pCPU ones — pCPUs
  with even/odd indices share a runqueue, approximating credit2's
  one-runqueue-per-L2/socket layout, so imbalance between individual
  pCPUs cannot strand a runnable vCPU behind one busy core;
* runqueues are **ordered by remaining credit** (most credit first)
  rather than by a 3-level priority band;
* **no BOOST**: a waking vCPU gets no special priority and never
  preempts mid-slice, which removes credit1's boost-driven preemption
  storms but also its I/O-latency advantage;
* **weighted burn** instead of weighted refill: every vCPU is refilled
  equally, but heavier domains burn credit more slowly
  (``runtime * 256 / weight``), which is how credit2 expresses weight.

The yield flag behaves as in credit1 (pass over once), so the VTD
pathologies the paper targets remain: a yield still donates the pCPU
for an arbitrary co-runner slice.
"""

from .base import OVER, UNDER, Scheduler
from .registry import register


@register
class Credit2Scheduler(Scheduler):
    """Dual global runqueues, credit-ordered, no BOOST."""

    name = "credit2"
    description = (
        "Xen credit2-style: dual global runqueues ordered by credit, "
        "weighted burn rate, no BOOST priority"
    )
    default_jitter = 0.10

    def __init__(self, sim, **kwargs):
        super().__init__(sim, **kwargs)
        self._queues = ([], [])   # two global runqueues (even/odd pCPUs)
        self._pcpus = []
        self._rr = 0              # round-robin for history-less placement

    # ------------------------------------------------------------------
    # pCPU membership
    # ------------------------------------------------------------------
    def register_pcpu(self, pcpu):
        if pcpu not in self._pcpus:
            self._pcpus.append(pcpu)

    def unregister_pcpu(self, pcpu):
        self.remove_idle(pcpu)
        if pcpu in self._pcpus:
            self._pcpus.remove(pcpu)
        return None

    def _queue_of(self, pcpu):
        return self._queues[pcpu.info.index % len(self._queues)]

    def _home_queue(self, vcpu):
        last = vcpu.last_pcpu
        if last is not None:
            return self._queues[last.info.index % len(self._queues)]
        self._rr += 1
        return self._queues[self._rr % len(self._queues)]

    @staticmethod
    def _insert(queue, vcpu):
        """Credit-ordered insert (most credit first; FIFO among equal)."""
        position = len(queue)
        for index, other in enumerate(queue):
            if other.credits < vcpu.credits:
                position = index
                break
        queue.insert(position, vcpu)
        vcpu.runq_pcpu = None

    # ------------------------------------------------------------------
    # scheduling entry points
    # ------------------------------------------------------------------
    def enqueue(self, vcpu, boost=False, yielded=False):  # noqa: ARG002 (no BOOST)
        vcpu.priority = UNDER if vcpu.credits > 0 else OVER
        vcpu.yield_flag = yielded
        self._insert(self._home_queue(vcpu), vcpu)
        pcpu = self._claim_idle(vcpu)
        if pcpu is not None:
            self.trace(
                "sched_tickle", vcpu=vcpu.name, pcpu=pcpu.info.index, why="idle"
            )
            pcpu.tickle()

    def pick(self, pcpu):
        vcpu = self.take_eligible(self._queue_of(pcpu), pcpu)
        if vcpu is None:
            vcpu = self.steal(pcpu)
        if vcpu is not None:
            self.trace(
                "sched_switch",
                vcpu=vcpu.name,
                pcpu=pcpu.info.index,
                backend=self.name,
            )
        return vcpu

    def steal(self, pcpu):
        mine = self._queue_of(pcpu)
        for queue in self._queues:
            if queue is mine:
                continue
            vcpu = self.take_eligible(queue, pcpu)
            if vcpu is not None:
                self.steals += 1
                self.trace(
                    "sched_steal",
                    vcpu=vcpu.name,
                    from_pcpu=-1,  # global runqueue, no owning pCPU
                    to_pcpu=pcpu.info.index,
                )
                return vcpu
        return None

    def remove(self, vcpu):
        for queue in self._queues:
            try:
                queue.remove(vcpu)
            except ValueError:
                continue
            vcpu.runq_pcpu = None
            return True
        return False

    # ------------------------------------------------------------------
    # credit economy: equal refill, weighted burn
    # ------------------------------------------------------------------
    def charge(self, vcpu, runtime):
        vcpu.credits -= runtime * 256 // self._weight_of(vcpu)

    def account(self, domains, num_pcpus):
        total_vcpus = sum(len(d.vcpus) for d in domains)
        if not total_vcpus:
            return
        budget = self.period * num_pcpus
        per_vcpu = budget // total_vcpus
        for domain in domains:
            for vcpu in domain.vcpus:
                vcpu.credits = min(self.credit_cap, vcpu.credits + per_vcpu)
        self._resort()

    def _resort(self):
        """Restore credit order (and priority labels) after a refill."""
        for queue in self._queues:
            queue.sort(key=lambda v: -v.credits)   # stable: FIFO among equal
            for vcpu in queue:
                vcpu.priority = UNDER if vcpu.credits > 0 else OVER

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def queued(self):
        return [vcpu for queue in self._queues for vcpu in queue]

    def best_waiting_priority(self, pcpu):
        for vcpu in self._queue_of(pcpu):
            if self._eligible(vcpu, pcpu):
                return vcpu.priority
        return None

"""Co-scheduling (gang scheduling) of a domain's sibling vCPUs.

The classic VTD mitigation (VMware's relaxed co-scheduling descends
from it): schedule *all* vCPUs of a domain in the same time window, so
no sibling ever spins on a lock whose holder is descheduled — lock
holders and IPI targets are always running while the gang is on. The
cost the paper's §2.3 points at is **CPU fragmentation**: when the gang
does not fill every pCPU (fewer runnable siblings than cores, or a
sibling is blocked), the leftover pCPUs sit idle rather than run
another domain. The model counts each such refusal (``gang_idles`` /
the ``gang_idle`` counter and trace kind).

Model: round-robin over domains. The active domain ("the gang") owns
every pCPU of the pool for one gang window; picks come only from the
gang's queue. Rotation preempts stragglers from the previous gang and
tickles idle pCPUs.
"""

from .base import OVER, UNDER, Scheduler
from .registry import register


@register
class CoScheduler(Scheduler):
    """Gang scheduler: one domain at a time owns the whole pool."""

    name = "cosched"
    description = (
        "co-scheduling: gang-schedule all sibling vCPUs of one domain "
        "per window, idling leftover pCPUs (cuts VTD, pays in "
        "fragmentation)"
    )

    def __init__(self, sim, **kwargs):
        super().__init__(sim, **kwargs)
        self._domq = {}       # domain -> FIFO of runnable vcpus
        self._order = []      # round-robin rotation order (discovery order)
        self._gang = None     # domain currently owning the pool
        self._gang_until = 0
        #: pCPU pick refusals while the gang had no runnable vCPU left
        #: but other domains had queued work — the fragmentation cost.
        self.gang_idles = 0

    # ------------------------------------------------------------------
    # gang rotation
    # ------------------------------------------------------------------
    def _running_members(self, domain):
        pool = self.pool
        if pool is None:
            return False
        for pcpu in pool.pcpus:
            current = pcpu.current
            if current is not None and current.domain is domain:
                return True
        return False

    def _gang_live(self, domain):
        return bool(self._domq.get(domain)) or self._running_members(domain)

    def _active_gang(self):
        gang = self._gang
        if gang is not None and self.sim.now < self._gang_until and self._gang_live(gang):
            return gang
        return self._rotate()

    def _rotate(self):
        """Advance the round-robin to the next domain with work; open a
        new gang window, preempting stragglers and waking idle pCPUs."""
        order = self._order
        if not order:
            return None
        start = 0
        previous = self._gang
        if previous in order:
            start = order.index(previous) + 1
        chosen = None
        for offset in range(len(order)):
            domain = order[(start + offset) % len(order)]
            if self._gang_live(domain):
                chosen = domain
                break
        if chosen is None:
            self._gang = None
            return None
        self._gang = chosen
        self._gang_until = self.sim.now + self.slice
        if chosen is not previous and self.pool is not None:
            for pcpu in self.pool.pcpus:
                current = pcpu.current
                if (
                    current is not None
                    and current.domain is not chosen
                    and not pcpu.preempt_requested
                ):
                    pcpu.request_preempt()
        for pcpu in list(self._idle):
            pcpu.tickle()
        return chosen

    # ------------------------------------------------------------------
    # scheduling entry points
    # ------------------------------------------------------------------
    def pick(self, pcpu):
        gang = self._active_gang()
        if gang is None:
            return None
        queue = self._domq.get(gang)
        vcpu = None
        if queue:
            vcpu = self.take_eligible(queue, pcpu)
        if vcpu is not None:
            self.trace(
                "sched_switch",
                vcpu=vcpu.name,
                pcpu=pcpu.info.index,
                backend=self.name,
            )
            return vcpu
        # The gang has no runnable vCPU for this pCPU. If another domain
        # has queued work this is gang idling: the pCPU is deliberately
        # left empty rather than run a non-gang vCPU.
        for domain, waiting in self._domq.items():
            if domain is not gang and waiting:
                self.gang_idles += 1
                self.count("gang_idle")
                self.trace("gang_idle", pcpu=pcpu.info.index, domain=gang.name)
                break
        return None

    def enqueue(self, vcpu, boost=False, yielded=False):  # noqa: ARG002 (no BOOST)
        domain = vcpu.domain
        if domain not in self._domq:
            self._domq[domain] = []
            self._order.append(domain)
        vcpu.priority = UNDER if vcpu.credits > 0 else OVER
        vcpu.yield_flag = yielded
        vcpu.runq_pcpu = None
        self._domq[domain].append(vcpu)
        pcpu = self._claim_idle(vcpu)
        if pcpu is not None:
            pcpu.tickle()

    def remove(self, vcpu):
        for queue in self._domq.values():
            try:
                queue.remove(vcpu)
            except ValueError:
                continue
            return True
        return False

    def slice_for(self, vcpu):
        """Run until the gang window closes, so the whole gang is
        descheduled (and rotated) together."""
        if self._gang is not None and vcpu.domain is self._gang:
            return max(1, self._gang_until - self.sim.now)
        return self.slice

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def queued(self):
        return [vcpu for queue in self._domq.values() for vcpu in queue]

"""Balance scheduling (Sukwong & Kim, EuroSys'11).

Keep every vCPU of a domain on a *distinct* pCPU runqueue, without any
gang synchronisation: when siblings never share a runqueue, one sibling
being scheduled can never be the reason another sibling waits, so
self-inflicted lock-holder preemption (a sibling preempting the lock
holder it is spinning on) disappears and the likelihood that all
siblings run concurrently rises — probabilistically approximating
co-scheduling with none of its fragmentation.

The model: credit1 everywhere, except that *placement* avoids stacking
a vCPU onto a runqueue that already holds a sibling. Stacking arises in
practice from work stealing and idle-claim wake placement (both change
``last_pcpu``, so two siblings can end up sharing a home pCPU); once
stacked, a preempted shootdown responder or lock holder sits queued
behind its own sibling and every waiter pays. Two deliberate limits:

* **migration resistance** — a *running* sibling at the home pCPU is
  tolerated (it vacates within a slice; moving away would trade a
  transient overlap for a permanent cache-affinity loss). Only a
  *queued* sibling diverts placement.
* **work conservation** — when every eligible pCPU already involves a
  sibling the vCPU falls back to plain credit placement rather than
  waiting, so balance never idles a core (unlike cosched).

Stealing is intentionally left as credit1's: by the time a pCPU steals,
its own runqueue is empty and its ``current`` is gone, so a
steal-destination sibling check can never fire — the placement path is
where stacking is created and where it is prevented.
"""

from .credit import CreditScheduler
from .registry import register


@register
class BalanceScheduler(CreditScheduler):
    """credit1 with sibling-disjoint placement (balance scheduling)."""

    name = "balance"
    description = (
        "EuroSys'11 balance scheduling: spread each domain's vCPUs over "
        "distinct pCPUs (no sibling self-preemption, no gang idling)"
    )

    def _sibling_queued(self, vcpu, pcpu):
        """Is another vCPU of ``vcpu``'s domain *queued* at ``pcpu``?
        (A running sibling is tolerated at the home pCPU — it will
        vacate within a slice; migrating away from it costs affinity
        for little gain. Xen calls this migration resistance.)"""
        domain = vcpu.domain
        queues = self._runqs.get(pcpu)
        if queues is None:
            return False
        for queue in queues.values():
            for queued in queue:
                if queued is not vcpu and queued.domain is domain:
                    return True
        return False

    def _has_sibling(self, vcpu, pcpu):
        """Is another vCPU of ``vcpu``'s domain running on or queued at
        ``pcpu``?"""
        current = pcpu.current
        if current is not None and current is not vcpu and current.domain is vcpu.domain:
            return True
        return self._sibling_queued(vcpu, pcpu)

    def _place(self, vcpu, priority):
        """Prefer a sibling-free pCPU: last-ran first (cache affinity,
        kept unless a sibling is already queued there), else the
        shallowest fully sibling-free eligible runqueue; fall back to
        plain credit placement when every pCPU already has a sibling."""
        last = vcpu.last_pcpu
        if (
            last is not None
            and last in self._runqs
            and (vcpu.affinity is None or self._eligible(vcpu, last))
            and not self._sibling_queued(vcpu, last)
        ):
            self._push(last, priority, vcpu)
            return last
        sibling_free = {
            pcpu: depth
            for pcpu, depth in self._depths.items()
            if not self._has_sibling(vcpu, pcpu)
        }
        target = self._shallowest(vcpu, sibling_free)
        if target is not None:
            self._push(target, priority, vcpu)
            return target
        return super()._place(vcpu, priority)

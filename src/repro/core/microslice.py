"""The micro-slice engine: the policy hooks the hypervisor calls.

This is the runtime half of the paper's contribution. It reacts to
three signals (§4.1-4.2):

* **yield events** (PLE exits and voluntary IPI-wait yields): inspect
  the yielding vCPU and its preempted siblings via the IP/symbol-table
  detector; migrate every vCPU found inside a critical service onto the
  micro-sliced pool. For IPI-class yields (TLB shootdowns, reschedule
  IPI waits) also wake-and-migrate the preempted/blocked recipients the
  initiator is waiting for — the hypervisor knows them because it
  relays the vIPIs.
* **vIPI relays**: before delivering a guest IPI to a preempted
  recipient, migrate the recipient so the handler runs promptly.
* **vIRQ injections**: same for I/O interrupts — this is the path that
  rescues mixed I/O+CPU vCPUs that BOOST cannot help.
"""

from ..hypervisor.vcpu import RUNNABLE, RUNNING
from .detection import CriticalServiceDetector


class MicroSliceEngine:
    """Installed as the hypervisor's policy by static/dynamic schemes."""

    active = True

    def __init__(self, detector=None, accelerate_virq=True, accelerate_vipi=True):
        self.detector = detector if detector is not None else CriticalServiceDetector()
        self.accelerate_virq = accelerate_virq
        self.accelerate_vipi = accelerate_vipi
        self.hv = None
        self.controller = None

    def start(self, hv):
        self.hv = hv
        if self.controller is not None:
            self.controller.start(hv)

    # ------------------------------------------------------------------
    # hypervisor hooks
    # ------------------------------------------------------------------
    def on_yield(self, vcpu, cause, detail):
        hv = self.hv
        if hv is None or not hv.micro_pool.pcpus:
            return
        # The yielding vCPU itself: critical iff its IP says so (a TLB
        # initiator yields inside smp_call_function_many -> accelerated;
        # a plain lock spinner yields in the qspinlock slowpath -> not).
        resolve = self.detector.resolve
        if resolve(vcpu)[1] is not None:
            hv.accelerate(vcpu)
        # Preempted (runnable but descheduled) siblings holding critical
        # state, e.g. the preempted lock holder whose IP sits in a
        # Table-3 critical section (Figure 1, steps 2-3).
        for sibling in vcpu.domain.vcpus:
            if (
                sibling is not vcpu
                and sibling._state == RUNNABLE
                and resolve(sibling)[1] is not None
            ):
                hv.accelerate(sibling)
        # IPI waits: the recipients must run to acknowledge; wake and
        # migrate the stragglers (the relay told us who they are).
        if cause == "ipi" and detail is not None and hasattr(detail, "pending"):
            # Walk the op's target tuple, not the pending *set*: set order
            # hashes object ids, which would make the acceleration order
            # (and hence micro-pool queueing) vary run to run.
            pending = detail.pending
            for target in detail.targets:
                if target in pending and target._state != RUNNING:
                    hv.accelerate(target, wake=True)

    def on_vipi(self, src, dst, op):
        # Only the I/O wakeup path accelerates at relay time (§4.2): the
        # reschedule IPI towards the process consuming the data. TLB
        # shootdown recipients are pulled in by the initiator's yield —
        # migrating them on every relay would drag whole VMs through
        # 100 us slices.
        if not self.accelerate_vipi or self.hv is None:
            return
        if op.kind != "resched":
            return
        if not dst.running:
            self.hv.accelerate(dst, wake=False)

    def on_virq(self, vcpu):
        if not self.accelerate_virq or self.hv is None:
            return
        if not vcpu.running:
            self.hv.accelerate(vcpu, wake=False)

"""Simplified models of the prior approaches the paper compares against
(Table 1). These exist to *quantify* Table 1's check-mark matrix: each
comparator helps the symptom it was designed for and misses the others.

* :class:`VTurboPolicy` — vTurbo [ATC'13]: statically dedicate turbo
  cores with a short slice and run the guests' I/O handling vCPUs there
  (the real system modifies the guest to separate I/O handling; we model
  the result by pinning each VM's IRQ vCPU). I/O interrupts are served
  promptly — but lock holders and TLB stragglers get no help, and the
  pinned vCPU's *user* work is stuck with 0.1 ms slices.
* :class:`VTrsPolicy` — vTRS [EuroSys'16]: classify whole vCPUs by
  their time-slice preference from runtime statistics, and run
  short-slice-class vCPUs on a short-slice pool. The classification
  granularity is the vCPU, so a mixed vCPU (iPerf + compute) is forced
  into one class — the case the paper's precise, service-granular
  selection wins.
* Fixed micro-slicing on all cores (Ahn et al. [MICRO'14]) needs no
  policy object: build a scenario with ``scheduler="shortslice"``
  (the repro.sched backend with a 100 µs slice on every core).
"""

from ..hypervisor.hypervisor import NullPolicy
from ..sim.time import ms


class VTurboPolicy(NullPolicy):
    """Statically dedicate turbo cores to the VMs' I/O (IRQ) vCPUs.

    vTurbo has no dynamic hooks (it keeps the null policy's no-ops): the
    dedication is static and the guest (not the hypervisor) decides what
    runs on the turbo core."""

    active = True

    def __init__(self, turbo_cores=1):
        self.turbo_cores = turbo_cores
        self.hv = None

    def start(self, hv):
        self.hv = hv
        hv.set_micro_cores(self.turbo_cores)
        hv.sim.schedule(0, self._pin_io_vcpus)

    def _pin_io_vcpus(self, _arg=None):
        for domain in self.hv.domains:
            net = domain.kernel.net
            if net is not None:
                self.hv.make_micro_resident(net.irq_vcpu)


class VTrsPolicy:
    """Classify whole vCPUs by time-slice preference every epoch.

    A vCPU whose yield rate (PLE + voluntary IPI waits + vIRQ load)
    exceeds ``short_threshold`` events per epoch is classed
    short-slice and moved to the short-slice pool; it returns to the
    normal pool when its rate drops. Classification input is the same
    statistic vTRS derives from runtime profiling; the crucial
    difference from the paper's scheme is the granularity (vCPUs, not
    critical services) and the latency (epochs, not events).
    """

    active = True

    def __init__(self, pool_cores=2, epoch=None, short_threshold=50):
        self.pool_cores = pool_cores
        self.epoch = ms(30) if epoch is None else epoch
        self.short_threshold = short_threshold
        self.hv = None
        self._events = {}
        self.classifications = []  # (time, vcpu-name, class) history

    def start(self, hv):
        self.hv = hv
        hv.set_micro_cores(self.pool_cores)
        hv.sim.schedule(self.epoch, self._reclassify)

    # ------------------------------------------------------------------
    # profiling input
    # ------------------------------------------------------------------
    def _bump(self, vcpu, amount=1):
        self._events[vcpu] = self._events.get(vcpu, 0) + amount

    def on_yield(self, vcpu, cause, detail):
        self._bump(vcpu)

    def on_vipi(self, src, dst, op):
        self._bump(dst)

    def on_virq(self, vcpu):
        self._bump(vcpu)

    # ------------------------------------------------------------------
    def _reclassify(self, _arg=None):
        hv = self.hv
        slots = len(hv.micro_pool.pcpus) * 2  # one running + one queued
        ranked = sorted(self._events.items(), key=lambda kv: -kv[1])
        chosen = {
            vcpu
            for vcpu, count in ranked[:slots]
            if count >= self.short_threshold
        }
        for domain in hv.domains:
            for vcpu in domain.vcpus:
                if vcpu in chosen and not vcpu.micro_resident:
                    if hv.make_micro_resident(vcpu):
                        self.classifications.append((hv.sim.now, vcpu.name, "short"))
                elif vcpu.micro_resident and vcpu not in chosen:
                    hv.release_micro_resident(vcpu)
                    self.classifications.append((hv.sim.now, vcpu.name, "long"))
        self._events = {}
        hv.sim.schedule(self.epoch, self._reclassify)

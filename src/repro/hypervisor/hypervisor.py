"""The hypervisor facade.

Owns the pools, domains, executors, stats, and the relay paths (vIRQ,
vIPI, kicks) through which guest kernels and devices reach the
scheduler. The micro-slicing *policy* (the paper's contribution) is
pluggable: the baseline installs a no-op policy, the static and dynamic
schemes install :class:`repro.core.microslice.MicroSliceEngine`.
"""

import random

from ..errors import ConfigError, FaultError, SchedulerError
from ..hw.costs import CostModel
from ..hw.ple import PleConfig
from ..hw.topology import Topology
from ..metrics.histogram import HistogramSet
from ..runner.jobs import DEFAULT_MICRO_SLICE, DEFAULT_PV_SPIN_ROUNDS, DEFAULT_SCHEDULER
from ..sched import MicroScheduler
from ..sched import registry as sched_registry
from ..sim.rng import derive_seed
from . import executor as ex
from . import vcpu as vc
from .cpupool import CpuPool
from .domain import Domain
from .stats import HvStats


class NullPolicy:
    """Baseline: no micro-slicing, all hooks are no-ops."""

    active = False

    def on_yield(self, vcpu, cause, detail):
        pass

    def on_vipi(self, src, dst, op):
        pass

    def on_virq(self, vcpu):
        pass

    def start(self, hv):
        pass


class Hypervisor:
    """A consolidated host: pCPUs, pools, and domains."""

    def __init__(
        self,
        sim,
        num_pcpus=12,
        costs=None,
        ple=None,
        scheduler=DEFAULT_SCHEDULER,
        micro_slice=DEFAULT_MICRO_SLICE,
        pv_spin_rounds=DEFAULT_PV_SPIN_ROUNDS,
        tracer=None,
        seed=0,
    ):
        self.sim = sim
        self.costs = costs if costs is not None else CostModel()
        self.ple = ple if ple is not None else PleConfig()
        self.pv_spin_rounds = pv_spin_rounds
        self.tracer = tracer
        # Hoisted per-kind emit handles (tracer.want): None when the
        # tracer would never record the kind, so each emit site costs a
        # single None check instead of enabled/filter/schema work.
        _want = tracer.want if tracer is not None else lambda kind: None
        self._trace_deschedule = _want("deschedule")
        self._trace_ipi_send = _want("ipi_send")
        self._trace_ipi_complete = _want("ipi_complete")
        self._trace_pool_move = _want("pool_move")
        self._trace_accelerate = _want("accelerate")
        #: Fault injector (repro.faults) or None. Every degradation
        #: hook does one ``is None`` check, so fault-free runs execute
        #: the exact instruction stream they always did.
        self.faults = None
        self.stats = HvStats(tracer=tracer)
        #: Whole-run :meth:`accelerate` calls, a plain int beside the
        #: payload counters (``runner.jobs`` folds it into telemetry;
        #: the payload never carries it).
        self.accelerate_attempts = 0
        self.histograms = HistogramSet()
        #: Host-wide IPI-op id allocator: per-instance (not
        #: process-global) so trace op ids are deterministic per run
        #: regardless of how many simulations this process ran before.
        self._ipi_seq = 0
        self.topology = Topology(num_pcpus=num_pcpus)
        self.domains = []
        self.nic_owner = {}
        self.policy = NullPolicy()

        # The normal pool's backend is pluggable (repro.sched registry);
        # the RNG stream name stays "hv.credit" so default-backend runs
        # reproduce historical results bit-for-bit.
        backend_cls = sched_registry.get(scheduler)
        scheduler_rng = random.Random(derive_seed(seed, "hv.credit"))
        backend = backend_cls(sim, rng=scheduler_rng, tracer=tracer)
        backend.stats = self.stats
        self.normal_pool = CpuPool("normal", backend)
        self.micro_pool = CpuPool("micro", MicroScheduler(sim, micro_slice))
        self.pcpus = [ex.PCpu(self, info) for info in self.topology]
        for pcpu in self.pcpus:
            pcpu.pool = self.normal_pool
            self.normal_pool.add_pcpu(pcpu)
        self._started = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def create_domain(self, name, num_vcpus, weight=256, symbols=None):
        domain = Domain(self, name, num_vcpus, weight=weight, symbols=symbols)
        self.domains.append(domain)
        for vcpu in domain.vcpus:
            vcpu.pool = self.normal_pool
        return domain

    def attach_nic(self, nic, domain):
        """Route the NIC's physical IRQs to ``domain``."""
        self.nic_owner[nic] = domain
        nic.attach_irq_sink(self.on_nic_irq)

    def set_policy(self, policy):
        self.policy = policy

    def start(self):
        """Enqueue every vCPU and start the pCPU executors. Idempotent
        setup must happen before the simulator runs its first event."""
        if self._started:
            raise SchedulerError("hypervisor already started")
        self._started = True
        # Xen inserts vCPUs at UNDER priority (csched_vcpu_insert); a
        # nominal positive credit balance reproduces that without
        # perturbing the credit economy.
        for domain in self.domains:
            for vcpu in domain.vcpus:
                if vcpu.credits <= 0:
                    vcpu.credits = 1
        for domain in self.domains:
            for vcpu in domain.vcpus:
                vcpu.state = vc.RUNNABLE
                self.normal_pool.scheduler.enqueue(vcpu)
        for pcpu in self.pcpus:
            pcpu.start()
        self.sim.process(self._accounting_loop(), name="credit-accounting")
        scheduler = self.normal_pool.scheduler
        stagger = max(1, scheduler.tick // max(1, len(self.pcpus)))
        for offset, pcpu in enumerate(self.pcpus):
            self.sim.process(
                self._tick_loop(pcpu, (offset + 1) * stagger),
                name="tick-pcpu%d" % pcpu.info.index,
            )
        self.policy.start(self)

    def _accounting_loop(self):
        scheduler = self.normal_pool.scheduler
        while True:
            yield scheduler.period
            scheduler.account(self.domains, len(self.normal_pool))

    def _tick_loop(self, pcpu, initial_delay):
        """Per-pCPU scheduler tick: the backend decides what (if
        anything) happens at tick granularity — credit1 preempts an OVER
        vCPU when something better waits on the local runqueue."""
        scheduler = self.normal_pool.scheduler
        yield initial_delay
        while True:
            if pcpu.pool is self.normal_pool:
                scheduler.on_tick(pcpu)
            yield scheduler.tick

    # ------------------------------------------------------------------
    # scheduling callbacks (from executors)
    # ------------------------------------------------------------------
    def mark_running(self, vcpu):
        vcpu.state = vc.RUNNING
        vcpu.lazy_tlb = False

    def on_deschedule(self, vcpu, stop, runtime):
        reason, detail = stop
        if vcpu.micro_resident and vcpu.pool is self.normal_pool:
            vcpu.pool = self.micro_pool
        pool = vcpu.pool
        pool.scheduler.charge(vcpu, runtime)
        vcpu.total_ran += runtime
        if pool is self.micro_pool and not vcpu.micro_resident:
            # One micro slice only; the vCPU always goes home (§5).
            vcpu.pool = self.normal_pool
        emit = self._trace_deschedule
        if emit is not None:
            emit(vcpu=vcpu.name, reason=reason, runtime_ns=runtime)
        if reason == ex.STOP_IDLE:
            vcpu.state = vc.BLOCKED
            vcpu.lazy_tlb = True
            self.stats.count_yield(vcpu, "halt")
            # A halt is a voluntary (software-triggered) yield (§4.1):
            # scan the preempted siblings — e.g. an rwsem writer whose
            # waiters just went to sleep.
            self.policy.on_yield(vcpu, "halt", None)
            return
        if reason == ex.STOP_PARK:
            self.stats.count_yield(vcpu, "spinlock")
            lock = detail
            if lock is not None and lock.granted_to(vcpu):
                # The lock was handed to us between the park decision and
                # this point; the pv-kick saw us still running and was a
                # no-op, so parking now would deadlock the lock. Stay
                # runnable instead.
                vcpu.state = vc.RUNNABLE
                self.normal_pool.scheduler.requeue(vcpu)
            else:
                vcpu.state = vc.BLOCKED
            self.policy.on_yield(vcpu, "spinlock", detail)
            return
        vcpu.state = vc.RUNNABLE
        yielded = reason in (ex.STOP_PLE, ex.STOP_IPI_WAIT)
        if vcpu.pool is self.micro_pool:
            # A resident short-slice vCPU goes straight back into its
            # pool's slot (comparator policies).
            if not self.micro_pool.scheduler.assign(vcpu):
                vcpu.pool = self.normal_pool
                self.normal_pool.scheduler.requeue(vcpu, yielded=yielded)
        else:
            self.normal_pool.scheduler.requeue(vcpu, yielded=yielded)
        if reason == ex.STOP_PLE:
            self.stats.count_yield(vcpu, "spinlock")
            self.policy.on_yield(vcpu, "spinlock", detail)
        elif reason == ex.STOP_IPI_WAIT:
            self.stats.count_yield(vcpu, "ipi")
            self.policy.on_yield(vcpu, "ipi", detail)
        elif reason == ex.STOP_PREEMPT:
            self.stats.count_preempt(vcpu)

    def on_task_exit(self, vcpu, task):
        from ..guest import task as task_mod

        task.state = task_mod.EXITED
        guest_cpu = vcpu.guest_cpu
        if guest_cpu.current is task:
            guest_cpu.current = None

    # ------------------------------------------------------------------
    # wake / relay paths
    # ------------------------------------------------------------------
    def wake_vcpu(self, vcpu):
        """Wake a blocked vCPU (BOOST path). No-op otherwise."""
        if vcpu.state != vc.BLOCKED:
            return
        vcpu.state = vc.RUNNABLE
        vcpu.lazy_tlb = False
        if vcpu.pool is self.micro_pool:
            if vcpu.micro_resident and self.micro_pool.scheduler.assign(vcpu):
                return
            vcpu.pool = self.normal_pool
        self.normal_pool.scheduler.wake(vcpu)

    def make_micro_resident(self, vcpu):
        """Permanently pin a vCPU to the micro-sliced pool (comparator
        policies: vTurbo's turbo cores, vTRS's short-slice class).
        Returns False when no slot is available."""
        vcpu.micro_resident = True
        if vcpu.pool is self.micro_pool:
            return True
        if vcpu.state == vc.RUNNABLE and self.normal_pool.scheduler.remove(vcpu):
            vcpu.pool = self.micro_pool
            if not self.micro_pool.scheduler.assign(vcpu):
                vcpu.pool = self.normal_pool
                vcpu.micro_resident = False
                self.normal_pool.scheduler.requeue(vcpu)
                return False
            return True
        if vcpu.state == vc.BLOCKED:
            vcpu.pool = self.micro_pool
            return True
        # RUNNING, or already dequeued by a pCPU about to run it:
        # pulled over at its next deschedule (on_deschedule honours the
        # resident flag).
        return True

    def release_micro_resident(self, vcpu):
        """Undo make_micro_resident."""
        vcpu.micro_resident = False
        if vcpu.pool is self.micro_pool and vcpu.state == vc.RUNNABLE:
            if self.micro_pool.scheduler.remove(vcpu):
                vcpu.pool = self.normal_pool
                self.normal_pool.scheduler.requeue(vcpu)

    def kick_vcpu(self, vcpu):
        """pv-spinlock kick (event-channel notification)."""
        self.wake_vcpu(vcpu)

    def next_ipi_id(self):
        """Allocate a host-unique, run-deterministic IPI-op id."""
        self._ipi_seq += 1
        return self._ipi_seq

    def relay_vipi(self, src, dst, op, work, name=""):
        """Relay a guest IPI: deliver the handler work to ``dst`` after
        the wire latency. The policy sees the relay first, mirroring the
        paper's interception point."""
        self.stats.count_vipi(src, dst, op.kind)
        self._observe_ipi(op)
        emit = self._trace_ipi_send
        if emit is not None:
            emit(op=op.id, ipi_kind=op.kind, src=src.name, dst=dst.name)
        if self.faults is not None:
            self.faults.note_ipi_send(op)
            self._send_vipi(src, dst, op, work, name, attempt=0)
            return

        def _deliver(_arg):
            self.policy.on_vipi(src, dst, op)
            dst.post_kernel_work(work, name=name or op.kind)

        self.sim.schedule(self.costs.ipi_deliver, _deliver)

    def _send_vipi(self, src, dst, op, work, name, attempt):
        """Fault-aware transmit of one vIPI message. A dropped message
        is re-sent after the watchdog timeout; once the resend budget is
        spent the op is force-acked (and accounted dropped) so barrier
        protocols like TLB shootdown degrade instead of hanging."""
        faults = self.faults
        verdict, delay = (
            ("deliver", 0) if faults is None else faults.ipi_decision(dst, attempt)
        )
        if verdict == "drop":
            self.sim.schedule(delay, self._retry_vipi, (src, dst, op, work, name, attempt + 1))
            return
        if verdict == "timeout":
            faults.warn_degraded(
                "ipi_drop",
                "vIPI resend budget exhausted; forcing acknowledgements "
                "so waiters cannot hang",
            )
            faults.trace("fault_recover", "ipi_drop", dst.name, action="forced_ack")
            op.ack(dst, self.sim.now)
            return

        def _deliver(_arg):
            self.policy.on_vipi(src, dst, op)
            dst.post_kernel_work(work, name=name or op.kind)

        self.sim.schedule(self.costs.ipi_deliver + delay, _deliver)

    def _retry_vipi(self, arg):
        src, dst, op, work, name, attempt = arg
        if op.complete:
            return  # force-acked or otherwise finished while queued
        self._send_vipi(src, dst, op, work, name, attempt)

    def _observe_ipi(self, op):
        """Chain onto the op's completion callback (once per op — a
        multi-target shootdown relays many messages for one op) to
        close the send→last-ack span: histogram the latency and emit the
        matching ``ipi_complete`` trace record."""
        if getattr(op, "_hv_observed", False):
            return
        op._hv_observed = True
        chained = op.on_complete

        def _complete(completed, _chained=chained):
            if _chained is not None:
                _chained(completed)
            if self.faults is not None:
                self.faults.note_ipi_complete(completed)
            self.histograms.record("ipi_ack_" + completed.kind, completed.latency)
            emit = self._trace_ipi_complete
            if emit is not None:
                initiator = completed.initiator
                emit(
                    op=completed.id,
                    ipi_kind=completed.kind,
                    initiator=initiator.name if initiator is not None else None,
                    latency_ns=completed.latency,
                )

        op.on_complete = _complete

    def on_nic_irq(self, nic):
        """Physical NIC interrupt: inject a vIRQ into the owner VM's
        designated vCPU."""
        domain = self.nic_owner.get(nic)
        if domain is None or domain.kernel.net is None:
            raise ConfigError("NIC %r raised an IRQ but is not attached" % nic.name)
        vcpu = domain.kernel.net.irq_vcpu
        self.stats.count_virq(vcpu)
        raised_at = self.sim.now

        def _inject(_arg):
            from ..guest import irqwork

            self.policy.on_virq(vcpu)
            vcpu.post_kernel_work(
                irqwork.net_rx_work(domain.kernel, vcpu, nic, raised_at=raised_at),
                name="net_rx",
            )

        self.sim.schedule(self.costs.irq_inject, _inject)

    # ------------------------------------------------------------------
    # micro pool management
    # ------------------------------------------------------------------
    def reserved_pcpu_indices(self):
        """pCPUs pinned by some vCPU's affinity; never moved to the
        micro pool."""
        reserved = set()
        for domain in self.domains:
            for vcpu in domain.vcpus:
                if vcpu.affinity is not None:
                    reserved |= set(vcpu.affinity)
        return reserved

    def micro_core_count(self):
        return len(self.micro_pool) + sum(
            1 for p in self.pcpus if p.pending_pool is self.micro_pool
        )

    def set_micro_cores(self, count):
        """Grow/shrink the micro pool to ``count`` pCPUs (asynchronous:
        running vCPUs are preempted, membership flips at the executor
        loop boundary)."""
        if count < 0:
            raise ConfigError("negative micro core count")
        if count >= len(self.pcpus):
            raise ConfigError("cannot micro-slice every pCPU")
        if self.faults is not None and self.faults.poolmove_refused():
            raise FaultError(
                "cpupool resize to %d micro cores refused (fault injection)" % count
            )
        current = self.micro_core_count()
        if count > current:
            reserved = self.reserved_pcpu_indices()
            candidates = [
                p
                for p in reversed(self.pcpus)
                if p.pool is self.normal_pool
                and p.pending_pool is None
                and not p.offline_requested
                and p.info.index not in reserved
            ]
            for pcpu in candidates[: count - current]:
                pcpu.request_pool_change(self.micro_pool)
        elif count < current:
            victims = [
                p
                for p in self.pcpus
                if (p.pool is self.micro_pool or p.pending_pool is self.micro_pool)
            ]
            for pcpu in victims[: current - count]:
                pcpu.request_pool_change(self.normal_pool)

    def complete_pool_change(self, pcpu):
        """Called by the executor at its loop boundary."""
        target = pcpu.pending_pool
        emit = self._trace_pool_move
        if emit is not None:
            emit(pcpu=pcpu.info.index, from_pool=pcpu.pool.name, to_pool=target.name)
        stranded = pcpu.pool.remove_pcpu(pcpu)
        target.add_pcpu(pcpu)
        pcpu.pool = target
        if stranded is not None:
            stranded.pool = self.normal_pool
            if stranded.state == vc.RUNNABLE:
                self.normal_pool.scheduler.requeue(stranded)

    # ------------------------------------------------------------------
    # pCPU hotplug (fault injection: a core leaves / rejoins the host)
    # ------------------------------------------------------------------
    def offline_pcpu(self, index):
        """Request that a pCPU leave its pool. Takes effect at the
        executor's next loop boundary (like a pool change); the executor
        then parks in :meth:`~repro.hypervisor.executor.PCpu` offline
        wait until :meth:`online_pcpu`. Returns False if already
        offline/offlining."""
        pcpu = self.pcpus[index]
        if pcpu.offline_requested:
            return False
        pcpu.offline_requested = True
        pcpu.request_preempt()
        return True

    def online_pcpu(self, index):
        """Bring a previously offlined pCPU back (into the normal
        pool). Returns False if it was not offline."""
        pcpu = self.pcpus[index]
        if not pcpu.offline_requested:
            return False
        pcpu.offline_requested = False
        if pcpu.proc is not None:
            pcpu.proc.interrupt(("online",))
        return True

    def on_pcpu_offline(self, pcpu):
        """Executor loop boundary reached with an offline request: pull
        the pCPU out of its pool (stranding its slot vCPU back into the
        normal pool, exactly like a pool move)."""
        pool = pcpu.pool
        emit = self._trace_pool_move
        if emit is not None:
            emit(pcpu=pcpu.info.index, from_pool=pool.name, to_pool="offline")
        pcpu.pending_pool = None
        stranded = pool.remove_pcpu(pcpu)
        pcpu.pool = None
        pcpu.offline = True
        if stranded is not None:
            stranded.pool = self.normal_pool
            if stranded.state == vc.RUNNABLE:
                self.normal_pool.scheduler.requeue(stranded)

    def on_pcpu_online(self, pcpu):
        """Executor waking from offline wait: rejoin the normal pool."""
        pcpu.offline = False
        pcpu.pool = self.normal_pool
        self.normal_pool.add_pcpu(pcpu)
        emit = self._trace_pool_move
        if emit is not None:
            emit(
                pcpu=pcpu.info.index,
                from_pool="offline",
                to_pool=self.normal_pool.name,
            )

    def accelerate(self, vcpu, wake=False):
        """Migrate a preempted (or, with ``wake``, blocked) vCPU onto a
        micro-sliced core. Returns ``True`` on success.

        A failed attempt on a queued vCPU is not a no-op: it goes home
        through the scheduler's ``bounce`` (``remove`` then ``requeue``),
        which drops BOOST, clears the yield flag and re-places it (an
        idle pCPU, else the tail of its last-ran or the shallowest
        queue); with ``wake`` a BLOCKED vCPU is made RUNNABLE and queued
        the same way. Asking for a free slot before touching the
        runqueue changes nothing but the call count: the slot check
        reads only the micro pool.
        """
        self.accelerate_attempts += 1
        state = vcpu._state
        if state == vc.RUNNING or vcpu.pool is self.micro_pool:
            return False
        micro_pool = self.micro_pool
        if not micro_pool.pcpus:
            return False
        micro = micro_pool.scheduler
        scheduler = self.normal_pool.scheduler
        # Every micro runqueue full is exactly when ``assign`` would
        # fail: the vCPU goes home.
        if state == vc.BLOCKED:
            if not wake:
                return False
            vcpu.state = vc.RUNNABLE
            vcpu.lazy_tlb = False
            if not micro.has_free_slot():
                scheduler.requeue(vcpu)
                return False
        elif not micro.has_free_slot():
            # A vCPU a pCPU has already dequeued is not queued: the
            # bounce leaves it alone.
            scheduler.bounce(vcpu)
            return False
        elif not scheduler.remove(vcpu):
            # Not actually in the runqueue: a pCPU has already dequeued
            # it and is about to run it. Migrating now would let two
            # pCPUs execute the same vCPU.
            return False
        vcpu.pool = micro_pool
        micro.assign(vcpu)
        self.stats.count_migration(vcpu)
        emit = self._trace_accelerate
        if emit is not None:
            emit(vcpu=vcpu.name, wake=wake)
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def utilization(self, elapsed_ns):
        """Fraction of pCPU time spent running vCPUs."""
        if elapsed_ns <= 0:
            return 0.0
        busy = sum(p.busy_ns for p in self.pcpus)
        return busy / (elapsed_ns * len(self.pcpus))

"""Post-run invariant checking for (faulted) systems.

Fault injection is only trustworthy if the simulation remains *sane*
under it: a dropped IPI must degrade throughput, not wedge a vCPU
forever. This module asserts the conservation properties that must
survive every fault plan:

* **runstate conservation** — each vCPU's running/runnable/blocked/
  offline times sum exactly to its elapsed window (the PR-3 ledger);
* **no permanent runnable starvation** — no vCPU has been sitting
  runnable-but-not-running continuously for longer than the starvation
  bound (a stuck scheduler or a lost wakeup shows up here);
* **IPI completion accounting** — every relayed IPI op either
  completed (possibly via a forced timeout acknowledgement, which the
  injector counts as dropped) or is younger than the in-flight grace
  period;
* **pool membership consistency** — every pCPU is in exactly the pool
  it claims membership of, offline pCPUs are in none, and the pool
  census matches the host topology;
* **runqueue census** (credit-family pools) — each pCPU's queued count
  equals its list lengths, no vCPU is queued twice, and every queued
  vCPU's ``runq_pcpu`` names the queue it sits in.

:func:`check_system` returns human-readable violation strings (empty
means all invariants hold); :func:`assert_invariants` raises
:class:`~repro.errors.FaultError` instead. Both work on healthy
systems too — the checks are properties of the simulator, not of the
fault subsystem.
"""

from ..errors import FaultError
from ..obs.runstate import validate
from ..sched.credit import CreditScheduler
from ..sim.time import ms

#: A vCPU continuously runnable for longer than this many normal-pool
#: slices counts as starved (credit1's slice is 30 ms; 2:1 overcommit
#: queues are drained far faster than 10 slices).
STARVATION_SLICES = 10

#: Minimum absolute starvation bound, whatever the slice length.
STARVATION_FLOOR = ms(100)

def _slice_bound(hv):
    """The shared "permanently stuck" bound: several normal-pool slices.
    Under 2:1 overcommit a runnable vCPU — and therefore a delivered but
    not-yet-executed IPI handler — can legitimately wait a full credit
    slice behind the co-runner; only multiples of that indicate a wedge
    (the paper's premise is that one-slice IPI latencies are *normal*
    for the baseline, just disastrous for performance)."""
    return max(STARVATION_SLICES * hv.normal_pool.scheduler.slice, STARVATION_FLOOR)


def check_system(system, starvation_ns=None, ipi_grace_ns=None):
    """Run every invariant against a finished :class:`System`; returns
    a list of violation strings (empty = all invariants hold)."""
    hv = system.hv
    now = hv.sim.now
    violations = []
    violations.extend(_check_runstates(hv, now))
    violations.extend(_check_starvation(hv, now, starvation_ns))
    violations.extend(
        _check_ipis(hv, now, ipi_grace_ns if ipi_grace_ns is not None else _slice_bound(hv))
    )
    violations.extend(_check_pools(hv))
    violations.extend(_check_runqueues(hv.normal_pool.scheduler))
    return violations


def assert_invariants(system, **kwargs):
    """Like :func:`check_system` but raises :class:`FaultError` listing
    every violation."""
    violations = check_system(system, **kwargs)
    if violations:
        raise FaultError(
            "invariant check failed (%d violations):\n  %s"
            % (len(violations), "\n  ".join(violations))
        )


# ----------------------------------------------------------------------
def _check_runstates(hv, now):
    for domain in hv.domains:
        for vcpu in domain.vcpus:
            ok, diff = validate(vcpu.runstate.snapshot(now))
            if not ok:
                yield (
                    "runstate conservation: %s state times are off by %d ns"
                    % (vcpu.name, diff)
                )


def _check_starvation(hv, now, starvation_ns):
    if starvation_ns is None:
        starvation_ns = _slice_bound(hv)
    for domain in hv.domains:
        for vcpu in domain.vcpus:
            if vcpu.state != "runnable":
                continue
            waited = now - vcpu.runstate.since
            if waited > starvation_ns:
                yield (
                    "starvation: %s has been runnable for %.1f ms "
                    "(bound %.1f ms)" % (vcpu.name, waited / 1e6, starvation_ns / 1e6)
                )


def _check_ipis(hv, now, grace_ns):
    faults = hv.faults
    if faults is None:
        return
    for op, first_send in faults.pending_ipis.values():
        if op.complete:
            continue  # completed after registry insert but before removal
        age = now - first_send
        if age > grace_ns:
            yield (
                "ipi accounting: op#%d (%s) from %s still pending after %.1f ms "
                "(%d unacked targets)"
                % (
                    op.id,
                    op.kind,
                    op.initiator.name if op.initiator is not None else "?",
                    age / 1e6,
                    len(op.pending),
                )
            )


def _check_pools(hv):
    pools = (hv.normal_pool, hv.micro_pool)
    seen = 0
    for pcpu in hv.pcpus:
        homes = [pool.name for pool in pools if pcpu in pool.pcpus]
        if pcpu.offline:
            if homes:
                yield (
                    "pool membership: offline pcpu%d still listed in %s"
                    % (pcpu.info.index, ", ".join(homes))
                )
            continue
        seen += 1
        if len(homes) != 1:
            yield (
                "pool membership: pcpu%d belongs to %s (expected exactly one pool)"
                % (pcpu.info.index, homes or "no pool")
            )
        elif pcpu.pool is not None and pcpu.pool.name != homes[0]:
            yield (
                "pool membership: pcpu%d claims pool %s but is listed in %s"
                % (pcpu.info.index, pcpu.pool.name, homes[0])
            )
    census = sum(len(pool.pcpus) for pool in pools)
    if census != seen:
        yield (
            "pool membership: pools list %d pcpus but %d are online"
            % (census, seen)
        )


def _check_runqueues(scheduler):
    if not isinstance(scheduler, CreditScheduler):
        return
    seen = set()
    for pcpu, queues in scheduler._runqs.items():
        counted = scheduler._depth(pcpu)
        listed = sum(len(queue) for queue in queues.values())
        if counted != listed:
            yield (
                "runqueue census: pcpu%d counts %d queued vCPUs but lists %d"
                % (pcpu.info.index, counted, listed)
            )
        for queue in queues.values():
            for vcpu in queue:
                if vcpu in seen:
                    yield "runqueue census: %s is queued twice" % vcpu.name
                seen.add(vcpu)
                if vcpu.runq_pcpu is not pcpu:
                    yield (
                        "runqueue census: %s sits on pcpu%d's queue but "
                        "names another" % (vcpu.name, pcpu.info.index)
                    )

"""Per-vCPU runstate accounting (steal-time measurement).

Mirrors Xen's ``VCPUOP_get_runstate_info`` / the platform-agnostic
steal-time lens: every vCPU's wall-clock is partitioned into

* ``running``  — on a pCPU;
* ``runnable`` — wants a pCPU but is preempted/queued (*stolen time*,
  the quantity every VTD pathology in the paper manifests as);
* ``blocked``  — halted idle or a parked lock waiter;
* ``offline``  — not schedulable (unused by current scenarios, kept for
  schema completeness).

The hypervisor updates the account on every state transition (the
``VCpu.state`` setter), so the books are exact by construction and obey
a conservation invariant: per vCPU, the state times sum to the elapsed
measurement window, and across the host they sum to ``window x #vCPUs``.
:func:`validate` checks it; the test suite and ``repro analyze`` both
call it.

A :class:`~repro.experiments.results.RunResult` stores each vCPU's
ledger compactly, as the list of its state times in :data:`STATES`
order (:func:`encode`). The window is the result's own
``duration_ns``, so it is not stored per vCPU. This module is the only
code that knows that layout: readers go through :func:`steal_ns`,
:func:`validate_result` and :func:`steal_report`. Trace records
(``runstate_final``) keep the dict form of :meth:`RunstateAccount.snapshot`.
"""

#: Accounted states, in report order (and in a stored state list).
STATES = ("running", "runnable", "blocked", "offline")

_RUNNABLE = STATES.index("runnable")
_OFFLINE = STATES.index("offline")


class RunstateAccount:
    """Time-in-state ledger for one vCPU."""

    __slots__ = ("times", "state", "since", "started")

    def __init__(self, now, state):
        self.times = {name: 0 for name in STATES}
        self.state = state
        self.since = now
        self.started = now

    def transition(self, now, new_state):
        """Close the current state's interval and enter ``new_state``."""
        self.times[self.state] += now - self.since
        self.state = new_state
        self.since = now

    def reset(self, now):
        """Zero the ledger (warmup boundary); the current state keeps
        accruing from ``now``."""
        for name in STATES:
            self.times[name] = 0
        self.since = now
        self.started = now

    def snapshot(self, now):
        """State times including the still-open interval, plus the
        window length — ``sum(states) == elapsed`` always holds."""
        snap = dict(self.times)
        snap[self.state] += now - self.since
        snap["elapsed"] = now - self.started
        return snap

    def stolen(self, now):
        """Steal time: ns spent runnable-but-not-running."""
        extra = now - self.since if self.state == "runnable" else 0
        return self.times["runnable"] + extra


def encode(account, now):
    """One vCPU's ledger as a result stores it: its state times,
    including the still-open interval, as a list in :data:`STATES`
    order."""
    snap = account.snapshot(now)
    return [snap[name] for name in STATES]


def steal_ns(states):
    """Steal time of one stored state list: ns runnable or offline
    (the Xen runstate notion)."""
    return states[_RUNNABLE] + states[_OFFLINE]


def validate(snapshot):
    """Check one :meth:`RunstateAccount.snapshot` (or its JSON round
    trip) for conservation: state times must sum exactly to the elapsed
    window. Returns ``(ok, difference_ns)``."""
    total = sum(snapshot[name] for name in STATES)
    return total == snapshot["elapsed"], total - snapshot["elapsed"]


def validate_result(result):
    """Check every vCPU's stored state list in a
    :class:`~repro.experiments.results.RunResult`: its times must sum
    to the result's ``duration_ns``. Returns a list of
    ``(domain, vcpu, difference_ns)`` violations — empty means the
    invariant holds host-wide."""
    violations = []
    window = result.duration_ns
    for domain, vcpus in sorted(result.runstates.items()):
        for vcpu, states in sorted(vcpus.items()):
            diff = sum(states) - window
            if diff:
                violations.append((domain, vcpu, diff))
    return violations


def steal_report(result):
    """Per-domain steal-time rollup from a result's stored state lists:
    ``{domain: {state: total_ns, ..., "elapsed": ns}}``, where
    ``elapsed`` is the window times the domain's vCPU count."""
    report = {}
    for domain, vcpus in sorted(result.runstates.items()):
        rollup = dict.fromkeys(STATES, 0)
        for states in vcpus.values():
            for name, ns in zip(STATES, states):
                rollup[name] += ns
        rollup["elapsed"] = result.duration_ns * len(vcpus)
        report[domain] = rollup
    return report


def steal_fraction(rollup):
    """Steal share of one :func:`steal_report` rollup (or any dict with
    ``runnable``/``elapsed`` keys), as a percentage of elapsed time —
    the guest-visible contention signal the fleet's ``steal_aware``
    placement policy and the ``fleet.host.<i>.steal_pct`` telemetry
    gauges both consume."""
    elapsed = rollup["elapsed"]
    return 100.0 * rollup["runnable"] / elapsed if elapsed else 0.0

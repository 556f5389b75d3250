"""Fleet experiment — placement policies vs. fleet-wide vIRQ tail.

The single-host experiments reproduce the paper's tables; this one
asks the question the paper motivates but never measures: *at
datacenter scale, how much of the vIRQ tail is a placement problem?*
Six simulated 12-pCPU hosts serve an open Poisson session stream under
each registered placement policy (same seed, same arrival trace), and
the deliverable is the fleet-wide p50/p95/p99 vIRQ delivery tail,
per-host utilization, admission rejects, and migrations per policy.

Unlike every other registry entry this module is a **driver**: it has
no ``plan()``/``reduce()`` pair because the job set is not known up
front — each epoch's host jobs depend on the previous epoch's results
(steal feedback, migrations). It exposes ``configure(**options)``,
which :func:`repro.experiments.registry.prepare` calls to validate a
request, and ``drive(execute, spec, policies)`` instead: the caller
binds the executor's settings once into ``execute`` (see
:func:`repro.experiments.registry.run_many`), and every per-epoch job
wave goes through it, so fleet runs share the same executor/cache
machinery. Because there is no ``plan()``, the payload
manifest (which freezes the closed set of plannable jobs) is
unaffected: fleet host jobs are cache-governed by the same content
hashing, just not pinned.

The paper-shaped expectation checked by ``claims()``: informed
placement (``first_fit`` bin-packing, ``steal_aware`` feedback) beats
``random`` on the fleet p99 vIRQ tail at equal packing density —
contention stacked onto a few hosts hurts the tail more than the same
demand spread out, which is exactly the consolidation pain the paper's
micro-sliced cores then attack *within* each host.
"""

from ..errors import ConfigError
from ..fleet import FleetSpec, placement, run_fleet
from ..metrics.report import render_table

#: Policies compared by default (every registered one, random first so
#: the table reads baseline-down).
POLICIES = ("random", "first_fit", "steal_aware")

#: The options a fleet request may set beside every experiment's own
#: (``seed``, ``scale_override``, ``scheduler``): the policy list and
#: the :class:`~repro.fleet.cluster.FleetSpec` knobs. ``repro fleet``'s
#: flags and ``repro serve``'s allowed keys follow it.
OPTIONS = ("policies", "hosts", "epochs", "rate", "overcommit", "migration_cost_ms")


def configure(policies=POLICIES, scale_override=None, **options):
    """Validate a request's options into :func:`drive`'s arguments,
    ``{"spec": FleetSpec, "policies": [name, ...]}``, before any
    simulation. ``policies`` must be a non-empty list of registered
    placement policy names; the spec's knobs follow
    :class:`~repro.fleet.cluster.FleetSpec`'s rules and defaults."""
    if not (isinstance(policies, (list, tuple)) and policies
            and all(isinstance(name, str) for name in policies)):
        raise ConfigError("'policies' must be a non-empty list of placement policy names")
    for name in policies:
        placement.get(name)  # raises ConfigError on an unknown name
    return {"spec": FleetSpec(scale=scale_override, **options), "policies": list(policies)}


def drive(execute, spec, policies):
    """Run ``spec`` under every policy, one ``execute(plans)`` call per
    epoch (see :func:`repro.fleet.run_fleet`); returns ``{"policies":
    {name: summary}, "checks": {...}}``, JSON-native and byte-stable
    for a given spec (the determinism gate)."""
    summaries = run_fleet(spec, policies, execute)
    return {"policies": summaries, "checks": claims({"policies": summaries})}


def claims(results):
    """The paper-shaped ordering over one comparison run, ``{name:
    bool}``. Only meaningful when ``random`` and at least one informed
    policy ran; with a single policy the dict is empty."""
    out = {}
    summaries = results["policies"]
    random_summary = summaries.get("random")
    if random_summary is None or len(summaries) < 2:
        return out
    densities = [s["packing"]["mean_density"] for s in summaries.values()]
    out["equal_density"] = max(densities) - min(densities) < 1e-9
    random_p99 = random_summary["virq"]["p99_ns"]
    for name in sorted(summaries):
        if name == "random":
            continue
        out["%s_beats_random" % name] = (
            summaries[name]["virq"]["p99_ns"] < random_p99
        )
    return out


def format_result(results):
    summaries = results["policies"]
    rows = []
    ordered = [name for name in POLICIES if name in summaries]
    ordered += [name for name in sorted(summaries) if name not in ordered]
    for name in ordered:
        s = summaries[name]
        rows.append(
            [
                name,
                "%.1f" % (s["virq"]["p50_ns"] / 1e3),
                "%.1f" % (s["virq"]["p95_ns"] / 1e3),
                "%.1f" % (s["virq"]["p99_ns"] / 1e3),
                s["sessions"]["admitted"],
                s["sessions"]["rejected"],
                s["migrations"]["count"],
                "%.2f" % s["packing"]["mean_density"],
                "%.1f" % (100.0 * s["utilization"]["mean"]),
            ]
        )
    table = render_table(
        [
            "policy",
            "p50 (us)",
            "p95 (us)",
            "p99 (us)",
            "admitted",
            "rejected",
            "migrations",
            "density",
            "util %",
        ],
        rows,
        title="Fleet: placement policy vs fleet-wide vIRQ delivery tail "
        "(%d hosts, open arrivals)" % next(iter(summaries.values()))["config"]["hosts"],
    )
    lines = [table]
    check_results = results.get("checks") or {}
    if check_results:
        lines.append("")
        for key in sorted(check_results):
            lines.append(
                "check %-28s %s" % (key, "OK" if check_results[key] else "FAILED")
            )
    return "\n".join(lines)

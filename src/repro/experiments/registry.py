"""Name → experiment module registry, and the one pipeline every
experiment run walks.

An experiment module either exposes ``plan()`` (emit the job list),
``reduce()`` (fold ``{tag: RunResult}`` into the result shape) and
``format_result()`` (render the table), or — for a driver, whose job
set depends on intermediate results — ``configure(**options)``
(returning ``drive``'s arguments), ``drive()`` and ``format_result()``;
one that asserts a shape adds ``claims(results)``.
:func:`prepare` validates and binds a module's options and applies the
cross-cutting ones (``trace``, ``faults``, ``scheduler``) to every job;
:meth:`Prepared.finish` gates on fault invariants, then reduces and
formats. The CLI, ``repro serve`` and the benchmarks all go
through these two steps, so a result is the same function of its spec
on every path."""

import functools
import inspect
import threading

from ..errors import ConfigError, FaultError
from .. import runner
from ..runner.jobs import apply_options, check_scheduler, is_finite, is_int
from . import (
    baselines,
    common,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fleet,
    resilience,
    table1,
    table2,
    table4a,
    table4b,
    table4c,
)

_EXPERIMENTS = {
    "baselines": baselines,
    "table1": table1,
    "table2": table2,
    "table4a": table4a,
    "table4b": table4b,
    "table4c": table4c,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fleet": fleet,
    "resilience": resilience,
}


#: Bound of the plan memo (:func:`_kept_plan`): the plans one process
#: keeps, oldest out. Every planned experiment at one scale fits.
PLAN_MEMO_PLANS = 32

#: ``{memo key: (SimJob, ...)}`` in insertion order. Reads are single
#: dict lookups; every write holds :data:`_PLANS_LOCK` (serve prepares
#: on its loop thread while wave threads run).
_PLANS = {}
_PLANS_LOCK = threading.Lock()


def _kept_plan(module, kwargs):
    """``module.plan(**kwargs)`` as a tuple of jobs, planned once per
    process. A plan is a function of the plan function (a wrapper that
    names it in ``__wrapped__`` plans the same jobs), its kwargs and,
    when ``scale_override`` is None, the ``REPRO_BENCH_SCALE`` scale
    ``plan()`` reads: those are the memo key, each kwarg with its type,
    so equal values of other types (``1``, ``1.0``, ``True``) never
    share an entry. A kwarg that cannot be hashed is planned afresh.
    The kept jobs are shared by every caller, so nothing may mutate
    them: :func:`apply_options` returns new jobs, and each job keeps
    its own cache key."""
    key = (inspect.unwrap(module.plan),
           common.scale() if kwargs.get("scale_override") is None else None,
           tuple((name, type(value), value) for name, value in sorted(kwargs.items())))
    try:
        jobs = _PLANS.get(key)
    except TypeError:  # an unhashable kwarg
        return tuple(module.plan(**kwargs))
    if jobs is None:
        jobs = tuple(module.plan(**kwargs))
        with _PLANS_LOCK:
            _PLANS[key] = jobs
            while len(_PLANS) > PLAN_MEMO_PLANS:
                del _PLANS[next(iter(_PLANS))]
    return jobs


def is_driver(module):
    """True for experiments that orchestrate their own job waves
    (``drive()``) instead of emitting a static ``plan()`` — their job
    set depends on intermediate results, so it cannot be enumerated up
    front (and is therefore absent from the payload manifest)."""
    return not hasattr(module, "plan")


def available():
    return sorted(_EXPERIMENTS)


def get(name):
    module = _EXPERIMENTS.get(name)
    if module is None:
        raise ConfigError(
            "unknown experiment %r (available: %s)" % (name, ", ".join(available()))
        )
    return module


class Prepared:
    """One experiment bound to its options, ready to execute.

    ``jobs`` is the plan with every cross-cutting option applied (a
    tuple shared with other requests for the same plan: never mutate
    its jobs), or None for a driver, which runs its own job waves through
    :meth:`drive` with ``options``, the arguments its ``configure()``
    validated. Module functions are looked up at call time, so a
    wrapper installed on the module after :func:`prepare` still runs.
    """

    __slots__ = ("module", "jobs", "options")

    def __init__(self, module, jobs, options):
        self.module = module
        self.jobs = jobs
        self.options = options

    def finish(self, by_tag):
        """``{tag: RunResult}`` -> ``(results, formatted_text)``.

        Fails loudly with :class:`~repro.errors.FaultError` when any
        faulted job's invariant check found violations — a degraded
        result is fine, a nonsensical one is not."""
        broken = []
        for tag in sorted(by_tag):
            digest = by_tag[tag].faults
            if digest and digest.get("invariant_violations"):
                for violation in digest["invariant_violations"]:
                    broken.append("%s: %s" % (tag, violation))
        if broken:
            raise FaultError(
                "invariant check failed for %d faulted job(s):\n  %s"
                % (len(broken), "\n  ".join(broken))
            )
        results = self.module.reduce(by_tag)
        return results, self.module.format_result(results)

    def claims(self, results):
        """``{name: bool}`` from the module's ``claims`` (``{}`` if it has
        none); not part of :meth:`finish`, so rendering pays nothing."""
        return self.module.claims(results) if hasattr(self.module, "claims") else {}

    def drive(self, execute):
        """Run a driver experiment; returns ``(results, formatted_text)``.
        ``execute(plans) -> {name: {tag: RunResult}}`` is
        :func:`repro.runner.execute_many` with its settings bound; the
        driver calls it once per job wave."""
        results = self.module.drive(execute, **self.options)
        return results, self.module.format_result(results)


def prepare(name, *, trace=None, faults=None, scheduler=None, **kwargs):
    """Bind experiment ``name`` to its options; returns :class:`Prepared`.

    ``kwargs`` (``seed``, an integer; ``scale_override``, None or a
    finite number > 0; ...) go to the module's ``plan()``, or to
    ``configure()`` for a driver. A bad option raises ConfigError here.

    ``trace``, ``faults`` and ``scheduler`` apply to every planned job
    through :func:`repro.runner.jobs.apply_options`, so a bad option
    fails here, before any simulation runs. A ``scheduler`` re-runs the
    plan under that normal-pool backend, except in jobs that pin one:
    table1's ``fixed_uslice`` cells (``shortslice``) and every
    ``baselines`` cell but ``micro_pool`` (``credit:*`` keeps credit,
    ``credit2:*`` credit2, and so on). The ``micro_pool`` cells follow
    ``scheduler``.

    A driver's jobs are born mid-run from its own feedback loop, so
    per-job rewrites (``trace``, ``faults``) would silently change its
    control flow; they are refused instead of half-applied. Its
    ``scheduler`` is passed to ``configure()``.

    A planned experiment's plan is kept per process (:func:`_kept_plan`);
    every option is still validated on every call.
    """
    module = get(name)
    if "seed" in kwargs and not is_int(kwargs["seed"]):
        raise ConfigError("'seed' must be an integer, got %r" % (kwargs["seed"],))
    scale = kwargs.get("scale_override")
    if scale is not None and not (is_finite(scale) and scale > 0):
        raise ConfigError("'scale' must be a finite number > 0, got %r" % (scale,))
    if scheduler is not None:
        check_scheduler(scheduler)
    if is_driver(module):
        for option, value in (("trace", trace), ("faults", faults)):
            if value is not None:
                raise ConfigError(
                    "driver experiment %r does not accept %r" % (name, option)
                )
        return Prepared(module, None, module.configure(scheduler=scheduler, **kwargs))
    jobs = _kept_plan(module, kwargs)
    if trace is not None or faults is not None or scheduler is not None:
        jobs = tuple(apply_options(job, trace=trace, faults=faults, scheduler=scheduler)
                     for job in jobs)
    return Prepared(module, jobs, None)


def run(name, **options):
    """Run one experiment; returns ``(results, formatted_text)``.
    ``options`` are those of :func:`run_many`."""
    return run_many([name], **options)[name]


def run_many(
    names,
    workers=None,
    cache=None,
    trace=None,
    trace_out=None,
    faults=None,
    scheduler=None,
    progress=None,
    **kwargs
):
    """Run a batch of experiments over **one** worker pool and **one**
    cache-probe pass; returns ``{name: (results, formatted_text)}``.

    Every experiment is prepared (see :func:`prepare` for ``trace``,
    ``faults``, ``scheduler`` and ``kwargs``) before anything runs, so
    a bad option fails before any simulation. All plans then execute
    in one call of :func:`repro.runner.execute_many` (``workers``/
    ``cache``/``progress`` bound once; None = environment defaults), so
    a physical simulation shared by several experiments (e.g. the
    seed-42 gmake co-run baseline in fig4, table2, and table4a) is
    simulated once for the whole batch, and the persistent worker pool
    spins up a single time. A driver gets the same bound executor for
    its own waves.

    ``trace_out`` writes the combined trace of a single planned
    experiment — records labelled with their job tag — to a JSONL file
    that ``repro analyze`` consumes. Trace payloads travel inside the
    result dicts, so serial, parallel, and cache-replay runs export
    byte-identical files.

    ``progress`` is a ``callback(event, tag, done, total)`` hook fed by
    the executor's live job stream (cache hits, pool hand-offs,
    completions) — ``repro run --progress`` plugs its status-line
    renderer in here.
    """
    names = list(dict.fromkeys(names))  # dedupe, keep order
    if trace_out is not None and len(names) != 1:
        raise ConfigError("--trace-out requires exactly one experiment")
    prepared = {
        name: prepare(name, trace=trace, faults=faults, scheduler=scheduler, **kwargs)
        for name in names
    }
    if trace_out is not None and prepared[names[0]].jobs is None:
        raise ConfigError(
            "driver experiment %r does not accept 'trace_out'" % names[0]
        )
    execute = functools.partial(
        runner.execute_many, workers=workers, cache=cache, progress=progress
    )
    plans = {name: p.jobs for name, p in prepared.items() if p.jobs is not None}
    by_plan = execute(plans) if plans else {}
    outcome = {}
    for name, p in prepared.items():
        if p.jobs is None:
            outcome[name] = p.drive(execute)
            continue
        by_tag = by_plan[name]
        if trace_out is not None:
            from ..sim.trace import write_jsonl

            write_jsonl(trace_out, {job.tag: by_tag[job.tag].trace for job in p.jobs})
        outcome[name] = p.finish(by_tag)
    return outcome

"""Declarative experiment execution: job plans, a persistent-pool
executor, and a content-addressed result cache.

Every planned experiment module splits into ``plan()`` (emit a list of
:class:`SimJob` specs) and ``reduce()`` (fold ``{tag: RunResult}`` back
into its result shape); :mod:`repro.experiments.registry` runs the
plan through this package and finishes it. Because jobs are
self-describing and deterministic, :func:`execute` can fan them out over the persistent
worker pool (``REPRO_RUNNER_WORKERS`` / ``--workers``, spawned once
per process and shared across calls — see :mod:`repro.runner.pool`)
and replay any point it has simulated before from ``.repro-cache/``
(``REPRO_CACHE=off`` / ``--no-cache`` to disable). Whole batches of
plans share one pool and one cache-probe pass through
:func:`execute_many` (``repro run --all``).
"""

from . import cache, pool
from .executor import ENV_WORKERS, default_workers, env_setting, execute, execute_many, parse_workers
from .jobs import (
    SimJob,
    baseline_policy,
    build_system,
    dynamic_policy,
    run_job,
    static_policy,
    vtrs_policy,
    vturbo_policy,
    yield_only_policy,
)

__all__ = [
    "ENV_WORKERS",
    "SimJob",
    "baseline_policy",
    "build_system",
    "cache",
    "default_workers",
    "dynamic_policy",
    "env_setting",
    "execute",
    "execute_many",
    "parse_workers",
    "pool",
    "run_job",
    "static_policy",
    "vtrs_policy",
    "vturbo_policy",
    "yield_only_policy",
]

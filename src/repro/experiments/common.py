"""Shared experiment infrastructure.

Durations: the paper runs benchmarks for minutes; the simulation runs
sub-second windows that still cover dozens of 30 ms scheduling rounds.
``REPRO_BENCH_SCALE`` multiplies every duration (e.g. ``=4`` for more
stable statistics at 4x wall cost).
"""

import math

from ..errors import ConfigError
from ..runner import baseline_policy, dynamic_policy, env_setting, static_policy
from ..sim.time import ms

#: Default simulated durations (before scaling).
#: Every run discards a warmup so measurements reflect steady state.
WARMUP = ms(120)
SOLO_DURATION = ms(150)
CORUN_DURATION = ms(250)
IO_DURATION = ms(400)
#: Experiments involving the dynamic controller need room for at least
#: one profile sweep (~40 ms) plus a long run phase.
DYNAMIC_DURATION = ms(500)

#: Adaptive-controller epoch used in experiments: the paper uses 1 s
#: epochs over minutes-long runs; our runs are ~100x shorter, so the
#: epoch scales down to keep profiling overhead at the paper's ~4%.
DYNAMIC_EPOCH = ms(200)


def parse_scale(text):
    """Text -> a duration multiplier: a finite number > 0, the rule
    serve applies to ``scale``. The one grammar of ``--scale`` and
    ``REPRO_BENCH_SCALE``; anything else raises ConfigError."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise ConfigError("expected a number > 0, got %r" % text)
    return value


def scale():
    """Global duration multiplier from ``REPRO_BENCH_SCALE``
    (:func:`parse_scale`); unset, empty or invalid means 1.0."""
    return max(env_setting("REPRO_BENCH_SCALE", parse_scale, 1.0, "running at scale 1.0"), 0.01)


def scaled(duration_ns, scale_override=None):
    factor = scale() if scale_override is None else scale_override
    return max(int(duration_ns * factor), ms(10))


def warmup(scale_override=None):
    """Scaled warmup duration discarded before measuring."""
    return scaled(WARMUP, scale_override)


def claim(check):
    """A shape claim's verdict: ``check()`` as a bool, False when what
    it reads is missing or degenerate (a reduced plan, an empty list)."""
    try:
        return bool(check())
    except (LookupError, ValueError, ArithmeticError, TypeError):
        return False


def scheme_policy(label, static_cores=1):
    """Job-policy descriptor for the standard three-scheme comparison
    (baseline / static-best / dynamic with the experiment epoch)."""
    if label == "baseline":
        return baseline_policy()
    if label == "static":
        return static_policy(static_cores)
    if label == "dynamic":
        return dynamic_policy(epoch_interval=DYNAMIC_EPOCH)
    raise ValueError("unknown scheme label %r" % label)


#: Best static micro-sliced core count per workload, as found by the
#: Figure 4/5 sweeps on this simulator (the paper's Figure 6 "static"
#: bars use the analogous per-workload best).
STATIC_BEST = {
    "gmake": 3,
    "memclone": 1,
    "dedup": 3,
    "vips": 3,
    "exim": 1,
    "psearchy": 3,
}


def normalized_time(baseline_rate, rate):
    """Normalized execution time vs a baseline (1.0 = same speed,
    <1.0 = faster). Work-rate based: time ∝ 1/rate. None when either
    rate is missing or 0: see :func:`improvement`."""
    if not baseline_rate or not rate:
        return None
    return baseline_rate / rate


def improvement(baseline_rate, rate):
    """Throughput improvement factor vs a baseline. None when either
    rate is missing or 0: a run that finished no unit of work measured
    nothing, so the cell is unmeasured, not "no change". Tables render
    it ``n/a`` (:func:`ratio_cell`), and a claim that reads it does not
    hold (comparing None raises inside :func:`claim`)."""
    if not baseline_rate or not rate:
        return None
    return rate / baseline_rate


def ratio_cell(value, fmt="%.2fx"):
    """A ratio cell as table text: ``fmt % value``, or ``n/a`` when the
    cell is unmeasured (None)."""
    return "n/a" if value is None else fmt % value

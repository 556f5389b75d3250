"""Helpers shared by the benchmark's processes: the checkout layout,
child-process environment, percentiles, and the result line.

Every process of the benchmark imports this module by path (the
``perfbench`` directory is put first on ``sys.path`` by whichever
script started), so it must stay stdlib-only and import nothing from
the program under test.
"""

import gc
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "tests" / "data" / "payload_manifest.json"

#: Everything the benchmark writes lives under this checkout-relative
#: directory (ignored by git): private result caches per run, and the
#: span files of traced runs.
STATE_ROOT = ROOT / ".bench_build" / "perfbench"

#: The payload-manifest scale: every suite op runs the manifest's jobs
#: at the scale their digests were recorded at.
SCALE = 0.02

#: Hard ceiling on one child process; the whole run must end in 180 s.
CHILD_TIMEOUT_S = 170


def check_checkout():
    """Return an error string when the checkout lacks the program or
    its payload manifest (e.g. a directory holding only the benchmark),
    else ``None``."""
    missing = [
        str(path.relative_to(ROOT))
        for path in (SRC / "repro" / "__init__.py", MANIFEST)
        if not path.is_file()
    ]
    if missing:
        return "program files missing from %s: %s" % (ROOT, ", ".join(missing))
    return None


def child_env(cache_dir):
    """Environment for a process running the program: the checkout's
    ``src`` on the path, one worker, telemetry on, and a private result
    cache so no run sees another's entries."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_RUNNER_WORKERS"] = "1"
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    for name in ("REPRO_CACHE", "REPRO_TELEMETRY", "REPRO_RUNNER_POOL",
                 "REPRO_SIM_QUEUE", "REPRO_TRACE_DEBUG", "REPRO_BENCH_SCALE"):
        env.pop(name, None)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def state_dir(workload, seed):
    """A fresh per-run scratch directory inside the checkout."""
    path = STATE_ROOT / ("%s-s%d-p%d" % (workload, seed, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def spans_path(workload, seed, side):
    """Where a traced run leaves its spans (kept after the run)."""
    path = STATE_ROOT / "traces" / ("%s-s%d-%s.jsonl" % (workload, seed, side))
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


#: Host-speed probe: the seconds :func:`probe` takes on the reference
#: host. Timings are reported as measured seconds scaled by
#: ``PROBE_REF_S / probe time measured around them`` (see README.md).
PROBE_REF_S = 0.001


class _ProbeState:
    __slots__ = ("a", "b")

    def __init__(self):
        self.a = 0
        self.b = 1

    def step(self, i):
        self.a = (self.a + i * self.b) & 1023
        return self.a


def _probe_interpreter():
    start = time.perf_counter()
    state = _ProbeState()
    counts = {}
    for i in range(2000):
        key = state.step(i) & 63
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


_PROBE_DOC = {"k%03d" % i: {"n": i, "list": [i, i + 1, "v%d" % i], "half": i * 0.5}
              for i in range(300)}


def _probe_io():
    path = STATE_ROOT / ("probe-%d.json" % os.getpid())
    start = time.perf_counter()
    path.write_text(json.dumps(_PROBE_DOC, sort_keys=True))
    json.loads(path.read_text())
    path.unlink()
    return time.perf_counter() - start


def probe():
    """The host's current speed: the geometric mean of two timings, each
    the median of three (which drops a timing a preemption landed in),
    run with the collector paused. One is a fixed slice of interpreter
    work (calls, attribute and dict traffic, no allocation); the other
    encodes, writes, reads and decodes a small JSON file, as the result
    cache and telemetry persist do."""
    STATE_ROOT.mkdir(parents=True, exist_ok=True)
    enabled = gc.isenabled()
    gc.disable()
    try:
        interpreter = sorted(_probe_interpreter() for _ in range(3))[1]
        io = sorted(_probe_io() for _ in range(3))[1]
        return math.sqrt(interpreter * io)
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Scales measured durations by the host speed around them.

    Time is split into segments, each closed by :meth:`mark`, which
    probes the host. A segment's factor is ``PROBE_REF_S`` over the mean
    of the probes at its two ends. Durations recorded during a segment
    are scaled by its factor when it closes; ``raw`` and ``scaled`` hold
    them per kind, and ``raw_s``/``scaled_s`` sum the segments
    themselves (probe time lies in no segment)."""

    def __init__(self, mark_at=None, last_probe=None):
        self._mark_at = mark_at
        self._last = last_probe
        self._pending = []
        self.raw = {}
        self.scaled = {}
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def record(self, kind, took):
        self._pending.append((kind, took))

    def mark(self):
        """Probe, close the open segment and open the next one."""
        start = now()
        took = probe()
        if self._mark_at is not None:
            factor = 2 * PROBE_REF_S / (self._last + took)
            self.raw_s += start - self._mark_at
            self.scaled_s += (start - self._mark_at) * factor
            for kind, value in self._pending:
                self.raw.setdefault(kind, []).append(value)
                self.scaled.setdefault(kind, []).append(value * factor)
        self._pending = []
        self._last = took
        self._mark_at = now()

    def state(self):
        """``(time the open segment began, probe at its start)``, to
        hand the clock to a child process."""
        return self._mark_at, self._last

    def reset(self):
        """Forget everything recorded; the open segment stays open."""
        self.raw, self.scaled, self._pending = {}, {}, []
        self.raw_s = self.scaled_s = 0.0


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified
    Lentz's method)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 500):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return result


def _beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def percentile(values, q):
    """Harrell-Davis estimate of percentile ``q`` (0-100): a weighted
    mean of every order statistic, the weights peaking at the rank of
    ``q``. Unlike picking one sample it averages the samples near that
    rank, so one op slowed by a host hiccup barely moves it."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return float("nan")
    if n == 1:
        return ordered[0]
    p = q / 100.0
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    total = 0.0
    below = 0.0
    for i, value in enumerate(ordered, 1):
        upto = _beta_cdf(a, b, i / n)
        total += (upto - below) * value
        below = upto
    return total


def median(values):
    return percentile(values, 50)


def latency_summary(label, seconds):
    """One info line for a latency sample set: count, p50/p90/p99 in ms.
    p99 is printed for information only; the gated tail is p90."""
    ms = [s * 1e3 for s in seconds]
    p90 = percentile(ms, 90)
    return "%-16s n=%-6d p50=%.3f ms  p90=%.3f ms  p99=%.3f ms (beyond p90: %d)" % (
        label, len(ms), percentile(ms, 50), p90, percentile(ms, 99),
        sum(1 for value in ms if value > p90),
    )


def metric(value, unit):
    return {"value": value, "unit": unit}


def emit(correct, attempted, failed, metrics):
    """Print the result object as the last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)


def info(text):
    print("# " + text, flush=True)


def now():
    """The clock every process of the benchmark shares: CLOCK_MONOTONIC
    is system-wide, so a parent's spawn time and a child's ready time
    (or a client span and a server span) compare directly."""
    return time.monotonic()


def last_json_line(text):
    """The JSON object a child printed as its last stdout line."""
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no result line in child output")


def fail(message, code=2):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(code)

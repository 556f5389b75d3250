"""Content-addressed on-disk cache for simulation job results.

Every :class:`~repro.runner.jobs.SimJob` hashes its canonical spec plus
a *code-version salt* (a digest over the ``repro`` package sources) to
a cache key; results are persisted as one JSON file per key under
``.repro-cache/``. Because simulations are deterministic functions of
their spec, a hit can be replayed instead of re-simulated — repeated
``repro run`` or pytest invocations skip every already-simulated
point. Any source change rolls the salt, so stale results can never be
replayed against new code.

Environment knobs:

* ``REPRO_CACHE=off`` disables the cache entirely;
* ``REPRO_CACHE_DIR`` relocates it (default: ``.repro-cache/`` under
  the current working directory).

Corrupt or poisoned cache files are ignored with a ``RuntimeWarning``
and transparently re-simulated, never crash a run.
"""

import hashlib
import json
import os
import time
import warnings
from functools import lru_cache
from pathlib import Path

from ..obs import telemetry

#: Cache telemetry (see ``docs/observability.md`` §6). Every formerly
#: warn-only degradation path (unreadable entry, poisoned entry, stale
#: tmp sweep, failed store) now also counts — the warning stays for
#: humans, the counter feeds dashboards and tests.
_HITS = telemetry.counter("cache.hits")
_MISSES = telemetry.counter("cache.misses")
_HIT_BYTES = telemetry.counter("cache.hit_bytes")
_CORRUPT = telemetry.counter("cache.corrupt_entries")
_POISONED = telemetry.counter("cache.poisoned_entries")
_STORES = telemetry.counter("cache.stores")
_STORE_BYTES = telemetry.counter("cache.store_bytes")
_STORE_ERRORS = telemetry.counter("cache.store_errors")
_SWEEP_RUNS = telemetry.counter("cache.sweep_runs")
_SWEEP_REMOVED = telemetry.counter("cache.sweep_removed")

ENV_TOGGLE = "REPRO_CACHE"
ENV_DIR = "REPRO_CACHE_DIR"
DEFAULT_DIR = ".repro-cache"

#: Bump to invalidate every existing entry on a format change. It is
#: part of every key, so an entry of another format is never probed: it
#: reads as a miss, not as a poisoned entry. Format 2 stores runstates
#: as per-vCPU state lists and latency stats without reservoir
#: percentiles.
FORMAT = 2

_OFF_VALUES = ("off", "0", "false", "no", "disabled")


def enabled():
    """Whether the cache is on (``REPRO_CACHE`` not set to an off value)."""
    return os.environ.get(ENV_TOGGLE, "on").strip().lower() not in _OFF_VALUES


def _dir_name(override):
    if override is not None:
        return os.fspath(override)
    return os.environ.get(ENV_DIR) or DEFAULT_DIR


def cache_dir(override=None):
    """Resolve the cache directory (override > env > default)."""
    return Path(_dir_name(override))


@lru_cache(maxsize=1)
def code_salt():
    """Digest of every ``repro`` source file; part of each cache key so
    edits to the simulator invalidate previously cached results."""
    package_root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(path.relative_to(package_root).as_posix().encode())
        digest.update(b"\0")
        try:
            digest.update(path.read_bytes())
        except OSError:
            continue
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def job_key(job):
    """Content hash identifying one simulation point at one code version."""
    blob = "%d|%s|%s" % (FORMAT, code_salt(), job.canonical())
    return hashlib.sha256(blob.encode()).hexdigest()


def entry_path(key, override=None):
    """The entry file for ``key``, as a string: a cache probe is on the
    warm path, and ``os.path.join`` is several times cheaper than
    building ``Path`` objects."""
    return os.path.join(_dir_name(override), key + ".json")


def load(key, override=None):
    """Return the cached result payload for ``key``, or ``None`` on a
    miss. Unreadable or poisoned entries warn and count as misses."""
    path = entry_path(key, override)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        payload = json.loads(text)
    except FileNotFoundError:
        _MISSES.inc()
        return None
    except (OSError, ValueError, UnicodeDecodeError) as err:
        _CORRUPT.inc()
        _MISSES.inc()
        warnings.warn(
            "ignoring corrupt result cache entry %s (%s); re-simulating" % (path, err),
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("format") != FORMAT
        or payload.get("key") != key
        or not isinstance(payload.get("result"), dict)
    ):
        _POISONED.inc()
        _MISSES.inc()
        warnings.warn(
            "ignoring malformed result cache entry %s; re-simulating" % path,
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    _HITS.inc()
    _HIT_BYTES.inc(len(text))
    return payload["result"]


#: A ``*.tmp.<pid>`` file older than this is presumed leaked by a
#: crashed run and swept; young tmp files may belong to a concurrent
#: writer mid-rename and are left alone.
TMP_SWEEP_AGE_SECONDS = 3600

#: How often one process re-sweeps a directory. The latch used to be
#: once-per-process, which was correct for CLI runs but wrong for a
#: long-lived ``repro serve`` host: a week-old server would never
#: clean up tmp files leaked by runs that crashed after its first
#: store. Re-arming on an interval keeps the sweep cheap (one
#: directory scan per hour per directory) while bounding how long a
#: leak can linger.
SWEEP_INTERVAL_SECONDS = 3600

#: When this process last swept each directory
#: (``{str(dir): monotonic_seconds}``); entries older than
#: :data:`SWEEP_INTERVAL_SECONDS` re-arm.
_SWEPT_DIRS = {}


def reset_sweep_latch():
    """Forget when this process last swept each directory. The latch
    used to be unreachable module state, which made the sweep
    untestable after the first store; tests (and long-lived services
    that relocate their cache) reset it explicitly."""
    _SWEPT_DIRS.clear()


def sweep_stale_tmp(directory, max_age_seconds=TMP_SWEEP_AGE_SECONDS):
    """Delete ``*.tmp.*`` files older than ``max_age_seconds`` from
    ``directory``; returns how many were removed. Every failure is
    ignored — a concurrent writer renaming its tmp away mid-sweep is
    normal, not an error."""
    removed = 0
    _SWEEP_RUNS.inc()
    try:
        candidates = list(Path(directory).glob("*.tmp.*"))
    except OSError:
        return 0
    cutoff = time.time() - max_age_seconds
    for path in candidates:
        try:
            if path.stat().st_mtime < cutoff:
                path.unlink()
                removed += 1
        except OSError:
            continue
    _SWEEP_REMOVED.inc(removed)
    return removed


def store(key, job, result, override=None):
    """Persist one job result. Writes are atomic (tmp + rename) so a
    crashed run can at worst leave a stale tmp file, never a torn
    entry — and at most once per :data:`SWEEP_INTERVAL_SECONDS` a
    store opportunistically sweeps tmp files old enough to be such
    leftovers. Failures degrade to a warning — caching is
    best-effort."""
    directory = _dir_name(override)
    path = entry_path(key, override)
    tmp = os.path.join(directory, "%s.tmp.%d" % (key, os.getpid()))
    swept_key = str(Path(directory))
    now = time.monotonic()
    last_swept = _SWEPT_DIRS.get(swept_key)
    if last_swept is None or now - last_swept >= SWEEP_INTERVAL_SECONDS:
        _SWEPT_DIRS[swept_key] = now
        sweep_stale_tmp(directory)
    blob = json.dumps(
        {"format": FORMAT, "key": key, "job": job.to_dict(), "result": result},
        sort_keys=True,
    )
    try:
        os.makedirs(directory, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(blob)
        os.replace(tmp, path)
        _STORES.inc()
        _STORE_BYTES.inc(len(blob))
    except OSError as err:
        _STORE_ERRORS.inc()
        warnings.warn(
            "could not write result cache entry %s (%s)" % (path, err),
            RuntimeWarning,
            stacklevel=2,
        )

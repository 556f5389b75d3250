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

Decode memo. A process that replays the same entries again (``repro
serve``'s cache-hit fast path, a test session, a benchmark loop) would
otherwise ``json.loads`` the same bytes on every probe. :func:`load`
still opens and reads the entry on every call, as bytes, but when those
bytes equal the bytes it last validated for that path, it skips the
UTF-8 and JSON decode and the checks and returns the remembered result.
A hit's result is always in its frozen form (:func:`freeze`): one
immutable ``marshal`` blob per payload field, which
:meth:`~repro.experiments.results.RunResult.from_frozen` decodes field
by field on first read, so a replay pays only for the fields its
reducer reads, and every result decodes its own copy. The memo is keyed
on the entry's bytes, not on its file metadata: a same-size rewrite
within one mtime tick is still seen. It is filled only after an entry
passed every check, so corrupt and poisoned entries warn and count on
every call; every counter moves as it would without the memo, and
``cache.decode_reuses`` counts the reuses. The memo lives in memory
only, bounded by :data:`DECODE_MEMO_BYTES` and
:data:`DECODE_MEMO_ENTRY_BYTES`, oldest entries first out; marshal data
is never written to or read from disk.
"""

import hashlib
import json
import marshal
import os
import sys
import threading
import time
import warnings
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType

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
_DECODE_REUSES = telemetry.counter("cache.decode_reuses")

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


def dir_name(override=None):
    """The cache directory as a string (override > env > default). A
    probe pass resolves it once and hands the string to every
    :func:`load`: reading ``os.environ`` per entry is measurable."""
    if override is not None:
        return os.fspath(override)
    return os.environ.get(ENV_DIR) or DEFAULT_DIR


def cache_dir(override=None):
    """Resolve the cache directory (override > env > default)."""
    return Path(dir_name(override))


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
    return os.path.join(dir_name(override), key + ".json")


#: Bounds of the decode memo: total entry bytes plus marshal blobs
#: held, and the largest single entry remembered (traced payloads run
#: to megabytes and are decoded on every load).
DECODE_MEMO_BYTES = 8 << 20
DECODE_MEMO_ENTRY_BYTES = 256 << 10

#: ``{path: (data, frozen)}`` in insertion order: the last validated
#: bytes of each entry and its frozen result. Reads are single dict
#: lookups; every write holds :data:`_DECODED_LOCK` (serve probes from
#: executor threads).
_DECODED = {}
_DECODED_LOCK = threading.Lock()
_decoded_bytes = 0


def freeze(result):
    """A result payload as ``{field: marshal blob}``, read-only: the
    form every hit is returned in and the executor hands results over
    in. Blobs are immutable, so one frozen payload can back any number
    of results without sharing their state."""
    return MappingProxyType(
        {sys.intern(name): marshal.dumps(value) for name, value in result.items()})


def _frozen_size(frozen):
    return sum(len(blob) for blob in frozen.values())


def forget_decoded():
    """Empty the decode memo, so the next :func:`load` of every entry
    decodes its JSON again (benchmarks time that path this way)."""
    global _decoded_bytes
    with _DECODED_LOCK:
        _DECODED.clear()
        _decoded_bytes = 0


def _remember(path, data, frozen):
    """Memoize a validated entry's frozen result, evicting the oldest
    entries to stay within :data:`DECODE_MEMO_BYTES`."""
    global _decoded_bytes
    size = len(data) + _frozen_size(frozen)
    if size > min(DECODE_MEMO_ENTRY_BYTES, DECODE_MEMO_BYTES):
        return
    with _DECODED_LOCK:
        old = _DECODED.pop(path, None)
        if old is not None:
            _decoded_bytes -= len(old[0]) + _frozen_size(old[1])
        while _DECODED and _decoded_bytes + size > DECODE_MEMO_BYTES:
            oldest = _DECODED.pop(next(iter(_DECODED)))
            _decoded_bytes -= len(oldest[0]) + _frozen_size(oldest[1])
        _DECODED[path] = (data, frozen)
        _decoded_bytes += size


def load(key, override=None):
    """Return the cached result payload for ``key`` in its frozen form
    (:func:`freeze`), or ``None`` on a miss. Unreadable or poisoned
    entries warn and count as misses. An entry whose bytes equal the
    last ones validated for its path skips the decode (see the module
    docstring)."""
    path = entry_path(key, override)
    try:
        with open(path, "rb", buffering=0) as handle:  # one read: no buffer
            data = handle.read()
        memo = _DECODED.get(path)
        if memo is not None and memo[0] == data:
            _DECODE_REUSES.inc()
            _HITS.inc()
            _HIT_BYTES.inc(len(data))
            return memo[1]
        # Decode strictly before parsing: json.loads of raw bytes would
        # guess UTF-16/32 and accept encoded surrogates.
        payload = json.loads(data.decode("utf-8"))
    except FileNotFoundError:
        _MISSES.inc()
        return None
    except (OSError, ValueError) as err:  # UnicodeDecodeError is a ValueError
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
    frozen = freeze(payload["result"])
    _remember(path, data, frozen)
    _HITS.inc()
    _HIT_BYTES.inc(len(data))
    return frozen


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
    directory = dir_name(override)
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

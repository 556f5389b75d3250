"""Microbenchmarks of the simulation engine itself (sanity that the
substrate is fast enough for the experiment suite).

Besides the pytest-benchmark terminal report, each test folds its
headline rate into ``BENCH_engine.json`` at the repo root.

That file is an append-only *trajectory* (latest entry first): every
benchmark session prepends one timestamped snapshot instead of
overwriting, so engine-tuning PRs leave a visible perf history. All
``_record`` calls from one process share one snapshot, stamped once
with ``host_probe_us``: the host-speed probe of ``perfbench/common.py``,
so snapshots from hosts or hours of different speed compare as ratios
to it."""

import hashlib
import importlib.util
import json
from datetime import datetime, timezone
from pathlib import Path

from repro.experiments.scenarios import corun_scenario
from repro.sim.engine import Simulator
from repro.sim.time import ms

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: Shared per-process session marker: the first _record call stamps it,
#: later calls (any benchmark module) update the same snapshot.
_SESSION = {}


def _load_trajectory():
    """BENCH_engine.json as a list of snapshots, latest first."""
    if not BENCH_JSON.exists():
        return []
    try:
        data = json.loads(BENCH_JSON.read_text())
    except ValueError:
        return []
    return data if isinstance(data, list) else []


def _host_probe_us():
    """One run of perfbench's host-speed probe, in µs (the module is
    imported by path, as perfbench's own processes do)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_common", BENCH_JSON.parent / "perfbench" / "common.py"
    )
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    return round(common.probe() * 1e6, 1)


def _record(key, value):
    """Fold one ``{key: value}`` measurement into this benchmark
    session's snapshot at the head of the trajectory."""
    entries = _load_trajectory()
    stamp = _SESSION.get("recorded_at")
    if stamp is None:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        _SESSION["recorded_at"] = stamp
    if entries and entries[0].get("recorded_at") == stamp:
        entry = entries[0]
    else:
        entry = {"recorded_at": stamp, "host_probe_us": _host_probe_us(), "metrics": {}}
        entries.insert(0, entry)
    entry["metrics"][key] = round(value, 1)
    BENCH_JSON.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")


def _mean(benchmark):
    return benchmark.stats.stats.mean


class TestEngineThroughput:
    def test_event_dispatch_rate(self, benchmark):
        def dispatch_10k():
            sim = Simulator()
            for _ in range(10_000):
                sim.schedule(1, lambda _a: None)
            sim.run()
            return sim.executed_events

        events = benchmark(dispatch_10k)
        assert events == 10_000
        _record("dispatch_events_per_sec", 10_000 / _mean(benchmark))

    def test_process_switch_rate(self, benchmark):
        def ping_pong():
            sim = Simulator()

            def proc():
                for _ in range(2_000):
                    yield sim.timeout(1)

            sim.process(proc())
            sim.process(proc())
            sim.run()
            return sim.now

        assert benchmark(ping_pong) == 2_000
        # Two processes x 2000 resumptions each.
        _record("process_switches_per_sec", 4_000 / _mean(benchmark))


class TestScenarioThroughput:
    def test_corun_simulation_rate(self, benchmark):
        """Simulated-vs-wall time for the standard co-run scenario."""
        counts = []

        def run_50ms():
            system = corun_scenario("gmake").build()
            system.run(ms(50))
            counts.append(system.sim.executed_events)
            return counts[-1]

        events = benchmark.pedantic(run_50ms, rounds=1, iterations=1)
        assert events > 0
        _record("corun_events_per_sec", counts[-1] / _mean(benchmark))


def _time_manifest_job(benchmark, tag, rounds):
    """Time ``run_job`` (build, run, encode) on the manifest job tagged
    ``tag`` and check its payload still matches the manifest."""
    from repro.runner.jobs import run_job
    from repro.tools import payload_manifest

    manifest = payload_manifest.load()
    [(key, (job, _tags))] = [
        item
        for item in payload_manifest.unique_jobs(manifest["scale"]).items()
        if tag in item[1][1]
    ]
    payload = benchmark.pedantic(run_job, args=(job,), rounds=rounds, iterations=1)
    digest = hashlib.sha256(payload_manifest.canonical_payload(payload).encode()).hexdigest()
    assert digest == manifest["entries"][key]["payload_sha256"]
    return _mean(benchmark) * 1e3


def test_failed_accelerate_storm(benchmark):
    """The heaviest payload-manifest job, fig4's vips co-run with one
    micro core: thousands of yields each try to accelerate every
    preempted sibling, and almost every attempt finds the one micro
    slot taken."""
    _record("cold_heavy_job_ms", _time_manifest_job(benchmark, "fig4:vips:1", 3))


def test_idle_steal_io_job(benchmark):
    """Figure 9's solo UDP point, the cold job of a served request:
    an I/O guest that leaves pCPUs idle, so most scheduler work is idle
    pCPUs scanning empty runqueues for something to steal."""
    _record("cold_io_job_ms", _time_manifest_job(benchmark, "fig9:udp:solo", 10))

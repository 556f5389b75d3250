"""Load benchmark for ``repro serve``: requests/s and latency
percentiles for the cache-hit fast path versus cold submissions under
concurrent clients — stdlib load generator, no external tooling.

Three scenarios against one in-process server (port 0, tmp cache dir):

* **hit** — every client hammers the same already-cached submission;
  measures the fast path (probe + finalize, no pool round-trip);
* **cold** — every request is a unique tiny simulation; measures the
  full submit → dispatch → simulate → poll pipeline;
* **mixed** — hit clients keep hammering while cold clients submit
  simulations, once the server's worker pool is warm; measures how
  long a hit waits while a wave simulates (``serve_mixed_hit_p90_ms``).

Headline rates and p50/p99 latency land in ``BENCH_engine.json`` via
the shared trajectory recorder, so serve-path regressions show up in
the same history as engine-tuning PRs.
"""

import http.client
import json
import tempfile
import threading
import time

from repro.obs import telemetry
from repro.serve import ServeConfig, start_in_thread
from repro.sim.time import ms

from test_simulator_perf import _record

CLIENTS = 8
HIT_REQUESTS_PER_CLIENT = 40
COLD_REQUESTS_PER_CLIENT = 4

#: Mixed phase: cold clients each run this many simulations in turn
#: while the hit clients loop until they are all done.
MIXED_COLD_CLIENTS = 2
MIXED_HIT_CLIENTS = 4
MIXED_COLD_PER_CLIENT = 6

BASE_JOB = {
    "tag": "bench",
    "scenario": "solo",
    "scenario_kwargs": {"workload_kind": "gmake"},
    "seed": 424242,
    "duration_ns": ms(1),
}


def _request(handle, method, path, body=None, name=None):
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=120)
    try:
        headers = {"X-Repro-Client": name} if name else {}
        conn.request(
            method, path,
            body=json.dumps(body) if body is not None else None,
            headers=headers,
        )
        resp = conn.getresponse()
        data = resp.read()
    finally:
        conn.close()
    return resp.status, json.loads(data) if data.startswith(b"{") else data


def _wait_done(handle, job_id, name):
    while True:
        status, body = _request(handle, "GET", "/jobs/%s" % job_id, name=name)
        assert status == 200
        if body["state"] in ("done", "failed", "cancelled"):
            assert body["state"] == "done", body
            return
        time.sleep(0.005)


def _drive(handle, requests_per_client, make_payload, wait):
    """Fan ``CLIENTS`` threads at the server; returns (wall_seconds,
    sorted per-request latencies in seconds). A request's latency is
    submit→response for hits, submit→terminal for cold work."""
    latencies = [[] for _ in range(CLIENTS)]
    errors = []
    barrier = threading.Barrier(CLIENTS + 1)

    def client_loop(index):
        name = "bench-%d" % index
        try:
            barrier.wait(timeout=60)
            for round_no in range(requests_per_client):
                start = time.perf_counter()
                status, body = _request(
                    handle, "POST", "/jobs",
                    make_payload(index, round_no), name=name,
                )
                assert status in (200, 202), (status, body)
                if status == 202 and wait:
                    _wait_done(handle, body["id"], name)
                latencies[index].append(time.perf_counter() - start)
        except Exception as err:  # noqa: BLE001 - surfaced after join
            errors.append(repr(err))

    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True)
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=600)
    wall = time.perf_counter() - wall_start
    assert errors == [], errors
    flat = sorted(lat for per_client in latencies for lat in per_client)
    assert len(flat) == CLIENTS * requests_per_client
    return wall, flat


def _wait_pool_ready(handle, timeout=60):
    deadline = time.perf_counter() + timeout
    while _request(handle, "GET", "/healthz")[1]["pool"] != "ready":
        assert time.perf_counter() < deadline, "worker pool never warmed up"
        time.sleep(0.01)


def _mixed(handle):
    """Hits sent while cold jobs simulate; returns (sorted hit
    latencies, sorted cold submit→terminal latencies) in seconds."""
    hits, colds, errors = [], [], []
    cold_left = [MIXED_COLD_CLIENTS]
    lock = threading.Lock()
    barrier = threading.Barrier(MIXED_COLD_CLIENTS + MIXED_HIT_CLIENTS)

    def cold_loop(index):
        name = "mixed-cold-%d" % index
        try:
            barrier.wait(timeout=60)
            for round_no in range(MIXED_COLD_PER_CLIENT):
                payload = dict(BASE_JOB, duration_ns=ms(8),
                               seed=700_000 + index * 1000 + round_no)
                start = time.perf_counter()
                status, body = _request(handle, "POST", "/jobs", payload, name=name)
                assert status == 202, (status, body)
                _wait_done(handle, body["id"], name)
                with lock:
                    colds.append(time.perf_counter() - start)
        except Exception as err:  # noqa: BLE001 - surfaced after join
            errors.append(repr(err))
        finally:
            with lock:
                cold_left[0] -= 1

    def hit_loop(index):
        name = "mixed-hit-%d" % index
        try:
            barrier.wait(timeout=60)
            while cold_left[0]:
                start = time.perf_counter()
                status, body = _request(handle, "POST", "/jobs", BASE_JOB, name=name)
                assert status == 200, (status, body)
                with lock:
                    hits.append(time.perf_counter() - start)
        except Exception as err:  # noqa: BLE001 - surfaced after join
            errors.append(repr(err))

    threads = [
        threading.Thread(target=cold_loop, args=(i,), daemon=True)
        for i in range(MIXED_COLD_CLIENTS)
    ] + [
        threading.Thread(target=hit_loop, args=(i,), daemon=True)
        for i in range(MIXED_HIT_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    assert errors == [], errors
    assert len(colds) == MIXED_COLD_CLIENTS * MIXED_COLD_PER_CLIENT
    assert hits, "no hit overlapped the cold jobs"
    return sorted(hits), sorted(colds)


def _percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


class TestServeLoad:
    def test_cache_hit_vs_cold_throughput(self):
        telemetry.set_enabled(True)
        with tempfile.TemporaryDirectory() as root:
            handle = start_in_thread(
                ServeConfig(port=0, workers=1, cache_dir=root,
                            max_queue_depth=256, max_inflight=64)
            )
            try:
                # Warm the cache so the hit scenario is pure fast path.
                status, body = _request(handle, "POST", "/jobs", BASE_JOB,
                                        name="warm")
                if status == 202:
                    _wait_done(handle, body["id"], "warm")

                hit_wall, hit_lat = _drive(
                    handle, HIT_REQUESTS_PER_CLIENT,
                    lambda i, r: BASE_JOB, wait=False,
                )
                cold_wall, cold_lat = _drive(
                    handle, COLD_REQUESTS_PER_CLIENT,
                    lambda i, r: dict(BASE_JOB, seed=500_000 + i * 1000 + r),
                    wait=True,
                )
                _wait_pool_ready(handle)
                mixed_hit_lat, mixed_cold_lat = _mixed(handle)
            finally:
                handle.drain()
                handle.stop()

        hit_rps = CLIENTS * HIT_REQUESTS_PER_CLIENT / hit_wall
        cold_rps = CLIENTS * COLD_REQUESTS_PER_CLIENT / cold_wall
        _record("serve_hit_requests_per_sec", hit_rps)
        _record("serve_cold_requests_per_sec", cold_rps)
        _record("serve_hit_p50_ms", _percentile(hit_lat, 0.50) * 1e3)
        _record("serve_hit_p99_ms", _percentile(hit_lat, 0.99) * 1e3)
        _record("serve_cold_p50_ms", _percentile(cold_lat, 0.50) * 1e3)
        _record("serve_cold_p99_ms", _percentile(cold_lat, 0.99) * 1e3)
        mixed_hit_p90 = _percentile(mixed_hit_lat, 0.90) * 1e3
        _record("serve_mixed_hit_p90_ms", mixed_hit_p90)

        # The fast path must actually be fast: answering from cache has
        # to beat simulate-and-poll by a wide margin.
        assert hit_rps > cold_rps
        # A hit must not wait out a simulation: with the waves in the
        # worker process, its tail stays below a cold job's median.
        assert mixed_hit_p90 < _percentile(mixed_cold_lat, 0.50) * 1e3

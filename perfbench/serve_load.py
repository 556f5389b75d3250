"""The ``serve_mixed`` workload: ``repro serve`` under a closed loop.

The server is ``repro serve --port 0 --workers 1`` in a process of its
own with a private result cache; its port is read from its "listening
on" line. This process is the load generator: two client threads (the
box has two CPUs), each on its own keep-alive connection, each sending
its next request only when the previous one has completed.

The op is a client session of :data:`SESSION` requests: exactly one
cold request at a seeded position, the others hits on seeded picks
from the warm job set. Its latency is the sum of its requests'. (Single
requests are not the op. Hits blocked behind a simulation form a third
latency mode between unblocked hits and colds, and request percentiles
sit on the steps between the modes.)

* hit: ``POST /jobs`` with one of :data:`HIT_JOBS`, which set-up ran
  once. Expect 200, ``X-Repro-Cache: hit``, and a ``result`` equal to
  the one set-up received.
* cold: ``POST /jobs`` with :data:`COLD_JOB` under a seed never used
  before (202), then ``GET /jobs/<id>/events`` on the same connection
  until the terminal event, which must be ``done``. The server closes
  a connection after a stream, so the next op reconnects.

Set-up (timed as ``setup_s``): spawn the server, wait for its listening
line, then submit each hit job cold, follow it to ``done`` and fetch
its hit body. It is done :data:`SETUPS` times per run, each time with a
fresh server and cache, and ``setup_s`` is the median; only the last
server serves the timed phase. Every server is stopped with SIGTERM
while its clients' keep-alive connections are still open, and its exit
status is reported.
"""

import http.client
import json
import random
import signal
import subprocess
import sys
import threading

import common
import spans as spanlib

#: Servers started per untraced run; setup_s is the median of their set-ups.
SETUPS = 3

CLIENTS = 2

#: Requests per session; one of them is cold.
SESSION = 5

#: Seconds of load between two host-speed probes.
PAUSE_EVERY_S = 0.5

#: The warm set: eight payload-manifest jobs (seed 42, scale 0.02).
HIT_JOBS = [
    {"tag": "fig9-%s-%s" % (mode, label), "scenario": scenario,
     "scenario_kwargs": {"mode": mode}, "policy": policy, "seed": 42,
     "duration_ns": 10000000, "warmup_ns": 10000000}
    for mode in ("udp", "tcp")
    for label, scenario, policy in (
        ("solo", "solo_io", {"mode": "baseline"}),
        ("baseline", "mixed_io", {"mode": "baseline"}),
        ("microsliced", "mixed_io",
         {"mode": "static", "micro_cores": 1, "user_critical": False}),
    )
] + [
    {"tag": "fig8-sjeng-baseline", "scenario": "corun",
     "scenario_kwargs": {"workload_kind": "sjeng"}, "policy": {"mode": "baseline"},
     "seed": 42, "duration_ns": 10000000, "warmup_ns": 10000000},
    {"tag": "fig7-gmake-baseline", "scenario": "corun",
     "scenario_kwargs": {"workload_kind": "gmake"}, "policy": {"mode": "baseline"},
     "seed": 42, "duration_ns": 10000000, "warmup_ns": 10000000},
]

#: The cold op: Figure 9's solo UDP point, whose run time barely moves
#: with the simulation seed, under a seed no earlier op used.
COLD_JOB = {"tag": "cold", "scenario": "solo_io", "scenario_kwargs": {"mode": "udp"},
            "policy": {"mode": "baseline"}, "duration_ns": 10000000,
            "warmup_ns": 10000000}

HTTP_TIMEOUT_S = 60


class Server:
    """One ``repro serve`` process and what it reported."""

    def __init__(self, state, index, spans_out=None):
        self.cache = state / ("serve-cache-%d" % index)
        self.stderr_path = state / ("serve-stderr-%d.txt" % index)
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.cli"]
        else:
            cmd = [sys.executable, str(common.BENCH_DIR / "serve_boot.py"), str(spans_out)]
        cmd += ["serve", "--port", "0", "--workers", "1"]
        with open(self.stderr_path, "w") as err:
            self.proc = subprocess.Popen(
                cmd, cwd=str(common.ROOT), env=common.child_env(self.cache),
                stdout=subprocess.PIPE, stderr=err, text=True)
        line = self.proc.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError("server did not start: %r" % line)
        address = line.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        self.exit_status = None
        self.traceback = None

    def connect(self):
        return http.client.HTTPConnection(self.host, self.port, timeout=HTTP_TIMEOUT_S)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self):
        """SIGTERM, wait, and record the exit status and any traceback."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.exit_status = self.proc.returncode
        text = self.stderr_path.read_text()
        if "Traceback" in text:
            self.traceback = text.strip().splitlines()[-1]
        return self.exit_status


def _post(conn, spec, op=None, client="setup"):
    body = json.dumps(spec).encode()
    headers = {"Content-Type": "application/json", "X-Repro-Client": client}
    if op is not None:
        headers["X-Bench-Op"] = op
    conn.request("POST", "/jobs", body=body, headers=headers)
    resp = conn.getresponse()
    return resp.status, resp.getheader("X-Repro-Cache"), resp.read()


def _follow(conn, job_id, op=None):
    """Read ``/jobs/<id>/events`` to its terminal event; returns it."""
    headers = {"X-Bench-Op": op} if op is not None else {}
    conn.request("GET", "/jobs/%s/events" % job_id, headers=headers)
    resp = conn.getresponse()
    if resp.status != 200:
        resp.read()
        return {"event": "http-%d" % resp.status}
    terminal = {"event": "stream ended early"}
    for line in resp:
        event = json.loads(line)
        if event.get("event") in ("done", "failed", "cancelled"):
            terminal = event
            break
    resp.read()
    conn.close()  # the server closes after a stream; reconnect next op
    return terminal


def warm(server, clock):
    """Run every hit job once cold, probing the host speed after each;
    returns ``({tag: hit result}, the connection used)``."""
    expected = {}
    conn = server.connect()
    for spec in HIT_JOBS:
        status, cache, body = _post(conn, spec)
        if status != 202 or cache != "miss":
            raise RuntimeError("warming %s: status %d, cache %s" % (spec["tag"], status, cache))
        terminal = _follow(conn, json.loads(body)["id"])
        if terminal.get("event") != "done":
            raise RuntimeError("warming %s ended %r" % (spec["tag"], terminal))
        status, cache, body = _post(conn, spec)
        if status != 200 or cache != "hit":
            raise RuntimeError("re-reading %s: status %d, cache %s" % (spec["tag"], status, cache))
        expected[spec["tag"]] = json.loads(body)["result"]
        clock.mark()
    return expected, conn


class Pacer:
    """Stops every client at a barrier each :data:`PAUSE_EVERY_S`, between
    sessions; with all of them stopped, the host speed is probed
    (``HostClock.mark``), which scales the latencies recorded since the
    last pause. The phase ends at the first pause at or after
    ``deadline``."""

    def __init__(self, deadline):
        self.clock = common.HostClock()
        self.clock.mark()
        self.deadline = deadline
        self.next_pause = min(common.now() + PAUSE_EVERY_S, deadline)
        self.done = False
        self._lock = threading.Lock()
        self.barrier = threading.Barrier(CLIENTS, action=self._pause)

    def record(self, kind, took):
        with self._lock:
            self.clock.record(kind, took)

    def _pause(self):
        self.clock.mark()
        at = common.now()
        self.done = at >= self.deadline
        self.next_pause = min(at + PAUSE_EVERY_S, self.deadline)

    def proceed(self):
        """Called before each session; False once the phase is over."""
        if common.now() >= self.next_pause:
            self.barrier.wait(timeout=HTTP_TIMEOUT_S)
        return not self.done

    def latencies(self, kind, scaled=True):
        return (self.clock.scaled if scaled else self.clock.raw).get(kind, [])


class Client(threading.Thread):
    """One closed-loop client on its own keep-alive connection."""

    def __init__(self, index, seed, server, expected, pacer, tracer):
        super().__init__(name="perfbench-client-%d" % index)
        self.index = index
        self.rng = random.Random(seed * 1000 + index)
        first = 10_000_000 + (seed % 10_000) * 100_000 + index * 50_000
        self.cold_seeds = iter(range(first, first + 50_000))
        self.expected = expected
        self.pacer = pacer
        self.tracer = tracer
        self.conn = server.connect()
        self.attempted = 0
        self.failures = []

    def _plan(self):
        cold_at = self.rng.randrange(SESSION)
        return ["cold" if slot == cold_at else self.rng.randrange(len(HIT_JOBS))
                for slot in range(SESSION)]

    def run(self):
        try:
            while self.pacer.proceed():
                took = [self._op(kind) for kind in self._plan()]
                if None not in took:
                    self.pacer.record("session", sum(took))
        except threading.BrokenBarrierError:
            self.failures.append("client %d: the other client stopped" % self.index)
        except BaseException:
            self.pacer.barrier.abort()
            raise

    def _span(self, name):
        return self.tracer.begin(name) if self.tracer is not None else None

    def _end(self, opened):
        if opened is not None:
            self.tracer.end(*opened)

    def _op(self, kind):
        """One request; returns its latency, or None when it failed."""
        self.attempted += 1
        op_id = "c%d-%d" % (self.index, self.attempted)
        op_token = self.tracer.op.set(op_id) if self.tracer is not None else None
        root = self._span("op")
        start = common.now()
        try:
            problem = self._hit(kind, op_id) if kind != "cold" else self._cold(op_id)
        except (OSError, http.client.HTTPException, ValueError) as err:
            problem = "%s op raised %s: %s" % (kind, type(err).__name__, err)
            self.conn.close()
        took = common.now() - start
        self._end(root)
        if op_token is not None:
            self.tracer.op.reset(op_token)
        if problem:
            self.failures.append(problem)
            return None
        self.pacer.record("cold" if kind == "cold" else "hit", took)
        return took

    def _hit(self, index, op_id):
        spec = HIT_JOBS[index]
        opened = self._span("serve.submit")
        status, cache, body = _post(self.conn, spec, op_id, "client-%d" % self.index)
        self._end(opened)
        if status != 200 or cache != "hit":
            return "hit %s: status %d, cache %s" % (spec["tag"], status, cache)
        if json.loads(body)["result"] != self.expected[spec["tag"]]:
            return "hit %s: body differs from set-up's" % spec["tag"]
        return None

    def _cold(self, op_id):
        spec = dict(COLD_JOB, seed=next(self.cold_seeds))
        opened = self._span("serve.submit")
        status, cache, body = _post(self.conn, spec, op_id, "client-%d" % self.index)
        self._end(opened)
        if status != 202 or cache != "miss":
            return "cold seed %d: status %d, cache %s" % (spec["seed"], status, cache)
        opened = self._span("serve.stream")
        terminal = _follow(self.conn, json.loads(body)["id"], op_id)
        self._end(opened)
        if terminal.get("event") != "done":
            return "cold seed %d ended %r" % (spec["seed"], terminal.get("event"))
        return None


def _telemetry(server):
    conn = server.connect()
    try:
        conn.request("GET", "/telemetry")
        resp = conn.getresponse()
        return json.loads(resp.read())
    finally:
        conn.close()


def _phase(server, args, expected, tracer=None):
    pacer = Pacer(common.now() + args.seconds)
    clients = [Client(i, args.seed, server, expected, pacer, tracer)
               for i in range(CLIENTS)]
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    return pacer, clients


def _counter_deltas(before, after):
    counters = {name: value - before["counters"].get(name, 0)
                for name, value in after["counters"].items()}
    hist_after = after["histograms"].get("serve.queue_wait_us", {})
    hist_before = before["histograms"].get("serve.queue_wait_us", {})
    waits = hist_after.get("count", 0) - hist_before.get("count", 0)
    total = hist_after.get("total", 0) - hist_before.get("total", 0)
    return counters, waits, total


def _session(args, state, index, spans_out=None, timed=True):
    """Start a server, warm it, and (when ``timed``) run the timed
    phase; returns a dict of what happened."""
    clock = common.HostClock()
    clock.mark()
    server = Server(state, index, spans_out)
    out = {}
    setup_conn = None
    try:
        expected, setup_conn = warm(server, clock)
        out.update(setup_s=clock.scaled_s, setup_raw_s=clock.raw_s)
        if timed:
            tracer = spanlib.Spans() if spans_out is not None else None
            before = _telemetry(server)
            began = common.now()
            pacer, clients = _phase(server, args, expected, tracer)
            window = (began, common.now())
            after = _telemetry(server)
            out.update(pacer=pacer, clients=clients, before=before, after=after,
                       window=window,
                       peak_rss_mb=server.peak_rss_mb(), tracer=tracer)
    finally:
        server.stop()
        for client in out.get("clients", ()):
            client.conn.close()
        if setup_conn is not None:
            setup_conn.close()
    common.info("server %d: exit status %s on SIGTERM%s" % (
        index, server.exit_status,
        "; its stderr ends %r" % server.traceback if server.traceback else ""))
    return out


def _summarise(out):
    """Print the phase's latencies; returns (pacer, failures, attempted)."""
    pacer = out["pacer"]
    failures = [f for c in out["clients"] for f in c.failures]
    attempted = sum(c.attempted for c in out["clients"])
    for problem in failures[:20]:
        common.info("FAILED: %s" % problem)
    for kind in ("hit", "cold", "session"):
        common.info(common.latency_summary(kind + " scaled", pacer.latencies(kind)))
        common.info(common.latency_summary(kind + " measured", pacer.latencies(kind, False)))
    common.info("timed phase: %d sessions, %d requests in %.2f s of load (%.2f s scaled), "
                "%d failed" % (len(pacer.latencies("session")), attempted,
                               pacer.clock.raw_s, pacer.clock.scaled_s, len(failures)))
    return pacer, failures, attempted


def run(args, state):
    """Run serve_mixed; returns (attempted, failed, metrics or layers)."""
    if args.trace:
        return _run_traced(args, state)
    sessions = [_session(args, state, index, timed=index == SETUPS - 1)
                for index in range(SETUPS)]
    common.info("setup_s samples (scaled/measured): %s" % ", ".join(
        "%.3f/%.3f" % (out["setup_s"], out["setup_raw_s"]) for out in sessions))
    out = sessions[-1]
    pacer, failures, attempted = _summarise(out)
    ms = [t * 1e3 for t in pacer.latencies("session")]
    metrics = {
        "setup_s": common.metric(common.median([o["setup_s"] for o in sessions]), "s"),
        "peak_rss_mb": common.metric(out["peak_rss_mb"], "MB"),
        "ops_per_s": common.metric(len(ms) / pacer.clock.scaled_s, "1/s"),
        "op_p50_ms": common.metric(common.percentile(ms, 50), "ms"),
        "op_p90_ms": common.metric(common.percentile(ms, 90), "ms"),
    }
    return attempted, len(failures), metrics


def _mean_ms(values):
    return (sum(values) / len(values) * 1e3 if values else 0.0, len(values))


def _run_traced(args, state):
    plain = _session(args, state, 0)
    plain_pacer, failures, attempted = _summarise(plain)
    plain_ops = plain_pacer.latencies("session")

    server_spans = common.spans_path(args.workload, args.seed, "server")
    client_spans = common.spans_path(args.workload, args.seed, "client")
    traced = _session(args, state, 1, spans_out=server_spans)
    pacer, t_failures, t_attempted = _summarise(traced)
    traced["tracer"].write(client_spans, "client")
    began, ended = traced["window"]
    records = [s for s in spanlib.load([client_spans, server_spans])
               if s["start"] >= began and s["end"] <= ended]
    common.info("spans written to %s and %s" % (
        client_spans.relative_to(common.ROOT), server_spans.relative_to(common.ROOT)))

    counters, waits, wait_total_us = _counter_deltas(traced["before"], traced["after"])
    roots = {s["op"]: s for s in records if s["process"] == "client" and s["name"] == "op"}
    residuals = spanlib.op_residuals(records, roots)
    durations = {name: [s["end"] - s["start"] for s in records
                        if s["process"] == "client" and s["name"] == name]
                 for name in ("serve.submit", "serve.stream")}
    rejected = sum(value for name, value in counters.items()
                   if name.startswith("serve.admission.rejected"))
    colds = len(pacer.latencies("cold"))
    traced_ops = pacer.latencies("session")
    plain_ms, traced_ms = _mean_ms(plain_ops)[0], _mean_ms(traced_ops)[0]
    layers = spanlib.layer_report(records, len(roots), counters, extra={
        "serve.submit_ms": _mean_ms(durations["serve.submit"]),
        "serve.stream_ms": _mean_ms(durations["serve.stream"]),
        "serve.queue_wait_ms": (wait_total_us / waits / 1e3 if waits else 0.0, waits),
        "serve.probes_per_cold": (
            counters.get("cache.misses", 0) / colds if colds else 0.0, colds),
        "serve.admission_rejected": (rejected, attempted + t_attempted),
        "op.residual_ms": _mean_ms(residuals),
        "trace.overhead_ms": (traced_ms - plain_ms, len(traced_ops)),
        "trace.overhead_pct": (
            (traced_ms / plain_ms - 1) * 100 if plain_ms else 0.0, len(traced_ops)),
    })
    return attempted + t_attempted, len(failures) + len(t_failures), layers

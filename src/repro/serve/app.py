"""The ``repro serve`` application: routing, streams, drain.

Glues the three layers below it together — :mod:`repro.serve.http`
(protocol), :mod:`repro.serve.admission` (backpressure), and
:mod:`repro.serve.jobs` (validation + dispatch) — and owns everything
HTTP-shaped: the route table, the NDJSON/SSE event streams, the
``/metrics`` exposition, and the SIGTERM drain sequence (stop
admitting → finish in-flight → close the worker pool → flush
telemetry → exit 0).

Every request is counted (``serve.requests.<METHOD>_<route>.<status>``)
and timed (``serve.request_latency_us``); stream lifetimes move the
``serve.active_streams`` gauge. Latency and other wall-derived metrics
carry the registry's wall suffixes so the determinism contract
(`dumps(include_wall=False)` byte-stable) is unaffected by them.
"""

import asyncio
import json
import signal
import time

from ..obs import telemetry
from ..runner import default_workers
from .admission import (
    DEFAULT_MAX_INFLIGHT_PER_CLIENT,
    DEFAULT_MAX_QUEUE_DEPTH,
    AdmissionController,
    Rejection,
)
from .http import (
    HttpError,
    HttpServer,
    Response,
    StreamResponse,
    error_response,
    json_response,
)
from .jobs import (
    TERMINAL,
    JobManager,
    ValidationError,
    compile_experiment,
    compile_job,
)

_ACTIVE_STREAMS = telemetry.gauge("serve.active_streams")

#: Seconds between liveness nudges on an otherwise-quiet event stream
#: (an SSE comment / NDJSON no-op so proxies do not reap the socket).
STREAM_HEARTBEAT_SECONDS = 15.0

#: Bind address and port; `repro serve --host/--port` override.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765


class ServeConfig:
    """Everything ``repro serve`` needs to come up."""

    __slots__ = ("host", "port", "workers", "cache", "cache_dir",
                 "max_queue_depth", "max_inflight")

    def __init__(self, host=DEFAULT_HOST, port=DEFAULT_PORT, workers=None, cache=None,
                 cache_dir=None, max_queue_depth=DEFAULT_MAX_QUEUE_DEPTH,
                 max_inflight=DEFAULT_MAX_INFLIGHT_PER_CLIENT):
        self.host = host
        self.port = port
        self.workers = default_workers() if workers is None else workers
        self.cache = cache
        self.cache_dir = cache_dir
        self.max_queue_depth = max_queue_depth
        self.max_inflight = max_inflight


class ServeApp:
    """One service instance: a job manager, an admission controller,
    and the HTTP front end."""

    def __init__(self, config=None):
        self.config = config or ServeConfig()
        self.manager = JobManager(
            workers=self.config.workers,
            cache=self.config.cache,
            cache_dir=self.config.cache_dir,
        )
        self.admission = AdmissionController(
            max_queue_depth=self.config.max_queue_depth,
            max_inflight_per_client=self.config.max_inflight,
            predicted_backlog_seconds=self.manager.backlog_seconds,
        )
        self.server = HttpServer(self.handle)
        self.started_unix = time.time()
        self._streams = 0

    # -- lifecycle -----------------------------------------------------

    async def start(self):
        await self.manager.start()
        host, port = await self.server.start(self.config.host, self.config.port)
        return host, port

    async def drain(self):
        """SIGTERM semantics: refuse new work, let queued and running
        submissions finish, close the worker pool, flush the telemetry
        snapshot."""
        self.admission.draining = True
        await self.manager.wait_idle()
        await self.manager.close_pool()
        telemetry.persist(self.config.cache_dir)

    async def stop(self):
        await self.manager.stop()
        await self.manager.close_pool()
        await self.server.stop()

    # -- request entry point -------------------------------------------

    async def handle(self, request):
        start = time.perf_counter()
        try:
            route, response = await self._route(request)
        except HttpError as err:
            route, response = "error", error_response(err.status, err.detail)
        telemetry.counter(
            "serve.requests.%s_%s.%d"
            % (request.method, route, response.status)
        ).inc()
        telemetry.observe(
            "serve.request_latency_us", (time.perf_counter() - start) * 1e6
        )
        return response

    def _client_of(self, request):
        return request.header("x-repro-client") or request.client

    async def _route(self, request):
        """Dispatch to a handler; returns ``(route_label, response)``
        so metrics bucket by route pattern, not concrete path."""
        path = request.path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]

        if path == "/healthz":
            return "healthz", self._healthz()
        if path == "/metrics":
            return "metrics", self._metrics()
        if path == "/telemetry":
            return "telemetry", self._telemetry()
        if path == "/experiments":
            if request.method == "GET":
                return "experiments", self._list_experiments()
            if request.method == "POST":
                return "experiments", await self._submit(request, compile_experiment)
            raise HttpError(405, "use GET or POST on /experiments")
        if path == "/jobs" and request.method == "POST":
            return "jobs", await self._submit(request, compile_job)
        if path == "/jobs" and request.method == "GET":
            return "jobs", self._list_jobs()
        if parts and parts[0] == "jobs" and len(parts) >= 2:
            sub = self.manager.submissions.get(parts[1])
            if sub is None:
                raise HttpError(404, "no such submission %r" % parts[1])
            if len(parts) == 2:
                if request.method == "GET":
                    return "jobs_id", json_response(200, sub.summary())
                if request.method == "DELETE":
                    return "jobs_id", self._cancel(sub)
                raise HttpError(405, "use GET or DELETE on /jobs/<id>")
            action = parts[2]
            if action == "result" and request.method == "GET":
                return "jobs_id_result", self._result(sub)
            if action == "events" and request.method == "GET":
                return "jobs_id_events", self._events(request, sub)
            if action == "cancel" and request.method == "POST":
                return "jobs_id_cancel", self._cancel(sub)
            raise HttpError(404, "unknown action %r" % action)
        raise HttpError(404, "no route for %s %s" % (request.method, request.path))

    # -- plain routes --------------------------------------------------

    def _healthz(self):
        return json_response(200, {
            "status": "draining" if self.admission.draining else "ok",
            "uptime_seconds": round(time.time() - self.started_unix, 3),
            "queued": self.admission.queued,
            "workers": self.manager.workers,
            "pool": self.manager.pool_state(),
        })

    def _metrics(self):
        text = telemetry.render_prom(telemetry.snapshot())
        return Response(200, text, content_type="text/plain; version=0.0.4")

    def _telemetry(self):
        return Response(200, telemetry.REGISTRY.dumps() + "\n")

    def _list_experiments(self):
        from ..experiments import registry

        names = registry.available()
        rows = [
            {"name": name, "driver": registry.is_driver(registry.get(name))}
            for name in names
        ]
        return json_response(200, {"experiments": rows})

    def _list_jobs(self):
        rows = [
            self.manager.submissions[sid].summary()
            for sid in self.manager._order
            if sid in self.manager.submissions
        ]
        return json_response(200, {"jobs": rows})

    # -- submission ----------------------------------------------------

    async def _submit(self, request, compiler):
        payload = request.json()
        client = self._client_of(request)
        try:
            work = compiler(payload)
        except ValidationError as err:
            raise HttpError(400, str(err))
        try:
            sub, hit = await self.manager.submit(work, client, self.admission)
        except Rejection as err:
            return error_response(
                err.status, err.detail,
                headers={"Retry-After": str(err.retry_after)},
            )
        body = sub.summary()
        headers = {"X-Repro-Cache": "hit" if hit else "miss"}
        if hit:
            body["result"] = sub.result
            return json_response(200, body, headers=headers)
        body["links"] = {
            "self": "/jobs/%s" % sub.id,
            "events": "/jobs/%s/events" % sub.id,
            "result": "/jobs/%s/result" % sub.id,
        }
        return json_response(202, body, headers=headers)

    def _result(self, sub):
        if sub.state not in TERMINAL:
            return error_response(
                409, "submission %s is %s; stream /jobs/%s/events or retry"
                % (sub.id, sub.state, sub.id),
                headers={"Retry-After": "1"},
            )
        body = sub.summary()
        body["result"] = sub.result
        return json_response(200, body)

    def _cancel(self, sub):
        if sub.state in TERMINAL:
            return json_response(200, sub.summary())
        if self.manager.cancel(sub, self.admission):
            return json_response(200, sub.summary())
        return error_response(
            409, "submission %s is already running" % sub.id
        )

    # -- event streams -------------------------------------------------

    def _events(self, request, sub):
        sse = request.wants_sse()

        def render(event):
            line = json.dumps(event, sort_keys=True)
            if sse:
                return "event: %s\ndata: %s\n\n" % (event["event"], line)
            return line + "\n"

        async def producer(write):
            self._streams += 1
            _ACTIVE_STREAMS.set(self._streams)
            try:
                index = 0
                while True:
                    while index < len(sub.events):
                        event = sub.events[index]
                        index += 1
                        await write(render(event))
                        if event["event"] in TERMINAL:
                            return
                    async with sub.cond:
                        if index >= len(sub.events):
                            try:
                                await asyncio.wait_for(
                                    sub.cond.wait(), STREAM_HEARTBEAT_SECONDS
                                )
                            except asyncio.TimeoutError:
                                pass
                    if index >= len(sub.events):
                        # Liveness nudge so proxies keep the socket open.
                        await write(": keep-alive\n\n" if sse
                                    else '{"event": "heartbeat"}\n')
            finally:
                self._streams -= 1
                _ACTIVE_STREAMS.set(self._streams)

        return StreamResponse(
            producer,
            content_type=("text/event-stream" if sse
                          else "application/x-ndjson"),
        )


async def serve_forever(config):
    """Run the service until SIGTERM/SIGINT, then drain; the
    ``repro serve`` CLI entry point. Returns the process exit code."""
    app = ServeApp(config)
    host, port = await app.start()
    print("repro serve: listening on http://%s:%d (workers=%d)"
          % (host, port, app.manager.workers), flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix event loops
    await stop.wait()

    print("repro serve: draining (%d queued)" % app.admission.queued, flush=True)
    await app.drain()
    await app.stop()
    print("repro serve: drained cleanly", flush=True)
    return 0


class ServerHandle:
    """A running server on a background thread — the harness tests and
    the benchmark load generator use this instead of a subprocess."""

    def __init__(self, app, host, port, loop, thread):
        self.app = app
        self.host = host
        self.port = port
        self._loop = loop
        self._thread = thread

    def run(self, coro):
        """Run a coroutine on the server loop and wait for it."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout=120)

    def drain(self):
        self.run(self.app.drain())

    def stop(self):
        self.run(self.app.stop())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)


def start_in_thread(config=None):
    """Start a :class:`ServeApp` on a dedicated event-loop thread and
    return its :class:`ServerHandle` (bound address resolved, server
    accepting)."""
    import threading

    config = config or ServeConfig(port=0)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    state = {}

    def main():
        asyncio.set_event_loop(loop)

        async def boot():
            app = ServeApp(config)
            state["app"] = app
            state["addr"] = await app.start()

        loop.run_until_complete(boot())
        ready.set()
        loop.run_forever()
        # Drain pending callbacks scheduled during shutdown.
        loop.run_until_complete(asyncio.sleep(0))
        loop.close()

    thread = threading.Thread(target=main, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout=30):
        raise RuntimeError("repro serve failed to start within 30s")
    host, port = state["addr"]
    return ServerHandle(state["app"], host, port, loop, thread)

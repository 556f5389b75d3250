"""Minimal asyncio HTTP/1.1 server — standard library only.

``repro serve`` must not grow a runtime dependency, so this module
implements the small slice of HTTP/1.1 the service needs on top of
``asyncio.start_server``:

* request parsing (request line, headers, ``Content-Length`` bodies,
  bounded by :data:`MAX_BODY_BYTES`);
* fixed-length responses with keep-alive, and **streaming** responses
  via chunked transfer encoding (the NDJSON/SSE job event streams);
* defensive limits everywhere — an oversized body is a 413, a
  malformed request a 400, and an idle keep-alive connection is closed
  after :data:`IDLE_TIMEOUT_SECONDS` — so one misbehaving client can
  never wedge the accept loop.

The application above this (:mod:`repro.serve.app`) supplies one
``async handler(request) -> Response`` callable; routing, metrics, and
job semantics all live there. Nothing in this module knows what a
simulation is.
"""

import asyncio
import json
from urllib.parse import parse_qs, unquote, urlsplit

#: Request bodies larger than this are refused with 413 (a job spec is
#: a few KB; a megabyte of JSON is a client bug or an attack).
MAX_BODY_BYTES = 1 << 20

#: Maximum bytes in the request line + one header line.
MAX_LINE_BYTES = 16 * 1024

#: Keep-alive connections idle longer than this are closed.
IDLE_TIMEOUT_SECONDS = 120.0

#: On stop, in-flight requests get this long to finish before their
#: connections are cancelled.
STOP_GRACE_SECONDS = 5.0

#: Reason phrases for the statuses the service emits.
REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request-level protocol problem, rendered as its status code."""

    def __init__(self, status, detail):
        super().__init__(detail)
        self.status = status
        self.detail = detail


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body", "client")

    def __init__(self, method, path, query, headers, body, client):
        self.method = method
        self.path = path
        self.query = query  # {name: [values]}
        self.headers = headers  # lower-cased names
        self.body = body
        self.client = client  # peer address string, e.g. "127.0.0.1"

    def json(self):
        """The body parsed as a JSON object (raises :class:`HttpError`
         400 on anything that is not one)."""
        if not self.body:
            raise HttpError(400, "expected a JSON body")
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as err:
            raise HttpError(400, "invalid JSON body: %s" % err)
        if not isinstance(payload, dict):
            raise HttpError(400, "expected a JSON object body")
        return payload

    def header(self, name, default=None):
        return self.headers.get(name.lower(), default)

    def wants_sse(self):
        return "text/event-stream" in self.header("accept", "")


class Response:
    """A fixed-length response."""

    __slots__ = ("status", "body", "headers")

    def __init__(self, status, body=b"", headers=None, content_type="application/json"):
        self.status = status
        if isinstance(body, str):
            body = body.encode("utf-8")
        self.body = body
        self.headers = dict(headers or {})
        self.headers.setdefault("Content-Type", content_type)


def json_response(status, payload, headers=None):
    """A sorted-key JSON response (sorted keys keep identical requests
    byte-identical on the wire, matching the repo's determinism
    habits)."""
    return Response(
        status, json.dumps(payload, sort_keys=True) + "\n", headers=headers
    )


def error_response(status, detail, headers=None):
    return json_response(status, {"error": detail, "status": status}, headers=headers)


class StreamResponse:
    """A chunked streaming response driven by the handler.

    The handler returns one of these and the connection loop calls
    :meth:`run`, which writes the header and then awaits
    ``producer(write)`` — ``write(text)`` sends one chunk. Streaming
    responses always close the connection afterwards (the final
    0-length chunk ends the body; closing keeps the client loop
    trivial)."""

    __slots__ = ("status", "headers", "producer")

    def __init__(self, producer, status=200, content_type="application/x-ndjson",
                 headers=None):
        self.status = status
        self.producer = producer
        self.headers = dict(headers or {})
        self.headers.setdefault("Content-Type", content_type)
        self.headers.setdefault("Cache-Control", "no-store")

    async def run(self, writer):
        header = _render_header(
            self.status,
            dict(self.headers, **{
                "Transfer-Encoding": "chunked",
                "Connection": "close",
            }),
        )
        writer.write(header)
        await writer.drain()

        async def write(text):
            data = text.encode("utf-8") if isinstance(text, str) else text
            if not data:
                return
            writer.write(b"%x\r\n" % len(data) + data + b"\r\n")
            await writer.drain()

        try:
            await self.producer(write)
        finally:
            try:
                writer.write(b"0\r\n\r\n")
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass


def _render_header(status, headers):
    lines = ["HTTP/1.1 %d %s" % (status, REASONS.get(status, "Unknown"))]
    for name, value in headers.items():
        lines.append("%s: %s" % (name, value))
    lines.append("\r\n")
    return "\r\n".join(lines).encode("latin-1")


async def _read_line(reader):
    line = await reader.readline()
    if len(line) > MAX_LINE_BYTES:
        raise HttpError(400, "header line too long")
    return line


async def read_request(reader, client):
    """Parse one request off ``reader``; returns ``None`` on a clean
    EOF (client closed the keep-alive connection)."""
    try:
        request_line = await asyncio.wait_for(
            _read_line(reader), timeout=IDLE_TIMEOUT_SECONDS
        )
    except asyncio.TimeoutError:
        raise HttpError(408, "idle connection timed out")
    if not request_line:
        return None
    try:
        method, target, version = request_line.decode("latin-1").split()
    except ValueError:
        raise HttpError(400, "malformed request line")
    if not version.startswith("HTTP/1."):
        raise HttpError(400, "unsupported HTTP version %r" % version)

    headers = {}
    while True:
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise HttpError(400, "undecodable header line")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            length = int(length)
        except ValueError:
            raise HttpError(400, "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, "body exceeds %d bytes" % MAX_BODY_BYTES)
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "truncated request body")
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")

    split = urlsplit(target)
    return Request(
        method=method.upper(),
        path=unquote(split.path),
        query=parse_qs(split.query),
        headers=headers,
        body=body,
        client=client,
    )


class HttpServer:
    """Owns the listening socket and per-connection loops.

    ``handler`` is ``async handler(request) -> Response|StreamResponse``;
    anything it raises is logged as a 500 (``HttpError`` keeps its
    status). Connection tasks are tracked so :meth:`stop` can wait for
    in-flight requests, and connections waiting for their next request
    are tracked so :meth:`stop` can close them."""

    def __init__(self, handler):
        self._handler = handler
        self._server = None
        self._tasks = set()
        self._idle = set()  # writers of connections awaiting a request
        self._stopping = False

    async def start(self, host, port):
        self._server = await asyncio.start_server(self._on_connection, host, port)
        return self._server.sockets[0].getsockname()[:2]

    async def _on_connection(self, reader, writer):
        task = asyncio.current_task()
        self._tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        finally:
            self._tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(self, reader, writer):
        peer = writer.get_extra_info("peername")
        client = peer[0] if isinstance(peer, tuple) else str(peer)
        while not self._stopping:
            self._idle.add(writer)
            try:
                request = await read_request(reader, client)
            except HttpError as err:
                await self._write_response(
                    writer, error_response(err.status, err.detail), close=True
                )
                return
            except (ConnectionError, OSError):
                return
            finally:
                self._idle.discard(writer)
            if request is None:
                return  # clean EOF
            try:
                response = await self._handler(request)
            except HttpError as err:
                response = error_response(err.status, err.detail)
            except asyncio.CancelledError:
                raise
            except Exception as err:  # the handler must never kill the loop
                response = error_response(500, "internal error: %s" % err)
            if isinstance(response, StreamResponse):
                try:
                    await response.run(writer)
                except (ConnectionError, OSError):
                    pass
                return  # streaming responses close the connection
            close = (
                self._stopping
                or request.header("connection", "").lower() == "close"
            )
            try:
                await self._write_response(writer, response, close=close)
            except (ConnectionError, OSError):
                return
            if close:
                return

    async def _write_response(self, writer, response, close=False):
        headers = dict(response.headers)
        headers["Content-Length"] = str(len(response.body))
        headers["Connection"] = "close" if close else "keep-alive"
        writer.write(_render_header(response.status, headers))
        writer.write(response.body)
        await writer.drain()

    async def stop(self):
        """Stop accepting, end idle keep-alive connections, and let
        in-flight requests finish (cancelling any still running after
        :data:`STOP_GRACE_SECONDS`).

        Idle connections are closed rather than cancelled: their pending
        read sees EOF and the connection task returns normally. On
        Python 3.11 a cancelled connection task makes asyncio's stream
        protocol log a ``CancelledError`` traceback."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
        for writer in list(self._idle):
            writer.close()
        if self._tasks:
            _done, stragglers = await asyncio.wait(
                set(self._tasks), timeout=STOP_GRACE_SECONDS
            )
            for task in stragglers:
                task.cancel()
            if stragglers:
                await asyncio.gather(*stragglers, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

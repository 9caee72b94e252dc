"""Minimal asyncio HTTP/1.1 front-end for the synthesis service.

No third-party web framework is available in the target environment,
so this is a deliberately small hand-rolled HTTP/1.1 server: one
:class:`asyncio.Protocol` per connection parses each request once
(head up to the blank line, then ``Content-Length`` body bytes) and
writes each JSON response once; keep-alive by default, pipelined
requests answered in order.  A head over 16 KiB is answered 400 and a
body over 1 MiB 413, both closing the connection.  It serves four
routes:

``POST /synthesize``
    The request funnel (rate limit → drain check → service).  The
    service status maps onto distinct HTTP codes so load generators
    and operators can tell outcomes apart without parsing bodies —
    in particular **degraded** answers are 203 (an answer, just not
    authoritative/optimal), not a 5xx, and **expired** deadlines are
    504 without the request ever having occupied a worker.
``GET /metrics``
    The merged counter snapshot (:meth:`SynthesisService
    .metrics_snapshot`) as JSON.
``GET /metrics/all``
    Multi-process aggregation: this worker's snapshot merged with
    every registered sibling's (scraped over their admin listeners).
    Single-process servers answer with a one-entry aggregate.
``GET /healthz``
    Liveness + drain state.

Backpressure is connection-level and independent of the scheduler's
backlog shed: at most ``max_connections`` sockets are served
concurrently (excess connections get an immediate 503 and close —
fast shedding, no queueing).  A connection parses no request while its
write buffer is full, and stops reading while it buffers a maximal
request behind the one in flight.

Graceful drain: :meth:`SynthesisServer.shutdown` (wired to SIGTERM by
the CLI) stops admitting synthesis work (503 with ``Connection:
close``), waits for in-flight requests to finish, drains the
scheduler, and only then closes the listener — no request is ever
dropped mid-synthesis.  A server started with ``reuse_port`` (the
multi-process mode) closes its listener at drain *start* instead,
ejecting the worker from the ``SO_REUSEPORT`` group so the kernel
routes new connections to its siblings rather than at a 503 wall.
"""

from __future__ import annotations

import asyncio
import json
import re

from .multiproc import SiblingRegistry, aggregate_snapshots
from .ratelimit import RateLimiter
from .service import SynthesisRequest, SynthesisService

__all__ = ["SynthesisServer", "STATUS_HTTP"]

#: Service status → HTTP status.  Degraded is deliberately a 2xx
#: (203 Non-Authoritative Information): an answer was served, it is
#: just not proven optimal — ``exact: false`` in the body says so.
STATUS_HTTP = {
    "ok": 200,
    "degraded": 203,
    "infeasible": 422,
    "timeout": 504,
    "expired": 504,
    "crash": 500,
    "corrupt": 500,
    "unavailable": 503,
    "overloaded": 503,
}

_REASONS = {
    200: "OK",
    203: "Non-Authoritative Information",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Largest request head (request line plus headers) and body, bytes.
_MAX_HEAD = 16 * 1024
_MAX_BODY = 1024 * 1024
#: The blank line that ends a head; a bare LF ends a line too.
_END_OF_HEAD = re.compile(rb"\n\r?\n")
#: How long a rejected connection may go on sending before it is closed.
_LINGER_S = 1.0

#: Internal marker a route puts in its ``extra`` dict to force
#: ``Connection: close`` on the response; popped before headers render.
_CLOSE = "__close__"


class _BadRequest(Exception):
    """``(status, message)``: refuse the request, close the connection."""


def _response(
    status: int, payload: dict, *, close: bool, extra: dict | None = None
) -> bytes:
    """One whole response: status line, headers and JSON body."""
    body = json.dumps(payload).encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    for name, value in (extra or {}).items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


class _Connection(asyncio.Protocol):
    """One HTTP/1.1 connection: requests are parsed from one buffer and
    answered one at a time, in order, each by a Task."""

    def __init__(self, server: SynthesisServer) -> None:
        self._server = server
        self._transport: asyncio.Transport | None = None
        self._peer = "unknown"
        self._buffer = bytearray()
        #: (method, path, headers, length, body start) of a parsed head.
        self._head: tuple | None = None
        self._task: asyncio.Task | None = None
        self._eof = self._writing_paused = False
        self._rejected = False  # see _reject

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        metrics = self._server._service.metrics
        if metrics.connections_active >= self._server._max_connections:
            # Fast shed: one 503, no accounting.  The cap bounds
            # event-loop memory no matter how hard clients push — the
            # scheduler backlog shed never sees these.
            metrics.connections_shed += 1
            self._reject(503, {"error": "overloaded", "status": "overloaded"})
            return
        peername = transport.get_extra_info("peername")
        self._peer = peername[0] if peername else "unknown"
        metrics.connection_opened()
        self._server._transports.add(transport)

    def data_received(self, data: bytes) -> None:
        if self._rejected:
            return  # discarded
        self._buffer += data
        self._next()
        # A maximal request waits in the buffer: read no more for now.
        if len(self._buffer) >= _MAX_HEAD + _MAX_BODY:
            self._transport.pause_reading()

    def eof_received(self) -> bool:
        self._eof = True
        self._next()
        return True  # answer what was received; _next closes

    def connection_lost(self, exc: Exception | None) -> None:
        if self._transport in self._server._transports:
            self._server._transports.remove(self._transport)
            self._server._service.metrics.connection_closed()

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        self._next()

    def _next(self) -> None:
        """Dispatch the next complete request, unless one is in flight
        or the write buffer is full; close at EOF when none is left."""
        transport = self._transport
        if self._task or self._writing_paused or transport.is_closing():
            return
        try:
            request = self._parse()
        except _BadRequest as exc:
            status, message = exc.args
            self._reject(status, {"error": message})
            request = None
        if request is not None:
            self._task = asyncio.get_running_loop().create_task(
                self._answer(*request)
            )
        elif self._eof:
            transport.close()
        if len(self._buffer) < _MAX_HEAD + _MAX_BODY:
            transport.resume_reading()

    def _parse(self) -> tuple[str, str, dict[str, str], bytes] | None:
        """The next complete request in the buffer, or None."""
        buffer = self._buffer
        if self._head is None:
            end = _END_OF_HEAD.search(buffer)
            if end is None or end.start() > _MAX_HEAD:
                if len(buffer) > _MAX_HEAD:
                    raise _BadRequest(400, "request head too large")
                return None
            head = buffer[: end.start()].decode("latin-1")
            request_line, *lines = head.split("\n")
            try:
                method, path, version = request_line.strip().split(" ", 2)
            except ValueError:
                raise _BadRequest(400, "malformed request line") from None
            if not version.startswith("HTTP/1."):
                raise _BadRequest(400, f"unsupported protocol {version!r}")
            headers: dict[str, str] = {}
            for line in lines:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            length = headers.get("content-length", "0")
            if not length.isdecimal():
                raise _BadRequest(400, "bad Content-Length")
            length = int(length)
            if length > _MAX_BODY:
                raise _BadRequest(413, "body too large")
            self._head = (method.upper(), path, headers, length, end.end())
        method, path, headers, length, start = self._head
        if len(buffer) < start + length:
            return None
        body = bytes(buffer[start : start + length])
        del buffer[: start + length]
        self._head = None
        return method, path, headers, body

    async def _answer(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> None:
        transport = self._transport
        try:
            status, payload, extra = await self._server._route(
                method, path, headers, body, self._peer
            )
        except Exception as exc:  # a router fault: report it, drop
            transport.close()
            asyncio.get_running_loop().call_exception_handler(
                {"message": "HTTP handler failed", "exception": exc}
            )
            return
        self._task = None
        if transport.is_closing():  # the client left, or shutdown
            return
        close = bool(extra.pop(_CLOSE, False)) or status == 400
        close = close or headers.get("connection", "").lower() == "close"
        transport.write(_response(status, payload, close=close, extra=extra))
        if close:
            # FIN now, with the response: the client reads it to EOF
            # without waiting for the close a loop iteration later.
            transport.write_eof()
            transport.close()
        else:
            self._next()

    def _reject(self, status: int, payload: dict) -> None:
        """Answer ``status``, send FIN, discard input until EOF or
        :data:`_LINGER_S`, then close: closing with unread input (a shed
        connection's request, an over-long head, a body over the limit)
        makes the kernel send an RST that can destroy the reply."""
        transport = self._transport
        transport.write(_response(status, payload, close=True))
        transport.write_eof()
        self._buffer.clear()
        self._rejected = True
        asyncio.get_running_loop().call_later(_LINGER_S, transport.close)


class SynthesisServer:
    """The resident HTTP front-end.  Owns connections, not the pool."""

    def __init__(
        self,
        service: SynthesisService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        rate_limiter: RateLimiter | None = None,
        max_connections: int = 512,
        registry: SiblingRegistry | None = None,
        proc_index: int = 0,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._limiter = (
            rate_limiter if rate_limiter is not None else RateLimiter(None)
        )
        self._max_connections = max(1, int(max_connections))
        #: Set by ``start(reuse_port=True)``: a draining worker then
        #: leaves the listener group so siblings take its connections.
        self._close_listener_on_drain = False
        self._registry = registry
        self._proc_index = proc_index
        self._server: asyncio.AbstractServer | None = None
        self._admin_server: asyncio.AbstractServer | None = None
        self._address: tuple[str, int] | None = None
        self._admin_address: tuple[str, int] | None = None
        self._draining = False
        self._active = 0
        #: Open connections' transports, force-closed at shutdown.
        self._transports: set[asyncio.BaseTransport] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, *, reuse_port: bool = False) -> None:
        """Bind and start accepting connections.

        ``reuse_port`` joins an ``SO_REUSEPORT`` listener group — the
        multi-process mode, where sibling workers bind the same port
        and the kernel load-balances accepted connections.
        """
        kwargs = {"reuse_port": True} if reuse_port else {}
        self._close_listener_on_drain = reuse_port
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self._host, self._port, **kwargs
        )
        sock = self._server.sockets[0].getsockname()
        self._address = (sock[0], sock[1])

    async def start_admin(self, host: str = "127.0.0.1") -> tuple[str, int]:
        """Start the private admin listener (ephemeral loopback port).

        Serves the same routes as the public listener; siblings scrape
        ``/metrics`` here because the shared reuseport port cannot
        target a *specific* process.  Stays up through drain so a
        dying worker's counters remain scrapable until exit.
        """
        self._admin_server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host, 0
        )
        sock = self._admin_server.sockets[0].getsockname()
        self._admin_address = (sock[0], sock[1])
        return self._admin_address

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (actual port when 0 was asked)."""
        if self._address is None:
            raise RuntimeError("server is not started")
        return self._address

    @property
    def admin_address(self) -> tuple[str, int] | None:
        return self._admin_address

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def active_connections(self) -> int:
        return self._service.metrics.connections_active

    def begin_drain(self) -> None:
        """Stop admitting synthesis work; metrics/health stay up.

        A server started with ``reuse_port`` closes its public
        listener now, so new connections go to its siblings instead of
        being answered 503.  The admin listener always stays up.
        """
        self._draining = True
        if self._close_listener_on_drain and self._server is not None:
            self._server.close()

    async def shutdown(self, *, drain_timeout: float = 30.0) -> None:
        """Graceful stop: drain in-flight work, then close the listener.

        Idempotent.  The scheduler pool and store are owned by the
        caller (CLI/tests) and are shut down there, after this returns.
        """
        self.begin_drain()
        deadline = asyncio.get_running_loop().time() + drain_timeout
        while self._active > 0:
            if asyncio.get_running_loop().time() >= deadline:
                break
            await asyncio.sleep(0.02)
        await asyncio.to_thread(
            self._service.scheduler.drain,
            max(0.1, deadline - asyncio.get_running_loop().time()),
        )
        for server in (self._server, self._admin_server):
            if server is not None:
                server.close()
        # Idle keep-alive connections would otherwise hold wait_closed
        # open forever; in-flight work is already drained, so force
        # the stragglers shut.
        for transport in list(self._transports):
            transport.close()
        for server in (self._server, self._admin_server):
            if server is not None:
                await server.wait_closed()

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Run until ``stop`` is set, then drain gracefully."""
        if self._server is None:
            await self.start()
        await stop.wait()
        await self.shutdown()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _snapshot(self) -> dict:
        return self._service.metrics_snapshot(
            extra={"ratelimit": self._limiter.stats()}
        )

    async def _route(
        self,
        method: str,
        path: str,
        headers: dict[str, str],
        body: bytes,
        peer: str,
    ) -> tuple[int, dict, dict]:
        path = path.split("?", 1)[0]
        if path == "/synthesize":
            if method != "POST":
                return 405, {"error": "POST required"}, {}
            return await self._route_synthesize(headers, body, peer)
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "GET required"}, {}
            return 200, self._snapshot(), {}
        if path == "/metrics/all":
            if method != "GET":
                return 405, {"error": "GET required"}, {}
            aggregate = await aggregate_snapshots(
                self._registry, self._proc_index, self._snapshot()
            )
            return 200, aggregate, {}
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "GET required"}, {}
            status = "draining" if self._draining else "ok"
            return 200, {"status": status}, {}
        return 404, {"error": f"no route {path!r}"}, {}

    async def _route_synthesize(
        self, headers: dict[str, str], body: bytes, peer: str
    ) -> tuple[int, dict, dict]:
        metrics = self._service.metrics
        if self._draining:
            metrics.draining_rejected += 1
            return (
                503,
                {"error": "draining", "status": "draining"},
                {_CLOSE: True},
            )
        client = headers.get("x-client", peer) or peer
        if not self._limiter.allow(client):
            metrics.rate_limited += 1
            retry = max(0.05, self._limiter.retry_after(client))
            return (
                429,
                {"error": "rate limited", "status": "rate_limited"},
                {"Retry-After": f"{retry:.3f}"},
            )
        try:
            payload = json.loads(body.decode("utf-8") or "null")
            request = SynthesisRequest.from_payload(
                payload, client=client
            )
        except (ValueError, UnicodeDecodeError) as exc:
            metrics.bad_requests += 1
            return 400, {"error": str(exc), "status": "bad_request"}, {}
        self._active += 1
        try:
            response = await self._service.synthesize(request)
        finally:
            self._active -= 1
        status = STATUS_HTTP.get(response.status, 500)
        return status, response.to_payload(), {}

"""Minimal asyncio HTTP/1.1 front-end for the synthesis service.

No third-party web framework is available in the target environment,
so this is a deliberately small hand-rolled HTTP/1.1 server over
``asyncio.start_server`` streams: request-line + headers + sized body
in, JSON + ``Content-Length`` out, keep-alive by default.  It serves
four routes:

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
fast shedding, no queueing).

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

_MAX_HEADER_LINE = 16 * 1024
_MAX_BODY = 1024 * 1024

#: Internal marker a route puts in its ``extra`` dict to force
#: ``Connection: close`` on the response; popped before headers render.
_CLOSE = "__close__"


class _BadRequest(Exception):
    """Unparseable HTTP — the connection is answered 400 and closed."""


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
        self._writers: set[asyncio.StreamWriter] = set()

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
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=_MAX_HEADER_LINE,
            **kwargs,
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
        self._admin_server = await asyncio.start_server(
            self._handle_connection,
            host,
            0,
            limit=_MAX_HEADER_LINE,
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
        for writer in list(self._writers):
            writer.close()
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
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        metrics = self._service.metrics
        if metrics.connections_active >= self._max_connections:
            # Fast shed: one 503, no accounting, socket closed.  The
            # cap bounds event-loop memory no matter how hard clients
            # push — the scheduler backlog shed never sees these.
            # The client's request bytes are deliberately never read,
            # so close with a short linger (FIN, then drain to EOF)
            # or the kernel answers the unread data with an RST that
            # can destroy the in-flight 503.
            metrics.connections_shed += 1
            try:
                await self._respond(
                    writer,
                    503,
                    {"error": "overloaded", "status": "overloaded"},
                    close=True,
                )
                writer.write_eof()
                async def _drain_to_eof():
                    while await reader.read(_MAX_HEADER_LINE):
                        pass
                await asyncio.wait_for(_drain_to_eof(), 1.0)
            except (
                ConnectionError,
                OSError,
                RuntimeError,
                asyncio.TimeoutError,
            ):
                pass
            finally:
                await self._close_writer(writer)
            return
        peername = writer.get_extra_info("peername")
        peer = peername[0] if peername else "unknown"
        metrics.connection_opened()
        self._writers.add(writer)
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except _BadRequest as exc:
                    await self._respond(
                        writer, 400, {"error": str(exc)}, close=True
                    )
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                status, payload, extra = await self._route(
                    method, path, headers, body, peer
                )
                close = (
                    not keep_alive
                    or status in (400, 413)
                    or bool(extra.pop(_CLOSE, False))
                )
                await self._respond(
                    writer, status, payload, close=close, extra=extra
                )
                if close:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass
        finally:
            self._writers.discard(writer)
            metrics.connection_closed()
            await self._close_writer(writer)

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """One HTTP/1.1 request, or None on a clean EOF between requests."""
        line = await reader.readline()
        if not line:
            return None
        try:
            method, path, version = (
                line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise _BadRequest("malformed request line") from None
        if not version.startswith("HTTP/1."):
            raise _BadRequest(f"unsupported protocol {version!r}")
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if not raw:
                raise _BadRequest("connection closed inside headers")
            decoded = raw.decode("latin-1").strip()
            if not decoded:
                break
            name, _, value = decoded.partition(":")
            headers[name.strip().lower()] = value.strip()
        length_header = headers.get("content-length", "0")
        try:
            length = int(length_header)
        except ValueError:
            raise _BadRequest("bad Content-Length") from None
        if length < 0 or length > _MAX_BODY:
            raise _BadRequest("body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

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

    # ------------------------------------------------------------------
    # response writing
    # ------------------------------------------------------------------
    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        close: bool,
        extra: dict | None = None,
    ) -> None:
        extra = dict(extra) if extra else {}
        extra.pop(_CLOSE, None)
        body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in extra.items():
            head.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()

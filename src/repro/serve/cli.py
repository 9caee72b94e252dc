"""``repro-serve``: the resident synthesis server.

Boots the whole serving stack — chain store, persistent scheduler
pool, NPN-coalescing service, HTTP front-end — and runs until SIGTERM
or SIGINT, then drains gracefully (in-flight requests finish, the
pool empties, the listener closes) before exiting 0::

    repro-serve --port 8945 --store chains.db --jobs 4
    repro-serve --port 0 --rate 200 --burst 400
    repro-serve --port 0 --procs 4 --store chains.db

``--port 0`` binds an ephemeral port; the actual address is printed as
``listening on HOST:PORT`` on stdout (and flushed) so harnesses can
parse it.

``--procs N`` forks N serving processes sharing the port via
``SO_REUSEPORT`` (the kernel load-balances connections), each with
its own event loop and scheduler pool but all sharing one chain store
(SQLite WAL handles the multi-process readers).  One banner is
printed, by the parent, once every worker is listening; SIGTERM to
the parent drains the whole group.  ``GET /metrics/all`` on the
shared port answers with every worker's counters merged.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import shutil
import signal
import sys
import tempfile
from typing import Sequence

from ..parallel.scheduler import BatchScheduler
from ..engine import engine_names
from ..runtime.executor import DEFAULT_FALLBACK_CHAIN
from .multiproc import SiblingRegistry, reserve_port, supervise
from .ratelimit import RateLimiter
from .server import SynthesisServer
from .service import SynthesisService

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Long-lived exact-synthesis HTTP server with NPN "
        "request coalescing over a persistent worker pool.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8945,
        help="TCP port (0 = ephemeral; the bound port is printed)",
    )
    parser.add_argument(
        "--procs",
        type=int,
        default=1,
        help="serving processes sharing the port via SO_REUSEPORT "
        "(default: 1, no forking)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="resident dispatcher threads per process (default: 2)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="persistent chain-store path (SQLite); omit for a "
        "store-less server (no warm hits, no degradation)",
    )
    parser.add_argument(
        "--engine",
        choices=engine_names(),
        default=None,
        help="primary engine (prepended to the default fallback chain)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=20.0,
        help="default per-request synthesis budget, seconds",
    )
    parser.add_argument(
        "--max-timeout",
        type=float,
        default=120.0,
        help="hard cap on caller-requested budgets, seconds",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="per-client sustained requests/sec (default: unlimited)",
    )
    parser.add_argument(
        "--burst",
        type=float,
        default=None,
        help="per-client burst size (default: 2x rate)",
    )
    parser.add_argument(
        "--max-backlog",
        type=int,
        default=256,
        help="shed new engine work past this scheduler backlog",
    )
    parser.add_argument(
        "--max-connections",
        type=int,
        default=512,
        help="concurrent sockets per process; excess connections are "
        "answered 503 immediately and closed (default: 512)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for in-flight work on shutdown",
    )
    parser.add_argument(
        "--procdir",
        default=None,
        help="sibling-registry directory for --procs mode (default: "
        "a fresh temp directory)",
    )
    return parser


async def _amain(
    args: argparse.Namespace,
    *,
    proc_index: int = 0,
    reuse_port: bool = False,
    registry: SiblingRegistry | None = None,
    banner: bool = True,
) -> int:
    store = None
    if args.store:
        from ..store import ChainStore

        store = ChainStore(args.store)
    engines = tuple(DEFAULT_FALLBACK_CHAIN)
    if args.engine:
        engines = tuple(dict.fromkeys((args.engine,) + engines))
    scheduler = BatchScheduler({}, args.jobs, queue_depth=0).start()
    limiter = RateLimiter(
        args.rate,
        args.burst
        if args.burst is not None
        else (2.0 * args.rate if args.rate else 1.0),
    )
    service = SynthesisService(
        scheduler,
        store=store,
        engines=engines,
        default_timeout=args.timeout,
        max_timeout=args.max_timeout,
        max_backlog=args.max_backlog,
    )
    server = SynthesisServer(
        service,
        host=args.host,
        port=args.port,
        rate_limiter=limiter,
        max_connections=args.max_connections,
        registry=registry,
        proc_index=proc_index,
    )
    await server.start(reuse_port=reuse_port)
    if registry is not None:
        # The admin listener (private loopback port) lets siblings
        # scrape this worker's /metrics for the /metrics/all merge;
        # registering only after the public listener is up means a
        # registry entry implies "accepting traffic" — the parent
        # waits on that to print the banner.
        admin_host, admin_port = await server.start_admin()
        registry.register(proc_index, admin_host, admin_port)
    host, port = server.address
    if banner:
        print(f"listening on {host}:{port}", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            pass
    try:
        await stop.wait()
        print("draining", file=sys.stderr, flush=True)
        await server.shutdown(drain_timeout=args.drain_timeout)
    finally:
        if registry is not None:
            registry.unregister(proc_index)
        scheduler.shutdown(cancel_queued=True)
        if store is not None:
            store.close()
    print("stopped", file=sys.stderr, flush=True)
    return 0


def _main_multiproc(args: argparse.Namespace) -> int:
    """Fork ``--procs`` reuseport workers and supervise them."""
    if not hasattr(os, "fork"):  # pragma: no cover - POSIX-only repo
        print("--procs needs os.fork (POSIX)", file=sys.stderr)
        return 2
    placeholder, port = reserve_port(args.host, args.port)
    args.port = port
    procdir = args.procdir or tempfile.mkdtemp(prefix="repro-serve-")
    made_procdir = args.procdir is None
    registry = SiblingRegistry(procdir)

    def child(index: int) -> int:
        placeholder.close()
        return asyncio.run(
            _amain(
                args,
                proc_index=index,
                reuse_port=True,
                registry=registry,
                banner=False,
            )
        )

    def wait_ready_and_announce() -> None:
        import time as _time

        deadline = _time.monotonic() + 30.0
        while _time.monotonic() < deadline:
            if len(registry.entries()) >= args.procs:
                break
            _time.sleep(0.05)
        print(f"listening on {args.host}:{port}", flush=True)

    try:
        return supervise(
            args.procs, child, after_fork=wait_ready_and_announce
        )
    finally:
        placeholder.close()
        if made_procdir:
            shutil.rmtree(procdir, ignore_errors=True)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.procs > 1:
        return _main_multiproc(args)
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The serve-warm program process, built from the public constructors:
``ChainStore`` -> ``BatchScheduler(jobs)`` -> ``SynthesisService`` ->
``SynthesisServer``.

    python3 perfbench/server.py --store PATH [--trace SPANS.jsonl --report OUT.json]

Prints ``listening on HOST:PORT`` once it accepts connections.  SIGTERM
drains it; with ``--trace`` the layer wrappers are installed first and
the per-layer metrics are written to ``--report`` on the way out.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time

import layers

JOBS = 2
#: Per-request synthesis budget for cold misses.
TIMEOUT_S = 20.0


async def serve(args) -> None:
    from repro.parallel.scheduler import BatchScheduler
    from repro.serve.ratelimit import RateLimiter
    from repro.serve.server import SynthesisServer
    from repro.serve.service import SynthesisService
    from repro.store import ChainStore

    probe = layers.Probe({"kind": "serve", "trace": args.trace})
    scheduler_cls = BatchScheduler
    if probe.tracer is not None:
        scheduler_cls = layers.observed_scheduler(BatchScheduler, probe.queue)
    store = ChainStore(args.store)
    scheduler = scheduler_cls({}, JOBS, queue_depth=0).start()
    service = SynthesisService(scheduler, store=store, default_timeout=TIMEOUT_S)
    server = SynthesisServer(service, port=0, rate_limiter=RateLimiter(None))
    await server.start()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    probe.start()
    started = time.perf_counter()
    host, port = server.address
    print(f"listening on {host}:{port}", flush=True)
    try:
        await stop.wait()
    finally:
        await server.shutdown(drain_timeout=30.0)
        scheduler.shutdown(cancel_queued=True)
        probe.finish(time.perf_counter() - started)
        store.close()
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(probe.report(), handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--report", default=None)
    asyncio.run(serve(parser.parse_args(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

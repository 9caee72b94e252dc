"""Async load benchmark for the ``repro-serve`` synthesis server.

Spawns a real ``repro-serve --procs N`` process group (store →
persistent scheduler pool → NPN-coalescing service → HTTP front-end,
SO_REUSEPORT workers when ``N > 1``) and loads it over TCP.  It
pre-warms the chain store by requesting every NPN class representative
once, then fires ``--requests`` concurrent requests whose *classes*
follow a Zipf distribution — a few hot classes dominate, exactly the
skew that makes coalescing and the warm store earn their keep.  Each
request is a random orbit member of its class (random input
permutation/negations + output negation), so warm hits still exercise
the store's inverse-NPN rewrite::

    python benchmarks/bench_serving.py --requests 1000 \
        --json BENCH_serving.json
    python benchmarks/bench_serving.py --requests 1000 --procs 2 \
        --max-p99-ms 2000 --json BENCH_serving_procs2.json

The server runs in its own processes, so the load generator and its
re-verification never queue behind it on one event loop.  The group's
merged counters come from ``/metrics/all``, and the bench requires a
clean exit-0 SIGTERM drain at the end.

The load can carry per-request deadlines (``--deadline-ms`` on a
``--deadline-fraction`` slice) — a 504 on a deadline'd request counts
as *deadline-expired*, not a failure (that is the contract working,
not breaking).

Every response body is **independently re-verified** here with the
packed AllSAT verifier — the bench gates on zero incorrect chains,
zero failed requests, a strictly positive coalesce ratio, and
optionally a minimum warm-store hit ratio (``--min-hit-ratio``) and a
maximum overall p99 (``--max-p99-ms``), both used by CI.
"""

import argparse
import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import time

from repro.core.circuit_sat import verify_chain
from repro.store.serialize import chain_from_record
from repro.truthtable.npn import NPNTransform, npn_classes


def _percentile(values, fraction):
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(
        len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1)))
    )
    return ordered[index]


def _zipf_weights(count, skew):
    return [1.0 / (rank**skew) for rank in range(1, count + 1)]


def _random_orbit_member(rng, table):
    """A uniformly-random-ish member of ``table``'s NPN orbit."""
    n = table.num_vars
    perm = list(range(n))
    rng.shuffle(perm)
    transform = NPNTransform(
        tuple(perm), rng.randrange(1 << n), bool(rng.randrange(2))
    )
    return transform.apply(table)


async def _post_json(host, port, path, payload, timeout):
    """One HTTP POST on its own connection; returns (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps(payload).encode()
        writer.write(
            (
                f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            + body
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, payload_bytes = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(payload_bytes)


async def _get_json(host, port, path, timeout=30.0):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return json.loads(raw.partition(b"\r\n\r\n")[2])


async def _load(args, host, port):
    """Warm the store, fire the Zipf load, scrape server counters."""
    rng = random.Random(args.seed)
    reps = npn_classes(args.vars)

    warm_count = max(1, int(round(len(reps) * args.warm_fraction)))
    warm_started = time.perf_counter()
    for rep in reps[:warm_count]:
        status, body = await _post_json(
            host,
            port,
            "/synthesize",
            {"function": rep.to_hex(), "vars": args.vars},
            args.client_timeout,
        )
        if status != 200:
            raise SystemExit(
                f"warmup failed for 0x{rep.to_hex()}: "
                f"{status} {body.get('error', '')}"
            )
    warm_seconds = time.perf_counter() - warm_started
    print(
        f"warmed {warm_count}/{len(reps)} classes "
        f"in {warm_seconds:.2f}s"
    )

    # The load population: Zipf-skewed class choice, random orbit
    # member per request, deadlines on a slice of the stream.
    weights = _zipf_weights(len(reps), args.skew)
    picks = rng.choices(range(len(reps)), weights, k=args.requests)
    population = []
    for index in picks:
        table = _random_orbit_member(rng, reps[index])
        deadline = (
            args.deadline_ms
            if args.deadline_ms > 0
            and rng.random() < args.deadline_fraction
            else None
        )
        population.append((table, deadline))

    gate = asyncio.Semaphore(args.concurrency)
    latencies = []
    failures = []
    bad_chains = []
    statuses = {}
    expired = [0]

    async def one(table, deadline):
        payload = {
            "function": table.to_hex(),
            "vars": args.vars,
            "max_chains": 1,
        }
        if deadline is not None:
            payload["deadline_ms"] = deadline
        async with gate:
            started = time.perf_counter()
            try:
                status, body = await _post_json(
                    host,
                    port,
                    "/synthesize",
                    payload,
                    args.client_timeout,
                )
            except Exception as exc:
                failures.append(f"{table.to_hex()}: {exc!r}")
                return
            elapsed = time.perf_counter() - started
            latencies.append(elapsed)
        statuses[status] = statuses.get(status, 0) + 1
        if (
            deadline is not None
            and status == 504
            and body.get("status") == "expired"
        ):
            # The deadline contract working as specified, not a
            # failure: the server refused to burn a worker on an
            # answer the client had already given up on.
            expired[0] += 1
            return
        if status not in (200, 203):
            failures.append(
                f"{table.to_hex()}: HTTP {status} "
                f"{body.get('error', '')}"
            )
            return
        if not body.get("chains"):
            failures.append(f"{table.to_hex()}: empty chain set")
            return
        chain = chain_from_record(body["chains"][0])
        if not verify_chain(chain, table):
            bad_chains.append(table.to_hex())

    load_started = time.perf_counter()
    await asyncio.gather(*(one(*entry) for entry in population))
    load_seconds = time.perf_counter() - load_started

    aggregate = await _get_json(host, port, "/metrics/all")
    metrics = aggregate["merged"]
    metrics["per_proc_count"] = aggregate["procs"]

    serving = metrics.get("serving", {})
    return {
        "bench": "serving",
        "vars": args.vars,
        "classes": len(reps),
        "warmed_classes": warm_count,
        "requests": args.requests,
        "concurrency": args.concurrency,
        "procs": args.procs,
        "zipf_skew": args.skew,
        "deadline_ms": args.deadline_ms,
        "deadline_fraction": args.deadline_fraction,
        "seed": args.seed,
        "warmup_seconds": round(warm_seconds, 3),
        "load_seconds": round(load_seconds, 3),
        "throughput_rps": round(args.requests / load_seconds, 2),
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50) * 1000, 3),
            "p90": round(_percentile(latencies, 0.90) * 1000, 3),
            "p99": round(_percentile(latencies, 0.99) * 1000, 3),
        },
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
        "deadline_expired": expired[0],
        "failed_requests": len(failures),
        "failure_samples": failures[:10],
        "incorrect_chains": len(bad_chains),
        "coalesce_ratio": serving.get("coalesce_ratio", 0.0),
        "hit_ratio": serving.get("hit_ratio", 0.0),
        "server_metrics": metrics,
    }


async def _drive_subprocess(args):
    """Load a real ``repro-serve --procs N`` group over TCP."""
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src",
    )
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve.cli",
            "--port",
            "0",
            "--procs",
            str(args.procs),
            "--jobs",
            str(args.jobs),
            "--store",
            args.store,
            "--timeout",
            str(args.timeout),
            "--max-connections",
            str(max(args.concurrency * 2, 512)),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline().strip()
        if not banner.startswith("listening on "):
            raise SystemExit(f"bad server banner: {banner!r}")
        host, port = banner.rsplit(" ", 1)[1].rsplit(":", 1)
        print(f"serving on {host}:{port} ({args.procs} processes)")
        report = await _load(args, host, int(port))
    except BaseException:
        proc.kill()
        proc.wait(timeout=10)
        raise
    proc.send_signal(signal.SIGTERM)
    rc = proc.wait(timeout=120)
    report["server_exit_code"] = rc
    if rc != 0:
        report["failed_requests"] += 1
        report["failure_samples"].append(
            f"server group exited {rc} on SIGTERM"
        )
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Zipf-skewed async load benchmark for repro-serve"
    )
    parser.add_argument("--requests", type=int, default=1000)
    parser.add_argument(
        "--concurrency",
        type=int,
        default=1000,
        help="concurrent in-flight requests (socket cap)",
    )
    parser.add_argument("--vars", type=int, default=3)
    parser.add_argument(
        "--skew", type=float, default=1.1, help="Zipf exponent"
    )
    parser.add_argument(
        "--warm-fraction",
        type=float,
        default=0.5,
        help="fraction of classes (hottest first) pre-warmed into "
        "the store; the cold tail exercises coalescing",
    )
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--procs",
        type=int,
        default=1,
        help="size of the 'repro-serve --procs N' group loaded over "
        "TCP (N >= 1)",
    )
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument(
        "--client-timeout", type=float, default=120.0
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=0.0,
        help="deadline budget carried by a slice of requests "
        "(0 = no deadlines)",
    )
    parser.add_argument(
        "--deadline-fraction",
        type=float,
        default=0.25,
        help="fraction of requests carrying --deadline-ms",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="chain-store path (default: a fresh temp file per run)",
    )
    parser.add_argument("--json", default="BENCH_serving.json")
    parser.add_argument(
        "--min-hit-ratio",
        type=float,
        default=0.0,
        help="gate: minimum warm-store hit ratio over the load run",
    )
    parser.add_argument(
        "--max-p99-ms",
        type=float,
        default=0.0,
        help="gate: maximum client-side p99 latency (0 = no gate)",
    )
    args = parser.parse_args(argv)
    if args.procs < 1:
        parser.error("--procs must be >= 1")

    cleanup = None
    if args.store is None:
        import shutil
        import tempfile

        tempdir = tempfile.mkdtemp(prefix="bench_serving_")
        args.store = f"{tempdir}/chains.db"
        cleanup = lambda: shutil.rmtree(tempdir, ignore_errors=True)  # noqa: E731
    try:
        report = asyncio.run(_drive_subprocess(args))
    finally:
        if cleanup is not None:
            cleanup()
    with open(args.json, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(
        f"{report['requests']} requests in {report['load_seconds']}s "
        f"({report['throughput_rps']} req/s), "
        f"p50={report['latency_ms']['p50']}ms "
        f"p99={report['latency_ms']['p99']}ms, "
        f"coalesce={report['coalesce_ratio']} "
        f"hits={report['hit_ratio']} "
        f"expired={report['deadline_expired']}"
    )
    print(f"wrote {args.json}")

    failed = []
    if report["failed_requests"]:
        failed.append(
            f"{report['failed_requests']} failed requests "
            f"(samples: {report['failure_samples']})"
        )
    if report["incorrect_chains"]:
        failed.append(
            f"{report['incorrect_chains']} responses failed "
            "independent verification"
        )
    if report["coalesce_ratio"] <= 0.0 and report["hit_ratio"] < 1.0:
        failed.append("coalesce ratio is zero on a skewed load")
    if report["hit_ratio"] < args.min_hit_ratio:
        failed.append(
            f"hit ratio {report['hit_ratio']} below gate "
            f"{args.min_hit_ratio}"
        )
    if (
        args.max_p99_ms > 0
        and report["latency_ms"]["p99"] > args.max_p99_ms
    ):
        failed.append(
            f"p99 {report['latency_ms']['p99']}ms above gate "
            f"{args.max_p99_ms}ms"
        )
    if failed:
        for line in failed:
            print(f"GATE FAILED: {line}", file=sys.stderr)
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

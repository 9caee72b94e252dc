"""Tests for the synthesis-as-a-service layer (:mod:`repro.serve`).

Covers the ISSUE-mandated serving behaviours end to end:

* request parsing and validation;
* token-bucket rate limiting (unit level and HTTP 429);
* **coalescing correctness** — K concurrent requests for distinct
  orbit members of one NPN class cost exactly one engine run, and
  every caller still receives a chain realizing *its own* function;
* the degraded path — every exact lane faulted via a wildcard crash
  plan, a pre-seeded upper-bound store row served with
  ``exact: false`` and HTTP 203 (distinct from hard failures);
* graceful drain — in-flight requests finish, new synthesis work is
  rejected 503, and a real ``repro-serve`` process exits 0 on
  SIGTERM.

No pytest-asyncio in the environment, so async scenarios run under
``asyncio.run`` inside plain test functions.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys

import pytest

import repro
from repro.core.spec import SynthesisResult
from repro.engine import run_engine
from repro.parallel.scheduler import BatchScheduler
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.serve.metrics import LatencyWindow, ServingMetrics
from repro.serve.ratelimit import RateLimiter, TokenBucket
from repro.serve.server import STATUS_HTTP, SynthesisServer
from repro.serve.service import SynthesisRequest, SynthesisService
from repro.store import ChainStore
from repro.store.serialize import chain_from_record, chain_to_record
from repro.truthtable import from_hex
from repro.truthtable.npn import NPNTransform

from .helpers import assert_chain_realizes

# Four orbit members of 0xe8's NPN class (majority-of-3): input
# permutations/negations and an output negation of one function.
_CLASS_REP = from_hex("e8", 3)
_ORBIT = [
    _CLASS_REP,
    NPNTransform((1, 2, 0), 0b010, False).apply(_CLASS_REP),
    NPNTransform((2, 0, 1), 0b101, True).apply(_CLASS_REP),
    NPNTransform((0, 2, 1), 0b111, True).apply(_CLASS_REP),
]


def _service_stack(
    *,
    jobs=2,
    engines=("fen",),
    fault_plan=None,
    store=None,
    **kwargs,
):
    """A started scheduler + service; caller must shut the pool down."""
    scheduler = BatchScheduler({}, jobs, queue_depth=0).start()
    service = SynthesisService(
        scheduler,
        store=store,
        engines=engines,
        fault_plan=fault_plan,
        default_timeout=30.0,
        **kwargs,
    )
    return scheduler, service


async def _post(host, port, path, payload, headers=None):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps(payload).encode()
        head = (
            f"POST {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n"
        )
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        writer.write(head.encode() + b"\r\n" + body)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), 60.0)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body), head


async def _get(host, port, path):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: t\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), 30.0)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return int(raw.split(b" ", 2)[1]), json.loads(
        raw.partition(b"\r\n\r\n")[2]
    )


class TestRequestParsing:
    def test_single_output_roundtrip(self):
        request = SynthesisRequest.from_payload(
            {"function": "e8", "vars": 3, "timeout": 5, "max_chains": 2}
        )
        assert request.function == from_hex("e8", 3)
        assert request.timeout == 5.0
        assert request.max_chains == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"vars": 3},
            {"function": "e8"},
            {"function": "zz", "vars": 3},
            {"function": "e8", "vars": 0},
            {"function": "e8", "vars": 99},
            {"function": "e8", "vars": 3, "timeout": -1},
            {"function": "e8", "vars": 3, "timeout": "fast"},
            {"function": "e8", "vars": 3, "max_chains": 0},
            {"functions": [], "vars": 3},
            {"functions": "e8", "vars": 3},
            {"functions": [5], "vars": 3},
            {"function": "e8", "vars": True},
            "not an object",
            # json.loads parses NaN and +/-Infinity; none is a budget.
            {"function": "e8", "vars": 3, "timeout": float("nan")},
            {"function": "e8", "vars": 3, "timeout": float("inf")},
            {"function": "e8", "vars": 3, "timeout": float("-inf")},
            {"function": "e8", "vars": 3, "deadline_ms": float("nan")},
            {"function": "e8", "vars": 3, "deadline_ms": float("inf")},
            {"function": "e8", "vars": 3, "deadline_ms": float("-inf")},
            # A vector body is refused, not served from its first table.
            {"functions": ["e8"], "vars": 3},
            {"functions": ["e8", "96"], "vars": 3},
        ],
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(ValueError):
            SynthesisRequest.from_payload(payload)


class TestRateLimiting:
    def test_token_bucket_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2.0, now=clock[0])
        assert bucket.allow(clock[0])
        assert bucket.allow(clock[0])
        assert not bucket.allow(clock[0])
        assert bucket.retry_after(clock[0]) == pytest.approx(1.0)
        clock[0] = 1.5
        assert bucket.allow(clock[0])
        assert not bucket.allow(clock[0])

    def test_limiter_tracks_clients_independently(self):
        clock = [0.0]
        limiter = RateLimiter(1.0, 1.0, clock=lambda: clock[0])
        assert limiter.allow("a")
        assert not limiter.allow("a")
        assert limiter.allow("b")
        clock[0] += 2.0
        assert limiter.allow("a")

    def test_disabled_limiter_always_allows(self):
        limiter = RateLimiter(None)
        assert all(limiter.allow("x") for _ in range(1000))

    def test_reap_bounds_client_table(self):
        clock = [0.0]
        limiter = RateLimiter(
            10.0, 5.0, max_clients=4, clock=lambda: clock[0]
        )
        for index in range(4):
            assert limiter.allow(f"c{index}")
        clock[0] += 10.0  # every bucket is full again -> reapable
        assert limiter.allow("fresh")
        assert len(limiter._buckets) <= 4


class TestServingMetrics:
    def test_latency_percentiles(self):
        window = LatencyWindow(maxlen=100)
        for ms in range(1, 101):
            window.observe(ms / 1000.0)
        assert window.percentile(50) == pytest.approx(0.050)
        assert window.percentile(99) == pytest.approx(0.099)
        assert window.count == 100

    def test_coalesce_and_hit_ratio(self):
        metrics = ServingMetrics()
        metrics.requests = 10
        metrics.coalesced = 4
        metrics.store_hits = 3
        record = metrics.to_record(queue_depth=2, inflight_classes=1)
        assert record["coalesce_ratio"] == pytest.approx(0.4)
        assert record["hit_ratio"] == pytest.approx(0.3)
        assert record["queue_depth"] == 2
        assert record["inflight_classes"] == 1


class TestCoalescing:
    def test_concurrent_orbit_requests_cost_one_engine_run(self):
        """K concurrent same-class requests -> 1 synthesis, K correct
        per-caller chains (each through its own inverse transform)."""
        scheduler, service = _service_stack(engines=("fen",))
        members = [_ORBIT[i % len(_ORBIT)] for i in range(8)]

        async def drive():
            return await asyncio.gather(
                *(
                    service.synthesize(
                        SynthesisRequest(function=member)
                    )
                    for member in members
                )
            )

        try:
            responses = asyncio.run(drive())
        finally:
            scheduler.shutdown(cancel_queued=True)

        assert service.metrics.engine_runs == 1
        assert service.metrics.coalesced == len(members) - 1
        assert sum(1 for r in responses if r.coalesced) == len(members) - 1
        for member, response in zip(members, responses):
            assert response.status == "ok"
            assert response.exact is True
            assert response.chains
            assert_chain_realizes(member, response.chains[0])

    def test_distinct_classes_do_not_coalesce(self):
        scheduler, service = _service_stack(engines=("fen",))
        tables = [from_hex("e8", 3), from_hex("16", 3)]

        async def drive():
            return await asyncio.gather(
                *(
                    service.synthesize(SynthesisRequest(function=t))
                    for t in tables
                )
            )

        try:
            responses = asyncio.run(drive())
        finally:
            scheduler.shutdown(cancel_queued=True)
        assert service.metrics.engine_runs == 2
        assert service.metrics.coalesced == 0
        for table, response in zip(tables, responses):
            assert response.status == "ok"
            assert_chain_realizes(table, response.chains[0])

    def test_warm_store_hit_skips_the_pool(self, tmp_path):
        store = ChainStore(str(tmp_path / "chains.db"))
        result = run_engine("fen", _CLASS_REP, 30.0)
        store.put(_CLASS_REP, result, engine="fen")
        scheduler, service = _service_stack(store=store)
        member = _ORBIT[2]

        async def drive():
            return await service.synthesize(
                SynthesisRequest(function=member)
            )

        try:
            response = asyncio.run(drive())
        finally:
            scheduler.shutdown(cancel_queued=True)
            store.close()
        assert response.status == "ok"
        assert response.source == "store"
        assert service.metrics.store_hits == 1
        assert service.metrics.engine_runs == 0
        assert_chain_realizes(member, response.chains[0])

    def test_failing_store_lookup_is_counted_and_falls_through(
        self, tmp_path
    ):
        """A store whose lookup raises costs the warm hit, not the
        answer: the engine path serves the request and /metrics
        counts the error."""
        store = ChainStore(str(tmp_path / "chains.db"))

        def broken_lookup(function):
            raise OSError("disk I/O error")

        store.lookup = broken_lookup
        scheduler, service = _service_stack(store=store)
        member = _ORBIT[1]

        async def drive():
            return await service.synthesize(
                SynthesisRequest(function=member)
            )

        try:
            response = asyncio.run(drive())
            snapshot = service.metrics_snapshot()
        finally:
            scheduler.shutdown(cancel_queued=True)
            store.close()
        assert response.status == "ok"
        assert response.source == "engine"
        assert service.metrics.store_hits == 0
        assert service.metrics.engine_runs == 1
        assert snapshot["serving"]["store_errors"] == 1
        assert_chain_realizes(member, response.chains[0])

    def test_failing_store_read_is_an_error_not_a_miss(self, tmp_path):
        """A database error inside the store's own read (its table
        dropped) counts as a store error, the engine path answers, and
        /metrics still answers: ``serving.store_errors`` counts the
        error and the unreadable row count reads ``None``."""
        import sqlite3

        path = str(tmp_path / "chains.db")
        store = ChainStore(path)
        conn = sqlite3.connect(path)
        conn.execute("DROP TABLE chains")
        conn.commit()
        conn.close()
        scheduler, service = _service_stack(store=store)
        member = _ORBIT[1]

        async def drive():
            return await service.synthesize(
                SynthesisRequest(function=member)
            )

        try:
            response = asyncio.run(drive())
            snapshot = service.metrics_snapshot()
        finally:
            scheduler.shutdown(cancel_queued=True)
            store.close()
        assert response.status == "ok"
        assert response.source == "engine"
        assert snapshot["serving"]["store_errors"] == 1
        assert snapshot["store"]["classes"] is None
        assert_chain_realizes(member, response.chains[0])


class TestDegradedPath:
    def _faulted_service(self, tmp_path):
        """Every exact lane crashes; the store holds an upper bound."""
        store = ChainStore(str(tmp_path / "chains.db"))
        result = run_engine("fen", _CLASS_REP, 30.0)
        assert store.put(
            _CLASS_REP, result, engine="bms", exact=False
        )
        plan = FaultPlan(
            {
                FaultPlan.WILDCARD: FaultSpec(
                    kind="crash", times=None
                )
            }
        )
        scheduler, service = _service_stack(
            engines=("stp", "fen"), fault_plan=plan, store=store
        )
        return scheduler, service, store

    def test_degraded_serves_upper_bound_not_exact(self, tmp_path):
        scheduler, service, store = self._faulted_service(tmp_path)
        member = _ORBIT[1]

        async def drive():
            return await service.synthesize(
                SynthesisRequest(function=member)
            )

        try:
            response = asyncio.run(drive())
        finally:
            scheduler.shutdown(cancel_queued=True)
            store.close()
        assert response.status == "degraded"
        assert response.exact is False
        assert response.chains
        assert_chain_realizes(member, response.chains[0])
        assert service.metrics.degraded == 1

    def test_degraded_http_status_distinct_from_failures(self, tmp_path):
        assert STATUS_HTTP["degraded"] == 203
        assert STATUS_HTTP["degraded"] not in (
            STATUS_HTTP["crash"],
            STATUS_HTTP["timeout"],
            STATUS_HTTP["unavailable"],
        )
        scheduler, service, store = self._faulted_service(tmp_path)
        server = SynthesisServer(service)

        async def drive():
            await server.start()
            host, port = server.address
            status, body, _ = await _post(
                host,
                port,
                "/synthesize",
                {"function": _ORBIT[1].to_hex(), "vars": 3},
            )
            await server.shutdown(drain_timeout=10.0)
            return status, body

        try:
            status, body = asyncio.run(drive())
        finally:
            scheduler.shutdown(cancel_queued=True)
            store.close()
        assert status == 203
        assert body["exact"] is False
        assert body["status"] == "degraded"
        chain = chain_from_record(body["chains"][0])
        assert_chain_realizes(_ORBIT[1], chain)

    def test_hard_failure_without_stored_bound(self):
        plan = FaultPlan(
            {FaultPlan.WILDCARD: FaultSpec(kind="crash", times=None)}
        )
        scheduler, service = _service_stack(
            engines=("fen",), fault_plan=plan
        )

        async def drive():
            return await service.synthesize(
                SynthesisRequest(function=_CLASS_REP)
            )

        try:
            response = asyncio.run(drive())
        finally:
            scheduler.shutdown(cancel_queued=True)
        assert response.status == "crash"
        assert not response.answered
        assert service.metrics.failures == 1


class TestResponseVerification:
    """Every chain of a response is checked against the caller's
    tables, not only the first."""

    @staticmethod
    def _corrupt(chain):
        """``chain`` with its first gate's output complemented."""
        record = chain_to_record(chain)
        record["gates"][0][0] ^= (1 << (1 << len(record["gates"][0][1]))) - 1
        return chain_from_record(record)

    @pytest.mark.parametrize("source", ["store", "engine"])
    def test_corrupt_second_chain_is_refused(
        self, source, tmp_path, monkeypatch
    ):
        import repro.serve.service as service_mod

        store = ChainStore(str(tmp_path / "chains.db"))
        scheduler, service = _service_stack(
            store=store,
            engines=("stp",),
            engine_kwargs={"stp": {"max_solutions": 8}},
        )
        member = _ORBIT[1]
        if source == "store":
            good = run_engine("stp", member, 30.0, max_solutions=8)
            assert len(good.chains) >= 2
            corrupt = good.chains[:1] + [self._corrupt(good.chains[1])]
            monkeypatch.setattr(
                store,
                "lookup",
                lambda function: SynthesisResult(
                    spec=good.spec,
                    chains=corrupt,
                    num_gates=good.num_gates,
                    runtime=0.0,
                ),
            )
        else:
            # A transform that corrupts every chain after the first.
            rewrite = service_mod.npn_transform_chain
            seen = []

            def faulty(chain, inverse):
                seen.append(chain)
                out = rewrite(chain, inverse)
                return out if len(seen) == 1 else self._corrupt(out)

            monkeypatch.setattr(service_mod, "npn_transform_chain", faulty)

        async def drive():
            return await service.synthesize(
                SynthesisRequest(function=member)
            )

        try:
            response = asyncio.run(drive())
        finally:
            scheduler.shutdown(cancel_queued=True)
            store.close()
        assert response.status == "corrupt"
        assert not response.chains
        assert service.metrics.verify_failures == 1


class TestHTTPServer:
    def test_rate_limit_429_with_retry_after(self):
        scheduler, service = _service_stack()
        limiter = RateLimiter(0.001, 2.0)
        server = SynthesisServer(service, rate_limiter=limiter)

        async def drive():
            await server.start()
            host, port = server.address
            results = []
            for _ in range(4):
                results.append(
                    await _post(
                        host,
                        port,
                        "/synthesize",
                        {"function": "e8", "vars": 3},
                        headers={"X-Client": "hammer"},
                    )
                )
            await server.shutdown(drain_timeout=10.0)
            return results

        try:
            results = asyncio.run(drive())
        finally:
            scheduler.shutdown(cancel_queued=True)
        codes = [status for status, _, _ in results]
        assert codes[:2] == [200, 200]
        assert codes[2:] == [429, 429]
        assert service.metrics.rate_limited == 2
        assert b"retry-after" in results[2][2].lower()

    def test_metrics_endpoint_merges_all_counter_families(self):
        scheduler, service = _service_stack()
        server = SynthesisServer(service)

        async def drive():
            await server.start()
            host, port = server.address
            await _post(
                host, port, "/synthesize", {"function": "e8", "vars": 3}
            )
            status, snapshot = await _get(host, port, "/metrics")
            await server.shutdown(drain_timeout=10.0)
            return status, snapshot

        try:
            status, snapshot = asyncio.run(drive())
        finally:
            scheduler.shutdown(cancel_queued=True)
        assert status == 200
        assert snapshot["serving"]["requests"] == 1
        assert snapshot["serving"]["latency_ms"]["p50"] >= 0
        assert "kernels" in snapshot
        assert "synthesis" in snapshot  # aggregated engine-run stats
        assert "scheduler" in snapshot
        assert snapshot["scheduler"]["jobs"] == 2

    def test_malformed_http_and_unknown_routes(self):
        scheduler, service = _service_stack()
        server = SynthesisServer(service)

        async def drive():
            await server.start()
            host, port = server.address
            status404, _ = await _get(host, port, "/nope")
            status405, _, _ = await _post(host, port, "/metrics", {})
            status400, body, _ = await _post(
                host, port, "/synthesize", {"function": 3, "vars": 3}
            )
            await server.shutdown(drain_timeout=10.0)
            return status404, status405, status400, body

        try:
            status404, status405, status400, body = asyncio.run(drive())
        finally:
            scheduler.shutdown(cancel_queued=True)
        assert status404 == 404
        assert status405 == 405
        assert status400 == 400
        assert service.metrics.bad_requests == 1


class TestGracefulDrain:
    def test_drain_rejects_new_work_but_finishes_inflight(self):
        scheduler, service = _service_stack(engines=("fen",))
        server = SynthesisServer(service)

        async def drive():
            await server.start()
            host, port = server.address
            inflight = asyncio.ensure_future(
                _post(
                    host,
                    port,
                    "/synthesize",
                    {"function": "8ff8", "vars": 4},
                )
            )
            # Let the in-flight request reach the service before
            # flipping the drain flag.
            await asyncio.sleep(0.05)
            server.begin_drain()
            status503, body503, _ = await _post(
                host, port, "/synthesize", {"function": "e8", "vars": 3}
            )
            health_status, health = await _get(host, port, "/healthz")
            status_inflight, body_inflight, _ = await inflight
            await server.shutdown(drain_timeout=30.0)
            return (
                status503,
                body503,
                health,
                status_inflight,
                body_inflight,
            )

        try:
            (
                status503,
                body503,
                health,
                status_inflight,
                body_inflight,
            ) = asyncio.run(drive())
        finally:
            scheduler.shutdown(cancel_queued=True)
        assert status503 == 503
        assert body503["error"] == "draining"
        assert health["status"] == "draining"
        assert status_inflight == 200
        chain = chain_from_record(body_inflight["chains"][0])
        assert_chain_realizes(from_hex("8ff8", 4), chain)
        assert service.metrics.draining_rejected == 1

    def test_drain_with_accept_pause_closes_listener(self):
        """A reuseport server's drain ejects the listener: new
        connections are refused (reuseport siblings would absorb them)
        instead of being answered 503."""
        scheduler, service = _service_stack()
        server = SynthesisServer(service)

        async def drive():
            await server.start(reuse_port=True)
            host, port = server.address
            server.begin_drain()
            await asyncio.sleep(0.05)
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except ConnectionError:
                refused = True
            else:
                # Accept may race the close; either refusal or an
                # immediate EOF counts as "not serving".
                refused = (
                    await asyncio.wait_for(reader.read(), 5.0)
                ) == b""
                writer.close()
            await server.shutdown(drain_timeout=5.0)
            return refused

        try:
            refused = asyncio.run(drive())
        finally:
            scheduler.shutdown(cancel_queued=True)
        assert refused

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """A real repro-serve process exits 0 on SIGTERM."""
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve.cli",
                "--port",
                "0",
                "--jobs",
                "1",
                "--store",
                str(tmp_path / "chains.db"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline().strip()
            assert banner.startswith("listening on ")
            host, port = banner.rsplit(" ", 1)[1].rsplit(":", 1)

            async def one_request():
                status, body, _ = await _post(
                    host, int(port), "/synthesize",
                    {"function": "e8", "vars": 3},
                )
                return status

            assert asyncio.run(one_request()) == 200
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert rc == 0
        stderr = proc.stderr.read()
        assert "draining" in stderr
        assert "stopped" in stderr


class TestPriorityAndDeadlines:
    def test_priority_and_deadline_parsing(self):
        """``deadline_ms`` becomes an absolute deadline; a
        ``priority`` field is not part of the request and is ignored
        like any other unknown key."""
        request = SynthesisRequest.from_payload(
            {
                "function": "e8",
                "vars": 3,
                "priority": "high",
                "deadline_ms": 5000,
            }
        )
        assert not hasattr(request, "priority")
        assert request.expire_at is not None
        assert 0.0 < (request.remaining() or 0.0) <= 5.0
        assert not request.expired()

    @pytest.mark.parametrize(
        "payload",
        [
            {"function": "e8", "vars": 3, "deadline_ms": True},
            {"function": "e8", "vars": 3, "deadline_ms": [250]},
            {"function": "e8", "vars": 3, "deadline_ms": 0},
            {"function": "e8", "vars": 3, "deadline_ms": -5},
            {"function": "e8", "vars": 3, "deadline_ms": "soon"},
        ],
    )
    def test_bad_priority_or_deadline_rejected(self, payload):
        with pytest.raises(ValueError):
            SynthesisRequest.from_payload(payload)

    def test_expired_at_admission_is_504_without_engine_run(self):
        """A request whose deadline already lapsed never reaches the
        pool: HTTP 504, status "expired", zero engine runs."""
        assert STATUS_HTTP["expired"] == 504
        scheduler, service = _service_stack(engines=("fen",))
        server = SynthesisServer(service)

        async def drive():
            await server.start()
            host, port = server.address
            status, body, _ = await _post(
                host,
                port,
                "/synthesize",
                {"function": "e8", "vars": 3, "deadline_ms": 0.001},
            )
            await server.shutdown(drain_timeout=5.0)
            return status, body

        try:
            status, body = asyncio.run(drive())
        finally:
            scheduler.shutdown(cancel_queued=True)
        assert status == 504
        assert body["status"] == "expired"
        assert service.metrics.expired == 1
        assert service.metrics.engine_runs == 0

    def test_deadline_lapses_in_queue_never_occupies_worker(self):
        """With the single worker pinned, a queued request whose
        deadline lapses is answered expired at pop time — the engine
        never runs for it."""
        import threading
        import time

        scheduler, service = _service_stack(jobs=1, engines=("fen",))
        release = threading.Event()
        pinned = threading.Event()

        def pin():
            pinned.set()
            release.wait(10.0)

        blocker = scheduler.submit_call("pin", pin)
        assert pinned.wait(5.0)  # the worker is genuinely occupied
        request = SynthesisRequest(
            function=_CLASS_REP,
            expire_at=time.monotonic() + 0.15,
        )

        async def drive():
            task = asyncio.ensure_future(service.synthesize(request))
            await asyncio.sleep(0.4)  # deadline lapses while queued
            release.set()
            return await task

        try:
            response = asyncio.run(drive())
            blocker.result(timeout=10.0)
        finally:
            scheduler.shutdown(cancel_queued=True)
        assert response.status == "expired"
        assert service.metrics.expired == 1
        # The job was launched (queued) but never executed: the pop
        # flagged it lapsed and the dispatcher answered in O(1).
        expired_in_queue = sum(
            stats.expired for stats in scheduler.worker_stats
        )
        assert expired_in_queue == 1

    def test_request_ids_monotone(self):
        scheduler, service = _service_stack(engines=("fen",))

        async def drive():
            responses = []
            for deadline_ms in (None, 60_000, None):
                payload = {"function": "e8", "vars": 3}
                if deadline_ms is not None:
                    payload["deadline_ms"] = deadline_ms
                responses.append(
                    await service.synthesize(
                        SynthesisRequest.from_payload(payload)
                    )
                )
            return responses

        try:
            responses = asyncio.run(drive())
        finally:
            scheduler.shutdown(cancel_queued=True)
        ids = [response.request_id for response in responses]
        assert ids == [1, 2, 3]
        assert all(response.status == "ok" for response in responses)
        assert "request_id" in responses[0].to_payload()


async def _raw_get(host, port, path):
    """GET returning (status, raw body bytes, header block)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: t\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), 30.0)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body, head


class TestBackpressure:
    def test_connection_cap_sheds_immediately_503(self):
        """Connections past the cap get one fast 503 and a close; the
        accounting recovers once the holders leave."""
        scheduler, service = _service_stack()
        server = SynthesisServer(service, max_connections=2)

        async def drive():
            await server.start()
            host, port = server.address
            holders = [
                await asyncio.open_connection(host, port)
                for _ in range(2)
            ]
            await asyncio.sleep(0.05)  # handlers reach their read loop
            shed_status, shed_body, shed_head = await _post(
                host, port, "/synthesize", {"function": "e8", "vars": 3}
            )
            for _reader, writer in holders:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
            await asyncio.sleep(0.05)
            ok_status, _, _ = await _post(
                host, port, "/synthesize", {"function": "e8", "vars": 3}
            )
            await server.shutdown(drain_timeout=10.0)
            return shed_status, shed_body, shed_head, ok_status

        try:
            shed_status, shed_body, shed_head, ok_status = asyncio.run(
                drive()
            )
        finally:
            scheduler.shutdown(cancel_queued=True)
        assert shed_status == 503
        assert shed_body["status"] == "overloaded"
        assert b"connection: close" in shed_head.lower()
        assert ok_status == 200
        assert service.metrics.connections_shed == 1
        assert service.metrics.connections_active == 0
        assert service.metrics.connections_peak == 2

    def test_client_disconnect_mid_coalesce_survives(self):
        """Regression: the launcher of a shared synthesis hangs up
        mid-flight; the coalesced waiter still gets a correct chain,
        one engine run total, and the connection gauge returns to zero
        (no double-decrement, no leaked in-flight entry)."""
        import threading

        scheduler, service = _service_stack(jobs=1, engines=("fen",))
        server = SynthesisServer(service)
        table = from_hex("8ff8", 4)
        release = threading.Event()
        pinned = threading.Event()

        def pin():
            pinned.set()
            release.wait(10.0)

        async def drive():
            await server.start()
            host, port = server.address
            # Pin the only worker so the launched synthesis stays
            # in flight while the launcher disconnects.
            scheduler.submit_call("pin", pin)
            assert pinned.wait(5.0)
            # Launcher: send the request, then slam the socket shut
            # without reading the response.
            reader, writer = await asyncio.open_connection(host, port)
            body = json.dumps({"function": "8ff8", "vars": 4}).encode()
            writer.write(
                (
                    "POST /synthesize HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode()
                + body
            )
            await writer.drain()
            await asyncio.sleep(0.1)  # launch reaches the pool
            writer.transport.abort()  # hard RST, not FIN
            waiter = asyncio.ensure_future(
                _post(
                    host,
                    port,
                    "/synthesize",
                    {"function": "8ff8", "vars": 4},
                )
            )
            await asyncio.sleep(0.2)  # waiter coalesces onto the job
            release.set()
            status, payload, _ = await waiter
            await server.shutdown(drain_timeout=30.0)
            return status, payload

        try:
            status, payload = asyncio.run(drive())
        finally:
            scheduler.shutdown(cancel_queued=True)
        assert status == 200
        assert_chain_realizes(
            table, chain_from_record(payload["chains"][0])
        )
        assert service.metrics.engine_runs == 1
        assert service.metrics.coalesced == 1
        assert not service._inflight
        assert service.metrics.connections_active == 0


class TestPrometheusExposition:
    """The metrics routes answer JSON; there is no text exposition."""

    def test_json_remains_default(self):
        scheduler, service = _service_stack()
        server = SynthesisServer(service)

        async def drive():
            await server.start()
            host, port = server.address
            status, body, head = await _raw_get(host, port, "/metrics")
            await server.shutdown(drain_timeout=5.0)
            return status, body, head

        try:
            status, body, head = asyncio.run(drive())
        finally:
            scheduler.shutdown(cancel_queued=True)
        assert status == 200
        assert b"application/json" in head.lower()
        assert "serving" in json.loads(body)

    def test_metrics_all_single_process(self):
        """/metrics/all degenerates to a one-entry aggregate without a
        sibling registry."""
        scheduler, service = _service_stack()
        server = SynthesisServer(service)

        async def drive():
            await server.start()
            host, port = server.address
            await _post(
                host, port, "/synthesize", {"function": "e8", "vars": 3}
            )
            status, body = await _get(host, port, "/metrics/all")
            await server.shutdown(drain_timeout=10.0)
            return status, body

        try:
            status, body = asyncio.run(drive())
        finally:
            scheduler.shutdown(cancel_queued=True)
        assert status == 200
        assert body["procs"] == 1
        assert body["unreachable"] == []
        assert body["merged"]["serving"]["requests"] == 1
        assert set(body["per_proc"]) == {"0"}

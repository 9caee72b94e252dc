"""Soak/chaos harness for the serving stack (nightly tier, ``slow``).

The fast serve suite pins down each serving behaviour in isolation;
this module is the ISSUE-mandated lock-down of their *composition*
under sustained hostile load: waves of concurrent requests across
several NPN classes, some with tiny deadlines, while a wildcard fault
plan crashes engine attempts mid-flight.

Three invariants must hold no matter how the chaos interleaves:

1. **No stuck waiters** — every request resolves (the gather below
   runs under a hard ``wait_for``); a lost wake-up or a leaked
   coalesce future would hang it.
2. **No leaked coalesce state** — after the storm, the service's
   in-flight map is empty and request IDs are exactly the contiguous
   range ``1..N`` (nothing double-counted, nothing dropped).
3. **Zero incorrect chains** — every chain in every answered response
   re-verifies against the *caller's own* truth table via the packed
   bit-parallel verifier.  Coalescing + inverse NPN transforms +
   worker crashes must never cross wires.

A second test drives the real ``repro-serve --procs 2`` process group
over HTTP to the same standard, then SIGTERMs it and requires a clean
(exit 0) coordinated drain.
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
from repro.parallel.scheduler import BatchScheduler
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.serve.service import SynthesisRequest, SynthesisService
from repro.truthtable import from_hex
from repro.truthtable.npn import NPNTransform

from .helpers import assert_chain_realizes

pytestmark = pytest.mark.slow

# Orbit members across four distinct 3-var NPN classes; requests drawn
# round-robin so the storm mixes coalescible and non-coalescible work.
_REPS = [from_hex(h, 3) for h in ("e8", "16", "96", "06")]
_MEMBERS = [
    transform.apply(rep)
    for rep in _REPS
    for transform in (
        NPNTransform((0, 1, 2), 0b000, False),
        NPNTransform((1, 2, 0), 0b010, False),
        NPNTransform((2, 0, 1), 0b101, True),
    )
]

def _chaos_service():
    """A pool under active sabotage: early engine attempts crash (a
    wildcard plan that burns out) — the "workers killed mid-flight"
    half of the chaos."""
    plan = FaultPlan(
        {FaultPlan.WILDCARD: FaultSpec(kind="crash", times=10)}
    )
    scheduler = BatchScheduler({}, 4, queue_depth=0).start(
        stop_on_error=False
    )
    service = SynthesisService(
        scheduler,
        engines=("fen",),
        fault_plan=plan,
        default_timeout=30.0,
    )
    return scheduler, service


class TestServiceSoak:
    def test_burst_waves_with_faults_and_deadlines(self):
        scheduler, service = _chaos_service()
        waves = 5
        per_wave = len(_MEMBERS)  # 12 concurrent requests per wave

        def build(wave: int, index: int) -> SynthesisRequest:
            member = _MEMBERS[index]
            payload = {"function": member.to_hex(), "vars": 3}
            # A third of the storm carries deadlines, some of them
            # hopeless (sub-millisecond) — those must come back 504
            # ("expired"), never wrong, never hung.
            if index % 3 == 0:
                payload["deadline_ms"] = (
                    0.01 if (wave + index) % 2 else 30_000
                )
            return SynthesisRequest.from_payload(payload)

        async def storm():
            responses = []
            for wave in range(waves):
                batch = await asyncio.gather(
                    *(
                        service.synthesize(build(wave, index))
                        for index in range(per_wave)
                    )
                )
                responses.extend(batch)
                await asyncio.sleep(0.02)
            return responses

        try:
            responses = asyncio.run(
                asyncio.wait_for(storm(), timeout=300.0)
            )
        finally:
            scheduler.shutdown(cancel_queued=True)

        total = waves * per_wave
        assert len(responses) == total

        # -- invariant 2: no leaked coalesce state, contiguous IDs --
        assert not service._inflight
        ids = [response.request_id for response in responses]
        assert sorted(ids) == list(range(1, total + 1))
        assert service.metrics.requests == total

        # -- invariant 3: zero incorrect chains ---------------------
        statuses: dict[str, int] = {}
        for index_all, response in enumerate(responses):
            member = _MEMBERS[index_all % per_wave]
            statuses[response.status] = (
                statuses.get(response.status, 0) + 1
            )
            if response.chains:
                for chain in response.chains:
                    assert_chain_realizes(member, chain)
            if response.status == "expired":
                assert not response.chains
        # The fault plan burns out, so the storm must end with real
        # answers — and the hopeless deadlines must have expired.
        assert statuses.get("ok", 0) > 0
        assert service.metrics.expired > 0
        # Coalescing stayed live through the chaos.
        assert service.metrics.coalesced > 0

    def test_no_stuck_waiters_when_worker_killed_mid_flight(self):
        """Launcher's job crashes hard (worker thread dies) — every
        coalesced waiter still resolves with a failure status, and the
        in-flight entry is reaped."""
        plan = FaultPlan(
            {FaultPlan.WILDCARD: FaultSpec(kind="crash", times=None)}
        )
        scheduler = BatchScheduler({}, 2, queue_depth=0).start(
            stop_on_error=False
        )
        service = SynthesisService(
            scheduler,
            engines=("fen",),
            fault_plan=plan,
            default_timeout=10.0,
        )

        async def drive():
            return await asyncio.gather(
                *(
                    service.synthesize(
                        SynthesisRequest(function=_MEMBERS[0])
                    )
                    for _ in range(6)
                )
            )

        try:
            responses = asyncio.run(
                asyncio.wait_for(drive(), timeout=120.0)
            )
        finally:
            scheduler.shutdown(cancel_queued=True)
        assert len(responses) == 6
        assert not service._inflight
        for response in responses:
            assert response.status == "crash"
            assert not response.chains


class TestMultiProcSoak:
    def test_procs2_burst_then_clean_sigterm(self, tmp_path):
        """The real --procs 2 group absorbs a concurrent HTTP burst
        with zero wrong chains, reports the full request count via
        /metrics/all, and drains to exit 0 on SIGTERM."""
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
                "--procs",
                "2",
                "--jobs",
                "2",
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
            port = int(port)

            async def post(payload):
                reader, writer = await asyncio.open_connection(
                    host, port
                )
                try:
                    body = json.dumps(payload).encode()
                    writer.write(
                        (
                            "POST /synthesize HTTP/1.1\r\nHost: s\r\n"
                            f"Content-Length: {len(body)}\r\n"
                            "Connection: close\r\n\r\n"
                        ).encode()
                        + body
                    )
                    await writer.drain()
                    raw = await asyncio.wait_for(reader.read(), 60.0)
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass
                head, _, body = raw.partition(b"\r\n\r\n")
                return int(head.split(b" ", 2)[1]), json.loads(body)

            async def get_json(path):
                reader, writer = await asyncio.open_connection(
                    host, port
                )
                try:
                    writer.write(
                        f"GET {path} HTTP/1.1\r\nHost: s\r\n"
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
                return json.loads(raw.partition(b"\r\n\r\n")[2])

            async def burst():
                requests = [
                    {
                        "function": _MEMBERS[i % len(_MEMBERS)].to_hex(),
                        "vars": 3,
                    }
                    for i in range(36)
                ]
                results = await asyncio.gather(
                    *(post(payload) for payload in requests)
                )
                aggregate = await get_json("/metrics/all")
                return requests, results, aggregate

            requests, results, aggregate = asyncio.run(
                asyncio.wait_for(burst(), timeout=240.0)
            )
            for payload, (status, body) in zip(requests, results):
                assert status in (200, 203), body
                table = from_hex(payload["function"], 3)
                from repro.store.serialize import chain_from_record

                for record in body["chains"]:
                    assert_chain_realizes(
                        table, chain_from_record(record)
                    )
            assert aggregate["procs"] == 2
            assert aggregate["unreachable"] == []
            assert (
                aggregate["merged"]["serving"]["requests"]
                >= len(requests)
            )

            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=90)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert rc == 0
        stderr = proc.stderr.read()
        assert stderr.count("stopped") == 2

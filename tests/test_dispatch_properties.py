"""The dispatch contract of the resident scheduler pool.

:class:`repro.parallel.BatchScheduler` queues jobs in one FIFO
``queue.Queue``.  Its dispatchers hold three properties that the
serving layer and the one-shot suite API rely on:

1. **Submit order** — at ``jobs=1`` jobs run in the order they were
   submitted, whatever deadlines they carry (``run()``'s
   longest-expected-first order is exactly its submit order).
2. **Expiry at pop** — a job whose ``deadline`` has lapsed when a
   dispatcher pops it resolves :class:`DeadlineExpired` without
   running and counts in ``WorkerStats.expired``; a job with deadline
   left runs.
3. **Drain before exit** — ``shutdown()`` without ``cancel_queued``
   works off every queued job before the dispatchers exit, and a
   submit racing it is either queued ahead of the shutdown sentinels
   or resolved as cancelled, never stranded.

Each test holds the single worker with a blocking first job, so the
jobs behind it are really queued when the property is checked.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from concurrent.futures import wait

import pytest

from repro.parallel import BatchScheduler, DeadlineExpired


def _pinned_pool():
    """A started ``jobs=1`` pool whose worker is held by a blocking
    job; returns ``(scheduler, release, blocker)``."""
    scheduler = BatchScheduler({}, 1, queue_depth=0).start()
    release = threading.Event()
    pinned = threading.Event()

    def pin():
        pinned.set()
        release.wait(10.0)

    blocker = scheduler.submit_call("pin", pin)
    assert pinned.wait(5.0)
    return scheduler, release, blocker


class TestFifoOrder:
    @pytest.mark.parametrize("seed", range(5))
    def test_submit_order_at_one_job(self, seed):
        """Queued jobs run in submit order; deadlines do not reorder
        them (no earliest-deadline-first)."""
        rng = random.Random(seed)
        scheduler, release, _blocker = _pinned_pool()
        order = []
        now = time.monotonic()
        try:
            futures = [
                scheduler.submit_call(
                    f"job{index}",
                    lambda index=index: order.append(index),
                    deadline=rng.choice(
                        [None, now + 60.0 + rng.random() * 60.0]
                    ),
                )
                for index in range(25)
            ]
            release.set()
            for future in futures:
                future.result(timeout=10.0)
        finally:
            scheduler.shutdown(cancel_queued=True)
        assert order == list(range(25))


class TestExpiryFlag:
    def test_expired_iff_deadline_lapsed_at_pop(self):
        """Jobs whose deadline lapsed before the pop resolve
        DeadlineExpired without running; jobs with deadline left, or
        none, run.  Only the lapsed ones count as expired."""
        scheduler, release, _blocker = _pinned_pool()
        ran = []
        now = time.monotonic()
        deadlines = [now - 1.0, None, now + 60.0, now - 0.001, now + 60.0]
        try:
            futures = [
                scheduler.submit_call(
                    f"job{index}",
                    lambda index=index: ran.append(index),
                    deadline=deadline,
                )
                for index, deadline in enumerate(deadlines)
            ]
            release.set()
            for index, future in enumerate(futures):
                if deadlines[index] is not None and deadlines[index] < now:
                    with pytest.raises(DeadlineExpired):
                        future.result(timeout=10.0)
                else:
                    future.result(timeout=10.0)
        finally:
            scheduler.shutdown(cancel_queued=True)
        assert sorted(ran) == [1, 2, 4]
        assert scheduler.worker_stats[0].expired == 2
        # The blocker and the three live jobs ran; expired ones did not.
        assert scheduler.worker_stats[0].tasks == 4
        assert scheduler.backlog() == 0

    def test_deadline_crossing_between_puts(self):
        """A job's deadline can lapse while it waits behind a
        long-running one: it expires at pop, its neighbour with slack
        still runs."""
        scheduler, release, _blocker = _pinned_pool()
        ran = []
        now = time.monotonic()
        try:
            short = scheduler.submit_call(
                "short", lambda: ran.append("short"), deadline=now + 0.2
            )
            slack = scheduler.submit_call(
                "slack", lambda: ran.append("slack"), deadline=now + 60.0
            )
            time.sleep(0.4)  # "short" lapses while the worker is held
            release.set()
            with pytest.raises(DeadlineExpired):
                short.result(timeout=10.0)
            slack.result(timeout=10.0)
        finally:
            scheduler.shutdown(cancel_queued=True)
        assert ran == ["slack"]
        assert scheduler.worker_stats[0].expired == 1


class TestShutdownDrain:
    def test_shutdown_works_off_queue_before_exit(self):
        """shutdown() without cancel_queued runs every queued job, in
        order, before the dispatcher exits; no new work is accepted
        once it has begun."""
        scheduler, release, blocker = _pinned_pool()
        ran = []
        futures = [
            scheduler.submit_call(
                f"job{index}", lambda index=index: ran.append(index)
            )
            for index in range(10)
        ]
        stopper = threading.Thread(target=scheduler.shutdown)
        stopper.start()
        deadline = time.monotonic() + 5.0
        while scheduler._accepting and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(RuntimeError, match="not accepting"):
            scheduler.submit_call("late", lambda: None)
        release.set()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        assert blocker.done()
        assert all(future.done() for future in futures)
        assert [future.result() for future in futures] == [None] * 10
        assert ran == list(range(10))
        assert not scheduler.started
        assert scheduler.backlog() == 0

    def test_submits_racing_shutdown_all_resolve(self):
        """Eight submitters race shutdown() on a full bounded queue
        (more threads than cores, short switch interval): every future
        they got back resolves, run or cancelled, and the backlog
        returns to zero."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        ran = []
        futures = []
        lock = threading.Lock()
        try:
            scheduler = BatchScheduler({}, 2, queue_depth=2).start()

            def submitter():
                for _ in range(200):
                    try:
                        future = scheduler.submit_call(
                            "job", lambda: ran.append(1)
                        )
                    except RuntimeError:
                        return
                    with lock:
                        futures.append(future)

            threads = [threading.Thread(target=submitter) for _ in range(8)]
            for thread in threads:
                thread.start()
            time.sleep(0.05)
            scheduler.shutdown()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        _done, pending = wait(futures, timeout=10.0)
        assert not pending
        assert len(ran) == sum(not future.cancelled() for future in futures)
        assert scheduler.backlog() == 0

"""Parallel batch-synthesis scheduling.

The scheduler (:mod:`~repro.parallel.scheduler`) shards suite
instances across ``jobs`` concurrent fault-tolerant executors — each
instance still runs in its own isolated, rlimit-capped worker process
with a hard wall-clock kill — with a bounded FIFO work queue,
longest-expected-first dispatch, per-worker fault accounting, and live
progress (:mod:`~repro.parallel.progress`).  ``run_suite(jobs=N)``,
``repro-table1 --jobs N``, and the ``repro-batch`` CLI
(:mod:`~repro.parallel.cli`) all drive it.
"""

from .progress import ProgressReporter
from .scheduler import (
    BatchScheduler,
    BatchTask,
    DeadlineExpired,
    WorkerStats,
    expected_cost,
)

__all__ = [
    "BatchScheduler",
    "BatchTask",
    "WorkerStats",
    "expected_cost",
    "ProgressReporter",
    "DeadlineExpired",
]

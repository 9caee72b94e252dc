"""One merged, JSON-able view of every counter the system keeps.

Three counter families grew up independently — per-run
:class:`~repro.core.spec.SynthesisStats` (search effort, stage
timers, cache hits), the process-global
:data:`~repro.kernels.KERNEL_STATS` registry (bit-parallel kernel
calls/seconds), and :meth:`ChainStore.counters`
(hit/miss/write/quarantine) — and every surface that reported them
(``repro-synth --stats``, the serving layer's ``/metrics``, bench
JSON) re-merged them by hand.  :func:`stats_snapshot` is the single
merge point: callers pass whichever sources they have and get one
nested, JSON-safe dict with a stable layout.
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["stats_snapshot", "merge_numeric"]


def stats_snapshot(
    *,
    stats=None,
    store=None,
    store_counters: Mapping | None = None,
    kernels: bool = True,
    extra: Mapping | None = None,
) -> dict:
    """Merge the system's counter families into one JSON-able dict.

    Parameters
    ----------
    stats:
        A :class:`~repro.core.spec.SynthesisStats` (or anything with
        its ``to_record()`` contract); omitted sections simply do not
        appear, so callers never need placeholder objects.
    store / store_counters:
        Either a live :class:`~repro.store.ChainStore` (its
        :meth:`~repro.store.ChainStore.counters` is called) or an
        already-captured counters mapping — the CLI captures before
        closing the store, the server reads live.
    kernels:
        Include the process-global kernel registry (default on).
    extra:
        Additional top-level sections (the serving layer contributes
        its ``serving`` gauges here).  Keys collide last-wins.
    """
    snapshot: dict = {}
    if stats is not None:
        snapshot["synthesis"] = stats.to_record()
    if kernels:
        from .kernels import KERNEL_STATS

        snapshot["kernels"] = {
            "calls": dict(KERNEL_STATS.calls),
            "seconds": {
                name: round(secs, 6)
                for name, secs in KERNEL_STATS.seconds.items()
            },
        }
    if store_counters is None and store is not None:
        store_counters = store.counters()
    if store_counters is not None:
        snapshot["store"] = dict(store_counters)
    if extra:
        for key, value in extra.items():
            snapshot[key] = value
    return snapshot


#: Leaf keys that are point-in-time distribution statistics, not
#: accumulating counters.  Cross-process merges take their max (a
#: conservative operator view), everything else sums.
_GAUGE_LEAVES = frozenset(
    {"p50", "p90", "p99", "mean", "uptime_seconds"}
)
_RATIO_SUFFIXES = ("_ratio",)


def merge_numeric(snapshots: list) -> dict:
    """Merge per-process snapshots into one operator view.

    Counters (the default) sum across processes; distribution leaves
    (percentiles, means, uptimes — :data:`_GAUGE_LEAVES`) and ratio
    leaves take the max, which is the conservative reading ("the worst
    process's p99").  Non-numeric leaves keep the first process's
    value.  The shape of the result is the union of the inputs'
    shapes, so the merged view carries the same keys as any single
    process's snapshot.
    """
    merged: dict = {}
    for snapshot in snapshots:
        if not isinstance(snapshot, Mapping):
            continue
        _merge_into(merged, snapshot)
    return merged


def _merge_into(merged: dict, snapshot: Mapping) -> None:
    for key, value in snapshot.items():
        if isinstance(value, Mapping):
            slot = merged.setdefault(key, {})
            if isinstance(slot, dict):
                _merge_into(slot, value)
            continue
        if isinstance(value, bool) or not isinstance(
            value, (int, float)
        ):
            merged.setdefault(key, value)
            continue
        current = merged.get(key)
        if not isinstance(current, (int, float)) or isinstance(
            current, bool
        ):
            merged[key] = value
        elif str(key) in _GAUGE_LEAVES or str(key).endswith(
            _RATIO_SUFFIXES
        ):
            merged[key] = max(current, value)
        else:
            merged[key] = current + value


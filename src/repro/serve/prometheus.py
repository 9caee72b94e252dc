"""Prometheus text-exposition rendering of the ``/metrics`` snapshot.

No Prometheus client library is available in the target environment,
and the merged :func:`repro.stats.stats_snapshot` document is already
a plain nested dict of numeric leaves — so exposition is a small,
dependency-free rendering problem: flatten the snapshot
(:func:`repro.stats.flatten_numeric`), sanitize names, and emit the
`text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_::

    # HELP repro_serving_requests repro metric serving_requests
    # TYPE repro_serving_requests counter
    repro_serving_requests 1042

The HTTP layer content-negotiates: ``GET /metrics`` with ``Accept:
text/plain`` (what a Prometheus scraper sends) gets this form, the
JSON document stays the default — one snapshot, two encodings, so the
two views can never drift apart.

Counter-vs-gauge typing is a name heuristic (monotone series like
``*_requests``, ``*_hits``, ``*_calls`` are counters; everything else
— queue depths, ratios, percentiles — is a gauge).  The distinction
is advisory to scrapers; the golden test locks the grammar and the
name set, not the types.
"""

from __future__ import annotations

import math
import re
from typing import Mapping

from ..stats import flatten_numeric

__all__ = [
    "METRIC_PREFIX",
    "CONTENT_TYPE",
    "metric_name",
    "metric_type",
    "render_prometheus",
]

#: Every exposed series is namespaced under this prefix.
METRIC_PREFIX = "repro"

#: The content type Prometheus expects for the text format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_START = re.compile(r"^[^a-zA-Z_:]")

#: Name fragments marking a monotone (counter) series.  Matched
#: against the *last* path component so ``store_hit_ratio`` (a gauge)
#: is not misread via its ``store_hits`` sibling.
_COUNTER_LEAVES = (
    "requests",
    "hits",
    "misses",
    "writes",
    "calls",
    "count",
    "coalesced",
    "degraded",
    "failures",
    "expired",
    "shed",
    "rejected",
    "quarantined",
    "dropped",
    "solved",
    "timeouts",
    "crashes",
    "recycled",
    "tasks",
    "engine_runs",
    "rate_limited",
    "bad_requests",
    "verify_failures",
    "pipeline_closed",
    "connections_shed",
    "connections_peak",
)


def metric_name(flat_key: str) -> str:
    """A valid, prefixed Prometheus metric name for a flattened key."""
    name = _INVALID_CHARS.sub("_", flat_key)
    if _INVALID_START.match(name):
        name = f"_{name}"
    return f"{METRIC_PREFIX}_{name}"


def metric_type(flat_key: str) -> str:
    """``counter`` or ``gauge`` for a flattened snapshot key."""
    leaf = flat_key.rsplit("_", 1)[-1]
    tail = flat_key.lower()
    for marker in _COUNTER_LEAVES:
        if tail.endswith(marker) or leaf == marker:
            return "counter"
    return "gauge"


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot: Mapping) -> str:
    """Render a (nested, JSON-safe) metrics snapshot as exposition text.

    Every numeric leaf of ``snapshot`` becomes exactly one series; the
    set of exposed names is therefore
    ``{metric_name(k) for k in flatten_numeric(snapshot)}`` — the
    parity the golden test asserts against the JSON document.
    """
    flat = flatten_numeric(snapshot)
    lines: list[str] = []
    for key in sorted(flat):
        name = metric_name(key)
        lines.append(f"# HELP {name} repro metric {key}")
        lines.append(f"# TYPE {name} {metric_type(key)}")
        lines.append(f"{name} {_format_value(flat[key])}")
    return "\n".join(lines) + "\n"

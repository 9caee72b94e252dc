"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded only around calls into the program's public
functions, by wrappers this module installs where the callers look the
names up (``repro.core.pipeline.search_stage``, ``ChainStore.lookup``,
...).  The program itself is not modified.

Every wrapped call adds to its name's totals: calls, seconds, and self
seconds (its duration minus the time of the wrapped calls it made,
tracked as they return).  Calls of the hot inner functions
(factorization queries, packed verification, NPN canonicalization, cut
functions) are only totalled; every other call is also kept as a span
``(id, parent, name, start, duration, self, attrs)`` and written as
JSONL when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
import weakref

_ACTIVE = contextvars.ContextVar("perfbench_span", default=None)

#: Span-name prefix -> layer (the part of the program it belongs to).
LAYERS = (
    ("pipeline.", "pipeline"),
    ("factorization.", "factorization"),
    ("verify.", "circuit_sat"),
    ("topology.", "cache_topology"),
    ("hier.", "hierarchical"),
    ("npn.", "npn"),
    ("engine.", "engine"),
    ("executor.", "runtime"),
    ("worker.", "runtime"),
    ("store.", "store"),
    ("serve.", "serve"),
    ("rewrite.", "network"),
)
LAYER_NAMES = tuple(dict.fromkeys(layer for _, layer in LAYERS))


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


class _Frame:
    __slots__ = ("sid", "children")

    def __init__(self, sid: int) -> None:
        self.sid = sid
        self.children = 0.0


class Tracer:
    """Collects totals and spans from every wrapper it installs."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: name -> [calls, seconds, self seconds]
        self.totals: dict[str, list] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _enter(self):
        parent = _ACTIVE.get()
        frame = _Frame(next(self._ids))
        return parent, frame, _ACTIVE.set(frame)

    def _exit(self, name, keep, parent, frame, start, duration, attrs):
        own = max(0.0, duration - frame.children)
        with self._lock:
            if parent is not None:
                parent.children += duration
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
            if keep:
                self.spans.append((
                    frame.sid,
                    parent.sid if parent is not None else None,
                    name,
                    start,
                    duration,
                    own,
                    attrs,
                ))

    def wrap(self, owner, attr, name, *, keep=True, note=None, before=None):
        """Replace ``owner.attr`` with a recording wrapper.

        ``note(result, args, kwargs, pre)`` returns attributes kept with
        the span; ``result`` is None when the call raised and ``pre`` is
        what ``before(args, kwargs)`` returned just before the call.
        Generator functions are timed over the time spent inside the
        generator, coroutine functions over the awaited call.
        """
        original = getattr(owner, attr)
        enter, leave = self._enter, self._exit

        def finish(parent, frame, start, duration, result, args, kwargs, pre):
            attrs = note(result, args, kwargs, pre) if note else None
            leave(name, keep, parent, frame, start, duration, attrs)

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                pre = before(args, kwargs) if before else None
                parent, frame, token = enter()
                start = time.perf_counter()
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    duration = time.perf_counter() - start
                    _ACTIVE.reset(token)
                    finish(parent, frame, start, duration, result, args, kwargs, pre)

        elif inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                parent, frame, token = enter()
                _ACTIVE.reset(token)
                inner = original(*args, **kwargs)
                start = None
                active = 0.0
                try:
                    while True:
                        token = _ACTIVE.set(frame)
                        resumed = time.perf_counter()
                        if start is None:
                            start = resumed
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            active += time.perf_counter() - resumed
                            _ACTIVE.reset(token)
                        yield item
                finally:
                    inner.close()
                    finish(parent, frame, start or 0.0, active, None, args, kwargs, None)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                pre = before(args, kwargs) if before else None
                parent, frame, token = enter()
                start = time.perf_counter()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    duration = time.perf_counter() - start
                    _ACTIVE.reset(token)
                    finish(parent, frame, start, duration, result, args, kwargs, pre)

        setattr(owner, attr, wrapper)

    def rollup(self) -> dict:
        """Self seconds per layer, and the union of the top-level spans."""
        layers = dict.fromkeys(LAYER_NAMES, 0.0)
        for name, (_calls, _total, own) in self.totals.items():
            layers[layer_of(name)] += own
        roots = sorted(
            (start, start + duration)
            for _sid, parent, _name, start, duration, _own, _attrs in self.spans
            if parent is None
        )
        covered = 0.0
        end = None
        for lo, hi in roots:
            if end is None or lo > end:
                covered += hi - lo
                end = hi
            elif hi > end:
                covered += hi - end
                end = hi
        return {"layers": layers, "root_s": covered}

    def write_jsonl(self, path: str) -> None:
        """One line per kept span, then one line of per-name totals."""
        with open(path, "w") as handle:
            for sid, parent, name, start, duration, own, attrs in self.spans:
                record = {
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "layer": layer_of(name),
                    "start": start,
                    "dur": duration,
                    "self": own,
                }
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record) + "\n")
            totals = {
                name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in sorted(self.totals.items())
            }
            handle.write(json.dumps({"totals": totals}) + "\n")


def install(tracer: Tracer, tally) -> dict:
    """Wrap every layer's public entry points.

    ``tally.add(outcome)`` receives every executor outcome.  Returns the
    side table the wrappers fill in: the factorization engines seen (for
    the memo-size count) and the number of DSD prime blocks.
    """
    import repro.cache as cache_mod
    import repro.cache.npn as npn_cache_mod
    import repro.core.hierarchical as hier_mod
    import repro.core.pipeline as pipeline_mod
    import repro.engine as engine_mod
    import repro.network.rewrite as rewrite_mod
    import repro.runtime.executor as executor_mod
    import repro.serve.service as service_mod
    import repro.store.chainstore as store_mod
    from repro.core.factorization import FactorizationEngine

    side = {"engines": weakref.WeakSet(), "prime_blocks": 0}
    wrap = tracer.wrap

    # core.pipeline: the run and its stage functions.
    wrap(pipeline_mod, "run_pipeline", "pipeline.run")
    for stage in ("normalize", "canonicalize", "search", "finalize"):
        wrap(pipeline_mod, f"{stage}_stage", f"pipeline.{stage}")

    # core.factorization: operator assignment and the engine queries.
    def remember_engine(result, args, kwargs, pre):
        side["engines"].add(args[0])

    wrap(pipeline_mod, "assign_operators", "factorization.assign_operators", keep=False)
    for method in ("decompositions", "decompositions_pairs", "prefetch_pairs"):
        wrap(
            FactorizationEngine,
            method,
            f"factorization.{method}",
            keep=False,
            note=remember_engine,
        )

    # core.circuit_sat: every caller's packed verification.
    for module in (pipeline_mod, store_mod, service_mod):
        wrap(module, "verify_chain", "verify.chain", keep=False)

    # cache + topology: a call that raised the miss counter built a family.
    wrap(
        cache_mod.SynthesisCache,
        "topology_families",
        "topology.families",
        note=lambda result, args, kwargs, pre: {
            "miss": args[0].topology.misses > pre
        },
        before=lambda args, kwargs: args[0].topology.misses,
    )

    # core.hierarchical + truthtable.dsd.
    def count_primes(tree, args, kwargs, pre):
        stack = [tree] if tree is not None else []
        while stack:
            node = stack.pop()
            side["prime_blocks"] += node.kind == "prime"
            stack.extend(node.children)

    wrap(hier_mod, "dsd_decompose", "hier.dsd", note=count_primes)
    wrap(hier_mod.HierarchicalSynthesizer, "run", "hier.run")

    # truthtable.npn: the memo and the orbit sweep behind it.
    wrap(npn_cache_mod.NPNCache, "canonical", "npn.cache", keep=False)
    for module in (npn_cache_mod, service_mod):
        wrap(module, "canonicalize", "npn.canonicalize", keep=False)

    # engine: every registered adapter's protocol entry point.
    for cls_name in (
        "STPEngine",
        "HierEngine",
        "FENEngine",
        "BMSEngine",
        "LutExactEngine",
        "CegisEngine",
    ):
        cls = getattr(engine_mod, cls_name)
        wrap(cls, "synthesize", f"engine.{cls.name}")

    # runtime: the executor and the isolated worker round-trip.
    def executor_note(outcome, args, kwargs, pre):
        if outcome is not None:
            tally.add(outcome)

    def isolated_note(result, args, kwargs, pre):
        if result is not None:
            return {"child_s": float(result.runtime)}

    wrap(executor_mod.FaultTolerantExecutor, "run", "executor.run", note=executor_note)
    wrap(executor_mod, "run_isolated", "worker.isolated", note=isolated_note)

    # store: read and write paths.
    def lookup_note(result, args, kwargs, pre):
        return {"hit": result is not None, "quarantined": args[0].quarantined}

    wrap(store_mod.ChainStore, "lookup", "store.lookup", note=lookup_note)
    for method in ("lookup_upper_bound", "put", "mark_infeasible", "min_feasible_gates"):
        wrap(store_mod.ChainStore, method, f"store.{method}")

    # serve: the service funnel (HTTP time is derived client-side).
    wrap(service_mod.SynthesisService, "synthesize", "serve.service")

    # network: cut enumeration, cut functions, the whole pass.
    wrap(rewrite_mod, "enumerate_cuts", "rewrite.cuts")
    wrap(rewrite_mod, "cut_function", "rewrite.cut_function", keep=False)
    wrap(rewrite_mod, "rewrite_with_store", "rewrite.pass")
    return side

"""Persistent NPN-keyed store of optimal chains.

Exact synthesis is expensive and its answers never change: once any
engine has produced the optimal chains of a function, every future
request for any member of the same NPN class can be served by a
transform instead of a search (the database idea behind Soeken et
al.'s BMS and Haaswijk et al.'s fence flows).  The store records each
solution set once, in *canonical* space — chains are rewritten through
the class transform before being stored — and a lookup maps them back
through the inverse transform of the queried orbit member, so one row
serves the whole orbit.

Databases written by older code migrate in place on open (``ALTER
TABLE`` adds the later columns with their defaults) and keep serving.
Rows of the retired joint multi-output path (``num_outputs > 1``, keyed
by comma-joined hexes) may remain in such a file; no single-output hex
contains a comma, so no lookup, merge or quarantine ever reaches them.

Rows are keyed by ``(num_vars, canonical_hex, num_gates)`` in SQLite:
a single file, safe under concurrent readers and writers (WAL journal
plus a busy timeout), queryable with ordinary tooling, and append-
cheap.  Within one process each thread gets its **own** connection
(created lazily, used only by its owning thread), so concurrent
lookups from the serving layer's worker pool read in parallel instead
of serializing on a shared handle; writes still serialize on one
process-wide lock because a merge is a read-modify-write.

Chains move through the store as records — the
:meth:`~repro.chain.BooleanChain.signature` tuple — never as chain
objects until a lookup hands them out.  The NPN transform rewrites the
records (:func:`~repro.chain.transform.npn_transform_record`), and one
packed simulation of the whole set
(:func:`~repro.kernels.check_solution_set`) checks every chain on all
``2**n`` rows: a write-back checks the fresh records and the row's
stored ones in canonical space, a lookup checks every chain it serves
in the queried function's space.  The paper's circuit AllSAT
(:func:`~repro.core.circuit_sat.verify_chain`) re-checks the first
chain of each set as an independent second opinion.  A row that fails
a lookup is **quarantined** — marked in place, skipped by every later
lookup, and counted — so one bad record degrades to a miss exactly once
instead of re-checking (or worse, raising) on every suite instance
that touches the class; a write-back drops (and counts) the failing
stored records instead of reviving them.

A lookup with a ``pick`` serves one chain instead of the whole set:
the cheapest under a cost no NPN transform can change
(:data:`~repro.chain.costs.NPN_INVARIANT_COSTS`).  Such a cost is
equal on a record and on its image, so the cheapest record can be
chosen in canonical space — the first minimum in list order, the one
``min`` over the served set would choose.  The row's records are
set-checked there once per store instance; the transform is a
bijection on functions and leaves a malformed record malformed, so
that check fails exactly when the caller-space one would.  The picked
record alone is transformed, set-checked and AllSAT-checked against
the caller's table on every lookup.  The memo of checked rows holds
the payload string each check read, so a payload changed by a merge
or behind the store's back is checked again; a row that fails is
quarantined and never memoized.

Two row grades share the table: ``exact = 1`` rows are optimal chains
from engines whose capabilities claim exactness (the store's original
contract), while ``exact = 0`` rows are verified **upper bounds** from
heuristic engines.  Plain :meth:`ChainStore.lookup` serves only exact
rows; :meth:`ChainStore.lookup_upper_bound` serves the best row of
either grade and is the graceful-degradation path — when every exact
engine exhausts its budget, the runtime answers with the best-known
bound (clearly flagged non-exact) instead of a bare failure.

An exact row is the store's only claim of optimality; it keeps no
negative results.  Files written by older code may still hold an
``infeasible`` table of gate-count floors: it is never read, written or
dropped, so every search starts at the support bound.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time

from ..chain.chain import BooleanChain
from ..chain.costs import COST_MODELS, NPN_INVARIANT_COSTS
from ..chain.transform import npn_transform_record
from ..core.circuit_sat import verify_chain
from ..core.spec import SynthesisResult, SynthesisSpec
from ..kernels import check_solution_set
from ..truthtable.table import TruthTable
from .serialize import decode_record, encode_record

__all__ = ["ChainStore", "DEFAULT_MAX_CHAINS_PER_CLASS"]

#: Cap on the stored solution set per class — the paper's all-solutions
#: sets are capped at 256 in the harness as well.
DEFAULT_MAX_CHAINS_PER_CLASS = 256

#: How long a connection waits on another writer's lock.
_BUSY_TIMEOUT_S = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS chains (
    num_vars    INTEGER NOT NULL,
    canon_hex   TEXT    NOT NULL,
    num_gates   INTEGER NOT NULL,
    engine      TEXT    NOT NULL,
    solutions   TEXT    NOT NULL,
    created     REAL    NOT NULL,
    exact       INTEGER NOT NULL DEFAULT 1,
    quarantined INTEGER NOT NULL DEFAULT 0,
    num_outputs INTEGER NOT NULL DEFAULT 1,
    PRIMARY KEY (num_vars, canon_hex, num_gates)
)
"""

#: Columns added after the first shipped schema; existing databases
#: are migrated in place with ``ALTER TABLE`` on open.
_MIGRATIONS = (
    ("exact", "INTEGER NOT NULL DEFAULT 1"),
    ("quarantined", "INTEGER NOT NULL DEFAULT 0"),
    ("num_outputs", "INTEGER NOT NULL DEFAULT 1"),
)


def _decode_payload(payload) -> tuple[list[tuple], int] | None:
    """The chain records of a row's ``solutions`` JSON plus the number
    of objects in it that are not records, or None when the payload is
    not a JSON list.  Lookups treat any bad object as corruption; a
    write-back drops and counts them."""
    try:
        objects = json.loads(payload)
    except (TypeError, ValueError):
        return None
    if not isinstance(objects, list):
        return None
    records = []
    for obj in objects:
        try:
            records.append(decode_record(obj))
        except ValueError:
            pass
    return records, len(objects) - len(records)


def _checked_row(payload, table) -> list[tuple] | None:
    """Every record of a row's payload when all of them compute
    ``table``, else None: an unreadable payload, an object that is not
    a record, an empty list or one failing record makes the row
    corrupt."""
    decoded = _decode_payload(payload)
    if decoded is None or decoded[1]:
        return None
    records = decoded[0]
    if not records or len(_checked(records, table)) != len(records):
        return None
    return records


def _checked(records, table) -> list[tuple]:
    """The records with one output computing ``table``: one packed
    simulation of the whole set."""
    verdicts = check_solution_set(records, [table.bits], table.num_vars)
    return [record for record, ok in zip(records, verdicts) if ok]


def _transformed(record, transform) -> tuple:
    """``record`` rewritten through an NPN ``transform``."""
    return npn_transform_record(
        record, transform.perm, transform.input_flips, (transform.output_flip,)
    )


class ChainStore:
    """SQLite-backed store of optimal chains, keyed by NPN class.

    All chains are stored in the NPN-canonical input space; ``lookup``
    rewrites them back through the inverse transform of the queried
    function.  One instance may be shared across threads: each thread
    reads through its own lazily-created connection (WAL readers never
    block each other), while writes and counter updates serialize on an
    internal lock; separate processes sharing the same path coordinate
    through SQLite's own locking.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        max_chains_per_class: int = DEFAULT_MAX_CHAINS_PER_CLASS,
    ) -> None:
        self._path = os.fspath(path)
        self._max_chains = max_chains_per_class
        self._lock = threading.Lock()
        directory = os.path.dirname(self._path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # Per-thread connections: ``check_same_thread=False`` is safe
        # here because each connection is only ever *used* by the thread
        # that created it (the thread-local below enforces that); the
        # flag is relaxed solely so ``close()`` can shut every
        # connection down from whichever thread calls it.
        self._local = threading.local()
        self._conns: dict[int, sqlite3.Connection] = {}
        self._conns_lock = threading.Lock()
        self._closed = False
        conn = self._connection()
        with self._lock:
            with conn:
                conn.execute(_SCHEMA)
                self._migrate(conn)
        #: Served lookups / fell-through lookups / completed write-backs,
        #: plus the number of corrupt rows quarantined by a failed
        #: lookup check and of stored records a write-back dropped for
        #: failing its check.
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        self.dropped = 0
        #: Rows a pick lookup has checked, by ``(num_vars, canon_hex,
        #: num_gates)``: the payload string the check read, and the
        #: canonical record picked per cost name.  Unbounded on
        #: purpose; see :meth:`lookup`.
        self._picks: dict[tuple, tuple[str, dict[str, tuple]]] = {}

    def _connection(self) -> sqlite3.Connection:
        """This thread's connection, created on first use.

        Dead threads' connections are reaped opportunistically whenever
        a new one is opened, so processes whose threads come and go (a
        scheduler pool per suite run, ``asyncio.to_thread`` workers)
        do not accumulate handles.
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        if self._closed:
            raise sqlite3.ProgrammingError(
                "Cannot operate on a closed database."
            )
        conn = sqlite3.connect(
            self._path, timeout=_BUSY_TIMEOUT_S, check_same_thread=False
        )
        # Openers racing to switch a fresh file to WAL get "database is
        # locked" at once (SQLite skips the busy handler for a lock
        # upgrade inside a read); the winner's switch makes the retry a
        # no-op.
        deadline = time.monotonic() + _BUSY_TIMEOUT_S
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    conn.close()
                    raise
                time.sleep(0.005)
        self._local.conn = conn
        with self._conns_lock:
            alive = {t.ident for t in threading.enumerate()}
            for ident in list(self._conns):
                if ident not in alive:
                    try:
                        self._conns.pop(ident).close()
                    except sqlite3.Error:  # pragma: no cover
                        pass
            self._conns[threading.get_ident()] = conn
        return conn

    def _migrate(self, conn: sqlite3.Connection) -> None:
        """Add post-v1 columns to databases created by older code."""
        present = {
            row[1] for row in conn.execute("PRAGMA table_info(chains)")
        }
        for column, decl in _MIGRATIONS:
            if column not in present:
                conn.execute(
                    f"ALTER TABLE chains ADD COLUMN {column} {decl}"
                )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        """Filesystem location of the SQLite database."""
        return self._path

    def _canonical(self, function: TruthTable):
        from ..cache import get_cache

        return get_cache().npn_canonical(function)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def lookup(
        self,
        function: TruthTable,
        *,
        events: list | None = None,
        pick: str | None = None,
    ) -> SynthesisResult | None:
        """Serve ``function``'s optimal chains from the store, or miss.

        Picks the smallest non-quarantined *exact* gate-count row for
        the class, rewrites every chain into the queried function's
        own input space and checks every one of them against it.  A
        row with any failing chain is **quarantined** — marked in the
        database, skipped by all later lookups, and counted in
        :attr:`quarantined` — and the lookup reports a miss rather
        than escalating to the next row (a larger gate count must not
        be served as the optimum).

        ``pick``, the name of an NPN-invariant cost
        (:data:`~repro.chain.costs.NPN_INVARIANT_COSTS`), serves only
        the chain ``min(chains, key=COST_MODELS[pick])`` would choose
        from the full answer.  The row's records are set-checked in
        canonical space on the first pick lookup of this instance that
        reads its payload, and the served chain is set-checked and
        AllSAT-checked against ``function`` on every one; a corrupt
        record quarantines the row whether it is picked or not.  The
        memo behind this needs no bound: the rewriter, the only caller
        that picks, rejects cuts above four inputs, so it holds at most
        one row per NPN class of up to four inputs (about 240).
        Threads racing on one row may check it twice, and none serves
        a chain before its row passed.

        ``events``, when given, receives ``("quarantined",
        num_gates)`` tuples for per-call accounting (the executor
        surfaces them in suite worker summaries).  A failing database
        read raises ``sqlite3.Error``; the executor and the service
        count it.
        """
        return self._lookup(
            function, exact_only=True, events=events, pick=pick
        )

    def lookup_upper_bound(
        self,
        function: TruthTable,
        *,
        events: list | None = None,
    ) -> SynthesisResult | None:
        """Serve the best-known chain of *either* grade, or miss.

        The graceful-degradation read path: exact and upper-bound rows
        compete on gate count, corrupt rows are quarantined and the
        *next* row is tried (any verified bound beats a bare failure).
        """
        return self._lookup(function, exact_only=False, events=events)

    # perfbench/tracing.py wraps these two names, so they stay as no-ops
    # until the benchmark reads spans from the program (ROADMAP item 1).
    # Nothing in the program calls them.
    def min_feasible_gates(self, function: TruthTable) -> int:
        """No-op: always 0, the store keeps no gate-count floors."""
        return 0

    def mark_infeasible(
        self, function: TruthTable, num_gates: int
    ) -> None:
        """No-op: the store keeps no negative results."""

    def _lookup(
        self,
        function: TruthTable,
        *,
        exact_only: bool,
        events: list | None,
        pick: str | None = None,
    ) -> SynthesisResult | None:
        if pick is not None and pick not in NPN_INVARIANT_COSTS:
            raise ValueError(
                f"cannot pick by {pick!r} in canonical space; pick one "
                f"of {sorted(NPN_INVARIANT_COSTS)}"
            )
        started = time.perf_counter()
        canon, transform = self._canonical(function)
        canon_hex = canon.to_hex()
        num_vars = function.num_vars
        rows = self._fetch_rows(num_vars, canon_hex, exact_only=exact_only)
        inverse = transform.inverse()
        for num_gates, payload in rows:
            if pick is None:
                chains = self._served_chains(payload, inverse, function)
            else:
                chains = self._picked_chain(
                    (num_vars, canon_hex, num_gates),
                    payload,
                    canon,
                    pick,
                    inverse,
                    function,
                )
            if chains is None:
                self._quarantine(num_vars, canon_hex, num_gates, events)
                if exact_only:
                    break  # never serve a larger count as the optimum
                continue
            runtime = time.perf_counter() - started
            with self._lock:
                self.hits += 1
            return SynthesisResult(
                spec=SynthesisSpec(function=function),
                chains=chains,
                num_gates=num_gates,
                runtime=runtime,
            )
        self._miss()
        return None

    @staticmethod
    def _served_chains(payload, inverse, function) -> list | None:
        """A row's chains in the caller's input space, or None when the
        row is corrupt: unreadable, any chain failing the set check
        against ``function``, or the first failing AllSAT."""
        decoded = _decode_payload(payload)
        if decoded is None or decoded[1]:
            return None
        try:
            records = [
                _transformed(record, inverse) for record in decoded[0]
            ]
        except (TypeError, ValueError):
            return None
        if not records or len(_checked(records, function)) != len(records):
            return None
        chains = [BooleanChain.from_record(record) for record in records]
        return chains if verify_chain(chains[0], function) else None

    def _picked_chain(
        self, key, payload, canon, pick, inverse, function
    ) -> list | None:
        """The one chain of a row that ``pick`` chooses, in the
        caller's input space, or None when the row is corrupt: any
        record failing the canonical set check (once per payload), or
        the picked chain failing the set check or AllSAT against
        ``function``."""
        records = None
        entry = self._picks.get(key)
        if entry is None or entry[0] != payload:
            records = _checked_row(payload, canon)
            if records is None:
                self._picks.pop(key, None)
                return None
            entry = (payload, {})
        picked = entry[1].get(pick)
        if picked is None:
            if records is None:  # checked before, under another cost
                records = _decode_payload(payload)[0]
            cost = COST_MODELS[pick]
            picked = entry[1][pick] = min(
                records, key=lambda r: cost(BooleanChain.from_record(r))
            )
        record = _transformed(picked, inverse)
        if _checked([record], function):
            chain = BooleanChain.from_record(record)
            if verify_chain(chain, function):
                self._picks[key] = entry
                return [chain]
        self._picks.pop(key, None)
        return None

    def _fetch_rows(
        self, num_vars: int, canon_hex: str, *, exact_only: bool
    ) -> list[tuple[int, str]]:
        query = (
            "SELECT num_gates, solutions FROM chains "
            "WHERE num_vars = ? AND canon_hex = ? AND quarantined = 0 "
        )
        if exact_only:
            query += "AND exact = 1 "
        query += "ORDER BY num_gates ASC"
        cursor = self._connection().execute(query, (num_vars, canon_hex))
        return cursor.fetchall()

    def _quarantine(
        self,
        num_vars: int,
        canon_hex: str,
        num_gates: int,
        events: list | None,
    ) -> None:
        """Mark a corrupt row so no later lookup re-verifies it."""
        with self._lock:
            try:
                conn = self._connection()
                with conn:
                    conn.execute(
                        "UPDATE chains SET quarantined = 1 WHERE "
                        "num_vars = ? AND canon_hex = ? AND "
                        "num_gates = ?",
                        (num_vars, canon_hex, num_gates),
                    )
            except sqlite3.Error:
                pass  # mark is best-effort; the skip still happens
            self.quarantined += 1
        if events is not None:
            events.append(("quarantined", num_gates))

    def _miss(self) -> None:
        with self._lock:
            self.misses += 1

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(
        self,
        function: TruthTable,
        result: SynthesisResult,
        engine: str = "",
        *,
        exact: bool = True,
    ) -> bool:
        """Record a solution set for ``function``'s NPN class.

        Chains are rewritten into canonical space before storage.  An
        existing row at the same gate count is merged (union of
        solution sets, capped); chains that fail the set check are
        dropped rather than stored.  ``exact=False`` grades the row as
        a verified upper bound (heuristic engines); merging with an
        existing row keeps the *stronger* grade, and a fresh write
        clears any quarantine mark on the row.  Returns True when a
        row was written, False when no chain survived the checks (a
        chain with other than one output never does); a failing
        database write raises ``sqlite3.Error``.
        """
        if not result.chains or result.num_gates < 0:
            return False
        canon, transform = self._canonical(function)
        records = _checked(
            [
                _transformed(chain.signature(), transform)
                for chain in result.chains[: self._max_chains]
                if len(chain.outputs) == 1
            ],
            canon,
        )
        if not records or not verify_chain(
            BooleanChain.from_record(records[0]), canon
        ):
            return False
        key = (function.num_vars, canon.to_hex(), result.num_gates)
        with self._lock:
            conn = self._connection()
            with conn:
                self._merge_row(conn, key, records, canon, engine, exact)
            self.writes += 1
        return True

    def _merge_row(
        self,
        conn: sqlite3.Connection,
        key,
        records: list[tuple],
        canon: TruthTable,
        engine: str,
        exact: bool,
    ) -> None:
        """Write the union of ``records`` and the row's stored records.

        Runs under the write lock.  Stored records pass the same set
        check as fresh ones first, quarantined row or not: a failing
        one is dropped and counted in :attr:`dropped`, so a write-back
        never revives a corrupt chain.
        """
        num_vars, canon_hex, num_gates = key
        cursor = conn.execute(
            "SELECT solutions, exact FROM chains WHERE num_vars = ? "
            "AND canon_hex = ? AND num_gates = ?",
            key,
        )
        row = cursor.fetchone()
        grade = 1 if exact else 0
        merged = set(records)
        if row is not None:
            grade = max(grade, int(row[1]))  # grades only escalate
            merged.update(self._stored_records(row[0], canon))
        payload = json.dumps(
            [encode_record(r) for r in sorted(merged)[: self._max_chains]]
        )
        # Every record in the payload passed the set check just now,
        # so the write supersedes any quarantine mark.
        conn.execute(
            "INSERT OR REPLACE INTO chains "
            "(num_vars, canon_hex, num_gates, engine, solutions, "
            "created, exact, quarantined) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, 0)",
            (
                num_vars,
                canon_hex,
                num_gates,
                engine,
                payload,
                time.time(),
                grade,
            ),
        )

    def _stored_records(self, payload, canon) -> list[tuple]:
        """The records of a stored row that pass the set check; each
        other one (or an unreadable payload, once) counts in
        :attr:`dropped`."""
        decoded = _decode_payload(payload)
        if decoded is None:
            self.dropped += 1
            return []
        records, bad = decoded
        kept = _checked(records, canon)
        self.dropped += bad + len(records) - len(kept)
        return kept

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        cursor = self._connection().execute(
            "SELECT COUNT(*) FROM chains"
        )
        return int(cursor.fetchone()[0])

    def counters(self) -> dict:
        """JSON-safe hit/miss/write counters plus the row count, which
        reads ``None`` when the table cannot be read."""
        try:
            classes = len(self)
        except sqlite3.Error:
            classes = None
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "quarantined": self.quarantined,
            "dropped": self.dropped,
            "classes": classes,
        }

    def close(self) -> None:
        """Close every thread's connection (idempotent).

        Connections were opened with ``check_same_thread=False``
        precisely so this teardown may run from any thread; after
        closing, threads that still hold a thread-local reference get
        SQLite's own ``ProgrammingError`` instead of undefined
        behaviour.
        """
        with self._conns_lock:
            self._closed = True
            conns, self._conns = list(self._conns.values()), {}
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass

    def __enter__(self) -> "ChainStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

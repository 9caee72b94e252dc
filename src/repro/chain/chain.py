"""Boolean chains (Knuth, TAOCP 4A §7.2.2.2; paper Section II-B).

A Boolean chain is a compact DAG form of a multi-level logic network:
signals ``0 … n-1`` are the primary inputs, and each *step* ``n+i``
computes a ``k``-input operator over strictly earlier signals.  Outputs
point at a signal, optionally complemented.  Every step carries its
operator as a truth-table code — i.e. every gate is a ``k``-LUT, which
is exactly the solution format the paper's synthesizer emits ("all
solutions are expressed as 2-LUTs").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from ..kernels import lut_apply, var_mask
from ..truthtable.operations import binary_op_name
from ..truthtable.table import TruthTable

__all__ = ["Gate", "BooleanChain"]


@dataclass(frozen=True)
class Gate:
    """One step of a chain.

    ``op`` is the truth-table code of the gate's local function: bit
    ``row`` of ``op`` is the output when ``row = Σ value(fanins[i]) << i``
    (``fanins[0]`` is the least significant local input).
    """

    op: int
    fanins: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.fanins) == 0:
            raise ValueError("gates need at least one fanin")
        if not 0 <= self.op < (1 << (1 << len(self.fanins))):
            raise ValueError(
                f"op code 0x{self.op:x} too wide for {len(self.fanins)} fanins"
            )

    @property
    def arity(self) -> int:
        """Number of fanins."""
        return len(self.fanins)

    def local_table(self) -> TruthTable:
        """The gate function as a ``arity``-variable truth table."""
        return TruthTable(self.op, self.arity)

    def describe(self) -> str:
        """Readable description, e.g. ``and(x0, x1)`` for 2-input gates."""
        args = ", ".join(f"s{f}" for f in self.fanins)
        if self.arity == 2:
            return f"{binary_op_name(self.op)}({args})"
        return f"lut<0x{self.op:x}>({args})"


@lru_cache(maxsize=4096)
def _shared_gate(op: int, fanins: tuple[int, ...]) -> Gate:
    """One :class:`Gate` per ``(op, fanins)`` for chains rebuilt from
    records (worker results, store lookups).

    Gates are immutable, and rebuilt chains repeat the same few gates:
    the 46 528 gates of the seed-0 table1-dsd solution sets hold 810
    distinct keys, one warm rewrite-blif pass rebuilds 8 678 gates over
    134.  Sharing them skips a dataclass construction per gate; the
    bound is five times the larger working set.
    """
    return Gate(op, fanins)


class BooleanChain:
    """A Boolean chain over ``num_inputs`` primary inputs.

    Build incrementally with :meth:`add_gate` / :meth:`set_output`, or
    all at once via the constructor.  Chains are mutable while being
    built but the query API never mutates.
    """

    def __init__(
        self,
        num_inputs: int,
        gates: Iterable[Gate] = (),
        outputs: Iterable[tuple[int, bool]] = (),
    ) -> None:
        if num_inputs < 0:
            raise ValueError("num_inputs must be non-negative")
        self._num_inputs = num_inputs
        self._gates: list[Gate] = []
        self._outputs: list[tuple[int, bool]] = []
        for gate in gates:
            self.add_gate(gate.op, gate.fanins)
        for signal, complemented in outputs:
            self.set_output(signal, complemented)

    @classmethod
    def from_record(cls, record) -> "BooleanChain":
        """Rebuild a chain from its :meth:`signature` record.

        Validates in one pass: every fanin names an earlier,
        non-negative signal, every op fits its arity, and every output
        is an existing signal or :attr:`CONST0`.  Raises ``ValueError``
        on a malformed record.
        """
        try:
            num_inputs, gates, outputs = record
            if num_inputs < 0:
                raise ValueError("num_inputs must be non-negative")
            built = []
            for op, fanins in gates:
                index = num_inputs + len(built)
                for f in fanins:
                    if not 0 <= f < index:
                        raise ValueError(
                            f"fanin {f} of signal {index} must reference "
                            "an earlier signal"
                        )
                built.append(_shared_gate(op, tuple(fanins)))
            limit = num_inputs + len(built)
            checked = []
            for signal, complemented in outputs:
                if signal != cls.CONST0 and not 0 <= signal < limit:
                    raise ValueError(f"output signal {signal} does not exist")
                checked.append((signal, complemented))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed chain record: {exc}") from None
        chain = cls.__new__(cls)
        chain._num_inputs = num_inputs
        chain._gates = built
        chain._outputs = checked
        return chain

    def __reduce__(self):
        # Chains pickle (worker pipes, copies) as their record.
        return (BooleanChain.from_record, (self.signature(),))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_gate(self, op: int, fanins: Sequence[int]) -> int:
        """Append a gate; returns the new signal index."""
        index = self._num_inputs + len(self._gates)
        for f in fanins:
            if not 0 <= f < index:
                raise ValueError(
                    f"fanin {f} of new signal {index} must reference an "
                    "earlier signal"
                )
        self._gates.append(Gate(op, tuple(fanins)))
        return index

    #: Pseudo-signal for the constant-zero input (Knuth's ``x_0``).
    CONST0 = -1

    def set_output(self, signal: int, complemented: bool = False) -> None:
        """Declare an output pointing at ``signal``.

        ``signal == BooleanChain.CONST0`` yields constant 0 (or constant
        1 when complemented), mirroring Knuth's constant-zero input.
        """
        if signal != self.CONST0 and not 0 <= signal < self.num_signals:
            raise ValueError(f"output signal {signal} does not exist")
        self._outputs.append((signal, complemented))

    # ------------------------------------------------------------------
    # shape queries
    # ------------------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        """Number of primary inputs."""
        return self._num_inputs

    @property
    def num_gates(self) -> int:
        """Number of steps (internal gates)."""
        return len(self._gates)

    @property
    def num_signals(self) -> int:
        """Inputs plus gates."""
        return self._num_inputs + len(self._gates)

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The steps, in topological order."""
        return tuple(self._gates)

    @property
    def outputs(self) -> tuple[tuple[int, bool], ...]:
        """Declared outputs as ``(signal, complemented)`` pairs."""
        return tuple(self._outputs)

    def gate(self, signal: int) -> Gate:
        """The gate driving a signal (signals below ``num_inputs`` raise)."""
        if signal < self._num_inputs:
            raise IndexError(f"signal {signal} is a primary input")
        return self._gates[signal - self._num_inputs]

    def is_input(self, signal: int) -> bool:
        """True when the signal is a primary input."""
        return signal < self._num_inputs

    def level(self, signal: int) -> int:
        """Logic depth of a signal (inputs are level 0)."""
        levels = self._levels()
        return levels[signal]

    def depth(self) -> int:
        """Largest output level."""
        if not self._outputs:
            raise ValueError("chain has no outputs")
        levels = self._levels()
        return max(
            (levels[s] if s != self.CONST0 else 0) for s, _ in self._outputs
        )

    def _levels(self) -> list[int]:
        levels = [0] * self.num_signals
        for i, gate in enumerate(self._gates):
            signal = self._num_inputs + i
            levels[signal] = 1 + max(levels[f] for f in gate.fanins)
        return levels

    def fanout_counts(self) -> list[int]:
        """Number of readers of each signal (outputs included)."""
        counts = [0] * self.num_signals
        for gate in self._gates:
            for f in gate.fanins:
                counts[f] += 1
        for signal, _ in self._outputs:
            if signal != self.CONST0:
                counts[signal] += 1
        return counts

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def simulate_packed(self) -> tuple[list[int], list[int]]:
        """Word-parallel simulation over the whole input space.

        Returns ``(patterns, reachable)``: the packed truth table of
        every signal (bit ``m`` is its value on input row ``m``), and
        per gate the mask of local rows its fanins can exercise — one
        :func:`~repro.kernels.lut_apply` per gate.
        """
        n = self._num_inputs
        mask = (1 << (1 << n)) - 1
        patterns = [var_mask(v, n) for v in range(n)]
        reachable = []
        for gate in self._gates:
            pattern, rows = lut_apply(
                gate.op, [patterns[f] for f in gate.fanins], mask
            )
            patterns.append(pattern)
            reachable.append(rows)
        return patterns, reachable

    def simulate_signals(self) -> list[TruthTable]:
        """Truth table of every signal over the chain's inputs."""
        n = self._num_inputs
        return [TruthTable(p, n) for p in self.simulate_packed()[0]]

    def simulate(self) -> list[TruthTable]:
        """Truth table of every declared output."""
        if not self._outputs:
            raise ValueError("chain has no outputs")
        n = self._num_inputs
        mask = (1 << (1 << n)) - 1
        patterns = self.simulate_packed()[0]
        return [
            TruthTable(
                (0 if signal == self.CONST0 else patterns[signal])
                ^ (mask if complemented else 0),
                n,
            )
            for signal, complemented in self._outputs
        ]

    def simulate_output(self, index: int = 0) -> TruthTable:
        """Truth table of one output (default: the first)."""
        return self.simulate()[index]

    def evaluate(self, inputs: Sequence[int]) -> list[int]:
        """Evaluate all outputs on one input assignment."""
        if len(inputs) != self._num_inputs:
            raise ValueError(
                f"expected {self._num_inputs} inputs, got {len(inputs)}"
            )
        values = [int(bool(v)) for v in inputs]
        for gate in self._gates:
            row = 0
            for i, f in enumerate(gate.fanins):
                row |= values[f] << i
            values.append((gate.op >> row) & 1)
        return [
            (0 if s == self.CONST0 else values[s]) ^ int(c)
            for s, c in self._outputs
        ]

    # ------------------------------------------------------------------
    # structure & output
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ValueError on dangling outputs or empty chains."""
        if not self._outputs:
            raise ValueError("chain has no outputs")
        for signal, _ in self._outputs:
            if signal != self.CONST0 and not 0 <= signal < self.num_signals:
                raise ValueError(f"output references missing signal {signal}")

    def signature(self) -> tuple:
        """Hashable identity used to deduplicate equal chains.

        It is also the chain's *record*, ``(num_inputs, ((op, fanins),
        ...), ((signal, complemented), ...))``: the form the store, the
        set check and the worker pipe pass around
        (:meth:`from_record` rebuilds the chain).
        """
        return (
            self._num_inputs,
            tuple((g.op, g.fanins) for g in self._gates),
            tuple(self._outputs),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanChain):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:
        return (
            f"BooleanChain(inputs={self._num_inputs}, "
            f"gates={len(self._gates)}, outputs={len(self._outputs)})"
        )

    def format(self) -> str:
        """Multi-line pretty print in the style of the paper's Example 7."""
        lines = []
        for i, gate in enumerate(self._gates):
            signal = self._num_inputs + i
            args = ", ".join(
                (f"x{f}" if self.is_input(f) else f"s{f}") for f in gate.fanins
            )
            lines.append(f"s{signal} = 0x{gate.op:x}({args})")
        for signal, complemented in self._outputs:
            prefix = "~" if complemented else ""
            if signal == self.CONST0:
                name = "0"
            elif self.is_input(signal):
                name = f"x{signal}"
            else:
                name = f"s{signal}"
            lines.append(f"out = {prefix}{name}")
        return "\n".join(lines)

"""Bit-packed truth tables.

A :class:`TruthTable` stores a Boolean function ``f : B^n -> B`` as a
``2**n``-bit integer.  Row ``m`` of the table (bit ``m`` of the integer)
holds ``f`` evaluated at the assignment in which variable ``x_i`` takes
the value of bit ``i`` of ``m`` — i.e. ``x_0`` is the least significant
variable.  This is the same convention as ABC, mockturtle and percy, so
hexadecimal literals from those tools (and from the paper, e.g. the
function ``0x8ff8`` of Example 7) can be used directly.

Truth tables are immutable value objects: every operation returns a new
instance.  Operators ``& | ^ ~`` are overloaded with their Boolean
meaning.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from ..kernels.bitops import var_mask as _kernel_var_mask
from ..kernels.simulate import lut_apply
from ..kernels.tables import (
    cofactor_bits,
    depends_bits,
    permute_bits,
    support_bits,
)

__all__ = [
    "TruthTable",
    "constant",
    "projection",
    "from_bits",
    "from_function",
    "from_hex",
    "all_tables",
]


class TruthTable:
    """An immutable Boolean function of ``num_vars`` inputs.

    Parameters
    ----------
    bits:
        Integer whose bit ``m`` is the function value on row ``m``.
    num_vars:
        Number of input variables ``n``; the table has ``2**n`` rows.
    """

    __slots__ = ("_bits", "_num_vars", "_support")

    def __init__(self, bits: int, num_vars: int) -> None:
        if num_vars < 0:
            raise ValueError(f"num_vars must be non-negative, got {num_vars}")
        size = 1 << num_vars
        if bits < 0:
            raise ValueError("bits must be a non-negative integer")
        if bits >> size:
            raise ValueError(
                f"bits 0x{bits:x} does not fit in a {num_vars}-variable table"
            )
        self._bits = bits
        self._num_vars = num_vars
        self._support: tuple[int, ...] | None = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def bits(self) -> int:
        """The raw table as an integer (bit ``m`` = value on row ``m``)."""
        return self._bits

    @property
    def num_vars(self) -> int:
        """Number of input variables."""
        return self._num_vars

    @property
    def num_rows(self) -> int:
        """Number of rows, ``2**num_vars``."""
        return 1 << self._num_vars

    def value(self, assignment: int) -> int:
        """Return ``f`` at the given row index (0 or 1)."""
        if not 0 <= assignment < self.num_rows:
            raise IndexError(f"row {assignment} out of range")
        return (self._bits >> assignment) & 1

    def __call__(self, *inputs: int) -> int:
        """Evaluate on explicit per-variable values, ``f(x0, x1, ...)``."""
        if len(inputs) != self._num_vars:
            raise ValueError(
                f"expected {self._num_vars} inputs, got {len(inputs)}"
            )
        row = 0
        for i, v in enumerate(inputs):
            if v not in (0, 1, True, False):
                raise ValueError(f"input {i} must be Boolean, got {v!r}")
            if v:
                row |= 1 << i
        return self.value(row)

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self._bits == other._bits and self._num_vars == other._num_vars

    def __hash__(self) -> int:
        return hash((self._bits, self._num_vars))

    def __repr__(self) -> str:
        return f"TruthTable(0x{self.to_hex()}, num_vars={self._num_vars})"

    def __invert__(self) -> "TruthTable":
        return TruthTable(self._bits ^ (self.num_rows_mask()), self._num_vars)

    def _check_compatible(self, other: "TruthTable") -> None:
        if not isinstance(other, TruthTable):
            raise TypeError(f"expected TruthTable, got {type(other).__name__}")
        if other._num_vars != self._num_vars:
            raise ValueError(
                "variable counts differ: "
                f"{self._num_vars} vs {other._num_vars}"
            )

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self._bits & other._bits, self._num_vars)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self._bits | other._bits, self._num_vars)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_compatible(other)
        return TruthTable(self._bits ^ other._bits, self._num_vars)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def num_rows_mask(self) -> int:
        """All-ones mask over the table's rows."""
        return (1 << self.num_rows) - 1

    def to_hex(self) -> str:
        """Hexadecimal string padded to the table width (no ``0x``)."""
        digits = max(1, self.num_rows // 4)
        return format(self._bits, f"0{digits}x")

    def to_binary(self) -> str:
        """Binary string, most significant row first."""
        return format(self._bits, f"0{self.num_rows}b")

    def rows(self) -> Iterator[int]:
        """Yield the function value row by row (row 0 first)."""
        for m in range(self.num_rows):
            yield (self._bits >> m) & 1

    def onset(self) -> list[int]:
        """Row indices where the function is 1."""
        return [m for m in range(self.num_rows) if (self._bits >> m) & 1]

    def offset(self) -> list[int]:
        """Row indices where the function is 0."""
        return [m for m in range(self.num_rows) if not (self._bits >> m) & 1]

    def count_ones(self) -> int:
        """Number of onset minterms."""
        return self._bits.bit_count()

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------
    def is_constant(self) -> bool:
        """True if the function is constant 0 or constant 1."""
        return self._bits == 0 or self._bits == self.num_rows_mask()

    def depends_on(self, var: int) -> bool:
        """True if the function depends on variable ``var``."""
        if not 0 <= var < self._num_vars:
            raise IndexError(f"variable {var} out of range")
        return depends_bits(self._bits, self._num_vars, var)

    def support(self) -> tuple[int, ...]:
        """Indices of the variables the function actually depends on
        (computed once and cached; word-parallel kernel)."""
        if self._support is None:
            self._support = support_bits(self._bits, self._num_vars)
        return self._support

    def support_size(self) -> int:
        """Number of variables in the functional support."""
        return len(self.support())

    # ------------------------------------------------------------------
    # cofactors and quantification
    # ------------------------------------------------------------------
    def cofactor(self, var: int, value: int) -> "TruthTable":
        """Shannon cofactor with ``x_var`` fixed to ``value``.

        The result keeps the same variable count (the fixed variable
        becomes vacuous), matching ABC conventions.
        """
        if not 0 <= var < self._num_vars:
            raise IndexError(f"variable {var} out of range")
        if value not in (0, 1):
            raise ValueError("value must be 0 or 1")
        return TruthTable(
            cofactor_bits(self._bits, self._num_vars, var, value),
            self._num_vars,
        )

    def restrict(self, var: int, value: int) -> "TruthTable":
        """Cofactor that *removes* the variable, shrinking the table."""
        cof = self.cofactor(var, value)
        return cof.remove_vacuous_variable(var)

    def remove_vacuous_variable(self, var: int) -> "TruthTable":
        """Drop a variable the function does not depend on."""
        if self.depends_on(var):
            raise ValueError(f"function depends on variable {var}")
        bits = 0
        out_row = 0
        for m in range(self.num_rows):
            if (m >> var) & 1:
                continue
            if (self._bits >> m) & 1:
                bits |= 1 << out_row
            out_row += 1
        return TruthTable(bits, self._num_vars - 1)

    def exists(self, var: int) -> "TruthTable":
        """Existential quantification over ``x_var``."""
        return self.cofactor(var, 0) | self.cofactor(var, 1)

    def forall(self, var: int) -> "TruthTable":
        """Universal quantification over ``x_var``."""
        return self.cofactor(var, 0) & self.cofactor(var, 1)

    # ------------------------------------------------------------------
    # variable manipulation
    # ------------------------------------------------------------------
    def flip_var(self, var: int) -> "TruthTable":
        """Negate input variable ``x_var``."""
        if not 0 <= var < self._num_vars:
            raise IndexError(f"variable {var} out of range")
        masked = _var_mask(var, self._num_vars)
        shift = 1 << var
        hi = self._bits & masked
        lo = self._bits & ~masked & self.num_rows_mask()
        return TruthTable((hi >> shift) | (lo << shift), self._num_vars)

    def permute(self, perm: Sequence[int]) -> "TruthTable":
        """Apply an input permutation.

        ``perm[i] = j`` means old variable ``x_i`` is routed to new
        position ``x_j``:  ``g(y_0..y_{n-1}) = f(y_{perm[0]}, ...)`` in
        the sense that the value of new row ``m'`` equals the value of
        the old row obtained by moving bit ``i`` to bit ``perm[i]``.
        """
        if sorted(perm) != list(range(self._num_vars)):
            raise ValueError(f"{perm!r} is not a permutation of the inputs")
        return TruthTable(
            permute_bits(self._bits, self._num_vars, tuple(perm)),
            self._num_vars,
        )

    def swap_vars(self, a: int, b: int) -> "TruthTable":
        """Exchange two input variables."""
        perm = list(range(self._num_vars))
        perm[a], perm[b] = perm[b], perm[a]
        return self.permute(perm)

    def extend(self, num_vars: int) -> "TruthTable":
        """Pad with vacuous high variables up to ``num_vars`` inputs."""
        if num_vars < self._num_vars:
            raise ValueError("cannot shrink; use restrict()")
        bits = self._bits
        rows = self.num_rows
        for _ in range(num_vars - self._num_vars):
            bits = bits | (bits << rows)
            rows <<= 1
        return TruthTable(bits, num_vars)

    def compose(self, inner: Sequence["TruthTable"]) -> "TruthTable":
        """Functional composition ``f(g_0(x), ..., g_{n-1}(x))``.

        Every ``inner`` table must share a common variable count, which
        becomes the variable count of the result.  Evaluated
        word-parallel over the inner tables (:func:`~repro.kernels.lut_apply`).
        """
        if len(inner) != self._num_vars:
            raise ValueError(
                f"need {self._num_vars} inner functions, got {len(inner)}"
            )
        if not inner:
            return TruthTable(self._bits, 0)
        n_inner = inner[0].num_vars
        for g in inner:
            if g.num_vars != n_inner:
                raise ValueError("inner functions disagree on variable count")
        bits, _ = lut_apply(
            self._bits, [g._bits for g in inner], (1 << (1 << n_inner)) - 1
        )
        return TruthTable(bits, n_inner)


#: Mask of the rows in which ``x_var = 1`` — the kernel layer's cache.
_var_mask = _kernel_var_mask


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------
def constant(value: int, num_vars: int) -> TruthTable:
    """The constant-0 or constant-1 function of ``num_vars`` inputs."""
    if value not in (0, 1):
        raise ValueError("value must be 0 or 1")
    bits = ((1 << (1 << num_vars)) - 1) if value else 0
    return TruthTable(bits, num_vars)


def projection(var: int, num_vars: int, complemented: bool = False) -> TruthTable:
    """The projection ``f(x) = x_var`` (or its complement)."""
    if not 0 <= var < num_vars:
        raise IndexError(f"variable {var} out of range for {num_vars} inputs")
    bits = _var_mask(var, num_vars)
    table = TruthTable(bits, num_vars)
    return ~table if complemented else table


def from_bits(values: Iterable[int], num_vars: int) -> TruthTable:
    """Build a table from an iterable of row values (row 0 first)."""
    bits = 0
    count = 0
    for m, v in enumerate(values):
        if v not in (0, 1):
            raise ValueError(f"row {m} must be 0 or 1, got {v!r}")
        if v:
            bits |= 1 << m
        count += 1
    if count != 1 << num_vars:
        raise ValueError(
            f"expected {1 << num_vars} rows for {num_vars} variables, got {count}"
        )
    return TruthTable(bits, num_vars)


def from_function(fn: Callable[..., int], num_vars: int) -> TruthTable:
    """Tabulate a Python callable ``fn(x0, ..., x_{n-1}) -> {0,1}``."""
    bits = 0
    for m in range(1 << num_vars):
        inputs = [(m >> i) & 1 for i in range(num_vars)]
        if fn(*inputs):
            bits |= 1 << m
    return TruthTable(bits, num_vars)


def from_hex(hex_string: str, num_vars: int) -> TruthTable:
    """Parse a hexadecimal truth-table literal such as ``"8ff8"``."""
    cleaned = hex_string.lower().removeprefix("0x")
    return TruthTable(int(cleaned, 16), num_vars)


def all_tables(num_vars: int) -> Iterator[TruthTable]:
    """Iterate over every function of ``num_vars`` inputs (use n <= 4!)."""
    for bits in range(1 << (1 << num_vars)):
        yield TruthTable(bits, num_vars)

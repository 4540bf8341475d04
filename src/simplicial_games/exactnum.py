"""Exact rational scalars and exact linear-system solving.

Scalars are arbitrary-precision ``fractions.Fraction`` values: always
normalized, positive denominator, and raising ``ZeroDivisionError`` on
division by zero.  No floating point is used
anywhere; decimal rendering is a display concern of the CLI.

``solve_exact`` performs Gauss-Jordan elimination with first-nonzero pivot
selection, so results are fully deterministic.  A ``RationalMatrix`` keeps
the caller's rows as given.  The solver eliminates integer rows: each row
of ``[A | b]`` holds its nonzeros, sparse by column, times the lcm of their
denominators, so each row carries one denominator and no entry becomes a
``Fraction``.  Column c of a row is cancelled by integer multiples of the
pivot row, and the row is divided by the gcd of its entries: integer
elimination as in Bareiss (1968), kept small by gcds instead of by his
division by the previous pivot.  Each reduced row is then a multiple of the
row a ``Fraction`` elimination with the same pivots would give, and a
``Fraction`` is built only for the result, as the ratio of two ints of one
row.  Underdetermined systems report the particular solution with every
free variable fixed to 0, plus a basis of the nullspace.  Inconsistent
systems carry a certificate ``lam`` with ``lam @ A == 0`` and
``lam @ b == 1``.  Only then is ``[A | I | b]`` eliminated, its identity
block recording the row operations; the pivots depend on ``A`` alone, so
both passes agree.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, ParseError, ResultTooLong

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$", re.ASCII)


def _rational_pair(text: str) -> tuple[int, int]:
    """The reduced ints (p, q), q > 0, of the text form "p/q" (q omitted when 1).

    The one grammar of a rational literal: ASCII digits only, no decimals.
    """
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ParseError(f"not a rational 'p/q' literal: {text!r}")
    p, q = m.groups()
    try:
        num, den = int(p), int(q) if q else 1
    except ValueError as e:  # over the interpreter's integer digit limit
        raise ParseError(f"rational literal too long: {e}") from None
    if den == 0:
        raise ParseError(f"zero denominator in rational literal: {text!r}")
    g = math.gcd(num, den)
    return num // g, den // g


def parse_rational(text: str) -> Fraction:
    """Parse the text form "p/q" (q omitted when 1). Rejects decimals."""
    return Fraction(*_rational_pair(text))


def format_rational(q: Fraction) -> str:
    """Render "p/q", omitting the denominator when it is 1.

    A numerator or denominator longer than the interpreter converts to text
    raises ResultTooLong.
    """
    try:
        return str(q)
    except ValueError:
        raise ResultTooLong("an exact result has too many digits to print") from None


class SolveStatus(Enum):
    UNIQUE = "unique"
    UNDERDETERMINED = "underdetermined"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of an exact solve.

    ``particular`` is absent exactly when the system is inconsistent; the
    status is UNIQUE exactly when it is present and the nullspace is empty.
    ``certificate`` (inconsistent systems only) is ``lam`` with
    ``lam @ A == 0`` and ``lam @ b == 1``.
    """

    status: SolveStatus
    particular: tuple[Fraction, ...] | None
    nullspace_basis: tuple[tuple[Fraction, ...], ...]
    certificate: tuple[Fraction, ...] | None = None


class RationalMatrix:
    """The caller's rows, ``cols`` entries each: ints or ``Fraction``s, kept as given."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, cols: int, rows: Iterable[Sequence[Fraction | int]]):
        self._rows = tuple(map(tuple, rows))
        if any(len(r) != cols for r in self._rows):
            raise DimensionMismatch(f"every row of a {cols}-column matrix needs {cols} entries")
        self.rows = len(self._rows)
        self.cols = cols

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


_ZERO = Fraction(0)


def _int_row(dense: Sequence, extra: dict[int, Fraction | int]) -> dict[int, int]:
    """Nonzeros of ``dense``, then of ``extra``, by column, times the lcm of their denominators."""
    row = {c: e for c, e in enumerate(dense) if e}
    row.update((c, e) for c, e in extra.items() if e)
    scale = math.lcm(*(e.denominator for e in row.values()))
    return {c: e.numerator * (scale // e.denominator) for c, e in row.items()}


def _eliminate(rows: list[dict[int, int]], n: int) -> dict[int, int]:
    """Reduce sparse int rows in place to a multiple of the RREF on columns 0..n-1.

    Columns from n on are carried along but never pivot.  Each row keeps
    its own scale: a pivot row is never divided by its pivot, and a row
    is divided by the gcd of its entries whenever it changes.  Returns the
    pivot row of each pivot column; the rank is its length.
    """
    m = len(rows)
    pivot_of_col: dict[int, int] = {}
    rank = 0
    for c in range(n):
        pr = next((r for r in range(rank, m) if c in rows[r]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        prow = rows[rank]
        piv = prow[c]
        for r in range(m):
            row = rows[r]
            if r == rank or c not in row:
                continue
            # row <- (piv/g) row - (f/g) prow cancels column c
            f = row[c]
            g = math.gcd(piv, f)
            s, t = piv // g, f // g
            if s != 1:
                for k in row:
                    row[k] *= s
            for k, e in prow.items():
                x = row.get(k, 0) - t * e
                if x:
                    row[k] = x
                else:
                    del row[k]
            d = math.gcd(*row.values())
            if d > 1:
                for k in row:
                    row[k] //= d
        pivot_of_col[c] = rank
        rank += 1
    return pivot_of_col


def _ratio(row: dict[int, int], k: int, c: int) -> Fraction:
    """row[k] / row[c]; a column missing from the sparse row is 0."""
    return Fraction(row[k], row[c]) if k in row else _ZERO


def solve_exact(a: RationalMatrix, b: Sequence[Fraction | int]) -> LinearSolution:
    """Solve A x = b exactly over the rationals.

    Gauss-Jordan elimination on sparse int rows; in each column the first
    row (top to bottom) with a nonzero entry becomes the pivot.  The
    identity block that yields a certificate is carried only when the first
    pass finds the system inconsistent.
    """
    if a.rows != len(b):
        raise DimensionMismatch(f"matrix has {a.rows} rows but rhs has {len(b)}")
    m, n = a.rows, a.cols
    rows = [_int_row(a._rows[r], {n: b[r]}) for r in range(m)]
    pivot_of_col = _eliminate(rows, n)
    rank = len(pivot_of_col)

    if any(n in rows[r] for r in range(rank, m)):
        # Eliminate [A | I | b] again; the I block records the row
        # operations, so an inconsistent row yields a certificate against
        # the original system.  The pivots depend on A alone, so they repeat.
        rows = [_int_row(a._rows[r], {n + r: 1, n + m: b[r]}) for r in range(m)]
        _eliminate(rows, n)
        row = next(rows[r] for r in range(rank, m) if n + m in rows[r])
        return LinearSolution(
            status=SolveStatus.INCONSISTENT,
            particular=None,
            nullspace_basis=(),
            certificate=tuple(_ratio(row, n + k, n + m) for k in range(m)),
        )

    # the row of pivot column c is a multiple of the RREF row: divide by row[c]
    free_cols = [c for c in range(n) if c not in pivot_of_col]
    particular = [_ZERO] * n
    for c, r in pivot_of_col.items():
        particular[c] = _ratio(rows[r], n, c)
    basis = []
    for fc in free_cols:
        z = [_ZERO] * n
        z[fc] = Fraction(1)
        for c, r in pivot_of_col.items():
            z[c] = -_ratio(rows[r], fc, c)
        basis.append(tuple(z))
    status = SolveStatus.UNIQUE if not free_cols else SolveStatus.UNDERDETERMINED
    return LinearSolution(
        status=status,
        particular=tuple(particular),
        nullspace_basis=tuple(basis),
    )

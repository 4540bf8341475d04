"""Exact rational scalars and dense exact linear-system solving.

Scalars are arbitrary-precision ``fractions.Fraction`` values (re-exported
as :data:`Rational`): always normalized, positive denominator, and raising
``ZeroDivisionError`` on division by zero.  No floating point is used
anywhere; decimal rendering is a display concern of the CLI.

``solve_exact`` performs Gauss-Jordan elimination with first-nonzero pivot
selection, so results are fully deterministic.  Underdetermined systems
report the particular solution with every free variable fixed to 0, plus a
basis of the nullspace.  Inconsistent systems carry a certificate: a row
vector ``lam`` with ``lam @ A == 0`` and ``lam @ b == 1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, ParseError

Rational = Fraction

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse the text form "p/q" (q omitted when 1). Rejects decimals."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ParseError(f"not a rational 'p/q' literal: {text!r}")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
    except ValueError as e:  # over the interpreter's integer digit limit
        raise ParseError(f"rational literal too long: {e}") from None
    if den == 0:
        raise ParseError(f"zero denominator in rational literal: {text!r}")
    return Fraction(num, den)


def format_rational(q: Fraction) -> str:
    """Render "p/q", omitting the denominator when it is 1."""
    return str(q)


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
    """Dense row-major matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[Fraction | int]):
        self.rows = rows
        self.cols = cols
        self.entries = [Fraction(e) for e in entries]
        if len(self.entries) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]]) -> "RationalMatrix":
        if not rows:
            return cls(0, 0, [])
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        return cls(len(rows), ncols, [e for r in rows for e in r])

    def at(self, r: int, c: int) -> Fraction:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> list[Fraction]:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def matvec(self, xs: Sequence[Fraction]) -> list[Fraction]:
        if len(xs) != self.cols:
            raise DimensionMismatch(f"vector length {len(xs)} != cols {self.cols}")
        return [
            sum((self.at(r, c) * xs[c] for c in range(self.cols)), Fraction(0))
            for r in range(self.rows)
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def solve_exact(a: RationalMatrix, b: Sequence[Fraction | int]) -> LinearSolution:
    """Solve A x = b exactly over the rationals.

    Gauss-Jordan elimination; in each column the first row (top to bottom)
    with a nonzero entry becomes the pivot.
    """
    if a.rows != len(b):
        raise DimensionMismatch(f"matrix has {a.rows} rows but rhs has {len(b)}")
    m, n = a.rows, a.cols
    # Augment [A | I | b]; the I block tracks row operations so an
    # inconsistent row yields a certificate against the original system.
    tab = [
        a.row(r) + [Fraction(int(r == k)) for k in range(m)] + [Fraction(b[r])]
        for r in range(m)
    ]
    width = n + m + 1
    pivot_of_col: dict[int, int] = {}
    rank = 0
    for c in range(n):
        pr = next((r for r in range(rank, m) if tab[r][c] != 0), None)
        if pr is None:
            continue
        tab[rank], tab[pr] = tab[pr], tab[rank]
        piv = tab[rank][c]
        tab[rank] = [e / piv for e in tab[rank]]
        for r in range(m):
            if r != rank and tab[r][c] != 0:
                f = tab[r][c]
                tab[r] = [tab[r][k] - f * tab[rank][k] for k in range(width)]
        pivot_of_col[c] = rank
        rank += 1

    for r in range(rank, m):
        if tab[r][-1] != 0:
            lam = [e / tab[r][-1] for e in tab[r][n : n + m]]
            return LinearSolution(
                status=SolveStatus.INCONSISTENT,
                particular=None,
                nullspace_basis=(),
                certificate=tuple(lam),
            )

    free_cols = [c for c in range(n) if c not in pivot_of_col]
    particular = [Fraction(0)] * n
    for c, r in pivot_of_col.items():
        particular[c] = tab[r][-1]
    basis = []
    for fc in free_cols:
        z = [Fraction(0)] * n
        z[fc] = Fraction(1)
        for c, r in pivot_of_col.items():
            z[c] = -tab[r][fc]
        basis.append(tuple(z))
    status = SolveStatus.UNIQUE if not free_cols else SolveStatus.UNDERDETERMINED
    return LinearSolution(
        status=status,
        particular=tuple(particular),
        nullspace_basis=tuple(basis),
    )

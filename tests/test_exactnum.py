from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from simplicial_games import (
    RationalMatrix,
    SolveStatus,
    format_rational,
    parse_rational,
    solve_exact,
)
from simplicial_games.errors import DimensionMismatch, ParseError

F = Fraction


def test_arithmetic_examples():
    assert F(1, 2) + F(1, 3) == F(5, 6)
    assert F(2, 4) == F(1, 2)
    assert F(2, 4).denominator == 2  # normalized on construction
    with pytest.raises(ZeroDivisionError):
        F(1, 3) / F(0)


def test_normalization_invariants():
    q = F(-6, -8)
    assert q.denominator > 0
    assert q == F(3, 4)


@given(st.fractions(), st.fractions(), st.fractions())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_parse_format_roundtrip():
    for text in ["5/2", "-1", "0", "7", "-3/4"]:
        assert format_rational(parse_rational(text)) == text


def test_parse_rejects_non_rational():
    # the last two exceed the interpreter's integer digit limit
    for text in ["1.5", "", "a/b", "1/0", "1/2/3", "7" * 5000, "1/" + "7" * 5000]:
        with pytest.raises(ParseError):
            parse_rational(text)


def test_matrix_entry_count_checked():
    with pytest.raises(DimensionMismatch):
        RationalMatrix(2, 2, [F(1)] * 3)


def test_solve_identity_system():
    sol = solve_exact(RationalMatrix.from_rows([[1]]), [F(1)])
    assert sol.status is SolveStatus.UNIQUE
    assert sol.particular == (F(1),)
    assert sol.nullspace_basis == ()


def test_solve_duplicated_row_underdetermined():
    a = RationalMatrix.from_rows([[1, 2], [1, 2]])
    sol = solve_exact(a, [F(1), F(1)])
    assert sol.status is SolveStatus.UNDERDETERMINED
    # free variable fixed to 0
    assert sol.particular == (F(1), F(0))
    assert len(sol.nullspace_basis) == 1


def test_solve_link_fvector_row():
    # single row (1, 2) = the link f-vector of a degree-2 vertex
    a = RationalMatrix.from_rows([[1, 2]])
    sol = solve_exact(a, [F(1)])
    assert sol.status is SolveStatus.UNDERDETERMINED
    # the canonical weights p_k = 1/(r s_k) with r=2, s=(1,2) satisfy the row
    candidate = [F(1, 2), F(1, 4)]
    assert a.matvec(candidate) == [F(1)]


def test_solve_inconsistent_with_certificate():
    a = RationalMatrix.from_rows([[1, 1], [2, 2]])
    sol = solve_exact(a, [F(1), F(3)])
    assert sol.status is SolveStatus.INCONSISTENT
    assert sol.particular is None
    lam = sol.certificate
    # lam @ A == 0 and lam @ b == 1
    for c in range(a.cols):
        assert sum(lam[r] * a.at(r, c) for r in range(a.rows)) == 0
    assert lam[0] * F(1) + lam[1] * F(3) == 1


def test_solution_status_invariants():
    unique = solve_exact(RationalMatrix.from_rows([[2]]), [F(1)])
    assert unique.particular is not None and not unique.nullspace_basis
    inconsistent = solve_exact(RationalMatrix.from_rows([[0]]), [F(1)])
    assert inconsistent.status is SolveStatus.INCONSISTENT
    assert inconsistent.particular is None


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_exact(RationalMatrix.from_rows([[1, 2]]), [F(1), F(2)])


@st.composite
def small_systems(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    entries = st.fractions(
        min_value=-5, max_value=5, max_denominator=6
    )
    a = [[draw(entries) for _ in range(n)] for _ in range(m)]
    x = [draw(entries) for _ in range(n)]
    return a, x


@given(small_systems())
def test_consistent_solves_have_exact_residual(system):
    rows, x = system
    a = RationalMatrix.from_rows(rows)
    b = a.matvec(x)
    sol = solve_exact(a, b)
    assert sol.status is not SolveStatus.INCONSISTENT
    assert a.matvec(list(sol.particular)) == b
    for z in sol.nullspace_basis:
        assert a.matvec(list(z)) == [F(0)] * a.rows


@given(small_systems(), st.fractions(min_value=-5, max_value=5, max_denominator=6))
def test_certificates_verify_on_perturbed_rhs(system, shift):
    rows, x = system
    a = RationalMatrix.from_rows(rows)
    b = a.matvec(x)
    b[0] += shift
    sol = solve_exact(a, b)
    if sol.status is SolveStatus.INCONSISTENT:
        lam = sol.certificate
        assert all(
            sum(lam[r] * a.at(r, c) for r in range(a.rows)) == 0
            for c in range(a.cols)
        )
        assert sum(lam[r] * b[r] for r in range(a.rows)) == 1
    else:
        assert a.matvec(list(sol.particular)) == b

from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplicial_games import (
    RationalMatrix,
    SimplicialComplex,
    exactnum,
    SolveStatus,
    decompose_shapley,
    format_rational,
    full_simplex,
    parse_rational,
    solve_exact,
)
from simplicial_games.errors import DimensionMismatch, ParseError
from conftest import boundary_simplex, golden_fixtures
from oracles import decomposition_system_ref, matvec, solve_exact_ref, system_inconsistent

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
    # two exceed the interpreter's integer digit limit; the rest spell digits
    # that are not ASCII, which int() would read
    for text in [
        "1.5", "", "a/b", "1/0", "1/2/3", "7" * 5000, "1/" + "7" * 5000,
        "\u0663/4", "3/\u0664", "\uff13", "\u0967",
    ]:
        with pytest.raises(ParseError):
            parse_rational(text)


def test_matrix_entry_count_checked():
    with pytest.raises(DimensionMismatch):  # ragged rows
        RationalMatrix(2, [[F(1), F(1)], [F(1)]])
    with pytest.raises(DimensionMismatch):  # rows of the wrong column count
        RationalMatrix(3, [[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch):  # a row for a matrix of no columns
        RationalMatrix(0, [[1]])


def test_solve_identity_system():
    sol = solve_exact(RationalMatrix(1, [[1]]), [F(1)])
    assert sol.status is SolveStatus.UNIQUE
    assert sol.particular == (F(1),)
    assert sol.nullspace_basis == ()


def test_solve_duplicated_row_underdetermined():
    a = RationalMatrix(2, [[1, 2], [1, 2]])
    sol = solve_exact(a, [F(1), F(1)])
    assert sol.status is SolveStatus.UNDERDETERMINED
    # free variable fixed to 0
    assert sol.particular == (F(1), F(0))
    assert len(sol.nullspace_basis) == 1


def test_solve_link_fvector_row():
    # single row (1, 2) = the link f-vector of a degree-2 vertex
    a = RationalMatrix(2, [[1, 2]])
    sol = solve_exact(a, [F(1)])
    assert sol.status is SolveStatus.UNDERDETERMINED
    # the canonical weights p_k = 1/(r s_k) with r=2, s=(1,2) satisfy the row
    candidate = [F(1, 2), F(1, 4)]
    assert matvec(a, candidate) == [F(1)]


def test_solve_inconsistent_with_certificate():
    rows = [[1, 1], [2, 2]]
    sol = solve_exact(RationalMatrix(2, rows), [F(1), F(3)])
    assert sol.status is SolveStatus.INCONSISTENT
    assert sol.particular is None
    lam = sol.certificate
    # lam @ A == 0 and lam @ b == 1
    for c in range(2):
        assert sum(lam[r] * rows[r][c] for r in range(2)) == 0
    assert lam[0] * F(1) + lam[1] * F(3) == 1


def test_solution_status_invariants():
    unique = solve_exact(RationalMatrix(1, [[2]]), [F(1)])
    assert unique.particular is not None and not unique.nullspace_basis
    inconsistent = solve_exact(RationalMatrix(1, [[0]]), [F(1)])
    assert inconsistent.status is SolveStatus.INCONSISTENT
    assert inconsistent.particular is None


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_exact(RationalMatrix(2, [[1, 2]]), [F(1), F(2)])


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
    a = RationalMatrix(len(x), rows)
    b = matvec(a, x)
    sol = solve_exact(a, b)
    assert sol.status is not SolveStatus.INCONSISTENT
    assert matvec(a, list(sol.particular)) == b
    for z in sol.nullspace_basis:
        assert matvec(a, list(z)) == [F(0)] * a.rows


@given(small_systems(), st.fractions(min_value=-5, max_value=5, max_denominator=6))
def test_certificates_verify_on_perturbed_rhs(system, shift):
    rows, x = system
    a = RationalMatrix(len(x), rows)
    b = matvec(a, x)
    b[0] += shift
    sol = solve_exact(a, b)
    if sol.status is SolveStatus.INCONSISTENT:
        check_certificate(rows, b, sol.certificate)
    else:
        assert matvec(a, list(sol.particular)) == b


# -- differential gate: the sparse solver against the dense reference ---------


def random_system(rng: Random) -> tuple[list[list], RationalMatrix, list[Fraction]]:
    """A seeded system of shape 0..12 x 0..12, dense or at most 20% dense.

    Entries are all ``Fraction``s, all ints, or mixed.  Some systems have
    rows duplicated and combined from earlier ones (rank deficient), a
    perturbed consistent rhs (inconsistent), a zero row and a zero column,
    or no rows or no columns at all.
    """
    m, n = rng.randint(0, 12), rng.randint(0, 12)
    if rng.random() < 0.1:
        m, n = rng.choice([(0, n), (m, 0)])
    density = rng.choice([1.0, 0.2, 0.1])
    kind = rng.choice(["fraction", "int", "mixed"])
    zero = F(0) if kind == "fraction" else 0

    def entry() -> Fraction | int:
        if rng.random() >= density:
            return zero
        if kind == "int" or kind == "mixed" and rng.random() < 0.5:
            return rng.randint(-5, 5)
        return F(rng.randint(-5, 5), rng.randint(1, 4))

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if m >= 2 and rng.random() < 0.5:
        for r in range(m // 2, m):
            i, j = rng.randrange(r), rng.randrange(r)
            s = rng.randint(-3, 3)
            t = rng.randint(-3, 3) if kind == "int" else F(rng.randint(-3, 3), 2)
            rows[r] = [s * x + t * y for x, y in zip(rows[i], rows[j])]
    if m and n and rng.random() < 0.3:
        zero_row, zero_col = rng.randrange(m), rng.randrange(n)
        rows[zero_row] = [zero] * n
        for row in rows:
            row[zero_col] = zero
    a = RationalMatrix(n, rows)
    rhs_kind = rng.choice(["random", "consistent", "perturbed"])
    if rhs_kind == "random":
        b = [entry() for _ in range(m)]
    else:
        b = matvec(a, [entry() for _ in range(n)])
        if rhs_kind == "perturbed" and m:
            b[rng.randrange(m)] += rng.randint(1, 5)
    return rows, a, b


def check_all_fractions(sol) -> None:
    """Every entry of a solution is a ``Fraction``, whatever the entries solved."""
    vectors = [sol.particular or (), sol.certificate or (), *sol.nullspace_basis]
    assert all(type(e) is Fraction for vector in vectors for e in vector)


def check_certificate(rows, b, lam) -> None:
    n = len(rows[0]) if rows else 0
    assert all(sum(lam[r] * rows[r][c] for r in range(len(rows))) == 0 for c in range(n))
    assert sum(lam[r] * b[r] for r in range(len(rows))) == 1


def test_solve_exact_matches_dense_reference_on_random_systems():
    statuses = {status: 0 for status in SolveStatus}
    for seed in range(400):
        rows, a, b = random_system(Random(seed))
        sol = solve_exact(a, b)
        assert sol == solve_exact_ref(a, b), seed
        check_all_fractions(sol)
        statuses[sol.status] += 1
        assert (sol.status is SolveStatus.INCONSISTENT) == system_inconsistent(rows, b)
        if sol.status is SolveStatus.INCONSISTENT:
            check_certificate(rows, b, sol.certificate)
    # the corpus reaches every outcome often
    assert min(statuses.values()) >= 30, statuses


@pytest.mark.parametrize("size", range(13))
def test_solve_exact_matches_dense_reference_on_empty_shapes(size):
    for a, b in [
        (RationalMatrix(0, [[]] * size), [F(0)] * size),
        (RationalMatrix(0, [[]] * size), [F(k % 3) for k in range(size)]),
        (RationalMatrix(size, []), []),
    ]:
        sol = solve_exact(a, b)
        assert sol == solve_exact_ref(a, b)
        check_all_fractions(sol)


BIG = 10**12
big_entries = st.one_of(
    st.just(0),
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


@st.composite
def big_systems(draw):
    """Systems up to 6 x 6 with numerators and denominators up to 10^12.

    Some rows are combinations of earlier rows (rank deficient); the rhs is
    arbitrary, consistent, or consistent with one entry perturbed, so both
    inconsistent systems and their certificates come up.
    """
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = [[draw(big_entries) for _ in range(n)] for _ in range(m)]
    for r in range(1, m):
        if draw(st.booleans()):
            i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            s, t = draw(big_entries), draw(big_entries)
            rows[r] = [s * x + t * y for x, y in zip(rows[i], rows[j])]
    a = RationalMatrix(n, rows)
    rhs_kind = draw(st.sampled_from(["random", "consistent", "perturbed"]))
    if rhs_kind == "random":
        return a, [draw(big_entries) for _ in range(m)]
    b = matvec(a, [draw(big_entries) for _ in range(n)])
    if rhs_kind == "perturbed":
        b[draw(st.integers(0, m - 1))] += draw(big_entries.filter(bool))
    return a, b


@settings(max_examples=300, deadline=None)
@given(big_systems())
@example(  # rank 1, perturbed: the certificate is normalized by its rhs
    (
        RationalMatrix(
            2, [[F(999_999_999_989, 10**12 - 11), 7 * 10**11], [F(1, 10**12), F(7, 10)]]
        ),
        [F(3, 10**12 - 1), F(5, 10**12 + 1)],
    )
)
def test_solve_exact_matches_dense_reference_on_big_entries(system):
    # same pivot order, so the same particular solution, nullspace basis
    # and certificate, whatever the scale the int rows are kept at
    a, b = system
    sol = solve_exact(a, b)
    assert sol == solve_exact_ref(a, b)
    check_all_fractions(sol)


def test_matrix_keeps_a_copy_of_the_caller_rows():
    rows = [[1, F(1, 2)], [0, 3]]
    a = RationalMatrix(2, rows)
    rows[0][0] = 7
    rows[1] = [9, 9]
    rows.append([1, 1])
    assert (a.rows, a.cols) == (2, 2)
    assert matvec(a, [1, 1]) == [F(3, 2), F(3)]
    assert solve_exact(a, [1, 3]).particular == (F(1, 2), F(1))


def test_solve_exact_converts_no_zero_entry(monkeypatch):
    converted = []

    def fraction(*args):
        converted.append(args)
        return F(*args)

    monkeypatch.setattr(exactnum, "Fraction", fraction)
    for rows, b in [
        ([[0, 2, 0], [1, 0, 0]], [4, 1]),  # underdetermined
        ([[0, 2], [0, 4], [F(1, 3), 0]], [1, 3, 1]),  # inconsistent: a second pass
    ]:
        sol = solve_exact(RationalMatrix(len(rows[0]), rows), b)
        assert sol.status is not SolveStatus.UNIQUE
        assert converted and all(args[0] != 0 for args in converted), converted
        converted.clear()


def seeded_nonpure(seed: int) -> SimplicialComplex:
    """9-13 vertices, 7-20 facets of 2-5 vertices, facets of at least two sizes.

    Rows of one decomposition system then carry the coefficients of
    several facet sizes, so their denominators differ.
    """
    rng = Random(f"nonpure-{seed}")
    while True:
        n = rng.randint(9, 13)
        facets = [
            rng.sample(range(1, n + 1), rng.randint(2, 5)) for _ in range(rng.randint(7, 20))
        ]
        delta = SimplicialComplex.from_facets(n, facets)
        if len({f.bit_count() for f in delta.facets}) > 1:
            return delta


def decomposition_systems():
    corpus = {f"golden {name}": delta for name, delta in golden_fixtures().items()}
    for n in range(5, 11):
        corpus[f"skeleton_{n}_3"] = full_simplex(n).skeleton(3)
    for n in range(4, 9):
        corpus[f"boundary_simplex_{n}"] = boundary_simplex(n)
    corpus["skeleton_8_4"] = full_simplex(8).skeleton(4)
    for seed in range(8):
        corpus[f"nonpure_{seed}"] = seeded_nonpure(seed)
    return corpus


DECOMPOSITION_SYSTEMS = decomposition_systems()


@pytest.mark.parametrize("name", sorted(DECOMPOSITION_SYSTEMS))
def test_decompose_solves_as_the_dense_reference(name):
    delta = DECOMPOSITION_SYSTEMS[name]
    for i in delta.vertices:
        dec = decompose_shapley(delta, i)
        facet_order, _, rows, rhs = decomposition_system_ref(delta, i)
        a = RationalMatrix(len(facet_order), rows)
        ref = solve_exact_ref(a, rhs)
        assert solve_exact(a, rhs) == ref
        if ref.status is SolveStatus.INCONSISTENT:
            assert dec.certificate == ref.certificate
            check_certificate(rows, rhs, dec.certificate)
            assert system_inconsistent(rows, rhs)
        else:
            assert dec.facet_weights == dict(zip(facet_order, ref.particular))

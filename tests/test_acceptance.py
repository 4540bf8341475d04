"""Acceptance suite: every criterion exact (zero tolerance), one line each.

Run standalone with ``pytest -s tests/test_acceptance.py``; each test prints
``acceptance criterion N (<name>): PASS|FAIL``.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial
from random import Random

from simplicial_games import (
    Face,
    Permutation,
    canonical_shapley_tables,
    carrier_game,
    check_efficiency_identity,
    check_pi_delta_contained,
    classical_shapley_all,
    classify_shapley,
    decompose_shapley,
    efficiency_coefficients,
    full_simplex,
    generalized_shapley,
    permutation_preserves,
    probabilistic_value,
    random_dummy_game,
    random_game,
    random_monotone_game,
    shapley_efficiency_closed_form,
    solve_p_system,
    symm_group,
)
from simplicial_games.exactnum import SolveStatus
from simplicial_games.values import DecompositionStatus
from conftest import all_fixtures, cycle, figure_a
from oracles import (
    built_link,
    check_symmetry_reduction,
    closure_masks,
    decomposition_system_ref,
    ext_ids,
    f_vector_of,
    link_masks,
    link_transposition_bijection,
    star_masks,
    system_inconsistent,
)

F = Fraction

FIXTURES = all_fixtures()


def face(*vs):
    return Face.from_vertices(vs)


def report(num: int, name: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"acceptance criterion {num} ({name}): {verdict}")
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"


def test_criterion_1_classical_oracle_equivalence():
    failures = []
    for n in range(2, 7):
        delta = full_simplex(n)
        rng = Random(1000 + n)
        for g in range(100):
            v = random_game(delta, rng)
            oracle = classical_shapley_all(v)
            for i in delta.vertices:
                got = generalized_shapley(v, i)
                if got != oracle[i]:
                    failures.append((n, g, i, got, oracle[i]))
    report(1, "classical oracle equivalence", failures)


def test_criterion_2_carrier_identities():
    failures = []
    for name, delta in FIXTURES.items():
        tables = canonical_shapley_tables(delta)
        rng = Random(2000)
        for i in delta.vertices:
            table = tables[i]
            for t in delta.link(face(i)):
                probe = carrier_game(delta, t, strict=True)
                if probabilistic_value(probe, i, table) != table.get(t, 0):
                    failures.append((name, i, "strict carrier", t))
            own = carrier_game(delta, face(i))
            if probabilistic_value(own, i, table) != 1:
                failures.append((name, i, "own carrier"))
            for g in range(20):
                v = random_dummy_game(delta, i, rng)
                if probabilistic_value(v, i, table) != v.value(face(i)):
                    failures.append((name, i, "dummy recovery", g))
    report(2, "carrier identities", failures)


def test_criterion_3_shapley_complex_solution():
    failures = []
    covered = 0
    for name, delta in FIXTURES.items():
        cls = classify_shapley(delta)
        if not cls.is_shapley:
            continue
        covered += 1
        r = delta.rank
        s = cls.s_vector
        candidate = [F(1, r * s[k]) for k in range(r)]
        for i in delta.vertices:
            row = built_link(delta, face(i)).f_vector()
            residual = sum(
                (F(row[k]) * candidate[k] for k in range(r)), F(0)
            ) - 1
            if residual != 0:
                failures.append((name, i, residual))
        if solve_p_system(delta).status is SolveStatus.INCONSISTENT:
            failures.append((name, "system inconsistent"))
    if covered < 5:
        failures.append(("too few shapley fixtures", covered))
    report(3, "canonical p solves the common-probability system", failures)


def test_criterion_4_efficiency_identity():
    failures = []
    for name, delta in FIXTURES.items():
        if not delta.has_pure_links():
            failures.append((name, "fixture unexpectedly not pure-links"))
            continue
        tables = canonical_shapley_tables(delta)
        coeffs = efficiency_coefficients(delta, tables)
        rng = Random(4000)
        for g in range(50):
            v = random_game(delta, rng)
            check = check_efficiency_identity(coeffs, tables, v)
            if not check.equal or check.residual != 0:
                failures.append((name, g, check.residual))
        if classify_shapley(delta).is_shapley:
            closed = shapley_efficiency_closed_form(delta)
            if coeffs != closed:
                diff = {
                    t: (coeffs[t], closed[t])
                    for t in coeffs
                    if coeffs[t] != closed[t]
                }
                failures.append((name, "closed form mismatch", diff))
    report(4, "efficiency identity and closed forms", failures)


def test_criterion_5_symmetry_reduction():
    failures = []
    reduced = 0
    for name, delta in FIXTURES.items():
        tables = canonical_shapley_tables(delta)
        if check_pi_delta_contained(delta).contained:
            reduced += 1
            rep = check_symmetry_reduction(delta, tables)
            if not rep.ok:
                failures.append((name, rep.violation))
        for i, j in combinations(delta.vertices, 2):
            if not permutation_preserves(
                delta, Permutation.transposition(delta.n, i, j)
            ):
                continue
            mapping = link_transposition_bijection(delta, i, j)
            li, lj = built_link(delta, face(i)), built_link(delta, face(j))
            if set(mapping) != set(li.faces) or set(mapping.values()) != set(
                lj.faces
            ):
                failures.append((name, i, j, "not a bijection"))
            if any(t.bit_count() != u.bit_count() for t, u in mapping.items()):
                failures.append((name, i, j, "cardinality broken"))
            if li.f_vector() != lj.f_vector():
                failures.append((name, i, j, "f-vectors differ"))
    if reduced < 3:
        failures.append(("too few fixtures satisfy the hypothesis", reduced))
    report(5, "symmetry reduction and link isomorphism", failures)


def test_criterion_6_structural_oracles():
    failures = []
    for name, delta in FIXTURES.items():
        faces = set(delta.faces)
        if faces != closure_masks(delta.n, list(delta.facets)):
            failures.append((name, "closure"))
        if delta.f_vector() != f_vector_of(faces):
            failures.append((name, "f-vector"))
        for s in delta.faces:
            if set(delta.link(s)) != link_masks(
                delta.n, faces, s
            ):
                failures.append((name, "link", s))
            if set(delta.star(s)) != star_masks(faces, s):
                failures.append((name, "star", s))
            if set(delta.extension_set(s)) != ext_ids(delta.n, faces, s):
                failures.append((name, "ext", s))
    for n in range(2, 11):
        if symm_group(full_simplex(n)) != factorial(n):
            failures.append(("simplex symmetry order", n))
    for n in range(4, 11):
        if symm_group(cycle(n)) != 2 * n:
            failures.append(("cycle symmetry order", n))
    if symm_group(FIXTURES["petersen"]) != 120:
        failures.append(("petersen symmetry order", 120))
    report(6, "structural oracles", failures)


def test_criterion_7_decomposition():
    failures = []
    for n in range(2, 6):
        delta = full_simplex(n)
        for i in delta.vertices:
            dec = decompose_shapley(delta, i)
            if dec.status is not DecompositionStatus.EXACT:
                failures.append(("simplex", n, i, "not exact"))
            elif dec.facet_weights != {face(*range(1, n + 1)): F(1)}:
                failures.append(("simplex", n, i, dec.facet_weights))
    delta = figure_a()
    for i in delta.vertices:
        dec = decompose_shapley(delta, i)
        if dec.status is DecompositionStatus.EXACT:
            rng = Random(7000 + i)
            for g in range(20):
                v = random_game(delta, rng)
                combined = sum(
                    (
                        w * classical_shapley_all(v, Face(f).vertices)[i]
                        for f, w in dec.facet_weights.items()
                    ),
                    F(0),
                )
                if combined != generalized_shapley(v, i):
                    failures.append(("figure_a", i, g, "weighted sum mismatch"))
        else:
            lam = dec.certificate
            _, _, rows, rhs = decomposition_system_ref(delta, i)
            lhs_ok = all(
                sum((lam[r] * rows[r][c] for r in range(len(rows))), F(0)) == 0
                for c in range(len(dec.facet_order))
            )
            rhs_val = sum((lam[r] * rhs[r] for r in range(len(rows))), F(0))
            if not lhs_ok or rhs_val != 1:
                failures.append(("figure_a", i, "bad certificate"))
            if not system_inconsistent(rows, rhs):
                failures.append(("figure_a", i, "re-elimination disagrees"))
    report(7, "decomposition into classical Shapley values", failures)


def test_criterion_8_monotone_nonnegativity():
    failures = []
    for name, delta in FIXTURES.items():
        rng = Random(8000)
        for g in range(100):
            v = random_monotone_game(delta, rng)
            for i in delta.vertices:
                value = generalized_shapley(v, i)
                if value < 0:
                    failures.append((name, g, i, value))
    report(8, "nonnegativity on monotone games", failures)

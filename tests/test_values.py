from fractions import Fraction
from math import comb
from random import Random
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simplicial_games import (
    EMPTY_FACE,
    Face,
    Game,
    RationalMatrix,
    SimplicialComplex,
    SolveStatus,
    axiom_suite,
    canonical_shapley_tables,
    carrier_game,
    check_efficiency_identity,
    classical_shapley_all,
    classical_shapley_oracle,
    classify_shapley,
    decompose_shapley,
    efficiency_coefficients,
    efficiency_rhs,
    full_simplex,
    generalized_shapley,
    group_value,
    probabilistic_value,
    random_dummy_game,
    random_game,
    random_monotone_game,
    scale_add,
    shapley_efficiency_closed_form,
    solve_exact,
)
from simplicial_games import values
from simplicial_games.games import game_from_dict, random_rational
from simplicial_games.errors import (
    HypothesisNotMet,
    KeyOutsideLink,
    MissingPlayerTable,
    NotPureLinks,
    TooManyPlayers,
    VertexNotInComplex,
)
from conftest import (
    all_fixtures,
    boundary_simplex,
    cycle,
    figure_a,
    figure_b,
    golden_fixtures,
    random_nonpure_complexes,
)
from oracles import (
    axiom_suite_ref,
    built_link,
    decomposition_system_ref,
    efficiency_coefficients_ref,
    game_to_dict,
    generalized_shapley_ref,
    indicator_game,
    probabilistic_value_ref,
    solve_exact_ref,
    system_inconsistent,
)

F = Fraction


def face(*vs):
    return Face.from_vertices(vs)


# -- probabilistic values ------------------------------------------------------

def test_point_mass_on_empty_returns_singleton_worth():
    delta = figure_a()
    v = Game(delta, {face(3): F(7, 2), face(2, 3): F(1)})
    table = {EMPTY_FACE: F(1)}
    assert probabilistic_value(v, 3, table) == F(7, 2)


def test_own_carrier_game_pays_one_under_normalized_table():
    delta = figure_a()
    tables = canonical_shapley_tables(delta)
    for i in delta.vertices:
        v = carrier_game(delta, face(i))
        assert probabilistic_value(v, i, tables[i]) == 1


def test_dummy_recovery_under_normalized_tables():
    rng = Random(9)
    delta = figure_b()
    tables = canonical_shapley_tables(delta)
    for i in delta.vertices:
        for _ in range(10):
            v = random_dummy_game(delta, i, rng)
            assert probabilistic_value(v, i, tables[i]) == v.value(face(i))


def test_probabilistic_value_errors():
    v = Game(figure_a())
    with pytest.raises(KeyOutsideLink):
        probabilistic_value(v, 1, {face(4): F(1)})
    with pytest.raises(KeyOutsideLink):  # a key holding the player
        probabilistic_value(v, 1, {face(1, 2): F(1)})


def test_probabilistic_value_matches_link_walk_reference():
    rng = Random(37)
    corpus = [*golden_fixtures().values(), *random_nonpure_complexes(40, seed=808)]
    for delta in corpus:
        canonical = canonical_shapley_tables(delta)
        games = [random_game(delta, rng), random_monotone_game(delta, rng)]
        for i in delta.vertices:
            link = delta.link(face(i))
            signed = {t: random_rational(rng) for t in link}
            sparse = {t: F(1) for t in rng.sample(link, len(link) // 2)}
            for weights in (canonical[i], signed, sparse):
                for table in (dict(weights), MappingProxyType(weights)):
                    for v in games:
                        assert probabilistic_value(v, i, table) == probabilistic_value_ref(
                            v, i, table
                        )


def reader_tables(delta, rng):
    """Canonical, signed and sparse tables of every player, as dicts and as read-only views."""
    canonical = canonical_shapley_tables(delta)
    signed = {i: {t: random_rational(rng) for t in table} for i, table in canonical.items()}
    sparse = {
        i: {t: F(1) for t in rng.sample(list(table), len(table) // 2)}
        for i, table in canonical.items()
    }
    for tables in (canonical, signed, sparse):
        yield tables
        yield MappingProxyType({i: MappingProxyType(t) for i, t in tables.items()})


def test_every_table_reader_matches_its_reference():
    rng = Random(53)
    corpus = [*golden_fixtures().values(), *random_nonpure_complexes(20, seed=53)]
    for delta in corpus:
        v = random_game(delta, rng)
        for tables in reader_tables(delta, rng):
            phi = {i: probabilistic_value_ref(v, i, tables[i]) for i in delta.vertices}
            assert group_value(v, tables) == phi
            coeffs = efficiency_coefficients(delta, tables)
            ref = efficiency_coefficients_ref(delta, tables)
            assert list(coeffs.items()) == list(ref.items())
            lhs = sum(phi.values(), F(0))
            rhs = sum((a * v.value(t) for t, a in ref.items()), F(0))
            check = check_efficiency_identity(coeffs, tables, v)
            assert (check.equal, check.lhs, check.rhs) == (True, lhs, rhs)
            report = axiom_suite(delta, tables, seed=3, rounds=1)
            assert report == axiom_suite_ref(delta, tables, seed=3, rounds=1)


def test_every_reader_takes_the_weights_under_key_i_as_player_is():
    delta = figure_a()
    # player 2 alone pays, v({2}), by a point mass on the empty coalition;
    # its key comes first, so reading the tables by position would misplace it
    only_2 = {2: {EMPTY_FACE: F(1)}, **{i: {} for i in delta.vertices if i != 2}}
    coeffs = efficiency_coefficients(delta, only_2)
    assert coeffs == {t: int(t == face(2)) for t in delta.faces[1:]}
    rng = Random(61)
    for v in [random_game(delta, rng) for _ in range(5)]:
        paid = {i: v.value(face(2)) if i == 2 else 0 for i in delta.vertices}
        assert group_value(v, only_2) == paid
        check = check_efficiency_identity(coeffs, only_2, v)
        assert check.equal and check.lhs == v.value(face(2))
    # player 2's canonical table under key 1 holds {1}, outside Link(1), for every reader
    canonical = canonical_shapley_tables(delta)
    swapped = {**canonical, 1: canonical[2], 2: canonical[1]}
    v = random_game(delta, rng)
    readers = [
        lambda: group_value(v, swapped),
        lambda: efficiency_coefficients(delta, swapped),
        lambda: check_efficiency_identity(efficiency_coefficients(delta, canonical), swapped, v),
        lambda: axiom_suite(delta, swapped, rounds=1),
    ]
    for read in readers:
        with pytest.raises(KeyOutsideLink, match="link of vertex 1$"):
            read()


def test_linearity_of_probabilistic_value():
    rng = Random(13)
    delta = figure_a()
    tables = canonical_shapley_tables(delta)
    for _ in range(10):
        v, w = random_game(delta, rng), random_game(delta, rng)
        a, b = random_rational(rng), random_rational(rng)
        for i in delta.vertices:
            t = tables[i]
            assert probabilistic_value(scale_add(v, w, a, b), i, t) == (
                a * probabilistic_value(v, i, t)
                + b * probabilistic_value(w, i, t)
            )


def test_strict_carrier_probe_reads_off_the_weight():
    delta = cycle(4)
    tables = canonical_shapley_tables(delta)
    for i in delta.vertices:
        for t in delta.link(face(i)):
            probe = carrier_game(delta, t, strict=True)
            assert probabilistic_value(probe, i, tables[i]) == tables[i].get(t, 0)


def test_own_carrier_reads_table_total():
    # phi_i(v_{i}) equals the sum of the weights, normalized or not
    delta = cycle(4)
    rng = Random(19)
    for i in delta.vertices:
        table = {t: random_rational(rng) for t in delta.link(face(i))}
        v = carrier_game(delta, face(i))
        assert probabilistic_value(v, i, table) == sum(table.values(), F(0))


# -- generalized Shapley -------------------------------------------------------

def test_symmetric_game_splits_evenly():
    delta = full_simplex(3)
    v = Game(
        delta,
        {f: F(f.bit_count() ** 2) for f in delta.faces if f != EMPTY_FACE},
    )
    for i in (1, 2, 3):
        assert generalized_shapley(v, i) == 3


def test_matches_classical_oracle_on_simplices():
    rng = Random(21)
    for n in (2, 3, 4):
        delta = full_simplex(n)
        for _ in range(20):
            v = random_game(delta, rng)
            for i in delta.vertices:
                assert generalized_shapley(v, i) == classical_shapley_oracle(v, i)


def test_isolated_vertex():
    delta = SimplicialComplex.from_facets(1, [[1]])
    q = F(9, 7)
    v = Game(delta, {face(1): q})
    assert generalized_shapley(v, 1) == q


def test_generalized_matches_term_by_term_reference():
    rng = Random(31)
    corpus = [*golden_fixtures().values(), *random_nonpure_complexes(60, seed=606)]
    for delta in corpus:
        for v in (random_game(delta, rng), random_monotone_game(delta, rng)):
            for i in delta.vertices:
                assert generalized_shapley(v, i) == generalized_shapley_ref(v, i)


def games_of_every_kind(delta: SimplicialComplex, rng: Random) -> list[Game]:
    """One game per constructor: Game, game_from_dict, each random_*, scale_add, carrier_game."""
    i = delta.vertices[-1]
    given = Game(delta, {f: random_rational(rng) for f in delta.faces[1::2]})
    v, w = random_game(delta, rng), random_monotone_game(delta, rng)
    return [
        given,
        game_from_dict(game_to_dict(given), delta),
        v,
        w,
        random_dummy_game(delta, i, rng),
        scale_add(v, w, random_rational(rng), random_rational(rng)),
        carrier_game(delta, face(i)),
        carrier_game(delta, EMPTY_FACE, strict=True),
    ]


def test_every_players_value_from_one_pass_matches_the_reference():
    rng = Random(23)
    corpus = [*golden_fixtures().values(), *random_nonpure_complexes(20, seed=2323)]
    for delta in corpus:
        for v in games_of_every_kind(delta, rng):
            for i in delta.vertices:
                assert generalized_shapley(v, i) == generalized_shapley_ref(v, i), (delta, v)


def test_a_game_derived_after_its_sources_sums_were_taken_has_its_own():
    rng = Random(4)
    for delta in (figure_a(), figure_b(), full_simplex(5), cycle(6)):
        v, w = random_game(delta, rng), random_game(delta, rng)
        before = {i: generalized_shapley(v, i) for i in delta.vertices}
        for derived in (scale_add(v, w, 2, -1), scale_add(v, v, 1, 1), scale_add(w, v, 0, 3)):
            for i in delta.vertices:
                assert generalized_shapley(derived, i) == generalized_shapley_ref(derived, i)
        assert before == {i: generalized_shapley_ref(v, i) for i in delta.vertices}
        assert before == {i: generalized_shapley(v, i) for i in delta.vertices}


def test_generalized_requires_vertex():
    delta = figure_b()
    with pytest.raises(VertexNotInComplex):
        generalized_shapley(Game(delta), 6)
    # a game whose sums were taken still refuses an id that is no vertex
    v = random_game(SimplicialComplex.from_facets(4, [[1, 2], [2, 4]]), Random(2))
    assert generalized_shapley(v, 2) == generalized_shapley_ref(v, 2)
    for i in (3, 5, 70):
        with pytest.raises(VertexNotInComplex):
            generalized_shapley(v, i)


# -- classical oracle ----------------------------------------------------------

def test_oracle_additive_game():
    delta = full_simplex(3)
    weights = {1: F(4), 2: F(-2), 3: F(1, 3)}
    v = Game(
        delta,
        {
            f: sum((weights[j] for j in Face(f).vertices), F(0))
            for f in delta.faces
            if f != EMPTY_FACE
        },
    )
    for i in (1, 2, 3):
        assert classical_shapley_oracle(v, i) == weights[i]


def test_oracle_two_player_split():
    delta = full_simplex(2)
    v = Game(delta, {face(1, 2): F(1)})
    assert classical_shapley_oracle(v, 1) == F(1, 2)
    assert classical_shapley_oracle(v, 2) == F(1, 2)


def test_oracle_majority_game():
    delta = full_simplex(3)
    v = Game(
        delta,
        {f: F(1) for f in delta.faces if f.bit_count() >= 2},
    )
    for i in (1, 2, 3):
        assert classical_shapley_oracle(v, i) == F(1, 3)


def test_oracle_player_cap():
    delta = full_simplex(11)
    with pytest.raises(TooManyPlayers):
        classical_shapley_oracle(Game(delta), 1)


def test_oracle_on_facet_restrictions():
    delta = figure_a()
    rng = Random(2)
    v = random_game(delta, rng)
    f = face(2, 3, 5)
    values = classical_shapley_all(v, Face(f).vertices)
    # efficiency of the classical value on the restriction
    assert sum(values.values(), F(0)) == v.value(f)


# -- canonical tables ----------------------------------------------------------

def test_canonical_tables_on_simplex():
    n = 4
    tables = canonical_shapley_tables(full_simplex(n))
    for i, table in tables.items():
        for t, p in table.items():
            assert p == F(1, n) * F(1, comb(n - 1, t.bit_count()))


def test_canonical_tables_on_cycle():
    tables = canonical_shapley_tables(cycle(4))
    for i, table in tables.items():
        assert table.get(EMPTY_FACE, 0) == F(1, 2)
        for t in table:
            if t != EMPTY_FACE:
                assert table.get(t, 0) == F(1, 4)


def test_canonical_tables_are_the_links_weighted_by_size():
    corpus = [*golden_fixtures().values(), *random_nonpure_complexes(30, seed=909)]
    for delta in corpus:
        tables = canonical_shapley_tables(delta)
        assert list(tables) == list(delta.vertices)
        for i, table in tables.items():
            link = delta.link(face(i))
            weights = values.shapley_weights(built_link(delta, face(i)).f_vector())
            assert list(table.items()) == [(t, weights[t.bit_count()]) for t in link]
            assert all(type(t) is int for t in table)


def test_canonical_tables_are_probability_distributions(fixtures):
    for delta in fixtures.values():
        for i, table in canonical_shapley_tables(delta).items():
            assert sum(table.values(), F(0)) == 1
            assert all(w >= 0 for w in table.values())


def test_group_value_matches_direct_formula():
    delta = figure_a()
    tables = canonical_shapley_tables(delta)
    rng = Random(4)
    probes = [indicator_game(delta, face(3, 4, 5))] + [
        random_game(delta, rng) for _ in range(5)
    ]
    for v in probes:
        gv = group_value(v, tables)
        for i in delta.vertices:
            assert gv[i] == generalized_shapley(v, i)


def test_group_value_zero_game():
    delta = figure_b()
    gv = group_value(Game(delta), canonical_shapley_tables(delta))
    assert all(x == 0 for x in gv.values())


def test_group_value_missing_table():
    delta = figure_b()
    tables = dict(canonical_shapley_tables(delta))
    del tables[2]
    with pytest.raises(MissingPlayerTable):
        group_value(Game(delta), tables)


# -- efficiency ----------------------------------------------------------------

def test_efficiency_coefficients_classical():
    for n in (2, 3, 4):
        delta = full_simplex(n)
        coeffs = efficiency_coefficients(delta, canonical_shapley_tables(delta))
        grand = face(*range(1, n + 1))
        for t, a in coeffs.items():
            assert a == (1 if t == grand else 0)


def test_efficiency_coefficients_zero_tables():
    delta = cycle(4)
    zero_tables = {i: {} for i in delta.vertices}
    coeffs = efficiency_coefficients(delta, zero_tables)
    assert all(a == 0 for a in coeffs.values())


def test_efficiency_coefficients_reject_keys_outside_the_link():
    delta = figure_a()
    for bad in (face(1, 2), face(4)):  # holds the player; {1,4} is no face
        tables = dict(canonical_shapley_tables(delta))
        tables[1] = {**tables[1], bad: F(1)}
        with pytest.raises(KeyOutsideLink):
            efficiency_coefficients(delta, tables)


def test_efficiency_scatter_matches_gain_loss_reference():
    rng = Random(808)
    corpus = [*golden_fixtures().values(), *random_nonpure_complexes(40, seed=808)]
    for delta in corpus:
        empty = {i: {} for i in delta.vertices}
        for tables in [*table_kinds(delta, rng), empty]:
            got = efficiency_coefficients(delta, tables)
            assert list(got.items()) == list(
                efficiency_coefficients_ref(delta, tables).items()
            )


def test_closed_form_matches_construction_on_shapley_fixtures():
    # every Shapley complex with pure links, the 3-skeleta on 9 and 10 vertices too
    corpus = [
        *golden_fixtures().values(),
        *random_nonpure_complexes(40, seed=808),
        full_simplex(9).skeleton(3),
        full_simplex(10).skeleton(3),
    ]
    checked = 0
    for delta in corpus:
        if not delta.has_pure_links() or not classify_shapley(delta).is_shapley:
            continue
        built = efficiency_coefficients(delta, canonical_shapley_tables(delta))
        closed = shapley_efficiency_closed_form(delta)
        assert list(closed.items()) == list(built.items()), delta
        checked += 1
    assert checked >= 14


def test_closed_form_rhs_weights_each_class_once():
    # the per-class sums against the whole closed-form table dotted with the
    # game, and the closed form's own refusal where it has none
    rng = Random(31)
    outcomes = set()
    for delta in [*golden_fixtures().values(), *random_nonpure_complexes(40, seed=808)]:
        v = random_game(delta, rng)
        try:
            closed = shapley_efficiency_closed_form(delta)
        except (NotPureLinks, HypothesisNotMet) as refusal:
            with pytest.raises(type(refusal)) as caught:
                values.shapley_efficiency_rhs(v)
            assert str(caught.value) == str(refusal)
            outcomes.add(type(refusal))
            continue
        assert values.shapley_efficiency_rhs(v) == efficiency_rhs(closed, v)
        outcomes.add(None)
    assert outcomes == {None, NotPureLinks, HypothesisNotMet}


def test_efficiency_identity_everywhere(fixtures):
    rng = Random(17)
    for delta in fixtures.values():
        tables = canonical_shapley_tables(delta)
        coeffs = efficiency_coefficients(delta, tables)
        for _ in range(5):
            v = random_game(delta, rng)
            check = check_efficiency_identity(coeffs, tables, v)
            assert check.equal and check.residual == 0


def test_efficiency_identity_figure_b_with_constructed_coefficients():
    # not a Shapley complex: the closed form is inapplicable, but the
    # constructed coefficients still satisfy the identity
    delta = figure_b()
    tables = canonical_shapley_tables(delta)
    coeffs = efficiency_coefficients(delta, tables)
    rng = Random(23)
    for _ in range(5):
        check = check_efficiency_identity(coeffs, tables, random_game(delta, rng))
        assert check.equal


def test_aggregate_equals_closed_form_evaluation():
    delta = cycle(4)
    v = indicator_game(delta, face(1, 2))
    total = sum(
        (generalized_shapley(v, i) for i in delta.vertices), F(0)
    )
    coeffs = shapley_efficiency_closed_form(delta)
    rhs = sum((a * v.value(t) for t, a in coeffs.items()), F(0))
    assert total == rhs == F(1, 2)


# -- decomposition ---------------------------------------------------------------

def test_decompose_full_simplex():
    for n in (2, 3, 4):
        delta = full_simplex(n)
        for i in delta.vertices:
            dec = decompose_shapley(delta, i)
            assert dec.solution.status is SolveStatus.UNIQUE
            assert dict(zip(dec.facet_order, dec.solution.particular)) == {
                face(*range(1, n + 1)): F(1)
            }


def test_decompose_figure_a_per_player():
    delta = figure_a()
    outcomes = {}
    for i in delta.vertices:
        dec = decompose_shapley(delta, i)
        outcomes[i] = dec.solution.status
        if dec.solution.status is SolveStatus.INCONSISTENT:
            _, _, rows, rhs = decomposition_system_ref(delta, i)
            assert system_inconsistent(rows, rhs)
    assert outcomes == {
        1: SolveStatus.UNIQUE,
        2: SolveStatus.INCONSISTENT,
        3: SolveStatus.INCONSISTENT,
        4: SolveStatus.UNIQUE,
        5: SolveStatus.INCONSISTENT,
    }


def test_decompose_figure_b_cone_points():
    # both triangles are cones over their non-shared vertices, and vertex 3
    # sees a balanced pair of facets
    delta = figure_b()
    dec = decompose_shapley(delta, 3)
    assert dec.solution.status is SolveStatus.UNIQUE
    assert dict(zip(dec.facet_order, dec.solution.particular)) == {
        face(1, 2, 3): F(1, 2),
        face(3, 4, 5): F(1, 2),
    }
    dec1 = decompose_shapley(delta, 1)
    assert dict(zip(dec1.facet_order, dec1.solution.particular)) == {face(1, 2, 3): F(1)}


def decomposition_corpus() -> dict[str, SimplicialComplex]:
    corpus = all_fixtures()
    for n in range(5, 9):
        corpus[f"skeleton_{n}_3"] = full_simplex(n).skeleton(3)
    for n in range(4, 7):
        corpus[f"boundary_simplex_{n}"] = boundary_simplex(n)
    corpus["cone_cycle_5"] = SimplicialComplex.from_facets(
        6, [[i, i % 5 + 1, 6] for i in range(1, 6)]
    )
    return corpus


DECOMPOSITION_CORPUS = decomposition_corpus()


@pytest.mark.parametrize("name", sorted(DECOMPOSITION_CORPUS))
def test_decompose_solves_the_coefficient_identity(name):
    # every row is sum_F c_F / (|F| C(|F|-1, |T|)) = 1 / ((r_i+1) f_{|T|-1});
    # weighted facet-restricted classical values then reproduce the
    # generalized value on every game
    delta = DECOMPOSITION_CORPUS[name]
    rng = Random(100)
    for i in delta.vertices:
        dec = decompose_shapley(delta, i)
        if dec.solution.status is SolveStatus.INCONSISTENT:
            lam, (_, _, rows, rhs) = dec.solution.certificate, decomposition_system_ref(delta, i)
            for c in range(len(dec.facet_order)):
                assert sum(lam[r] * rows[r][c] for r in range(len(rows))) == 0
            assert sum(lam[r] * rhs[r] for r in range(len(rows))) == 1
            continue
        weights = dict(zip(dec.facet_order, dec.solution.particular))
        single = face(i)
        link = built_link(delta, single)
        fv = link.f_vector()
        for t in link.faces:
            k = t.bit_count()
            lhs = sum(
                (
                    weights[f] / (f.bit_count() * comb(f.bit_count() - 1, k))
                    for f in delta.facets_containing(t | single)
                ),
                F(0),
            )
            assert lhs == F(1, (link.rank + 1) * fv[k])
        for _ in range(5):
            v = random_game(delta, rng)
            combined = sum(
                (
                    w * classical_shapley_all(v, Face(f).vertices)[i]
                    for f, w in weights.items()
                ),
                F(0),
            )
            assert combined == generalized_shapley(v, i)


def test_decompose_samples_no_game(monkeypatch, fixtures):
    def unreachable(*args, **kwargs):
        raise AssertionError("decompose_shapley must not sample games")

    monkeypatch.setattr(values, "classical_shapley_all", unreachable)
    monkeypatch.setattr(values, "random_game", unreachable)
    for delta in fixtures.values():
        for i in delta.vertices:
            decompose_shapley(delta, i)


def test_decompose_calls_the_solver_only_to_certify_an_infeasible_system(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_exact(*args)

    monkeypatch.setattr(values, "solve_exact", counted)
    statuses = set()
    for delta in DECOMPOSITION_CORPUS.values():
        for i in delta.vertices:
            calls.clear()
            status = decompose_shapley(delta, i).solution.status
            assert len(calls) == (status is SolveStatus.INCONSISTENT)
            statuses.add(status)
    assert statuses == {SolveStatus.UNIQUE, SolveStatus.INCONSISTENT}


def test_decompose_boundary_of_8_simplex():
    # the largest system of the boundary family the suite decomposes
    delta = boundary_simplex(8)
    dec = decompose_shapley(delta, 1)
    assert (len(dec.row_faces), len(dec.facet_order)) == (127, 7)
    assert dec.solution.status is SolveStatus.UNIQUE
    facet_order, _, rows, rhs = decomposition_system_ref(delta, 1)
    ref = solve_exact_ref(RationalMatrix(len(facet_order), rows), rhs)
    assert dict(zip(dec.facet_order, dec.solution.particular)) == dict(
        zip(facet_order, ref.particular)
    )


def assert_decompose_matches_the_reference(delta: SimplicialComplex) -> None:
    """decompose_shapley against the dense reference solve of the facet-scan rows."""
    for i in delta.vertices:
        dec = decompose_shapley(delta, i)
        facet_order, row_faces, rows, rhs = decomposition_system_ref(delta, i)
        ref = solve_exact_ref(RationalMatrix(len(facet_order), rows), rhs)
        assert (dec.facet_order, dec.row_faces) == (facet_order, row_faces)
        sol = dec.solution
        assert (sol.status, sol.particular, sol.certificate) == (
            ref.status, ref.particular, ref.certificate
        )


@pytest.mark.parametrize("name", sorted(DECOMPOSITION_CORPUS))
def test_decompose_matches_the_reference_solve(name):
    assert_decompose_matches_the_reference(DECOMPOSITION_CORPUS[name])


def test_decomposition_rows_match_the_facet_scan_on_seeded_complexes():
    complexes = [d for d in random_nonpure_complexes(80, seed=13) if d.n <= 7]
    assert len(complexes) > 20
    for delta in complexes:
        assert_decompose_matches_the_reference(delta)


@st.composite
def nonpure_complexes(draw):
    """Complexes on at most 7 vertices whose facets differ in size."""
    n = draw(st.integers(3, 7))
    big = draw(st.sets(st.integers(1, n), min_size=2, max_size=n - 1))
    # a smaller face through a vertex outside ``big``
    small = draw(st.sets(st.integers(1, n), max_size=len(big) - 2))
    small.add(draw(st.sampled_from(sorted(set(range(1, n + 1)) - big))))
    rest = draw(st.lists(st.sets(st.integers(1, n), min_size=1), max_size=4))
    delta = SimplicialComplex.from_facets(n, [big, small, *rest])
    assume(len({f.bit_count() for f in delta.facets}) > 1)
    return delta


@settings(max_examples=80, deadline=None)
@given(nonpure_complexes())
def test_decomposition_rows_match_the_facet_scan(delta):
    assert_decompose_matches_the_reference(delta)


def test_decomposition_is_the_solve_of_its_system():
    # each facet F through i owns the row T = F - i, nonzero only in F's
    # column, so the columns are independent and a solution is unique
    statuses = set()
    for delta in random_nonpure_complexes(60, seed=28):
        for i in delta.vertices:
            facet_order, row_faces, rows, rhs = decomposition_system_ref(delta, i)
            dec = decompose_shapley(delta, i)
            assert (dec.facet_order, dec.row_faces) == (facet_order, row_faces)
            assert dec.solution == solve_exact(RationalMatrix(len(facet_order), rows), rhs)
            statuses.add(dec.solution.status)
    assert statuses == {SolveStatus.UNIQUE, SolveStatus.INCONSISTENT}


def test_decompose_requires_vertex():
    with pytest.raises(VertexNotInComplex):
        decompose_shapley(figure_a(), 9)


# -- axiom suite ------------------------------------------------------------------

def test_axiom_suite_canonical_tables_pass(fixtures):
    for name, delta in fixtures.items():
        checks = axiom_suite(delta, canonical_shapley_tables(delta), seed=1, rounds=3)
        assert all(c.ok for c in checks), (name, [c for c in checks if not c.ok])


def test_axiom_suite_flags_negative_weight():
    delta = cycle(4)
    tables = dict(canonical_shapley_tables(delta))
    weights = {
        EMPTY_FACE: F(3, 2),
        face(2): F(-1, 4),
        face(4): F(-1, 4),
    }
    tables[1] = weights  # still sums to 1
    checks = axiom_suite(delta, tables, seed=1, rounds=2)
    failed = {(c.axiom, c.player) for c in checks if not c.ok}
    assert ("monotone", 1) in failed


def test_axiom_suite_flags_unnormalized_table():
    delta = cycle(4)
    tables = dict(canonical_shapley_tables(delta))
    weights = dict(tables[2])
    weights[EMPTY_FACE] += F(1, 5)
    tables[2] = weights
    checks = axiom_suite(delta, tables, seed=1, rounds=2)
    failed = {(c.axiom, c.player) for c in checks if not c.ok}
    assert ("dummy", 2) in failed


def table_kinds(delta, rng):
    """The canonical tables, and tables mixing three kinds over the players.

    Player i gets, by i mod 3, a signed random table, the canonical table
    doubled (not normalized), or the canonical table with the weight of its
    last link face negated and moved onto the empty face (normalized).
    """
    canonical = canonical_shapley_tables(delta)
    mixed = {}
    for i, table in canonical.items():
        weights = dict(table)
        if i % 3 == 0:
            weights = {t: random_rational(rng) for t in weights}
        elif i % 3 == 1:
            weights = {t: 2 * w for t, w in weights.items()}
        else:
            top = list(weights)[-1]
            weights[EMPTY_FACE] += 2 * weights[top]
            weights[top] = -weights[top]
        mixed[i] = weights
    return [canonical, mixed]


def test_axiom_suite_matches_probe_by_game_reference():
    rng = Random(707)
    details = set()
    for delta in [*golden_fixtures().values(), *random_nonpure_complexes(10, seed=707)]:
        for tables in table_kinds(delta, rng):
            checks = axiom_suite(delta, tables, seed=5, rounds=1)
            assert checks == axiom_suite_ref(delta, tables, seed=5, rounds=1)
            details |= {c.detail.split()[0] for c in checks if not c.ok}
    assert {"negative", "dummy"} <= details  # both probe kinds did fail


# -- monotone nonnegativity --------------------------------------------------------

def test_monotone_games_get_nonnegative_values():
    rng = Random(31)
    for delta in (figure_a(), cycle(5)):
        for _ in range(20):
            v = random_monotone_game(delta, rng)
            for i in delta.vertices:
                assert generalized_shapley(v, i) >= 0

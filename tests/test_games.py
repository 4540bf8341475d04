from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from simplicial_games import (
    EMPTY_FACE,
    Face,
    Game,
    Permutation,
    SimplicialComplex,
    carrier_game,
    full_simplex,
    random_dummy_game,
    random_game,
    random_monotone_game,
    scale_add,
)
from simplicial_games import games
from simplicial_games.games import game_from_dict, random_rational
from simplicial_games.errors import (
    BudgetExceeded,
    ComplexMismatch,
    DimensionMismatch,
    EmptyCarrierNotAllowed,
    EmptyCoalitionWorth,
    FaceNotInComplex,
    GameFaceNotInComplex,
    ParseError,
    VertexOutOfRange,
)
from simplicial_games.symmetry import moved_facet
from conftest import figure_a, figure_b, golden_fixtures, random_nonpure_complexes
from oracles import (
    PermutationNotSymmetry,
    draw_ref,
    game_to_dict,
    indicator_game,
    inverse,
    is_dummy,
    is_dummy_ref,
    is_monotone,
    is_monotone_ref,
    permuted,
    random_monotone_game_ref,
)

F = Fraction
CORPUS = [*golden_fixtures().values(), *random_nonpure_complexes(40, seed=808)]


def face(*vs):
    return Face.from_vertices(vs)


def test_empty_coalition_pinned_to_zero():
    delta = full_simplex(2)
    v = Game(delta, {face(1): F(3)})
    assert v.value(EMPTY_FACE) == 0
    with pytest.raises(EmptyCoalitionWorth):
        Game(delta, {EMPTY_FACE: F(1)})
    with pytest.raises(EmptyCoalitionWorth):
        Game(delta, {EMPTY_FACE: -2})
    assert Game(delta, {EMPTY_FACE: 0}) == Game(delta)


def test_explicit_zeros_normalized_away():
    delta = full_simplex(2)
    v = Game(delta, {face(1): F(0), face(2): F(5)})
    assert face(1) not in v.values
    assert v.value(face(1)) == 0


def test_game_rejects_foreign_faces():
    with pytest.raises(GameFaceNotInComplex):
        Game(figure_a(), {face(1, 4): F(1)})
    with pytest.raises(GameFaceNotInComplex):
        Game(figure_a()).value(face(1, 4))
    with pytest.raises(GameFaceNotInComplex):
        Game(figure_a()).value(face(6))


def symmetry_of(delta):
    """The first vertex transposition preserving delta, or the identity."""
    swaps = (
        Permutation.transposition(delta.n, i, j)
        for i, j in combinations(delta.vertices, 2)
    )
    return next(
        (p for p in swaps if moved_facet(delta, p) is None),
        Permutation(tuple(range(1, delta.n + 1))),
    )


def test_game_is_one_table_in_face_order():
    rng = Random(41)
    for delta in CORPUS:
        v = random_game(delta, rng)
        table = v.mask_table()
        assert list(table) == list(delta.faces)
        assert all(table[f] == v.value(f) for f in delta.faces)
        assert table[0] == 0
        with pytest.raises(TypeError):
            table[0] = F(1)
        zeroed = Game(delta, {f: F(0) for f in delta.faces})
        assert list(zeroed.mask_table()) == list(table) and zeroed == Game(delta)


def test_values_are_the_nonzero_worths_in_face_order():
    rng = Random(43)
    for delta in CORPUS:
        # every third face, the empty one first, is given worth 0 explicitly
        v = Game(
            delta,
            {f: F(0) if k % 3 == 0 else random_rational(rng) for k, f in enumerate(delta.faces)},
        )
        values = v.values
        assert all(w != 0 for w in values.values())
        assert list(values) == [f for f in delta.faces if v.value(f) != 0]
        values.clear()
        assert v.values == {f: v.value(f) for f in delta.faces if v.value(f)}
        with pytest.raises(AttributeError):
            v.values = {}


def test_game_rebuilt_from_its_values_is_equal():
    rng = Random(47)
    for delta in CORPUS:
        i = delta.vertices[-1]
        pi = symmetry_of(delta)
        games = [
            Game(delta),
            random_game(delta, rng),
            random_monotone_game(delta, rng),
            random_dummy_game(delta, i, rng),
        ]
        games.append(permuted(games[1], pi))
        for v in games:
            assert Game(delta, v.values) == v


def test_carrier_game_plain():
    delta = full_simplex(2)
    v = carrier_game(delta, face(1))
    assert v.value(face(1)) == 1
    assert v.value(face(1, 2)) == 1
    assert v.value(face(2)) == 0
    assert v.value(EMPTY_FACE) == 0


def test_carrier_game_strict():
    delta = full_simplex(2)
    v = carrier_game(delta, face(1), strict=True)
    assert v.values == {face(1, 2): F(1)}


def test_carrier_game_strict_figure_a():
    v = carrier_game(figure_a(), face(2, 3), strict=True)
    assert v.values == {face(1, 2, 3): F(1), face(2, 3, 5): F(1)}


def test_carrier_game_empty_face_rules():
    delta = full_simplex(2)
    with pytest.raises(EmptyCarrierNotAllowed):
        carrier_game(delta, EMPTY_FACE)
    v = carrier_game(delta, EMPTY_FACE, strict=True)
    assert all(v.value(f) == 1 for f in delta.faces if f != EMPTY_FACE)


def test_carrier_game_requires_face():
    with pytest.raises(FaceNotInComplex):
        carrier_game(figure_a(), face(1, 4))


def test_indicator_is_carrier_difference():
    delta = figure_a()
    for t in delta.faces:
        if t == EMPTY_FACE:
            continue
        ind = indicator_game(delta, t)
        diff = scale_add(
            carrier_game(delta, t), carrier_game(delta, t, strict=True), 1, -1
        )
        assert ind == diff
        assert all(
            ind.value(s) == (1 if s == t else 0) for s in delta.faces
        )


def test_carrier_decomposes_over_indicators():
    delta = figure_b()
    for t in delta.faces:
        if t == EMPTY_FACE:
            continue
        v = carrier_game(delta, t)
        total = Game(delta)
        for s in delta.faces:
            if s != EMPTY_FACE and t & s == t:
                total = scale_add(total, indicator_game(delta, s), 1, 1)
        assert total == v


def test_strict_carrier_decomposes_over_indicators():
    delta = figure_b()
    for t in delta.faces:
        strict = carrier_game(delta, t, strict=True)
        total = Game(delta)
        for s in delta.faces:
            if s != EMPTY_FACE and t & s == t and s != t:
                total = scale_add(total, indicator_game(delta, s), 1, 1)
        assert total == strict


def test_monotonicity():
    delta = full_simplex(3)
    sizes = Game(delta, {f: F(f.bit_count()) for f in delta.faces if f != EMPTY_FACE})
    assert is_monotone(sizes)
    drop = Game(delta, {face(1): F(1)})
    assert not is_monotone(drop)
    for t in delta.faces:
        if t != EMPTY_FACE:
            assert is_monotone(carrier_game(delta, t))
        assert is_monotone(carrier_game(delta, t, strict=True))


def test_monotone_matches_definition_scan():
    rng = Random(11)
    verdicts = set()
    for delta in CORPUS:
        monotone = random_monotone_game(delta, rng)
        bumped = rng.choice(delta.faces[1:])
        games = [
            random_game(delta, rng),
            monotone,
            Game(delta, {**monotone.values, bumped: monotone.value(bumped) + 5}),
        ]
        for v in games:
            worth = [(f, v.value(f)) for f in delta.faces]
            brute = all(ws <= wt for s, ws in worth for t, wt in worth if s & t == s)
            assert is_monotone(v) == brute == is_monotone_ref(v)
            verdicts.add(brute)
        assert is_monotone(monotone)
    assert verdicts == {True, False}


def test_monotone_game_matches_all_pairs_reference():
    corpus = [*golden_fixtures().values(), *random_nonpure_complexes(40, seed=707)]
    for k, delta in enumerate(corpus):
        for seed in (k, k + 1000):
            assert random_monotone_game(delta, Random(seed)) == random_monotone_game_ref(
                delta, Random(seed)
            )


@pytest.mark.parametrize("seed", [0, 1, 5, 808])
@pytest.mark.parametrize("lo", [-9, 0])
@pytest.mark.parametrize("k", [0, 1, 500])
def test_draws_are_the_randint_pairs(seed, lo, k):
    mine, ref = Random(seed), Random(seed)
    assert games._draws(mine, k, lo) == [draw_ref(ref, lo) for _ in range(k)]
    assert mine.getstate() == ref.getstate()


def test_seeded_generators_draw_as_the_randint_pairs():
    d = games._DRAWN_DENOMINATOR
    for k, delta in enumerate(CORPUS):
        mine, ref = Random(k), Random(k)
        assert random_rational(mine) == F(draw_ref(ref), d)
        want = {f: F(draw_ref(ref), d) for f in delta.faces[1:]}
        assert random_game(delta, mine) == Game(delta, want)
        i = delta.vertices[k % len(delta.vertices)]
        bit = delta.require_vertex(i)
        free = {f: F(draw_ref(ref), d) for f in delta.faces[1:] if not f & bit}
        vi = F(draw_ref(ref), d)
        want = {f: free.get(f ^ bit, 0) + vi if f & bit else free[f] for f in delta.faces[1:]}
        assert random_dummy_game(delta, i, mine) == Game(delta, want)
        assert mine.getstate() == ref.getstate()


def test_dummy_carrier():
    delta = figure_a()
    # 3 is not in {4,5} and {4,5} is in its link, so 3 is dummy for v_{4,5}
    v = carrier_game(delta, face(4, 5))
    assert is_dummy(v, 3)


def test_dummy_additive():
    delta = full_simplex(3)
    weights = {1: F(2), 2: F(-1), 3: F(5, 2)}
    v = Game(
        delta,
        {
            f: sum((weights[j] for j in Face(f).vertices), F(0))
            for f in delta.faces
            if f != EMPTY_FACE
        },
    )
    for i in (1, 2, 3):
        assert is_dummy(v, i)


def test_dummy_fails_on_strict_empty_carrier():
    delta = full_simplex(2)
    v = carrier_game(delta, EMPTY_FACE, strict=True)
    assert not is_dummy(v, 1)  # v({2}) = 1 but v({1,2}) = 1 != 1 + v({1}) = 2


def test_dummy_matches_bruteforce():
    rng = Random(5)
    verdicts = set()
    for delta in CORPUS:
        for i in delta.vertices:
            dummy = random_dummy_game(delta, i, rng)
            games = [random_game(delta, rng), dummy]
            joined = [f for f in delta.faces if f >> (i - 1) & 1 and f.bit_count() > 1]
            if joined:
                bumped = rng.choice(joined)
                games.append(Game(delta, {**dummy.values, bumped: dummy.value(bumped) + 1}))
            for v in games:
                brute = is_dummy_ref(v, i)  # the definition, over the built link
                assert is_dummy(v, i) == brute
                verdicts.add(brute)
            assert is_dummy(dummy, i)
    assert verdicts == {True, False}


def test_permuted_game_identity_and_swap():
    delta = full_simplex(2)
    v = Game(delta, {face(1): F(3), face(2): F(5)})
    assert permuted(v, Permutation((1, 2))) == v
    swapped = permuted(v, Permutation.transposition(2, 1, 2))
    assert swapped.value(face(1)) == 5
    assert swapped.value(face(2)) == 3


def test_permuted_game_requires_symmetry():
    delta = figure_b()
    with pytest.raises(PermutationNotSymmetry):
        permuted(Game(delta, {}), Permutation.transposition(5, 1, 3))


@pytest.mark.parametrize("size", [2, 7])
def test_permuted_game_rejects_wrong_size_permutation(size):
    delta = full_simplex(5)
    with pytest.raises(DimensionMismatch):
        permuted(Game(delta, {}), Permutation(tuple(range(1, size + 1))))


def test_permuted_game_figure_b_reflection():
    delta = figure_b()
    pi = Permutation((4, 5, 3, 1, 2))
    v = carrier_game(delta, face(1, 2))
    moved = permuted(v, pi)
    # (pi.v)(T) = v(pi T): support is the preimages of supersets of {1,2}
    assert moved.value(face(4, 5)) == 1
    assert moved.value(face(3, 4, 5)) == 1
    assert moved.value(face(1, 2)) == 0
    assert permuted(moved, Permutation(inverse(pi))) == v


def test_permute_roundtrip_random():
    delta = figure_b()
    rng = Random(3)
    pi = Permutation((2, 1, 3, 4, 5))
    for _ in range(5):
        v = random_game(delta, rng)
        assert permuted(permuted(v, pi), Permutation(inverse(pi))) == v


def test_scale_add():
    delta = full_simplex(2)
    v = Game(delta, {face(1): F(1), face(1, 2): F(2)})
    w = Game(delta, {face(2): F(4)})
    zero = Game(delta)
    assert scale_add(v, w, 1, 0) == v
    doubled = scale_add(v, zero, 2, 1)
    assert doubled.value(face(1, 2)) == 4
    with pytest.raises(ComplexMismatch):
        scale_add(v, Game(full_simplex(3)), 1, 1)


def test_scale_add_is_pointwise():
    rng = Random(53)
    for delta in CORPUS:
        v, w = random_game(delta, rng), random_monotone_game(delta, rng)
        a, b = random_rational(rng), random_rational(rng)
        combined = scale_add(v, w, a, b)
        assert all(
            combined.value(f) == a * v.value(f) + b * w.value(f) for f in delta.faces
        )


def test_game_json_roundtrip():
    delta = figure_a()
    v = Game(delta, {face(1, 2, 3): F(5, 2), face(2): F(-1)})
    doc = game_to_dict(v)
    assert doc == {"values": {"2": "-1", "1,2,3": "5/2"}}
    assert game_from_dict(doc, delta) == v


def test_game_json_rejects_bad_keys():
    delta = figure_a()
    with pytest.raises(ParseError):
        game_from_dict({"values": {"": "1"}}, delta)
    with pytest.raises(ParseError):
        game_from_dict({"values": {"x": "1"}}, delta)
    with pytest.raises(GameFaceNotInComplex):
        game_from_dict({"values": {"1,4": "1"}}, delta)
    with pytest.raises(ParseError):
        game_from_dict({"values": {"1": "0.5"}}, delta)
    # two keys spelling one coalition: neither silently wins
    for first, second in [("1,2", "2,1"), ("3", "03"), ("2,3", "3,02")]:
        values = {"1": "1", first: "1", second: "2"}
        with pytest.raises(ParseError, match=f"keys '{first}' and '{second}' name one"):
            game_from_dict({"values": values}, delta)
    # an id is a run of ASCII digits: no sign, space, underscore or other digits
    for key in ("+2", " 2", "2 ", "-1", "\u0662", "1,,2", "1, 2", "1,"):
        with pytest.raises(ParseError, match="bad coalition key"):
            game_from_dict({"values": {key: "1"}}, delta)
    with pytest.raises(ParseError, match="bad coalition key"):
        game_from_dict({"values": {"1_0": "1"}}, SimplicialComplex.from_facets(10, [[1, 10]]))
    # a well-formed key naming no face, and a worth that is not a string
    for key, text, error in [
        ("0", "1", VertexOutOfRange),
        ("1,1", "1", VertexOutOfRange),
        ("2,1,2", "1", VertexOutOfRange),
        ("1", 1, ParseError),
    ]:
        with pytest.raises(error) as caught:
            game_from_dict({"values": {key: text}}, delta)
        assert type(caught.value) is error


def test_table_is_numerators_over_the_lcm_denominator():
    delta = figure_a()
    v = Game(delta, {face(1): F(1, 6), face(2, 3): F(-3, 4), face(3): 2})
    assert v.denominator == 12
    table = v.numerators
    assert list(table) == list(delta.faces)
    assert (table[face(1).mask], table[face(2, 3).mask], table[face(3).mask]) == (2, -9, 24)
    with pytest.raises(TypeError):
        table[0] = 1
    # combining games divides out what the numerators and the denominator share
    assert scale_add(v, v, 3, -1).denominator == 6
    assert scale_add(v, v, 1, -1).denominator == 1


def test_game_over_too_long_a_denominator_is_refused(monkeypatch):
    delta = full_simplex(6)
    # pairwise coprime denominators 2^k - 1, k prime: their lcm is their product
    primes = [k for k in range(2, 400) if all(k % j for j in range(2, k))]
    worth = {f: F(1, 2**k - 1) for f, k in zip(delta.faces[1:], primes)}
    doc = {"values": {",".join(map(str, Face(f).vertices)): str(w) for f, w in worth.items()}}
    table_bits = len(delta.faces) * Game(delta, worth).denominator.bit_length()
    assert table_bits == 64 * sum(primes[:63])
    monkeypatch.setattr(games, "TABLE_BITS_BUDGET", table_bits)
    assert game_from_dict(doc, delta) == Game(delta, worth)
    monkeypatch.setattr(games, "TABLE_BITS_BUDGET", table_bits - 1)
    with pytest.raises(BudgetExceeded):
        Game(delta, worth)
    with pytest.raises(BudgetExceeded):
        game_from_dict(doc, delta)

from fractions import Fraction
from random import Random

import pytest

from simplicial_games import (
    EMPTY_FACE,
    Face,
    Game,
    Permutation,
    carrier_game,
    full_simplex,
    indicator_game,
    random_dummy_game,
    random_game,
    random_monotone_game,
    scale_add,
)
from simplicial_games.games import game_from_dict, game_to_dict
from simplicial_games.errors import (
    ComplexMismatch,
    DimensionMismatch,
    EmptyCarrierNotAllowed,
    EmptyCoalitionWorth,
    FaceNotInComplex,
    GameFaceNotInComplex,
    ParseError,
    PermutationNotSymmetry,
)
from conftest import figure_a, figure_b, golden_fixtures, random_nonpure_complexes
from oracles import inverse, random_monotone_game_ref

F = Fraction


def face(*vs):
    return Face.from_vertices(vs)


def test_empty_coalition_pinned_to_zero():
    delta = full_simplex(2)
    v = Game(delta, {face(1): F(3)})
    assert v.value(EMPTY_FACE) == 0
    with pytest.raises(EmptyCoalitionWorth):
        Game(delta, {EMPTY_FACE: F(1)})


def test_explicit_zeros_normalized_away():
    delta = full_simplex(2)
    v = Game(delta, {face(1): F(0), face(2): F(5)})
    assert face(1) not in v.values
    assert v.value(face(1)) == 0


def test_game_rejects_foreign_faces():
    with pytest.raises(GameFaceNotInComplex):
        Game(figure_a(), {face(1, 4): F(1)})


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
            if s != EMPTY_FACE and t.issubset(s):
                total = scale_add(total, indicator_game(delta, s), 1, 1)
        assert total == v


def test_strict_carrier_decomposes_over_indicators():
    delta = figure_b()
    for t in delta.faces:
        strict = carrier_game(delta, t, strict=True)
        total = Game(delta)
        for s in delta.faces:
            if s != EMPTY_FACE and t.issubset(s) and s != t:
                total = scale_add(total, indicator_game(delta, s), 1, 1)
        assert total == strict


def test_monotonicity():
    delta = full_simplex(3)
    sizes = Game(delta, {f: F(len(f)) for f in delta.faces if f != EMPTY_FACE})
    assert sizes.is_monotone()
    drop = Game(delta, {face(1): F(1)})
    assert not drop.is_monotone()
    for t in delta.faces:
        if t != EMPTY_FACE:
            assert carrier_game(delta, t).is_monotone()
        assert carrier_game(delta, t, strict=True).is_monotone()


def test_monotone_matches_definition_scan():
    rng = Random(11)
    delta = figure_a()
    for _ in range(20):
        v = random_game(delta, rng)
        brute = all(
            v.value(s) <= v.value(t)
            for s in delta.faces
            for t in delta.faces
            if s.issubset(t)
        )
        assert v.is_monotone() == brute
    for _ in range(5):
        assert random_monotone_game(delta, rng).is_monotone()


def test_monotone_game_matches_all_pairs_reference():
    corpus = [*golden_fixtures().values(), *random_nonpure_complexes(40, seed=707)]
    for k, delta in enumerate(corpus):
        for seed in (k, k + 1000):
            assert random_monotone_game(delta, Random(seed)) == random_monotone_game_ref(
                delta, Random(seed)
            )


def test_dummy_carrier():
    delta = figure_a()
    # 3 is not in {4,5} and {4,5} is in its link, so 3 is dummy for v_{4,5}
    v = carrier_game(delta, face(4, 5))
    assert v.is_dummy(3)


def test_dummy_additive():
    delta = full_simplex(3)
    weights = {1: F(2), 2: F(-1), 3: F(5, 2)}
    v = Game(
        delta,
        {
            f: sum((weights[j] for j in f.vertices), F(0))
            for f in delta.faces
            if f != EMPTY_FACE
        },
    )
    for i in (1, 2, 3):
        assert v.is_dummy(i)


def test_dummy_fails_on_strict_empty_carrier():
    delta = full_simplex(2)
    v = carrier_game(delta, EMPTY_FACE, strict=True)
    assert not v.is_dummy(1)  # v({2}) = 1 but v({1,2}) = 1 != 1 + v({1}) = 2


def test_dummy_matches_bruteforce():
    rng = Random(5)
    delta = figure_b()
    for _ in range(20):
        v = random_game(delta, rng)
        for i in delta.vertices:
            single = face(i)
            brute = all(
                v.value(t.union(single)) == v.value(t) + v.value(single)
                for t in delta.link(single).faces
            )
            assert v.is_dummy(i) == brute
    for i in delta.vertices:
        assert random_dummy_game(delta, i, rng).is_dummy(i)


def test_permuted_game_identity_and_swap():
    delta = full_simplex(2)
    v = Game(delta, {face(1): F(3), face(2): F(5)})
    assert v.permuted(Permutation.identity(2)) == v
    swapped = v.permuted(Permutation.transposition(2, 1, 2))
    assert swapped.value(face(1)) == 5
    assert swapped.value(face(2)) == 3


def test_permuted_game_requires_symmetry():
    delta = figure_b()
    with pytest.raises(PermutationNotSymmetry):
        Game(delta, {}).permuted(Permutation.transposition(5, 1, 3))


@pytest.mark.parametrize("size", [2, 7])
def test_permuted_game_rejects_wrong_size_permutation(size):
    delta = full_simplex(5)
    with pytest.raises(DimensionMismatch):
        Game(delta, {}).permuted(Permutation.identity(size))


def test_permuted_game_figure_b_reflection():
    delta = figure_b()
    pi = Permutation.from_mapping(5, {1: 4, 4: 1, 2: 5, 5: 2})
    v = carrier_game(delta, face(1, 2))
    moved = v.permuted(pi)
    # (pi.v)(T) = v(pi T): support is the preimages of supersets of {1,2}
    assert moved.value(face(4, 5)) == 1
    assert moved.value(face(3, 4, 5)) == 1
    assert moved.value(face(1, 2)) == 0
    assert moved.permuted(Permutation(inverse(pi.images))) == v


def test_permute_roundtrip_random():
    delta = figure_b()
    rng = Random(3)
    pi = Permutation.from_mapping(5, {1: 2, 2: 1})
    for _ in range(5):
        v = random_game(delta, rng)
        assert v.permuted(pi).permuted(Permutation(inverse(pi.images))) == v


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

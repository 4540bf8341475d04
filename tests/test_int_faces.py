"""A face in a collection is its mask: a plain ``int``, however it came in.

Every face the library stores or returns in a collection, and every key of a
table of faces, is exactly ``int``, whether the complex was built from
masks, vertex lists, ``Face`` objects, ``full_simplex``, ``skeleton`` or a
JSON document.  ``Face`` is the edge where one face is read in or printed,
so each print site gives the same text for a mask and for a ``Face``.
"""

import re
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from simplicial_games import (
    Decomposition,
    DecompositionStatus,
    Face,
    Game,
    SimplicialComplex,
    canonical_shapley_tables,
    check_pi_delta_contained,
    decompose_shapley,
    efficiency_coefficients,
    full_simplex,
    moved_facet,
    pi_delta_generators,
    probabilistic_value,
    random_game,
    shapley_efficiency_closed_form,
)
from simplicial_games import cli
from simplicial_games.complexes import as_face, complex_from_dict
from simplicial_games.errors import (
    HypothesisNotMet, KeyOutsideLink, NotPureLinks, ParseError, VertexOutOfRange,
)
from oracles import probabilistic_value_ref

F = Fraction
FIGURE_A = [[1, 2, 3], [2, 3, 5], [3, 4, 5]]


def builds():
    """One complex per way in: masks, vertex lists, Faces, and the derived ones."""
    masks = [sum(1 << (v - 1) for v in f) for f in FIGURE_A]
    return {
        "masks": SimplicialComplex(5, masks),
        "vertex lists": SimplicialComplex.from_facets(5, FIGURE_A),
        "vertex tuples": SimplicialComplex(5, [tuple(f) for f in FIGURE_A]),
        "Faces": SimplicialComplex(5, [Face.from_vertices(f) for f in FIGURE_A]),
        "Faces and masks": SimplicialComplex(5, [Face(masks[0]), *masks[1:]]),
        "full_simplex": full_simplex(4),
        "skeleton": full_simplex(5).skeleton(2),
        "skeleton of a Face family": SimplicialComplex(
            5, [Face.from_vertices(f) for f in FIGURE_A]
        ).skeleton(1),
        "complex_from_dict": complex_from_dict({"n": 5, "facets": FIGURE_A}),
        "cycle from dict": complex_from_dict(
            {"n": 5, "facets": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}
        ),
        "empty family": SimplicialComplex(3, []),
        "Face on a large ground set": SimplicialComplex(64, [Face(1 << 63 | 1)]),
    }


def all_ints(faces) -> bool:
    return all(type(f) is int for f in faces)


@pytest.mark.parametrize("name", sorted(builds()))
def test_every_stored_face_of_a_complex_is_an_int(name):
    delta = builds()[name]
    assert all_ints(delta.faces) and all_ints(delta.facets) and all_ints(delta.face_ids)
    for k in range(3):
        assert all_ints(delta.skeleton(k).faces) and all_ints(delta.skeleton(k).facets)
    for s in delta.faces:
        for taken in (s, Face(s), Face(s).vertices):  # a mask, a Face and ids in
            assert all_ints(delta.link(taken))
            assert all_ints(delta.star(taken))
            assert all_ints(delta.facets_containing(taken))


@pytest.mark.parametrize("name", sorted(builds()))
def test_every_table_of_faces_is_keyed_by_ints(name):
    delta = builds()[name]
    if not delta.vertices:
        return
    v = random_game(delta, Random(3))
    spelled = {Face(f): w for f, w in v.values.items()}  # the same worths under Faces
    ids = {Face(f).vertices: w for f, w in v.values.items()}  # and under vertex ids
    for game in (v, Game(delta, spelled), Game(delta, ids)):
        assert game == v
        for view in (game.numerators, game.values, game.mask_table()):
            assert all_ints(view)
    tables = canonical_shapley_tables(delta)
    assert all(type(t) is dict and all_ints(t) for t in tables.values())
    assert all_ints(efficiency_coefficients(delta, tables))
    # a table given with Face keys gives the same int-keyed coefficients
    as_faces = {i: {Face(t): p for t, p in table.items()}
                for i, table in tables.items()}
    coeffs = efficiency_coefficients(delta, as_faces)
    assert all_ints(coeffs) and coeffs == efficiency_coefficients(delta, tables)
    try:
        assert all_ints(shapley_efficiency_closed_form(delta))
    except (NotPureLinks, HypothesisNotMet):  # no closed form on this complex
        pass
    for i in delta.vertices:
        dec = decompose_shapley(delta, i)
        assert all_ints(dec.facet_order) and all_ints(dec.row_faces)
        assert dec.facet_weights is None or all_ints(dec.facet_weights)


@pytest.mark.parametrize("name", sorted(builds()))
def test_every_moved_facet_and_witness_is_an_int(name):
    delta = builds()[name]
    if not delta.vertices or delta.n > 10:
        return
    report = check_pi_delta_contained(delta)
    assert report.contained or type(report.witness_face) is int
    for g in pi_delta_generators(delta):
        moved = moved_facet(delta, g)
        assert moved is None or type(moved) is int


def test_a_face_read_in_is_still_a_face():
    delta = full_simplex(3)
    for taken in (5, Face(5), [1, 3], (3, 1)):
        assert type(as_face(taken)) is Face and type(delta.require_face(taken)) is Face
    assert type(delta.require_vertex(2)) is Face and delta.require_vertex(2) == 2
    assert type(Face.from_vertices([1, 3])) is Face


# -- only an int is a vertex count ----------------------------------------

@pytest.mark.parametrize("n", [True, False])
def test_a_bool_vertex_count_is_refused_like_a_negative_one(n):
    with pytest.raises(VertexOutOfRange):
        SimplicialComplex(n, [])
    with pytest.raises(VertexOutOfRange):
        SimplicialComplex(n, [1])
    with pytest.raises(VertexOutOfRange):
        full_simplex(n)
    with pytest.raises(VertexOutOfRange):
        SimplicialComplex(-1, [])
    # the loader refuses the document first, with its own error
    with pytest.raises(ParseError):
        complex_from_dict({"n": n, "facets": []})
    with pytest.raises(TypeError):
        as_face(n)


@pytest.mark.parametrize("family", [[[1]], [1], []])
@pytest.mark.parametrize("n", [3.0, None, "3", True])
def test_a_non_int_vertex_count_is_refused_with_its_repr(n, family):
    message = f"^vertex count must be an integer, got {re.escape(repr(n))}$"
    with pytest.raises(VertexOutOfRange, match=message):
        SimplicialComplex(n, family)
    with pytest.raises(ParseError):  # the loader checks n first
        complex_from_dict({"n": n, "facets": [[1]]})


@pytest.mark.parametrize("n", [2.0, "3", None, True])
def test_full_simplex_refuses_a_non_int_vertex_count_with_its_repr(n):
    message = f"^vertex count must be an integer, got {re.escape(repr(n))}$"
    with pytest.raises(VertexOutOfRange, match=message):
        full_simplex(n)


def test_an_int_vertex_count_still_builds():
    assert SimplicialComplex(0, []).n == 0 and full_simplex(1).n == 1
    assert type(full_simplex(1).n) is int


# -- one face prints one way ----------------------------------------------

def figure_a() -> SimplicialComplex:
    return SimplicialComplex.from_facets(5, FIGURE_A)


@pytest.mark.parametrize("key", [6, Face(6)])
def test_key_outside_link_prints_the_vertex_ids(key):
    delta = figure_a()
    v = Game(delta)
    for value in (probabilistic_value, probabilistic_value_ref):  # the library and its reference
        with pytest.raises(KeyOutsideLink, match=r"^\{2,3\} is not in the link of vertex 2$"):
            value(v, 2, {key: F(1)})
    with pytest.raises(KeyOutsideLink, match=r"^\{2,3\} is not in the link of vertex 2$"):
        efficiency_coefficients(delta, {**canonical_shapley_tables(delta),
                                        2: {key: F(1)}})


@pytest.mark.parametrize("spell", [int, Face, lambda m: Face(m).vertices])
def test_reprs_print_the_vertex_ids(spell):
    delta = SimplicialComplex(3, [spell(0b110), spell(0b001)])
    assert repr(delta) == "SimplicialComplex(n=3, facets=['{1}', '{2,3}'])"
    v = Game(delta, {spell(0b110): F(1, 2), spell(0b010): 3})
    assert repr(v) == "Game({{2}: 3, {2,3}: 1/2})"


def test_an_out_of_range_face_prints_the_vertex_ids():
    for face in (0b101, Face(0b101), [1, 3]):
        with pytest.raises(VertexOutOfRange, match=r"^face \{1,3\} has vertices outside 1..2$"):
            SimplicialComplex(2, [face])


@pytest.mark.parametrize("spell", [int, Face])
def test_decompose_certificate_prints_the_vertex_ids(spell, tmp_path, capsys, monkeypatch):
    path = tmp_path / "figure_a.json"
    path.write_text('{"n": 5, "facets": [[1,2,3],[2,3,5],[3,4,5]]}')
    real = decompose_shapley

    def spelled(delta, i):
        dec = real(delta, i)
        return replace(dec, row_faces=tuple(map(spell, dec.row_faces)))

    monkeypatch.setattr(cli, "decompose_shapley", spelled)
    assert cli.main(["decompose", "--complex", str(path), "--player", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["  36 * row[{1}]", "  -18 * row[{1,2}]"]
    dec = real(figure_a(), 3)
    assert dec.status is DecompositionStatus.INFEASIBLE and isinstance(dec, Decomposition)

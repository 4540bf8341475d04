import pickle
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplicial_games import (
    EMPTY_FACE,
    Face,
    Game,
    SimplicialComplex,
    carrier_game,
    complexes,
    full_simplex,
    random_game,
)
from simplicial_games.complexes import as_face, complex_from_dict
from simplicial_games.errors import (
    BudgetExceeded,
    EmptyComplex,
    FaceNotInComplex,
    ParseError,
    SimplicialGamesError,
    TooManyVertices,
    VertexOutOfRange,
)
from conftest import figure_a, figure_b, golden_fixtures, random_nonpure_complexes
from oracles import (
    built_link,
    closure_masks,
    complex_to_dict,
    ext_ids,
    f_vector_of,
    facet_masks_of,
    has_pure_links_ref,
    indicator_game,
    is_downward_closed,
    link_masks,
    skeleton_masks,
    sort_key,
    star_masks,
    vertices_of,
)


def masks(delta):
    return set(delta.faces)


def face(*vs):
    return Face.from_vertices(vs)


# -- Face basics -----------------------------------------------------------

def test_face_ordering_key():
    fs = [face(2, 3), face(1, 4), face(3), face(), face(1, 2)]
    ordered = sorted(fs, key=sort_key)
    assert [Face(f).vertices for f in ordered] == [(), (3,), (1, 2), (1, 4), (2, 3)]


def test_face_ordering_key_is_the_tuple_order():
    rng = Random(61)
    masks = [*range(1 << 12), *(rng.getrandbits(rng.randint(1, 64)) for _ in range(20000))]
    faces = [Face(m) for m in masks]
    by_tuple = sorted(faces, key=lambda f: (f.bit_count(), Face(f).vertices))
    assert sorted(faces, key=sort_key) == by_tuple


def test_face_rejects_bad_vertices():
    with pytest.raises(VertexOutOfRange):
        face(0)
    with pytest.raises(VertexOutOfRange):
        Face.from_vertices([2, 2])


def test_face_set_operations():
    a, b = face(1, 2, 3), face(3, 4)
    assert Face(a | b) == face(1, 2, 3, 4)
    assert Face(a & ~b) == face(1, 2)
    assert face(1, 2) & a == face(1, 2) and a & b != a
    assert 2 in a.vertices and 5 not in a.vertices


def masks_on_up_to_12_vertices(size):
    """(n, masks) for n <= 12: ``size`` vertex masks on [n]."""
    return st.integers(0, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), **size))
    )


@given(masks_on_up_to_12_vertices(dict(min_size=1, max_size=8)))
@example((12, [0, 0b101, (1 << 12) - 1]))
def test_a_face_is_its_mask(case):
    n, ms = case
    for m in ms:
        f = Face(m)
        assert isinstance(f, int) and f == m and hash(f) == hash(m)
        assert type(f.mask) is int and f.mask == m
        # a plain mask finds a face key, and a face finds a mask key
        assert {f: "face"}[m] == "face" and m in {f} and {m: "mask"}[f] == "mask"
        vs = vertices_of(n, m)
        assert f.vertices == tuple(vs) and f.bit_count() == len(vs)
        # a face is read as an int: no len, iteration or membership of its own
        assert not any(hasattr(f, name) for name in ("__len__", "__iter__", "__contains__"))
        back = pickle.loads(pickle.dumps(f))
        assert type(back) is Face and back == f
        # every way of printing a face gives the vertex-id form, never the int
        text = "{" + ",".join(map(str, vs)) + "}"
        assert f"{f}" == "%s" % f == format(f, "") == str(f) == text
        assert " ".join(map(str, [f, f])) == f"{text} {text}"
        assert repr(f) == f"Face({text})"
    ordered = sorted(map(Face, ms), key=sort_key)
    assert ordered == sorted(ms, key=lambda m: (m.bit_count(), vertices_of(n, m)))


def test_a_face_prints_as_its_vertices():
    f = face(1, 3)
    assert (f"{f}", "%s" % f, format(f, ""), ",".join([str(f)])) == ("{1,3}",) * 4
    assert f == 0b101 and f + f == 0b1010  # arithmetic is the int's
    assert f | face(2) == face(1, 2, 3) and str(Face(f | face(2))) == "{1,2,3}"
    assert pickle.loads(pickle.dumps(EMPTY_FACE, protocol=0)) == EMPTY_FACE


@settings(max_examples=60, deadline=None)
@given(masks_on_up_to_12_vertices(dict(max_size=4)))
def test_game_tables_are_keyed_by_the_complex_faces(case):
    n, family = case
    delta = SimplicialComplex(n, [Face(m) for m in family])
    v = random_game(delta, Random(n))
    for table in (v.numerators, v.mask_table(), Game(delta, v.values).numerators):
        assert tuple(table) == delta.faces
        assert all(type(k) is int for k in table)
    assert all(type(k) is int for k in v.values)


# -- any int is a face ------------------------------------------------------

def test_int_faces_on_the_full_3_simplex():
    delta = full_simplex(3)
    assert delta.has_face(5) and not delta.has_face(8)
    assert delta.require_face(5) == face(1, 3) and type(delta.require_face(5)) is Face
    assert delta.link(1) == delta.link([1]) == (face(), face(2), face(3), face(2, 3))
    v = Game(delta, {5: 2})
    assert v.value(4) == 0 and v.value([1, 3]) == 2
    assert v == Game(delta, {face(1, 3): 2})


def test_as_face_reads_ints_as_masks_and_nothing_else():
    assert as_face(0) == EMPTY_FACE and type(as_face(6)) is Face
    assert as_face(6) == as_face([2, 3]) == as_face(Face(6))
    with pytest.raises(VertexOutOfRange):
        as_face(-1)
    with pytest.raises(VertexOutOfRange):
        full_simplex(3).has_face(-1)
    with pytest.raises(TypeError):  # a bool is no mask, and no vertex list either
        as_face(True)
    with pytest.raises(TypeError):
        full_simplex(3).require_face(False)


@pytest.mark.parametrize("bad", [True, False, 2.0])
def test_a_vertex_id_is_an_int_and_not_a_bool(bad):
    # True == 1, yet a bool names no vertex, just as 2.0 names none
    with pytest.raises(VertexOutOfRange):
        Face.from_vertices([bad, 2])
    with pytest.raises(VertexOutOfRange):
        SimplicialComplex(3, [[bad, 2]])
    with pytest.raises(VertexOutOfRange):
        full_simplex(3).require_vertex(bad)
    with pytest.raises(VertexOutOfRange):
        full_simplex(3).has_face([bad])
    assert Face.from_vertices([1, 2]) == 0b11 and full_simplex(3).require_vertex(1) == 1


def call_outcome(call, arg):
    try:
        return call(arg)
    except SimplicialGamesError as e:
        return type(e)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=5),
            st.integers(0, (1 << n + 1) - 1),
        )
    )
)
@example((3, [0b111], 0b101))
@example((4, [0b0011, 0b1100], 0))
def test_every_face_argument_takes_a_face_its_mask_or_its_vertex_ids(case):
    # the probe reaches one id past n, so some probes lie outside the ground set
    n, family, m = case
    delta = SimplicialComplex(n, family)
    game = random_game(delta, Random(m))
    calls = [
        delta.has_face,
        delta.require_face,
        delta.link,
        delta.star,
        delta.facets_containing,
        delta.extension_set,
        game.value,
        lambda t: carrier_game(delta, t),
        lambda t: carrier_game(delta, t, strict=True),
        lambda t: indicator_game(delta, t),
    ]
    for call in calls:
        as_face_, as_mask, as_ids = (
            call_outcome(call, arg) for arg in (Face(m), m, vertices_of(n + 1, m))
        )
        assert as_face_ == as_mask == as_ids


# -- construction ----------------------------------------------------------

def test_figure_a_closure():
    delta = figure_a()
    assert len(delta.faces) == 16  # 1 + 5 + 7 + 3, per the closure oracle
    assert EMPTY_FACE in delta.faces
    assert delta.rank == 3
    assert delta.facets == (face(1, 2, 3), face(2, 3, 5), face(3, 4, 5))


def test_full_simplex_closure():
    delta = full_simplex(3)
    assert len(delta.faces) == 8
    assert delta.facets == (face(1, 2, 3),)


def per_face_outcome(n, inputs):
    """The complex, or the error type and message, of the inputs read face by face."""
    try:
        faces = [as_face(f) for f in inputs]
        complexes._check_vertex_ids(n, faces)
        return SimplicialComplex(n, [Face(f).vertices for f in faces])
    except (SimplicialGamesError, TypeError) as e:
        return type(e), str(e)


@pytest.mark.parametrize(
    "n, inputs",
    [
        (3, [0b011, 0b110, 0b100]),
        (3, [Face(5), 3, 0]),
        (0, []),
        (0, [0]),
        (64, [(1 << 64) - 1 - (1 << 40)]),
        (3, [0b1000, 1]),  # an id above n
        (3, [1, -1]),  # a negative mask
        (3, [1, -1, 0b1000]),  # a negative mask comes first
        (3, [0b1000, -1]),  # ... wherever it is
        (65, [1]),
        (-1, [0]),
        (-1, []),
        (2, [True]),  # no mask, and no vertex list either
        (2, [[1, 2], 1]),  # vertex ids, read face by face
        (2, [[1, 3], 1]),
    ],
)
def test_int_masks_in_range_skip_the_per_face_check(n, inputs):
    def outcome():
        try:
            return SimplicialComplex(n, inputs)
        except (SimplicialGamesError, TypeError) as e:
            return type(e), str(e)

    assert outcome() == per_face_outcome(n, inputs)


def test_redundant_facets_absorbed():
    delta = SimplicialComplex.from_facets(3, [[1, 2], [1], [1, 2, 3]])
    assert delta.facets == (face(1, 2, 3),)


def test_vertex_out_of_range():
    with pytest.raises(VertexOutOfRange):
        SimplicialComplex.from_facets(2, [[1, 3]])


def test_too_many_vertices():
    with pytest.raises(TooManyVertices):
        SimplicialComplex.from_facets(65, [[1]])


@st.composite
def face_families(draw):
    """Any family of faces on [n], with duplicates, nested inputs and the empty face."""
    n = draw(st.integers(0, 7))
    family = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    for m in list(family):
        if draw(st.booleans()):
            family.append(m)
        if draw(st.booleans()):
            family.append(m & draw(st.integers(0, (1 << n) - 1)))
    return n, draw(st.permutations(family))


@given(face_families())
@example((3, [0b111, 0b1]))  # not closed: {1,2} is a face, {1} is no facet
@example((4, []))
@example((4, [0]))
def test_constructor_builds_the_closure_of_any_family(case):
    n, family = case
    delta = SimplicialComplex(n, [Face(m) for m in family])
    faces = closure_masks(n, family)
    assert masks(delta) == faces
    assert set(delta.facets) == facet_masks_of(faces)
    for part in (delta.faces, delta.facets):
        assert list(part) == sorted(part, key=sort_key)
    assert delta.rank == max((m.bit_count() for m in faces), default=-1)
    assert delta == SimplicialComplex.from_facets(n, [Face(m).vertices for m in family])
    assert delta == SimplicialComplex.from_facets(n, delta.facets)
    assert delta == SimplicialComplex(n, family)


def test_closure_budget_boundary(monkeypatch):
    # the walk counts 2^|facet| per facet; {1,2} lies inside {1,...,5} and is skipped
    family = [[1, 2], [6], [1, 2, 3, 4, 5]]
    monkeypatch.setattr(complexes, "FACE_BUDGET", 2**5 + 2**1)
    assert len(SimplicialComplex(6, family).faces) == 2**5 + 1
    monkeypatch.setattr(complexes, "FACE_BUDGET", 2**5 + 2**1 - 1)
    with pytest.raises(BudgetExceeded):
        SimplicialComplex(6, family)
    # the largest facet comes first, so it is refused before any subset is built
    monkeypatch.setattr(complexes, "FACE_BUDGET", 2**5 - 1)
    with pytest.raises(BudgetExceeded, match=f"walk {2**5} subsets"):
        SimplicialComplex(6, family)


def test_the_17_simplex_builds_within_the_budget():
    assert 1 << 17 <= complexes.FACE_BUDGET
    assert len(full_simplex(17).faces) == 1 << 17


def test_a_skeleton_of_a_complex_within_the_budget_builds():
    # a skeleton walks no closure: the 8-skeleton has 65,536 faces, and a
    # closure walk of its 24,310 facets would count 2^8 subsets for each
    sk = full_simplex(17).skeleton(8)
    assert (len(sk.faces), len(sk.facets), sk.rank) == (65536, 24310, 8)


def test_skeleton_is_the_closure_of_its_faces():
    # on seeded families, every k from 0 past the rank: the filter equals the constructor
    rng = Random(2718)
    for _ in range(400):
        n = rng.randint(0, 9)
        family = [rng.getrandbits(n) for _ in range(rng.randint(0, 6))]
        delta = SimplicialComplex(n, family)
        for k in range(n + 2):
            sk = delta.skeleton(k)
            built = SimplicialComplex(n, [f for f in delta.faces if f.bit_count() <= k])
            assert (sk.n, sk.faces, sk.facets, sk.rank) == (
                built.n, built.faces, built.facets, built.rank
            ), (n, family, k)
            assert list(sk.face_ids.items()) == list(built.face_ids.items())


def test_deterministic_face_order():
    delta = figure_a()
    keys = [sort_key(f) for f in delta.faces]
    assert keys == sorted(keys)


# -- link ------------------------------------------------------------------

def test_link_figure_a_vertex_3():
    delta = figure_a()
    lk = built_link(delta, face(3))
    expected = {(), (1,), (2,), (4,), (5,), (1, 2), (2, 5), (4, 5)}
    assert {Face(f).vertices for f in lk.faces} == expected
    assert lk.f_vector() == (1, 4, 3)


def test_link_of_vertex_in_simplex():
    delta = full_simplex(4)
    lk = built_link(delta, face(2))
    assert lk == SimplicialComplex.from_facets(4, [[1, 3, 4]])


def test_link_figure_b_vertex_3():
    lk = built_link(figure_b(), face(3))
    assert lk.f_vector() == (1, 4, 2)


def test_link_requires_membership():
    with pytest.raises(FaceNotInComplex):
        figure_a().link(face(1, 4))


def test_link_of_empty_face_is_whole_complex():
    delta = figure_a()
    assert delta.link(EMPTY_FACE) == delta.faces


# -- star ------------------------------------------------------------------

def test_star_whole_simplex():
    delta = full_simplex(2)
    assert delta.star(face(1)) == frozenset(delta.faces)


def test_star_figure_a_vertex_4():
    st_ = figure_a().star(face(4))
    assert st_ == frozenset(SimplicialComplex.from_facets(5, [[3, 4, 5]]).faces)


def test_star_of_facet():
    delta = figure_a()
    st_ = delta.star(face(1, 2, 3))
    assert st_ == frozenset(full_simplex(3).faces)


def test_star_link_bijection_for_vertices(fixtures):
    # T -> T + i maps the link onto the star members containing i,
    # so the star of a vertex is exactly twice the link.
    for delta in fixtures.values():
        for i in delta.vertices:
            lk = delta.link(face(i))
            st_ = delta.star(face(i))
            with_i = {f for f in st_ if f >> (i - 1) & 1}
            assert {Face(t | 1 << (i - 1)) for t in lk} == with_i
            assert len(st_) == 2 * len(lk)


# -- f-vector / skeleton ---------------------------------------------------

def test_f_vector_simplex():
    assert full_simplex(3).f_vector() == (1, 3, 3, 1)


def test_f_vector_single_vertex():
    assert SimplicialComplex.from_facets(1, [[1]]).f_vector() == (1, 1)


def test_f_vector_figure_a():
    assert figure_a().f_vector() == (1, 5, 7, 3)


def test_f_vector_empty_complex():
    with pytest.raises(EmptyComplex):
        SimplicialComplex.from_facets(3, []).f_vector()


def test_skeleton_k4():
    sk = full_simplex(4).skeleton(2)
    assert sk.f_vector() == (1, 4, 6)


def test_skeleton_trivial_cases():
    delta = figure_a()
    assert {Face(f).vertices for f in delta.skeleton(0).faces} == {()}
    assert delta.skeleton(delta.rank) == delta
    assert delta.skeleton(2).skeleton(2) == delta.skeleton(2)


# -- pure links / extensions / facets --------------------------------------

def test_pure_links():
    assert full_simplex(4).has_pure_links()
    assert figure_a().has_pure_links()
    mixed = SimplicialComplex.from_facets(3, [[1, 2], [3]])
    assert not mixed.has_pure_links()
    for no_vertex in ([], [[]]):
        with pytest.raises(EmptyComplex):
            SimplicialComplex.from_facets(3, no_vertex).has_pure_links()


def test_extension_set_figure_a():
    delta = figure_a()
    assert delta.extension_set(face(3)) == {1, 2, 4, 5}
    assert delta.extension_set(face(2, 3)) == {1, 5}
    assert delta.extension_set(face(1, 2, 3)) == frozenset()


def test_ext_equals_link_f0(fixtures):
    for delta in fixtures.values():
        for t in delta.faces:
            lk = built_link(delta, t)
            f0 = lk.f_vector()[1] if lk.rank >= 1 else 0
            assert len(delta.extension_set(t)) == f0


def test_facets_containing():
    delta = figure_a()
    assert delta.facets_containing(face(3)) == delta.facets
    assert delta.facets_containing(face(1)) == (face(1, 2, 3),)
    assert delta.facets_containing(face(3, 4, 5)) == (face(3, 4, 5),)


# -- oracle agreement and closure property ----------------------------------

def test_queries_match_bruteforce(fixtures):
    for delta in fixtures.values():
        faces = masks(delta)
        assert faces == closure_masks(
            delta.n, list(delta.facets)
        )
        assert set(delta.facets) == facet_masks_of(faces)
        assert delta.f_vector() == f_vector_of(faces)
        for s in delta.faces:
            assert set(delta.link(s)) == link_masks(delta.n, faces, s)
            assert set(delta.star(s)) == star_masks(faces, s)
            assert set(delta.extension_set(s)) == ext_ids(delta.n, faces, s)


def test_link_is_the_built_link_in_canonical_order():
    corpus = [*golden_fixtures().values(), *random_nonpure_complexes(40, seed=808)]
    for delta in corpus:
        for s in delta.faces:
            assert delta.link(s) == built_link(delta, s).faces


def test_downward_closure(fixtures):
    for delta in fixtures.values():
        for f in delta.faces:
            for v in Face(f).vertices:
                assert delta.has_face(Face(f & ~(1 << (v - 1))))


def test_f_vector_totals(fixtures):
    for delta in fixtures.values():
        fv = delta.f_vector()
        assert fv[0] == 1
        assert sum(fv) == len(delta.faces)


@st.composite
def random_complexes(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    facets = [
        draw(st.sets(st.integers(1, n), min_size=1, max_size=n))
        for _ in range(k)
    ]
    return SimplicialComplex.from_facets(n, [sorted(f) for f in facets])


@given(random_complexes())
def test_random_complex_invariants(delta):
    faces = masks(delta)
    assert faces == closure_masks(delta.n, list(delta.facets))
    assert set(delta.facets) == facet_masks_of(faces)
    for s in delta.faces:
        assert set(delta.link(s)) == link_masks(delta.n, faces, s)
    fv = delta.f_vector()
    assert sum(fv) == len(delta.faces)


NONPURE = random_nonpure_complexes(200, seed=505)


def test_nonpure_facets_links_and_skeleta_match_oracles():
    for delta in NONPURE:
        faces = masks(delta)
        assert faces == closure_masks(delta.n, list(delta.facets))
        assert set(delta.facets) == facet_masks_of(faces)
        assert list(delta.facets) == sorted(delta.facets, key=sort_key)
        for s in delta.faces:
            lk = built_link(delta, s)
            assert masks(lk) == link_masks(delta.n, faces, s)
            assert set(lk.facets) == facet_masks_of(masks(lk))
        for k in range(delta.rank + 2):
            sk = delta.skeleton(k)
            assert masks(sk) == skeleton_masks(faces, k)
            assert set(sk.facets) == facet_masks_of(masks(sk))


def test_closed_forms_match_link_walks():
    # purity, link f-vectors and stars are read without building a link
    for delta in [*golden_fixtures().values(), *NONPURE]:
        faces = masks(delta)
        assert delta.has_pure_links() == has_pure_links_ref(delta)
        assert delta.link_f_vectors() == {
            v: built_link(delta, face(v)).f_vector() for v in delta.vertices
        }
        for s in delta.faces:
            assert set(delta.star(s)) == star_masks(faces, s)


def test_link_f_vectors_are_counted_once_and_returned_fresh():
    delta = figure_a()
    counts = delta.link_f_vectors()
    counts[3] = (0,)  # a caller's dict is its own
    delta.faces = ()  # a second count would find no vertex
    assert delta.link_f_vectors() == {
        v: built_link(figure_a(), face(v)).f_vector() for v in range(1, 6)
    }


def test_constructions_return_closed_families():
    # a link is read off the faces, not closed again: its family must be closed
    for delta in [*NONPURE, figure_a(), full_simplex(6)]:
        assert is_downward_closed(masks(delta))
        for s in delta.faces:
            assert is_downward_closed(set(delta.link(s)))
        for k in range(delta.rank + 1):
            assert is_downward_closed(masks(delta.skeleton(k)))


# -- JSON ------------------------------------------------------------------

def test_complex_json_roundtrip():
    delta = figure_a()
    assert complex_from_dict(complex_to_dict(delta)) == delta


def test_complex_json_rejects_garbage():
    with pytest.raises(ParseError):
        complex_from_dict([1, 2])
    with pytest.raises(ParseError):
        complex_from_dict({"n": 3})
    with pytest.raises(ParseError):
        complex_from_dict({"n": "3", "facets": []})
    with pytest.raises(VertexOutOfRange):
        complex_from_dict({"n": 2, "facets": [[1, 3]]})

"""The vertex-id table and the one-pass complex loader, against their references.

``SimplicialComplex.face_ids`` maps each face to its ascending vertex ids as
bytes; the canonical order, the printed keys and the link f-vectors are read
off it.  ``complex_from_dict`` reads each facet list to its mask in one pass
and diagnoses only a facet that fails it.  Each is checked against the
reference kept in ``tests/oracles.py``: the same complex, or the same
exception type and message.
"""

from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplicial_games import SimplicialComplex
from simplicial_games.cli import by_face_key
from simplicial_games.complexes import Face, complex_from_dict
from oracles import (
    complex_from_dict_ref,
    face_key,
    link_f_vectors_ref,
    sort_key,
)


def outcome(load, doc):
    """(n, faces, facets) of the complex ``load`` reads, or (type, message) of its error."""
    try:
        delta = load(doc)
    except Exception as e:  # the type and message are what is compared
        return type(e), str(e)
    return delta.n, delta.faces, delta.facets


# ids near every boundary the loader checks, and values that are no id
ID_LIKE = st.one_of(
    st.integers(-3, 67),
    st.sampled_from([0, -1, 64, 65, 100, 2**63, 2**64, 2**70, -(2**70)]),
    st.sampled_from([True, False, 1.0, 2.0, 0.5, "1", "x", None, [], [1], [[2]], {}]),
)


@st.composite
def complex_docs(draw):
    """A complex file on n in 0..64 whose facets mostly hold valid ids."""
    n = draw(st.one_of(st.sampled_from([0, 1, 64]), st.integers(0, 64)))
    valid = st.integers(1, n) if n else st.nothing()
    ids = st.one_of(valid, ID_LIKE) if n else ID_LIKE
    vertex = draw(st.sampled_from([valid, ids])) if n else ids
    facet = st.lists(vertex, max_size=7)
    facets = draw(st.lists(facet, max_size=6))
    for f in list(facets):  # a repeated facet, or a facet holding a repeated id
        if f and draw(st.booleans()):
            facets.append(f + [draw(st.sampled_from(f))])
    return {"n": n, "facets": draw(st.permutations(facets))}


@settings(max_examples=400, deadline=None)
@given(complex_docs())
@example({"n": 0, "facets": []})
@example({"n": 0, "facets": [[]]})
@example({"n": 64, "facets": [[64, 1], [63]]})
@example({"n": 4, "facets": [[1, True]]})
@example({"n": 4, "facets": [[1.0, 2]]})
@example({"n": 4, "facets": [[2, 3], [1, 1], [5]]})  # a duplicate before an id above n
@example({"n": 4, "facets": [[0, 5]]})  # 5 > n is reported before 0 < 1
@example({"n": 4, "facets": [[5, "x"]]})  # a non-int is reported before 5 > n
@example({"n": 64, "facets": [[65]]})
@example({"n": 3, "facets": [[2**70]]})
@example({"n": 3, "facets": [[-1]]})
@example({"n": 3, "facets": [[None], [[1]]]})
@example({"n": 3, "facets": [[1, [2]]]})
@example({"n": 3, "facets": [1]})
@example({"n": 3, "facets": "[[1]]"})
@example({"n": True, "facets": []})
@example({"n": 65, "facets": [[1]]})
@example({"n": -1, "facets": []})
@example({"n": 3})
@example([[1, 2]])
@example({"n": 24, "facets": [list(range(1, 22))]})  # over the face budget
def test_loader_matches_the_per_vertex_reference(doc):
    assert outcome(complex_from_dict, doc) == outcome(complex_from_dict_ref, doc)


@st.composite
def wide_families(draw):
    """(n, masks) on n in 0..64: a few faces of at most 6 vertices each."""
    n = draw(st.integers(0, 64))
    if not n:
        return n, draw(st.lists(st.just(0), max_size=2))
    face = st.sets(st.integers(1, n), max_size=6).map(lambda vs: sum(1 << (v - 1) for v in vs))
    return n, draw(st.lists(face, max_size=6))


def closure(family):
    """Every subset of a listed face, for faces of any width but few vertices."""
    faces = set()
    for m in family:
        bits = [1 << v for v in range(m.bit_length()) if m >> v & 1]
        faces.update(sum(c) for k in range(len(bits) + 1) for c in combinations(bits, k))
    return faces


@settings(max_examples=200, deadline=None)
@given(wide_families())
@example((4, []))
@example((4, [0]))
@example((64, [1 << 63]))
@example((64, [1 << 63 | 1 << 31 | 1, 0b110]))
def test_table_readers_match_their_references(case):
    n, family = case
    delta = SimplicialComplex(n, family)
    ids = delta.face_ids
    # the table holds exactly the faces: an empty family has no empty face
    assert len(ids) == len(delta.faces) and set(ids) == set(delta.faces)
    assert (not family) == (not ids)
    for f in delta.faces:
        assert tuple(ids[f]) == Face(f).vertices
    keys = by_face_key(delta, {f: f for f in delta.faces})
    assert list(keys) == [face_key(f) for f in delta.faces]
    assert list(keys.values()) == list(delta.faces)
    assert list(delta.faces) == sorted(closure(family), key=sort_key)
    assert list(delta.facets) == sorted(delta.facets, key=sort_key)
    assert delta.link_f_vectors() == link_f_vectors_ref(delta)

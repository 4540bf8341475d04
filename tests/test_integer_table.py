"""The integer-table kernels against the Fraction references of ``oracles.py``.

A game stores int numerators over one denominator, and the value kernels
add ints.  Here the games are hostile to that: mixed signs, zeros, and
large pairwise-coprime denominators (2^p - 1 for distinct primes p share no
factor), on seeded random non-pure complexes with n <= 7.  The weight
tables and efficiency coefficients are as hostile: signed, zero, empty, or
all over one large denominator.  Every kernel must equal the definitional
Fraction computation exactly.  The game loader, which reads keys to masks
and worths to int pairs, must build the game the per-key ``Fraction`` loader
builds, and raise its error (type, message, first bad key in file order) on
every file it refuses; the int efficiency scatter and the closed form must
equal the ``Fraction`` scatter and the per-bit extension count.
"""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplicial_games import Face, Game, SimplicialComplex, full_simplex
from simplicial_games.errors import KeyOutsideLink, MissingPlayerTable, SimplicialGamesError
from simplicial_games.games import game_from_dict
from simplicial_games.values import (
    ProbabilityTable,
    canonical_shapley_tables,
    check_efficiency_identity,
    efficiency_coefficients,
    efficiency_rhs,
    generalized_shapley,
    probabilistic_value,
    shapley_efficiency_closed_form,
)
from conftest import cycle, figure_b, golden_fixtures
from oracles import (
    closed_form_ref,
    efficiency_coefficients_ref,
    efficiency_scatter_ref,
    facet_masks_of,
    game_from_dict_ref,
    generalized_shapley_ref,
    is_dummy,
    is_dummy_ref,
    is_monotone,
    is_monotone_ref,
    probabilistic_value_ref,
)

F = Fraction
DENOMINATORS = [1, 2, 6, *(2**p - 1 for p in (13, 17, 19, 31, 61, 89, 107, 127))]


def random_rational(rng: Random, signed: bool = True) -> Fraction:
    """Zero a quarter of the time; otherwise a large numerator over a drawn denominator."""
    if rng.random() < 0.25:
        return F(0)
    top = rng.randint(-(10**20) if signed else 0, 10**20)
    return F(top, rng.choice(DENOMINATORS))


def nonpure_complex(rng: Random) -> SimplicialComplex:
    """A complex on 2..7 vertices whose facets differ in size."""
    while True:
        n = rng.randint(2, 7)
        facets = [
            rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(2, 5))
        ]
        delta = SimplicialComplex.from_facets(n, facets)
        tops = facet_masks_of(set(delta.faces))
        if len({m.bit_count() for m in tops}) > 1:
            return delta


def random_worths(delta: SimplicialComplex, rng: Random) -> dict[Face, Fraction]:
    return {f: random_rational(rng) for f in delta.faces[1:]}


def dummy_worths(delta: SimplicialComplex, i: int, rng: Random) -> dict[Face, Fraction]:
    """Random worth off i; a face through i is worth v(F - i) + v({i})."""
    bit = 1 << (i - 1)
    worth = {m: random_rational(rng) for m in delta.face_ids if not m & bit}
    worth[0], vi = F(0), random_rational(rng)
    return {f: worth[f & ~bit] + (vi if f & bit else 0) for f in delta.faces}


def additive_worths(delta: SimplicialComplex, rng: Random) -> dict[Face, Fraction]:
    """v(S) = sum of nonnegative c_j over j in S: monotone, every player dummy."""
    c = {j: random_rational(rng, signed=False) for j in range(1, delta.n + 1)}
    return {f: sum((c[j] for j in Face(f).vertices), F(0)) for f in delta.faces}


def signed_table(delta: SimplicialComplex, i: int, rng: Random) -> ProbabilityTable:
    """Signed weights (zeros included) on Link(i): on every face, on some faces
    (maybe none), all zero, or all over one large denominator."""
    link = delta.link(Face.from_vertices([i]))
    kind = rng.choice(("every face", "some faces", "zeros", "one denominator"))
    if kind == "some faces":
        link = rng.sample(link, rng.randint(0, len(link)))
    if kind == "zeros":
        return {t: F(0) for t in link}
    if kind == "one denominator":
        d = rng.choice(DENOMINATORS[3:])
        return {t: F(rng.randint(-(10**20), 10**20), d) for t in link}
    return {t: random_rational(rng) for t in link}


def signed_tables(delta: SimplicialComplex, rng: Random) -> dict[int, ProbabilityTable]:
    return {i: signed_table(delta, i, rng) for i in delta.vertices}


def signed_coefficients(delta: SimplicialComplex, rng: Random) -> dict[Face, Fraction]:
    """Signed a_T on some nonempty faces (maybe none), as ``efficiency_rhs`` takes them."""
    faces = rng.sample(delta.faces[1:], rng.randint(0, len(delta.faces) - 1))
    return {t: random_rational(rng) for t in faces}


def games_of(delta: SimplicialComplex, rng: Random) -> list[Game]:
    i = rng.choice(delta.vertices)
    additive = additive_worths(delta, rng)
    bumped = rng.choice(delta.faces[1:])
    return [
        Game(delta, random_worths(delta, rng)),
        Game(delta, dummy_worths(delta, i, rng)),
        Game(delta, additive),
        Game(delta, {**additive, bumped: additive[bumped] - F(1, 2**61 - 1)}),
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_integer_kernels_equal_the_fraction_references(seed):
    rng = Random(seed)
    delta = nonpure_complex(rng)
    tables = signed_tables(delta, rng)
    coeffs = efficiency_coefficients(delta, tables)
    canonical = canonical_shapley_tables(delta)
    canonical_coeffs = efficiency_coefficients(delta, canonical)
    for v in games_of(delta, rng):
        worth = {f: v.value(f) for f in delta.faces}
        assert v.denominator == math.lcm(*(w.denominator for w in worth.values()))
        assert is_monotone(v) == is_monotone_ref(v)
        phi = {}
        for i in delta.vertices:
            assert is_dummy(v, i) == is_dummy_ref(v, i)
            assert generalized_shapley(v, i) == generalized_shapley_ref(v, i)
            phi[i] = probabilistic_value_ref(v, i, tables[i])
            assert probabilistic_value(v, i, tables[i]) == phi[i]
            assert probabilistic_value(v, i, {}) == 0
        rhs = sum((a * worth[t] for t, a in coeffs.items()), F(0))
        assert efficiency_rhs(coeffs, v) == rhs
        drawn = signed_coefficients(delta, rng)
        assert efficiency_rhs(drawn, v) == sum((a * worth[t] for t, a in drawn.items()), F(0))
        check = check_efficiency_identity(coeffs, tables, v)
        assert (check.equal, check.lhs, check.rhs) == (True, sum(phi.values(), F(0)), rhs)
        assert check_efficiency_identity(canonical_coeffs, canonical, v).equal


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_equal_tables_in_other_spellings_are_equal_games(seed):
    rng = Random(seed)
    delta = nonpure_complex(rng)
    worth = random_worths(delta, rng)
    v = Game(delta, worth)
    # unreduced fractions, ints for integral worths, explicit zeros, the empty face
    k = rng.randint(2, 10**6)
    doc = {
        "values": {
            ",".join(map(str, Face(f).vertices)): f"{w.numerator * k}/{w.denominator * k}"
            for f, w in worth.items()
        }
    }
    spelled = {f: w.numerator if w.denominator == 1 else w for f, w in worth.items()}
    spelled[delta.faces[0]] = 0
    for other in (game_from_dict(doc, delta), Game(delta, spelled), Game(delta, v.values)):
        assert other == v
        assert (other.denominator, dict(other.numerators)) == (v.denominator, dict(v.numerators))


BAD_KEYS = ["", "0", "1,1", ",1", "1,,2", "1,", "a", "+1", " 1", "\u0663", "7" * 5000]
WORTHS = ["+3", " 3/4 ", "-0/7", "6/4", "0", "-12/18", f"{7**355}/{2**40}", f"-{10**299}"]
BAD_WORTHS = ["3/0", "1.5", "", "3/", "\u0663/4", "9" * 5000, 3, None, 1.5, ["1"]]


@st.composite
def game_files(draw):
    """(complex, document): keys spelled in any valid way, and now and then a bad
    key, a bad worth or a second spelling of a coalition read already."""
    n = draw(st.integers(1, 8))
    facet = st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
    delta = SimplicialComplex.from_facets(n, draw(st.lists(facet, min_size=1, max_size=4)))
    values = {}
    for _ in range(draw(st.integers(0, 10))):
        flaw = draw(st.integers(0, 24))
        if flaw == 1:
            key = draw(st.sampled_from([*BAD_KEYS, str(n + 1), f"1,{n + 1}"]))
        else:
            ids = list(Face(draw(st.sampled_from(delta.faces[1:]))).vertices)
            if flaw == 2:  # another order, and leading zeros
                ids = draw(st.permutations(ids))
                ids = ["0" * draw(st.integers(0, 2)) + str(v) for v in ids]
            key = ",".join(map(str, ids))
        if flaw == 3:
            values[key] = draw(st.sampled_from(BAD_WORTHS))
        elif flaw < 12:
            values[key] = draw(st.sampled_from(WORTHS))
        else:
            values[key] = str(draw(st.fractions(max_denominator=50)))
    return delta, {"values": values}


def outcome(f, *args):
    """What f returns, or the type and message of the error it raises."""
    try:
        return f(*args)
    except SimplicialGamesError as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(game_files())
@example((full_simplex(3), {"values": {"2,1": "6/4", "01,3": "+3", "3": " 3/4 ", "2": "-0/7"}}))
@example((full_simplex(3), {"values": {"1,2": "1", "3": "3/0", "2,01": "1"}}))
@example((full_simplex(3), {"values": {"3": "1", "1,2": "1", "2,1": "1", "": "1"}}))
@example((full_simplex(3), {"values": {"1": "1", "4": "1", "1,1": "1"}}))
@example((cycle(4), {"values": {"1,3": "1", "1": 1}}))
def test_int_pair_loader_equals_the_per_key_loader(case):
    delta, doc = case
    got, want = outcome(game_from_dict, doc, delta), outcome(game_from_dict_ref, doc, delta)
    assert got == want
    if isinstance(want, Game):
        assert (got.denominator, list(got.numerators.items())) == (
            want.denominator,
            list(want.numerators.items()),
        )


def mixed_tables(delta: SimplicialComplex) -> dict[int, ProbabilityTable]:
    """Hand-built weights over mixed denominators, ints and zeros among them."""
    cycle_of = [F(1, 3), F(-2, 7), F(5, 12), 0, 4, F(9, 2**61 - 1), F(-1, 6)]
    tables = {}
    for i in delta.vertices:
        link = delta.link(Face.from_vertices([i]))
        tables[i] = {t: cycle_of[(i + k) % 7] for k, t in enumerate(link)}
    return tables


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_int_efficiency_scatter_equals_the_fraction_scatter(seed):
    rng = Random(seed)
    delta = nonpure_complex(rng)
    for tables in (signed_tables(delta, rng), canonical_shapley_tables(delta), mixed_tables(delta)):
        got = efficiency_coefficients(delta, tables)
        assert list(got.items()) == list(efficiency_scatter_ref(delta, tables).items())
        assert got == efficiency_coefficients_ref(delta, tables)
        assert all(type(a) is F for a in got.values())


def test_efficiency_scatter_raises_in_the_reference_order():
    delta = figure_b()
    tables = mixed_tables(delta)
    first, second, last = delta.vertices[0], delta.vertices[1], delta.vertices[-1]

    def own(i):  # a player is not in its own link
        return {**tables[i], Face.from_vertices([i]): F(1)}

    without_last = {i: t for i, t in tables.items() if i != last}
    cases = [
        without_last,
        {**tables, second: own(second)},
        # a bad key on the first player and a missing table after it: the table is missed first
        {**without_last, first: own(first)},
    ]
    for bad, error in zip(cases, (MissingPlayerTable, KeyOutsideLink, MissingPlayerTable)):
        got = outcome(efficiency_coefficients, delta, bad)
        assert got == outcome(efficiency_scatter_ref, delta, bad)
        assert got[0] is error


CLOSED_FORM_CASES = [
    *golden_fixtures().values(),
    *(full_simplex(n) for n in range(1, 8)),
    *(full_simplex(7).skeleton(k) for k in range(1, 6)),
    *(cycle(n) for n in range(3, 9)),
]


@pytest.mark.parametrize("delta", CLOSED_FORM_CASES + [nonpure_complex(Random(s)) for s in range(12)])
def test_closed_form_equals_the_per_bit_count(delta):
    got, want = outcome(shapley_efficiency_closed_form, delta), outcome(closed_form_ref, delta)
    if isinstance(want, dict):
        assert list(got.items()) == list(want.items())
    else:
        assert got == want

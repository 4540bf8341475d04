"""The integer-table kernels against the Fraction references of ``oracles.py``.

A game stores int numerators over one denominator, and the value kernels
add ints.  Here the games are hostile to that: mixed signs, zeros, and
large pairwise-coprime denominators (2^p - 1 for distinct primes p share no
factor), on seeded random non-pure complexes with n <= 7.  The weight
tables and efficiency coefficients are as hostile: signed, zero, empty, or
all over one large denominator.  Every kernel must equal the definitional
Fraction computation exactly.
"""

import math
from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from simplicial_games import Face, Game, SimplicialComplex
from simplicial_games.games import game_from_dict
from simplicial_games.values import (
    ProbabilityTable,
    canonical_shapley_tables,
    check_efficiency_identity,
    efficiency_coefficients,
    efficiency_rhs,
    generalized_shapley,
    probabilistic_value,
)
from oracles import (
    facet_masks_of,
    generalized_shapley_ref,
    is_dummy_ref,
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
        tops = facet_masks_of({f.mask for f in delta.faces})
        if len({m.bit_count() for m in tops}) > 1:
            return delta


def random_worths(delta: SimplicialComplex, rng: Random) -> dict[Face, Fraction]:
    return {f: random_rational(rng) for f in delta.faces[1:]}


def dummy_worths(delta: SimplicialComplex, i: int, rng: Random) -> dict[Face, Fraction]:
    """Random worth off i; a face through i is worth v(F - i) + v({i})."""
    bit = 1 << (i - 1)
    worth = {m: random_rational(rng) for m in delta.face_masks if not m & bit}
    worth[0], vi = F(0), random_rational(rng)
    return {f: worth[f.mask & ~bit] + (vi if f.mask & bit else 0) for f in delta.faces}


def additive_worths(delta: SimplicialComplex, rng: Random) -> dict[Face, Fraction]:
    """v(S) = sum of nonnegative c_j over j in S: monotone, every player dummy."""
    c = {j: random_rational(rng, signed=False) for j in range(1, delta.n + 1)}
    return {f: sum((c[j] for j in f.vertices), F(0)) for f in delta.faces}


def signed_table(delta: SimplicialComplex, i: int, rng: Random) -> ProbabilityTable:
    """Signed weights (zeros included) on Link(i): on every face, on some faces
    (maybe none), all zero, or all over one large denominator."""
    link = delta.link(Face.from_vertices([i]))
    kind = rng.choice(("every face", "some faces", "zeros", "one denominator"))
    if kind == "some faces":
        link = rng.sample(link, rng.randint(0, len(link)))
    if kind == "zeros":
        return ProbabilityTable(i, {t: F(0) for t in link})
    if kind == "one denominator":
        d = rng.choice(DENOMINATORS[3:])
        return ProbabilityTable(i, {t: F(rng.randint(-(10**20), 10**20), d) for t in link})
    return ProbabilityTable(i, {t: random_rational(rng) for t in link})


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
        assert v.is_monotone() == is_monotone_ref(v)
        phi = {}
        for i in delta.vertices:
            assert v.is_dummy(i) == is_dummy_ref(v, i)
            assert generalized_shapley(v, i) == generalized_shapley_ref(v, i)
            phi[i] = probabilistic_value_ref(v, i, tables[i])
            assert probabilistic_value(v, i, tables[i]) == phi[i]
            assert probabilistic_value(v, i, ProbabilityTable(i, {})) == 0
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
            ",".join(map(str, f.vertices)): f"{w.numerator * k}/{w.denominator * k}"
            for f, w in worth.items()
        }
    }
    spelled = {f: w.numerator if w.denominator == 1 else w for f, w in worth.items()}
    spelled[delta.faces[0]] = 0
    for other in (game_from_dict(doc, delta), Game(delta, spelled), Game(delta, v.values)):
        assert other == v
        assert (other.denominator, dict(other.numerators)) == (v.denominator, dict(v.numerators))

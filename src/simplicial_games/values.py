"""Probabilistic values, the generalized Shapley value, efficiency, decomposition.

The probabilistic value of player i is the p-weighted sum of marginal
contributions over the coalitions in the vertex link.  A player's table p
is a plain mapping from link-face mask to weight, and every reader of a
mapping of tables takes ``tables[i]`` as player i's.  The generalized
Shapley value picks the weights uniformly over coalition sizes and
uniformly within each size, sizes counted by the link f-vector:

    p_T = 1 / ((r_i + 1) * f_{|T|-1}(Link(i)))

with r_i the rank of the link, defined once, in ``shapley_weights``.  On a
full simplex this reduces exactly to the classical Shapley value, which is
also implemented here independently (by permutation enumeration, not by the
weight formula) as the reference the tests compare against.  The kernels
sum a game's integer marginals against the weights in ``_dot``, which
builds one ``Fraction`` per result; the generalized value reads the
marginals summed per size for all players at once, ``Game.marginal_sums``,
so n values make one pass over the faces, not n.

Efficiency aggregates come from the coefficient construction

    a_T = sum_{i in T} p^i_{T-i} - sum_{j: T in Link(j)} p^j_T

(a facet is in no link, so its second sum is empty), which makes
sum_i phi_i(v) = sum_T a_T v(T) an identity.  It is computed as one
scatter over the tables, in ints over the lcm of the weights' denominators:
each weight p^i_T adds p to a_{T+i} and, unless T is empty, subtracts p
from a_T.  On an s-Shapley complex a_T depends only on (|T|, ext(T)), so
the closed-form right side sums a game's numerators per class.

The facet decomposition asks, per coalition T in the link, for weights c_F
over the facets containing T+i so the weighted classical Shapley values on
facet restrictions reproduce the generalized value.  Both sides are linear
in the marginals v(T+i) - v(T), which are independent over the link, so the
system's rows are exactly that identity: a solution proves the
decomposition for every game, and no game needs to be sampled.  The row
F - i of a facet F holds F alone, so each weight is read off its facet's
row and the other rows are checked by substitution; the exact solver runs
only to certify a system with a failing row infeasible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, permutations
from random import Random
from typing import Container, Iterable, Iterator, Mapping

from .complexes import _ID_BIT, Face, FVector, SimplicialComplex
from .errors import (
    HypothesisNotMet,
    KeyOutsideLink,
    MissingPlayerTable,
    NotPureLinks,
    TooManyPlayers,
    VertexNotInComplex,
)
from .exactnum import LinearSolution, RationalMatrix, SolveStatus, solve_exact
from .games import (
    _DRAWN_DENOMINATOR,
    Game,
    _drawn_table,
    random_dummy_game,
    random_game,
    random_monotone_game,
    random_rational,
    scale_add,
)
from .symmetry import classify_shapley

ORACLE_MAX_PLAYERS = 10


ProbabilityTable = Mapping[int, Fraction]  # a player's p_T, keyed by link-face mask

GroupValue = dict[int, Fraction]

EfficiencyCoefficients = dict[int, Fraction]


def _link_weights(
    table: ProbabilityTable, i: int, faces: Container[int]
) -> Iterator[tuple[int, int, Fraction]]:
    """(T, T + i, p_T) per weight; KeyOutsideLink unless T is in Link(i)."""
    bit = 1 << (i - 1)
    for t, p in table.items():
        if t & bit or t | bit not in faces:
            raise KeyOutsideLink(f"{Face(t)} is not in the link of vertex {i}")
        yield t, t | bit, p


@functools.cache
def shapley_weights(fv: FVector) -> tuple[Fraction, ...]:
    """The generalized Shapley weight of a link face of each cardinality c.

    p_c = 1 / ((r + 1) * f_c) for a link with f-vector ``fv`` and rank
    r = len(fv) - 1: uniform over the r + 1 sizes, uniform within each size.
    Cached: one immutable entry per distinct f-vector, so the kernels build
    no weight per call.
    """
    sizes = len(fv)
    return tuple(Fraction(1, sizes * count) for count in fv)


def _dot(pairs: list[tuple[Fraction, int]], denominator: int) -> Fraction:
    """sum_k w_k c_k / denominator: ints summed per w_k denominator, then over their lcm."""
    sums: dict[int, int] = {}
    for w, c in pairs:
        d = w.denominator
        sums[d] = sums.get(d, 0) + w.numerator * c
    scale = math.lcm(*sums)
    return Fraction(sum(t * (scale // d) for d, t in sums.items()), scale * denominator)


def probabilistic_value(v: Game, i: int, table: ProbabilityTable) -> Fraction:
    """sum_T p_T (v(T+i) - v(T)) over the link of i: the T without i with T+i a face."""
    v.complex.require_vertex(i)
    num = v.numerators
    marginals = [(p, num[up] - num[m]) for m, up, p in _link_weights(table, i, num)]
    return _dot(marginals, v.denominator)


def generalized_shapley(v: Game, i: int) -> Fraction:
    """The size-uniform value of player i, exactly.

    The faces F through i are the T + i for T in the link, so the marginals
    v(F) - v(F - i) are summed per size |F|, and each sum is weighted once by
    the Shapley weight of a link face of cardinality |F| - 1.  The sums of
    every player come from one pass over the game, ``Game.marginal_sums``.
    """
    v.complex.require_vertex(i)
    weights = shapley_weights(v.complex.link_f_vectors()[i])
    return _dot(list(zip(weights, v.marginal_sums()[i][1:])), v.denominator)


def _player_set(v: Game, players: Iterable[int] | None) -> tuple[int, ...]:
    if players is None:
        return v.complex.vertices
    return tuple(players)


def classical_shapley_all(
    v: Game, players: Iterable[int] | None = None
) -> dict[int, Fraction]:
    """Classical Shapley values on a simplex, by full permutation enumeration.

    One pass over all orderings accumulates every player's marginal at
    once; values are the per-player averages.  Deliberately a different
    algorithm from the weight-formula path, so agreement is evidence.
    """
    ps = _player_set(v, players)
    if len(ps) > ORACLE_MAX_PLAYERS:
        raise TooManyPlayers(
            f"permutation enumeration capped at {ORACLE_MAX_PLAYERS} players"
        )
    # a prefix of any ordering must be a face, so the players must span one
    v.complex.require_face(Face.from_vertices(ps))
    num = v.numerators
    totals = dict.fromkeys(ps, 0)
    for order in permutations(ps):
        mask = 0
        prev = 0
        for p in order:
            mask |= 1 << (p - 1)
            cur = num[mask]
            totals[p] += cur - prev
            prev = cur
    count = math.factorial(len(ps)) * v.denominator
    return {p: Fraction(t, count) for p, t in totals.items()}


def classical_shapley_oracle(
    v: Game, i: int, players: Iterable[int] | None = None
) -> Fraction:
    """Classical Shapley value of one player, averaged over all orderings.

    ``players`` must span a face whose power set lies in the complex (a
    facet restriction, or the whole ground set of a full simplex).
    """
    ps = _player_set(v, players)
    if i not in ps:
        raise VertexNotInComplex(f"player {i} is not among {ps}")
    return classical_shapley_all(v, ps)[i]


def canonical_shapley_tables(delta: SimplicialComplex) -> dict[int, dict[int, Fraction]]:
    """The weight tables realizing the generalized Shapley value.

    Each link face T weighs shapley_weights(f(Link(i)))[|T|]; each table is a
    probability distribution (the per-size weights telescope to 1).  One pass
    over the faces in canonical order hands each face F to the link of each
    vertex i in its ids as F - i, so every link is in canonical order.
    """
    weights = {i: shapley_weights(fv) for i, fv in delta.link_f_vectors().items()}
    links: dict[int, dict[int, Fraction]] = {i: {} for i in weights}
    ids, bit = delta.face_ids, _ID_BIT
    for f in delta.faces[1:]:
        c = f.bit_count() - 1
        for j in ids[f]:
            links[j][f ^ bit[j]] = weights[j][c]
    return links


def _player_tables(
    delta: SimplicialComplex, tables: Mapping[int, ProbabilityTable]
) -> Iterator[tuple[int, ProbabilityTable]]:
    """(i, tables[i]) for each vertex in order; a missing table raises."""
    for i in delta.vertices:
        if i not in tables:
            raise MissingPlayerTable(f"no table for player {i}")
        yield i, tables[i]


def group_value(
    v: Game, tables: Mapping[int, ProbabilityTable]
) -> GroupValue:
    return {i: probabilistic_value(v, i, t) for i, t in _player_tables(v.complex, tables)}


def efficiency_coefficients(
    delta: SimplicialComplex, tables: Mapping[int, ProbabilityTable]
) -> EfficiencyCoefficients:
    """The unique a_T with sum_i phi_i(v) = sum_T a_T v(T) for every game.

    Scattered from the weights as int numerators over the lcm d of their
    denominators; the nonempty faces, zeros kept, in canonical order.
    """
    player_tables = list(_player_tables(delta, tables))
    d = math.lcm(*{p.denominator for _, t in player_tables for p in t.values()})
    a = dict.fromkeys(delta.faces, 0)
    for i, table in player_tables:
        for t, up, p in _link_weights(table, i, delta.face_ids):
            x = p.numerator * (d // p.denominator)
            a[up] += x
            a[t] -= x
    del a[0]
    return {t: Fraction(x, d) for t, x in a.items()}


def _closed_form_classes(
    delta: SimplicialComplex,
) -> tuple[list[tuple[int, int]], dict[tuple[int, int], Fraction]]:
    """The class (|T|, ext(T)) of each nonempty face T in canonical order, and a_T per class.

    With w = shapley_weights(s) for the common link f-vector s of an
    s-Shapley complex with pure links, a face T gets |T| w_{|T|-1} -
    ext(T) w_{|T|}, ext(T) counting the faces T + j.  A facet has no
    extension, so it gets |T| w_{|T|-1} alone.
    """
    if not delta.has_pure_links():
        raise NotPureLinks("closed-form coefficients require pure links")
    cls = classify_shapley(delta)
    if not cls.is_shapley:
        raise HypothesisNotMet(
            f"closed-form coefficients require a Shapley complex; links of "
            f"vertices {cls.witness} differ"
        )
    weights = shapley_weights(cls.s_vector)
    # a face g extends g - j for each of its vertices j
    ext = dict.fromkeys(delta.faces, 0)
    bit = _ID_BIT
    for g, ids in delta.face_ids.items():
        for j in ids:
            ext[g ^ bit[j]] += 1
    pairs = list(zip(map(int.bit_count, delta.faces[1:]), islice(ext.values(), 1, None)))
    by_pair = {
        (card, e): card * weights[card - 1] - (e * weights[card] if e else 0)
        for card, e in set(pairs)
    }
    return pairs, by_pair


def shapley_efficiency_closed_form(
    delta: SimplicialComplex,
) -> EfficiencyCoefficients:
    """Closed-form a_T for an s-Shapley complex with pure links, one per nonempty face."""
    pairs, by_pair = _closed_form_classes(delta)
    return dict(zip(delta.faces[1:], map(by_pair.__getitem__, pairs)))


def shapley_efficiency_rhs(v: Game) -> Fraction:
    """sum_T a_T v(T) for the closed-form a_T, exactly.

    a_T depends only on the class (|T|, ext(T)), so the numerators are
    summed per class as ints and each class is weighted once.
    """
    pairs, by_pair = _closed_form_classes(v.complex)
    sums = dict.fromkeys(by_pair, 0)
    for pair, x in zip(pairs, islice(v.numerators.values(), 1, None)):
        sums[pair] += x
    return _dot([(by_pair[pair], x) for pair, x in sums.items()], v.denominator)


@dataclass(frozen=True)
class EfficiencyCheck:
    equal: bool
    lhs: Fraction
    rhs: Fraction
    residual: Fraction


def check_efficiency_identity(
    coeffs: EfficiencyCoefficients,
    tables: Mapping[int, ProbabilityTable],
    v: Game,
) -> EfficiencyCheck:
    """Compare sum_i phi_i(v) against sum_T a_T v(T), exactly.

    ``coeffs`` are ``efficiency_coefficients(v.complex, tables)``, computed
    once by the caller for any number of games.  The construction of a_T
    makes this an identity; a nonzero residual is a bug certificate, never
    a property of the inputs.
    """
    lhs = sum(group_value(v, tables).values(), Fraction(0))
    rhs = efficiency_rhs(coeffs, v)
    return EfficiencyCheck(lhs == rhs, lhs, rhs, lhs - rhs)


def efficiency_rhs(coeffs: EfficiencyCoefficients, v: Game) -> Fraction:
    """sum_T a_T v(T), exactly."""
    num = v.numerators
    return _dot([(a, num[t]) for t, a in coeffs.items()], v.denominator)


@dataclass(frozen=True)
class Decomposition:
    """Facet weights writing the generalized value as classical Shapley values.

    ``solution`` solves the system with one row per coalition T in
    ``row_faces``, the link of the player, and one column per facet in
    ``facet_order``.  The row T = F - i is nonzero only in F's column, so
    the weights c_F, in facet order, are read off those rows and are
    ``solution.particular`` when the other rows agree; otherwise
    ``certificate`` is lam with lam @ A = 0, lam @ b = 1, from the solver.
    """

    facet_order: tuple[int, ...]
    row_faces: tuple[int, ...]
    solution: LinearSolution


def decompose_shapley(delta: SimplicialComplex, i: int) -> Decomposition:
    """Facet weights reproducing the generalized Shapley value, or a certificate.

    One equation per coalition T in the link of i, with w =
    shapley_weights(f(Link(i))), in the unknowns c_F over facets F through i:

        sum_{F facet >= T+i} c_F (1/|F|) / C(|F|-1, |T|) = w_{|T|}

    The left side is the weight the combined classical values put on the
    marginal v(T+i) - v(T), the right side the weight the generalized value
    puts on it: a solution reproduces that value on every game.  The row
    F - i holds F alone, so c_F = |F| w_{|F|-1} is the only candidate; every
    row is checked by substituting it.  Only when a row fails is the system
    built and handed to ``solve_exact``, whose certificate proves it infeasible.
    """
    single = delta.require_vertex(i)
    weights = shapley_weights(delta.link_f_vectors()[i])
    facet_order = delta.facets_containing(single)
    row_faces = delta.link(single)
    # i is in every facet of the order, so T + i lies in F exactly when T
    # does, and then |T| < |F|
    sizes = [f.bit_count() for f in facet_order]
    share = {k: [weights[k - 1] / math.comb(k - 1, j) for j in range(k)] for k in set(sizes)}
    facets = list(zip(facet_order, sizes))

    def holds(t: int) -> bool:
        j = t.bit_count()
        return sum(share[k][j] for f, k in facets if t & f == t) == weights[j]

    if all(map(holds, row_faces)):
        c = tuple(k * weights[k - 1] for k in sizes)
        return Decomposition(facet_order, row_faces, LinearSolution(SolveStatus.UNIQUE, c, ()))
    # coeff[|F|][|T|] = 1/(|F| C(|F|-1, |T|))
    coeff = {k: [Fraction(1, k * math.comb(k - 1, j)) for j in range(k)] for k in share}
    rows = (
        tuple(coeff[k][t.bit_count()] if t & f == t else 0 for f, k in facets)
        for t in row_faces
    )
    rhs = [weights[t.bit_count()] for t in row_faces]
    return Decomposition(
        facet_order, row_faces, solve_exact(RationalMatrix(len(facet_order), rows), rhs)
    )


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    player: int
    ok: bool
    detail: str = ""


def axiom_suite(
    delta: SimplicialComplex,
    tables: Mapping[int, ProbabilityTable],
    seed: int = 0,
    rounds: int = 5,
) -> tuple[AxiomCheck, ...]:
    """One AxiomCheck per player and axiom, its conclusion tried on generated games.

    linearity      phi_i(a v + b w) = a phi_i(v) + b phi_i(w)
    star_locality  phi_i ignores changes off the star of i
    dummy          phi_i(v) = v({i}) on games where i is dummy
                   (guaranteed only for normalized tables)
    monotone       phi_i(v) >= 0 on monotone games, including every strict
                   carrier probe (guaranteed only for nonnegative tables)

    Carrier probes are read off the weights (Weber 1988): on Link(i) the
    carrier of {i} has every marginal 1, so phi_i is the table total, and the
    strict carrier of T has the one nonzero marginal 1 at T, so phi_i = p_T.
    Each check draws all its random games first, whichever probe fails.
    """
    player_tables = list(_player_tables(delta, tables))
    rng = Random(seed)
    checks: list[AxiomCheck] = []

    def record(axiom: str, i: int, failures: Iterator[str]) -> None:
        """Scan the probes up to the first failure; its detail fails the axiom."""
        detail = next(failures, None)
        checks.append(AxiomCheck(axiom, i, detail is None, detail or ""))

    for i, table in player_tables:
        single = 1 << (i - 1)
        star = delta.star(single)
        off_star = [f for f in delta.faces if f not in star]

        def phi(v: Game) -> Fraction:
            return probabilistic_value(v, i, table)

        def linearity() -> Iterator[str]:
            for _ in range(rounds):
                v, w = random_game(delta, rng), random_game(delta, rng)
                a, b = random_rational(rng), random_rational(rng)
                left, right = phi(scale_add(v, w, a, b)), a * phi(v) + b * phi(w)
                if left != right:
                    yield f"{left} != {right}"

        def star_locality() -> Iterator[str]:
            for _ in range(rounds):
                v = random_game(delta, rng)
                off = Game._of(delta, _drawn_table(delta, off_star, rng), _DRAWN_DENOMINATOR)
                w = scale_add(v, off, 1, 1)
                if phi(v) != phi(w):
                    yield "value moved with off-star modification"

        record("linearity", i, linearity())
        record("star_locality", i, star_locality())
        games = [random_dummy_game(delta, i, rng) for _ in range(rounds)]
        paid = chain(
            [(sum(table.values(), Fraction(0)), Fraction(1))],  # the carrier game of {i}
            ((phi(v), v.value(single)) for v in games),
        )
        unpaid = (f"dummy payoff {got} != v(i) = {want}" for got, want in paid if got != want)
        record("dummy", i, unpaid)
        games = [random_monotone_game(delta, rng) for _ in range(rounds)]
        paid = chain(
            (table.get(t, 0) for t in delta.link(single)),  # strict carriers
            map(phi, games),
        )
        negative = (f"negative value {got} on a monotone game" for got in paid if got < 0)
        record("monotone", i, negative)
    return tuple(checks)

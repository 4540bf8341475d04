"""Characteristic functions on a complex and the carrier-game families.

A game is integers over one denominator: every face of its complex, in
canonical face order, maps to an ``int`` numerator, zeros included, and the
worth of a face is its numerator over the game's ``denominator``, the lcm of
the worths' reduced denominators, so equal games store equal tables.  The
table and its views are keyed by the complex's ``faces``, plain ``int``
masks, in whatever form a face was given.  The empty coalition is pinned to
0.  The value kernels add and subtract the numerators and build a
``Fraction`` only for a result; ``value``, ``values`` and ``mask_table`` are
``Fraction`` views derived from the table.  The marginal sums of every
player, per cardinality, are taken in one pass over the complex's id table
the first time a value asks for them, and kept on the game.  A table costs
|faces| times the bits of the denominator, so a game whose denominator would
pass ``TABLE_BITS_BUDGET`` is refused before its table is built.  Carrier
games v_T (containment) and their strict variants (proper containment) are
the probing basis of Weber's axioms; the axiom suite reads their values off
the weight tables instead of building them.

A game file is read straight to integers.  One table per load maps the text
"1".."n" of each vertex id to its bit, so a key whose parts all hit it, each
a different vertex, is its mask, and each worth is read as a reduced
``(p, q)`` int pair by the one rational grammar of ``exactnum``.  Any other
key (a leading zero, a repeated id, an id above n, no digits) goes through
the per-key diagnosis, which accepts the spellings that name a face and
raises the typed error of the first bad key in file order.

The seeded generators draw all the worths of a game in one call to
``_draws``, which reads ``getrandbits`` exactly as ``randint`` does, so the
games a seed gives do not depend on how the draws are made.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random
from types import MappingProxyType
from typing import Mapping, Sequence

from .complexes import (
    _ID_BIT,
    Face,
    FaceLike,
    SimplicialComplex,
    as_face,
    read_json,
)
from .errors import (
    BudgetExceeded,
    ComplexMismatch,
    EmptyCarrierNotAllowed,
    EmptyCoalitionWorth,
    FaceNotInComplex,
    GameFaceNotInComplex,
    ParseError,
)
from .exactnum import _rational_pair

# |faces| * bits of the common denominator above which a game is refused
TABLE_BITS_BUDGET = 1 << 27


class Game:
    """An exact-rational characteristic function v on a complex, v({}) = 0.

    ``values`` maps faces to worths; faces it leaves out are worth 0.  The
    game stores ``numerators`` (every face -> int) over ``denominator``, and
    once asked for them, its ``marginal_sums``.
    """

    __slots__ = ("complex", "denominator", "_num", "_marginal_sums")

    def __init__(
        self, complex: SimplicialComplex, values: Mapping[FaceLike, Fraction | int] = ()
    ):
        face_ids = complex.face_ids
        worth: dict[int, tuple[int, int]] = {}
        for face, w in dict(values).items():
            face = as_face(face)
            w = Fraction(w)
            if face not in face_ids:
                raise GameFaceNotInComplex(f"{face} is not a face of the complex")
            if not face and w != 0:
                raise EmptyCoalitionWorth("the empty coalition is always worth 0")
            worth[face] = w.numerator, w.denominator
        self.complex = complex
        self._num, self.denominator = _over_lcm(complex, worth)
        self._marginal_sums: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def _of(cls, complex: SimplicialComplex, num: dict[int, int], denominator: int) -> "Game":
        """The game worth num[f] / denominator at each face f.

        ``num`` lists every face in canonical order, the empty one 0.
        The common factor of the numerators and the denominator is divided out.
        """
        g = math.gcd(denominator, *num.values())
        if g > 1:
            num = {m: w // g for m, w in num.items()}
            denominator //= g
        game = cls.__new__(cls)
        game.complex, game._num, game.denominator = complex, num, denominator
        game._marginal_sums = None
        return game

    @property
    def numerators(self) -> Mapping[int, int]:
        """The stored table, read only: every face -> numerator, in canonical order."""
        return MappingProxyType(self._num)

    def marginal_sums(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex id j, the sums of num[F] - num[F - j] over the faces F through j, by |F|.

        Row j holds one sum per cardinality 0..rank; row 0 and the rows of
        ids that are no vertex are zeros.  One pass over the complex's id
        table visits each (face, vertex) pair once; the rows are taken once
        per game.
        """
        if self._marginal_sums is None:
            delta, num, bit = self.complex, self._num, _ID_BIT
            levels = [[0] * (delta.n + 1) for _ in range(delta.rank + 1)]
            for f, ids in delta.face_ids.items():
                w, level = num[f], levels[f.bit_count()]
                for j in ids:
                    level[j] += w - num[f ^ bit[j]]
            self._marginal_sums = tuple(zip(*levels))
        return self._marginal_sums

    def value(self, face: FaceLike) -> Fraction:
        face = as_face(face)
        w = self._num.get(face)
        if w is None:
            raise GameFaceNotInComplex(f"{face} is not a face of the complex")
        return Fraction(w, self.denominator)

    def mask_table(self) -> Mapping[int, Fraction]:
        """Every face -> worth, in canonical order: a read-only view, built per call."""
        d = self.denominator
        return MappingProxyType({m: Fraction(w, d) for m, w in self._num.items()})

    @property
    def values(self) -> dict[int, Fraction]:
        """The nonzero worths by face, in canonical face order (a new dict)."""
        d = self.denominator
        return {f: Fraction(w, d) for f, w in self._num.items() if w}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Game):
            return NotImplemented
        return (
            self.complex == other.complex
            and self.denominator == other.denominator
            and self._num == other._num
        )

    def __repr__(self) -> str:
        return f"Game({{{', '.join(f'{Face(f)}: {w}' for f, w in self.values.items())}}})"


def _over_lcm(
    delta: SimplicialComplex, worth: Mapping[int, tuple[int, int]]
) -> tuple[dict[int, int], int]:
    """The numerators of the reduced worths ``(p, q)`` by face, 0 elsewhere, over the lcm of the q.

    The lcm is taken one distinct denominator at a time, and BudgetExceeded is
    raised as soon as the table would pass TABLE_BITS_BUDGET bits.
    """
    faces = len(delta.faces)
    d = 1
    for q in {q for _, q in worth.values()}:
        d = math.lcm(d, q)
        if faces * d.bit_length() > TABLE_BITS_BUDGET:
            raise BudgetExceeded(
                f"the worths' common denominator reaches {d.bit_length()} bits, so a "
                f"table of {faces} faces would pass {TABLE_BITS_BUDGET} bits"
            )
    num = dict.fromkeys(delta.faces, 0)
    for f, (p, q) in worth.items():
        num[f] = p * (d // q)
    return num, d


def carrier_game(
    delta: SimplicialComplex, t: FaceLike, strict: bool = False
) -> Game:
    """Indicator of containment of t: 1 on supersets of t (strict: proper ones).

    The non-strict variant for t = {} would be constant 1, clashing with
    v({}) = 0, so it is rejected; the strict variant of {} is the game worth
    1 on every nonempty face.
    """
    t = as_face(t)
    if not delta.has_face(t):
        raise FaceNotInComplex(f"{t} is not a face of the complex")
    if not t and not strict:
        raise EmptyCarrierNotAllowed("carrier game of the empty face must be strict")
    num = {f: int(f & t == t and not (strict and f == t)) for f in delta.faces}
    return Game._of(delta, num, 1)


def scale_add(v: Game, w: Game, a: Fraction | int, b: Fraction | int) -> Game:
    """The pointwise combination a*v + b*w on a shared complex."""
    if v.complex != w.complex:
        raise ComplexMismatch("games live on different complexes")
    a, b = Fraction(a), Fraction(b)
    d = math.lcm(v.denominator, w.denominator)
    ka = a.numerator * b.denominator * (d // v.denominator)
    kb = b.numerator * a.denominator * (d // w.denominator)
    wn = w._num
    return Game._of(
        v.complex,
        {m: ka * x + kb * wn[m] for m, x in v._num.items()},
        d * a.denominator * b.denominator,
    )


# -- seeded generators (used by verification commands and tests) ---------

# every denominator drawn (1 to 9) divides this one
_DRAWN_DENOMINATOR = math.lcm(*range(1, 10))
_PER_Q = tuple(_DRAWN_DENOMINATOR // q for q in range(1, 10))  # at index q - 1


def _draws(rng: Random, k: int, lo: int = -9) -> list[int]:
    """k draws of p/q, p from lo..9 and then q from 1..9, as numerators over _DRAWN_DENOMINATOR.

    The bits are taken from ``rng.getrandbits`` as ``rng.randint(lo, 9)``
    and ``rng.randint(1, 9)`` take them: an int below m is m.bit_length()
    bits, drawn again until it falls below m.  So the draws, and the state
    left in ``rng``, are those of k pairs of ``randint`` calls.
    """
    bits = rng.getrandbits
    span = 10 - lo
    width = span.bit_length()
    out = []
    for _ in range(k):
        p = bits(width)  # p - lo
        while p >= span:
            p = bits(width)
        q = bits(4)  # q - 1
        while q >= 9:
            q = bits(4)
        out.append((lo + p) * _PER_Q[q])
    return out


def _drawn_table(
    delta: SimplicialComplex, drawn: Sequence[int], rng: Random, lo: int = -9
) -> dict[int, int]:
    """Every face of delta in canonical order -> 0, but each face of ``drawn`` -> a draw."""
    num = dict.fromkeys(delta.faces, 0)
    num.update(zip(drawn, _draws(rng, len(drawn), lo)))
    return num


def random_rational(rng: Random) -> Fraction:
    return Fraction(*_draws(rng, 1), _DRAWN_DENOMINATOR)


def random_game(delta: SimplicialComplex, rng: Random) -> Game:
    """Independent random rational worth on every nonempty face."""
    return Game._of(delta, _drawn_table(delta, delta.faces[1:], rng), _DRAWN_DENOMINATOR)


def random_monotone_game(delta: SimplicialComplex, rng: Random) -> Game:
    """A nonnegative combination of carrier games, hence monotone.

    Each nonempty face draws a weight in canonical order; a face is worth the
    sum of the weights of its subfaces, accumulated one vertex bit at a time
    over the downward-closed face set (a subset-sum pass, O(n |faces|)).
    """
    num = _drawn_table(delta, delta.faces[1:], rng, lo=0)
    for j in range(delta.n):
        bit = 1 << j
        for m in num:
            if m & bit:
                num[m] += num[m ^ bit]
    return Game._of(delta, num, _DRAWN_DENOMINATOR)


def random_dummy_game(delta: SimplicialComplex, i: int, rng: Random) -> Game:
    """A random game in which player i is dummy by construction.

    Faces without i get independent random worth; every face containing i
    is pinned to v(T) + v({i}) for T the face minus i.
    """
    bit = delta.require_vertex(i)
    num = _drawn_table(delta, [f for f in delta.faces if f and not f & bit], rng)
    [vi] = _draws(rng, 1)
    return Game._of(
        delta,
        {f: num[f ^ bit] + vi if f & bit else num[f] for f in delta.faces},
        _DRAWN_DENOMINATOR,
    )


# -- JSON interchange -----------------------------------------------------

def _coalition_ids(key: str) -> list[int]:
    """The vertex ids of a key "i,j,...": each one a run of ASCII digits."""
    parts = key.split(",")
    try:
        if all(part.isascii() and part.isdigit() for part in parts):
            return [int(part) for part in parts]
    except ValueError:  # over the interpreter's integer digit limit
        pass
    raise ParseError(f"bad coalition key {key!r}")


def _key_face(key: str, delta: SimplicialComplex) -> Face:
    """The face a key names, or the typed error of a key that names none."""
    if key == "":
        raise ParseError("the empty coalition may not appear in a game file")
    ids = _coalition_ids(key)
    # ids are compared with n before the mask, which is max(ids) bits wide
    if max(ids) > delta.n or (f := Face.from_vertices(ids)) not in delta.face_ids:
        raise GameFaceNotInComplex(f"{{{key}}} is not a face of the complex")
    return f


def game_from_dict(data: object, delta: SimplicialComplex) -> Game:
    if not isinstance(data, dict) or "values" not in data:
        raise ParseError("game document must be an object with a 'values' key")
    raw = data["values"]
    if not isinstance(raw, dict):
        raise ParseError("'values' must map coalition keys to rationals")
    bits = {str(v): 1 << (v - 1) for v in range(1, delta.n + 1)}
    faces = delta.face_ids
    worth: dict[int, tuple[int, int]] = {}
    for key, text in raw.items():
        parts = key.split(",")
        m = 0
        for part in parts:  # a part that misses the table or repeats adds no bit
            m |= bits.get(part, 0)
        if m.bit_count() != len(parts) or m not in faces:
            m = _key_face(key, delta)
        if m in worth:  # read already, under another spelling
            first = next(k for k in raw if _key_face(k, delta) == m)
            raise ParseError(f"keys {first!r} and {key!r} name one coalition {Face(m)}")
        if not isinstance(text, str):
            raise ParseError(f"worth of {key!r} must be a rational string")
        worth[m] = _rational_pair(text)
    return Game._of(delta, *_over_lcm(delta, worth))


def load_game(path: str, delta: SimplicialComplex) -> Game:
    return game_from_dict(read_json(path), delta)

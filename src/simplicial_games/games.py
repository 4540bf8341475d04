"""Characteristic functions on a complex and the carrier-game families.

A game is one dense table: every face mask of its complex, in canonical face
order, maps to the face's worth, zeros included, and the empty coalition is
pinned to 0.  The value kernels index that table, reading the faces through
a player as the masks that hold its bit.  Carrier games v_T (containment)
and their strict variants (proper containment) are the probing basis of
Weber's axioms; the axiom suite reads their values off the weight tables
instead of building them.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from types import MappingProxyType
from typing import Mapping

from .complexes import EMPTY_FACE, Face, FaceLike, SimplicialComplex, as_face, read_json
from .errors import (
    ComplexMismatch,
    EmptyCarrierNotAllowed,
    EmptyCoalitionWorth,
    FaceNotInComplex,
    GameFaceNotInComplex,
    ParseError,
    PermutationNotSymmetry,
)
from .exactnum import format_rational, parse_rational
from .symmetry import Permutation, moved_facet


class Game:
    """An exact-rational characteristic function v on a complex, v({}) = 0.

    ``values`` maps faces to worths; faces it leaves out are worth 0.
    """

    __slots__ = ("complex", "_worth")

    def __init__(
        self, complex: SimplicialComplex, values: Mapping[Face, Fraction | int] = ()
    ):
        self.complex = complex
        worth = dict.fromkeys([f.mask for f in complex.faces], Fraction(0))
        for face, w in dict(values).items():
            face = as_face(face)
            w = Fraction(w)
            if face.mask not in worth:
                raise GameFaceNotInComplex(f"{face} is not a face of the complex")
            if face == EMPTY_FACE and w != 0:
                raise EmptyCoalitionWorth("the empty coalition is always worth 0")
            worth[face.mask] = w
        self._worth = worth

    def value(self, face: FaceLike) -> Fraction:
        face = as_face(face)
        w = self._worth.get(face.mask)
        if w is None:
            raise GameFaceNotInComplex(f"{face} is not a face of the complex")
        return w

    def mask_table(self) -> Mapping[int, Fraction]:
        """The stored table, read only: every face mask -> worth, in canonical order."""
        return MappingProxyType(self._worth)

    @property
    def values(self) -> dict[Face, Fraction]:
        """The nonzero worths by face, in canonical face order (a new dict)."""
        return {Face(m): w for m, w in self._worth.items() if w}

    def is_monotone(self) -> bool:
        """v(S) <= v(T) over all comparable pairs; covering pairs T - j, T suffice."""
        worth = self._worth
        for m, w in worth.items():
            rest = m
            while rest:
                low = rest & -rest
                if worth[m ^ low] > w:
                    return False
                rest ^= low
        return True

    def is_dummy(self, i: int) -> bool:
        """Does player i add exactly v({i}) to every coalition it can join?"""
        bit = self.complex.require_vertex(i).mask
        worth = self._worth
        vi = worth[bit]
        return all(w == worth[m ^ bit] + vi for m, w in worth.items() if m & bit)

    def permuted(self, perm: Permutation) -> "Game":
        """The game T -> v(pi T); pi must preserve the complex."""
        bad = moved_facet(self.complex, perm)
        if bad is not None:
            raise PermutationNotSymmetry(
                f"{perm} maps face {bad} outside the complex"
            )
        worth = self._worth
        return Game(
            self.complex,
            {f: worth[perm.apply_face(f).mask] for f in self.complex.faces},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Game):
            return NotImplemented
        return self.complex == other.complex and self._worth == other._worth

    def __repr__(self) -> str:
        return f"Game({{{', '.join(f'{f}: {w}' for f, w in self.values.items())}}})"


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
    if t == EMPTY_FACE and not strict:
        raise EmptyCarrierNotAllowed("carrier game of the empty face must be strict")
    values = {}
    for s in delta.faces:
        if t.issubset(s) and (not strict or s != t):
            values[s] = Fraction(1)
    return Game(delta, values)


def indicator_game(delta: SimplicialComplex, t: FaceLike) -> Game:
    """Worth 1 at exactly the face t (the difference of the two carrier games)."""
    t = as_face(t)
    if not delta.has_face(t):
        raise FaceNotInComplex(f"{t} is not a face of the complex")
    if t == EMPTY_FACE:
        raise EmptyCarrierNotAllowed("the empty face cannot carry an indicator")
    return Game(delta, {t: Fraction(1)})


def scale_add(v: Game, w: Game, a: Fraction | int, b: Fraction | int) -> Game:
    """The pointwise combination a*v + b*w on a shared complex."""
    if v.complex != w.complex:
        raise ComplexMismatch("games live on different complexes")
    a, b = Fraction(a), Fraction(b)
    vw, ww = v._worth, w._worth
    return Game(v.complex, {f: a * vw[f.mask] + b * ww[f.mask] for f in v.complex.faces})


# -- seeded generators (used by verification commands and tests) ---------

def random_rational(rng: Random, lo: int = -9, hi: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_game(delta: SimplicialComplex, rng: Random) -> Game:
    """Independent random rational worth on every nonempty face."""
    return Game(
        delta,
        {f: random_rational(rng) for f in delta.faces if f != EMPTY_FACE},
    )


def random_monotone_game(delta: SimplicialComplex, rng: Random) -> Game:
    """A nonnegative combination of carrier games, hence monotone.

    Each nonempty face draws a weight in canonical order; a face is worth the
    sum of the weights of its subfaces, accumulated one vertex bit at a time
    over the downward-closed face set (a subset-sum pass, O(n |faces|)).
    """
    worth = {
        f.mask: random_rational(rng, lo=0) if f != EMPTY_FACE else Fraction(0)
        for f in delta.faces
    }
    for j in range(delta.n):
        bit = 1 << j
        for m in worth:
            if m & bit:
                worth[m] += worth[m ^ bit]
    return Game(delta, dict(zip(delta.faces, worth.values())))


def random_dummy_game(delta: SimplicialComplex, i: int, rng: Random) -> Game:
    """A random game in which player i is dummy by construction.

    Faces without i get independent random worth; every face containing i
    is pinned to v(T) + v({i}) for T the face minus i.
    """
    bit = delta.require_vertex(i).mask
    worth = {0: Fraction(0)}  # faces[0] is the empty face
    for f in delta.faces[1:]:
        if not f.mask & bit:
            worth[f.mask] = random_rational(rng)
    vi = random_rational(rng)
    return Game(
        delta,
        {f: worth[f.mask ^ bit] + vi if f.mask & bit else worth[f.mask] for f in delta.faces},
    )


# -- JSON interchange -----------------------------------------------------

def face_key(face: Face) -> str:
    return ",".join(str(v) for v in face.vertices)


def game_to_dict(v: Game) -> dict:
    return {
        "values": {face_key(f): format_rational(w) for f, w in v.values.items()}
    }


def _coalition_ids(key: str) -> list[int]:
    """The vertex ids of a key "i,j,...": each one a run of ASCII digits."""
    parts = key.split(",")
    try:
        if all(part.isascii() and part.isdigit() for part in parts):
            return [int(part) for part in parts]
    except ValueError:  # over the interpreter's integer digit limit
        pass
    raise ParseError(f"bad coalition key {key!r}")


def game_from_dict(data: object, delta: SimplicialComplex) -> Game:
    if not isinstance(data, dict) or "values" not in data:
        raise ParseError("game document must be an object with a 'values' key")
    raw = data["values"]
    if not isinstance(raw, dict):
        raise ParseError("'values' must map coalition keys to rationals")
    values: dict[Face, Fraction] = {}
    for key, text in raw.items():
        if key == "":
            raise ParseError("the empty coalition may not appear in a game file")
        ids = _coalition_ids(key)
        # ids are compared with n before the mask, which is max(ids) bits wide
        if max(ids) > delta.n or not delta.has_face(face := Face.from_vertices(ids)):
            raise GameFaceNotInComplex(f"{{{key}}} is not a face of the complex")
        if not isinstance(text, str):
            raise ParseError(f"worth of {key!r} must be a rational string")
        values[face] = parse_rational(text)
    return Game(delta, values)


def load_game(path: str, delta: SimplicialComplex) -> Game:
    return game_from_dict(read_json(path), delta)

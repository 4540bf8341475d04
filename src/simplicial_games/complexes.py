"""Simplicial complexes over the vertex set {1, ..., n} and their queries.

A face is its 64-bit vertex bitmask, a plain ``int`` (hard cap n <= 64):
set operations are the int operators (``s & f == s``, ``a | b``, ``a & ~b``,
``bit_count()``), and every face a complex stores or returns, and every key
of a table of faces, is that ``int``.  ``Face`` is the edge: ``as_face``
reads a non-negative ``int`` as the face it masks and anything else as
vertex ids, and ``Face(m)`` prints m as ``{1,3}``.
``SimplicialComplex(n, faces)`` takes any face family on [n] and
materializes its downward closure eagerly: every downstream formula sums
over faces or links, and the canonical ordering (cardinality, then
lexicographic on the vertex tuple) is fixed wherever output order matters.
A closure whose walk would pass ``FACE_BUDGET`` subsets is refused before
it starts.

One table per complex, ``face_ids``, maps every face to its vertex ids in
ascending order, one byte per id.  It is the complex's membership test, and
what is read off a face's ids is read off its bytes: the canonical order is
two sorts with C-level keys (the bytes, then the cardinality), a printed key
joins the bytes, and a link f-vector counts a vertex's byte in each
cardinality level.

A link is read as ``link(s)``, the faces through s minus s, on the *same*
ground set [n], so per-face weight tables index directly into them.
Removing the vertices those faces share keeps their order, so the link
comes out in canonical order with no closure, no sort and no complex built.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from itertools import groupby, repeat, takewhile
from typing import Iterable, Union

from .errors import (
    BudgetExceeded,
    EmptyComplex,
    FaceNotInComplex,
    FileNotFound,
    ParseError,
    TooManyVertices,
    VertexNotInComplex,
    VertexOutOfRange,
)

MAX_VERTICES = 64
FACE_BUDGET = 1 << 20  # subsets one closure may walk: 2^|facet| summed over facets
_ID_BYTE = [bytes([v]) for v in range(MAX_VERTICES + 1)]  # vertex id v -> its byte in face_ids
_ID_BIT = [0] + [1 << v for v in range(MAX_VERTICES)]  # vertex id v -> its bit in a mask

FVector = tuple[int, ...]


class Face(int):
    """One face read in or printed out: an ``int`` that is its own vertex bitmask.

    Vertex id v occupies bit v-1. The empty face is ``Face(0)``.  A face
    equals and hashes as its mask, so it looks up any table keyed by mask.
    """

    __slots__ = ()

    @classmethod
    def from_vertices(cls, vertices: Iterable[int]) -> "Face":
        mask = 0
        for v in vertices:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise VertexOutOfRange(f"vertex ids must be integers >= 1, got {v!r}")
            if v > MAX_VERTICES:  # before the shift builds a v-bit int
                raise VertexOutOfRange(f"vertex ids must be <= {MAX_VERTICES}, got {v}")
            bit = 1 << (v - 1)
            if mask & bit:
                raise VertexOutOfRange(f"duplicate vertex id {v}")
            mask |= bit
        return cls(mask)

    @property
    def mask(self) -> int:
        """The mask as a plain ``int``."""
        return int(self)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.bit_length()) if self >> i & 1)

    def __str__(self) -> str:
        return format_ids(self.vertices)

    def __repr__(self) -> str:
        return f"Face({self})"


EMPTY_FACE = Face(0)


def format_ids(ids: Iterable[int]) -> str:
    """Vertex ids as a face is printed: ``{1,3}``."""
    return "{" + ",".join(map(str, ids)) + "}"


FaceLike = Union[int, Iterable[int]]


def as_face(obj: FaceLike) -> Face:
    """The face a non-negative int (not a bool) is the mask of, or that vertex ids name."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        if obj < 0:
            raise VertexOutOfRange(f"a face mask must be >= 0, got {obj}")
        return Face(obj)
    return Face.from_vertices(obj)


def _check_vertex_ids(n: int, faces: Iterable[int]) -> None:
    """Raise unless n is an int in 0..MAX_VERTICES, not a bool, and every face lies in 1..n."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise VertexOutOfRange(f"vertex count must be an integer, got {n!r}")
    if n > MAX_VERTICES:
        raise TooManyVertices(f"at most {MAX_VERTICES} vertices supported, got n={n}")
    if n < 0:
        raise VertexOutOfRange(f"vertex count must be >= 0, got {n}")
    limit = (1 << n) - 1
    for f in faces:
        if f & ~limit:
            raise VertexOutOfRange(f"face {Face(f)} has vertices outside 1..{n}")


class SimplicialComplex:
    """The downward closure of a face family, with its facet list and rank.

    ``faces`` is the full closure in canonical order, ``face_ids`` maps each
    of them to its ascending vertex ids as ``bytes`` (one byte per id) and
    answers membership tests, ``facets`` are the inclusion-maximal inputs,
    ``rank`` the largest face cardinality (-1 for the empty family).
    """

    __slots__ = ("n", "faces", "facets", "rank", "face_ids", "_link_f_vectors")

    def __init__(self, n: int, faces: Iterable[FaceLike]):
        """The closure of ``faces``, any family of faces on the ground set [n].

        The distinct inputs are walked largest first.  An input already in
        the closure lies inside a larger input; every other input is a facet,
        and its subsets join the closure.  Before each facet is walked its
        2^|facet| subsets are counted, and BudgetExceeded is raised once the
        count would pass FACE_BUDGET.  The closure is then read in ascending
        int order, where f minus its lowest vertex is a smaller int, so its
        ids are in the table when f's are written.
        """
        inputs = list(faces)
        # int masks in range pass one C-level bound test; anything else is
        # read and checked face by face, which raises the first bad input's
        # error, and kept as plain ints
        if not (
            {int}.issuperset(map(type, inputs))
            and type(n) is int
            and 0 <= n <= MAX_VERTICES
            and min(inputs, default=0) >= 0
            and max(inputs, default=0) >> n == 0
        ):
            inputs = [int(as_face(f)) for f in inputs]
            _check_vertex_ids(n, inputs)
        closure: set[int] = set()
        facets = []
        walked = 0
        for m in sorted(set(inputs), key=int.bit_count, reverse=True):
            if m in closure:
                continue
            walked += 1 << m.bit_count()
            if walked > FACE_BUDGET:
                raise BudgetExceeded(
                    f"closure would walk {walked} subsets, over the budget of {FACE_BUDGET}"
                )
            facets.append(m)
            subs, rest = [0], m
            while rest:
                low = rest & -rest
                subs += [s | low for s in subs]
                rest ^= low
            closure.update(subs)
        ids: dict[int, bytes] = {}
        for f in sorted(closure):
            low = f & -f
            ids[f] = _ID_BYTE[low.bit_length()] + ids[f ^ low] if f else b""
        del closure  # the table holds every face; kept, the set adds 15% to the peak
        self.n = n
        self.face_ids = ids
        self.faces: tuple[int, ...] = _canonical(ids.keys(), ids)
        self.facets: tuple[int, ...] = _canonical(facets, ids)
        self.rank = self.faces[-1].bit_count() if self.faces else -1
        self._link_f_vectors: dict[int, FVector] | None = None

    @classmethod
    def from_facets(cls, n: int, facet_list: Iterable[FaceLike]) -> "SimplicialComplex":
        """The downward closure of the given faces; non-maximal inputs are absorbed."""
        return cls(n, facet_list)

    # -- membership ---------------------------------------------------

    def has_face(self, face: FaceLike) -> bool:
        return as_face(face) in self.face_ids

    def require_face(self, face: FaceLike) -> Face:
        f = as_face(face)
        if f not in self.face_ids:
            raise FaceNotInComplex(f"{f} is not a face of the complex")
        return f

    def require_vertex(self, i: int) -> Face:
        """The face {i}; VertexOutOfRange when i < 1, VertexNotInComplex when not a vertex."""
        # i is compared with n before the mask, which is i bits wide
        if i <= self.n and (single := Face.from_vertices([i])) in self.face_ids:
            return single
        raise VertexNotInComplex(f"vertex {i} is not in the complex")

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if (1 << (v - 1)) in self.face_ids)

    # -- queries -------------------------------------------------------

    def link(self, s: FaceLike) -> tuple[int, ...]:
        """The faces of Link(s): faces disjoint from s whose union with s is a face.

        These are the g - s for the faces g that contain s, in canonical
        order.  For a vertex this is exactly the set of coalitions the
        player can join.
        """
        sm = self.require_face(s)
        return tuple(f ^ sm for f in self.faces if f & sm == sm)

    def star(self, s: FaceLike) -> frozenset[int]:
        """All faces contained in some face that contains s: the t with t + s a face."""
        sm = self.require_face(s)
        return frozenset(t for t in self.faces if t | sm in self.face_ids)

    def f_vector(self) -> FVector:
        """(f_{-1}, f_0, ..., f_{rank-1}): face counts by cardinality."""
        if not self.faces:
            raise EmptyComplex("f-vector of the empty complex is undefined")
        counts = [0] * (self.rank + 1)
        for f in self.faces:
            counts[f.bit_count()] += 1
        return tuple(counts)

    def skeleton(self, k: int) -> "SimplicialComplex":
        """The subcomplex of faces of cardinality at most k, filtered from this one.

        The faces are closed and in canonical order already, so no closure is
        walked: the facets are the k-faces and the facets smaller than k.
        """
        if not isinstance(k, int) or isinstance(k, bool):
            raise VertexOutOfRange(f"skeleton bound must be an integer, got {k!r}")
        if k < 0:
            raise VertexOutOfRange(f"skeleton bound must be >= 0, got {k}")
        sub = SimplicialComplex.__new__(SimplicialComplex)
        sub.n, sub.rank, sub._link_f_vectors = self.n, min(k, self.rank), None
        sub.face_ids = {f: ids for f, ids in self.face_ids.items() if len(ids) <= k}
        sub.faces = self.faces[: bisect_right(self.faces, k, key=int.bit_count)]
        small = {f for f in self.facets if f.bit_count() < k}
        sub.facets = tuple(f for f in sub.faces if f.bit_count() == k or f in small)
        return sub

    def link_f_vectors(self) -> dict[int, FVector]:
        """f(Link(v)) for every vertex v, ascending, counted without building a link.

        Link(v) has a face of cardinality c per face through v of cardinality c+1.
        The counts are taken once per complex; each call returns a fresh dict.
        """
        if self._link_f_vectors is None:
            # the ids of the faces of each cardinality 1..rank, joined
            levels = [
                b"".join(map(self.face_ids.__getitem__, level))
                for _, level in groupby(self.faces[1:], int.bit_count)
            ]
            fvs = {}
            for v in range(1, self.n + 1):
                # v is in no face of cardinality c + 1 once it is in none of cardinality c
                row = tuple(takewhile(bool, map(bytes.count, levels, repeat(_ID_BYTE[v]))))
                if row:
                    fvs[v] = row
            self._link_f_vectors = fvs
        return dict(self._link_f_vectors)

    def has_pure_links(self) -> bool:
        """True iff every vertex link has all facets of cardinality rank-1.

        Link(v) has the facets F - v for the facets F through v: this is purity.
        """
        if not self.vertices:
            raise EmptyComplex("pure-links test needs at least one vertex")
        return all(f.bit_count() == self.rank for f in self.facets)

    def extension_set(self, t: FaceLike) -> frozenset[int]:
        """Vertices j outside t with t+j again a face."""
        m = self.require_face(t)
        return frozenset(
            j + 1
            for j in range(self.n)
            if not m >> j & 1 and m | 1 << j in self.face_ids
        )

    def facets_containing(self, s: FaceLike) -> tuple[int, ...]:
        s = self.require_face(s)
        return tuple(f for f in self.facets if s & f == s)

    # -- equality ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.n == other.n and self.faces == other.faces

    def __hash__(self) -> int:
        return hash((self.n, self.faces))

    def __repr__(self) -> str:
        return f"SimplicialComplex(n={self.n}, facets={[str(Face(f)) for f in self.facets]})"


def _canonical(faces: Iterable[int], ids: dict[int, bytes]) -> tuple[int, ...]:
    """``faces`` by cardinality, then by their vertex ids: the canonical order."""
    order = sorted(faces, key=ids.__getitem__)
    order.sort(key=int.bit_count)  # stable: the ids' order stays within a cardinality
    return tuple(order)


def full_simplex(n: int) -> SimplicialComplex:
    """2^[n], the complex where every coalition is feasible."""
    _check_vertex_ids(n, ())  # before range() reads n
    return SimplicialComplex.from_facets(n, [range(1, n + 1)])


# -- JSON interchange --------------------------------------------------

def complex_from_dict(data: object) -> SimplicialComplex:
    if not isinstance(data, dict):
        raise ParseError("complex document must be a JSON object")
    try:
        n = data["n"]
        facets = data["facets"]
    except KeyError as e:
        raise ParseError(f"complex document missing key {e.args[0]!r}") from None
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError("'n' must be an integer")
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise ParseError("'facets' must be a list of vertex-id lists")
    _check_vertex_ids(n, ())  # n first: the id bound below stays under 64 bits
    bits = {v: 1 << (v - 1) for v in range(1, n + 1)}
    faces = []
    for f in facets:
        # types first, as 1.0 and True would find the bit of 1; then an id
        # outside 1..n adds no bit and a repeated one carries, so the mask
        # has as many bits as f has ids exactly when f names a face
        if {int}.issuperset(map(type, f)):
            m = sum(map(bits.get, f, repeat(0)))
            if m.bit_count() == len(f):
                faces.append(m)
                continue
        # a facet that fails is diagnosed id by id: the first bad id's error
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in f):
            raise ParseError(f"facet {f!r} contains a non-integer vertex id")
        if any(v > n for v in f):  # before the mask, which is v bits wide
            raise VertexOutOfRange(
                f"face {format_ids(sorted(f))} has vertices outside 1..{n}"
            )
        faces.append(Face.from_vertices(f))
    return SimplicialComplex.from_facets(n, faces)


def read_json(path: str) -> object:
    """The JSON document in a UTF-8 file; any unreadable file is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as e:
        raise FileNotFound(str(e)) from None
    except json.JSONDecodeError as e:
        raise ParseError(
            f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    except OSError as e:
        raise ParseError(str(e)) from None
    except ValueError as e:  # undecodable bytes, or an integer over the digit limit
        raise ParseError(f"{path}: {e}") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None


def load_complex(path: str) -> SimplicialComplex:
    return complex_from_dict(read_json(path))

"""Symmetries of a complex and the common-probability linear system.

A permutation is its image tuple, and acts on faces as a bit permutation of
the vertex masks.  One primitive, :func:`moved_facet`, maps each facet mask
through the per-vertex bit table of an image tuple and reports the first
facet sent outside the complex; since a bijection preserving the facet set
preserves the whole complex, this is the preservation test everywhere.

Symm(D) is the subgroup of S_n whose members map faces to faces, and
:func:`symm_group` returns its order (n <= 10), the one figure read off it.
The order is the product of the orbit sizes along the stabilizer chain of
1, 2, ..., n, each counted by backtracking over vertex images: vertex v may
go to w only when their vertex-link f-vectors agree or neither is a vertex,
and a branch is cut as soon as the image of the assigned part of some facet
is no longer a face.  The search only answers whether a partial assignment
extends to a member.

The generated subgroup driving the symmetry reduction is built from two
generator families, both as image tuples of :func:`swap_permutation`, each
distinct one wrapped once as a :class:`Permutation`: for every vertex i,
the swap of two equal-cardinality members L, T of the vertex link (the
sorted pairing of L-minus-T with T-minus-L), and every transposition (i j)
whose vertex links share a face, the swap of {i} and {j}.  Every vertex
link holds the empty face, so the generated subgroup is Sym(V), V the
vertex set, and it preserves the complex exactly when the complex is a
skeleton of the simplex on V, a face count: cycles and the Petersen graph
are refused, although vertex-transitive.  The paper's own generator family
cannot be checked against its abstract alone, so this reading is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, groupby
from math import comb
from typing import Iterator

from .complexes import _ID_BIT, FVector, SimplicialComplex
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EmptyComplex,
    GroundSetTooLarge,
    NotPureLinks,
    VertexOutOfRange,
)
from .exactnum import LinearSolution, RationalMatrix, solve_exact

SYMM_GROUP_MAX_N = 10
PAIR_BUDGET = 1 << 25  # pairs of equal-size link faces one generator walk may examine


def _image_mask(mask: int, bits: list[int]) -> int:
    """The image of a vertex mask, given the image bit of each vertex."""
    img = 0
    while mask:
        low = mask & -mask
        img |= bits[low.bit_length() - 1]
        mask ^= low
    return img


class Permutation(tuple):
    """A bijection of {1, ..., n} as its image tuple: p[k] is the image of vertex k+1.

    It equals and hashes as the plain tuple.  ``Permutation(images)`` checks
    the bijection; ``cycles`` and ``str`` print the cycle notation.
    """

    __slots__ = ()

    def __new__(cls, images):
        self = super().__new__(cls, images)
        n = len(self)
        if not {int}.issuperset(map(type, self)) or sorted(self) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {tuple(self)}")
        return self

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        """(i j): the swap of {i} and {j}, two int vertices in 1..n."""
        if not all(type(v) is int and 1 <= v <= n for v in (i, j)):  # before the shifts
            raise ValueError(f"transposition needs two vertices in 1..{n}, got {i!r} and {j!r}")
        return cls(swap_permutation(n, 1 << (i - 1), 1 << (j - 1)))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, walked from the moved vertices up: each starts at its minimum."""
        seen: set[int] = set()
        out = []
        for v in [v for v, w in enumerate(self, 1) if v != w]:
            if v not in seen:
                cyc = [v]
                w = self[v - 1]
                while w != v:
                    cyc.append(w)
                    w = self[w - 1]
                seen.update(cyc)
                out.append(tuple(cyc))
        return tuple(out)

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation({tuple(self)!r})"


def moved_facet(delta: SimplicialComplex, perm: tuple[int, ...]) -> int | None:
    """The first facet perm maps outside the complex, or None if it preserves it.

    perm is any image tuple of length n, a Permutation or a plain tuple.  A
    bijection sending every facet to a face preserves the whole complex.  A
    Permutation is a bijection of 1..n already; a plain tuple is checked for
    int images in 1..n before any image bit is built.
    """
    if len(perm) != delta.n:
        raise DimensionMismatch(
            f"permutation of 1..{len(perm)} applied to a complex over 1..{delta.n}"
        )
    if not isinstance(perm, Permutation) and perm and not (
        {int}.issuperset(map(type, perm)) and min(perm) >= 1 and max(perm) <= delta.n
    ):
        raise VertexOutOfRange(f"permutation images must be int vertices in 1..{delta.n}")
    bits = list(map(_ID_BIT.__getitem__, perm))
    faces = delta.face_ids
    for f in delta.facets:
        if _image_mask(f, bits) not in faces:
            return f
    return None


def permutation_preserves(delta: SimplicialComplex, perm: Permutation) -> bool:
    """Does perm map the complex onto itself?"""
    return moved_facet(delta, perm) is None


def symm_group(delta: SimplicialComplex) -> int:
    """The order of Symm(delta), the permutations of [n] preserving the complex.

    It multiplies, over k, the orbit size of vertex k+1 in the pointwise
    stabilizer of 1..k: the images w for which the search finds a member
    fixing 1..k and sending k+1 to w.  The search stops at the first
    complete assignment and builds no permutation.  Membership of one
    permutation is :func:`permutation_preserves`.
    """
    n = delta.n
    if n > SYMM_GROUP_MAX_N:
        raise GroundSetTooLarge(
            f"symmetry group search capped at n={SYMM_GROUP_MAX_N}, got n={n}"
        )
    faces, facets = delta.face_ids, delta.facets
    # holders[v]: indices of the facets through vertex v+1
    holders = [[k for k, m in enumerate(facets) if m >> v & 1] for v in range(n)]
    # allowed[v]: the 0-based images vertex v+1 may take
    profile = delta.link_f_vectors()
    allowed = [[w for w in range(n) if profile.get(w + 1) == profile.get(v + 1)] for v in range(n)]

    def place(v: int, w: int, img: list[int]) -> bool:
        """Add w to the partial image of each facet through v, if all stay faces."""
        bit = 1 << w
        for done, k in enumerate(holders[v]):
            if (img[k] | bit) not in faces:
                for j in holders[v][:done]:
                    img[j] ^= bit
                return False
            img[k] |= bit
        return True

    def search(v: int, img: list[int], used: int) -> bool:
        """Can vertices v+1..n be given unused images keeping every facet a face?"""
        if v == n:
            return True
        for w in allowed[v]:
            if used >> w & 1 or not place(v, w, img):
                continue
            if search(v + 1, img, used | 1 << w):
                return True
            for k in holders[v]:
                img[k] ^= 1 << w
        return False

    order = 1
    for k in range(n):
        # the identity on 1..k maps each facet into itself, so a facet's
        # image so far is its part in 1..k, and only vertex k+1 is placed
        fixed = (1 << k) - 1
        orbit = 1  # k+1 is its own image
        for w in allowed[k]:
            if w > k:
                img = [f & fixed for f in facets]
                if place(k, w, img) and search(k + 1, img, fixed | 1 << w):
                    orbit += 1
        order *= orbit
    return order


def swap_permutation(n: int, left: int, right: int) -> tuple[int, ...]:
    """The image tuple exchanging two equal-cardinality sets, given as masks.

    The symmetric differences are paired in sorted order; the overlap and
    everything else stay fixed.
    """
    lo, ro = left & ~right, right & ~left
    if lo.bit_count() != ro.bit_count():
        raise ValueError("sets must have equal cardinality")
    if (lo | ro) >> n:
        raise ValueError(f"sets must lie in 1..{n}")
    images = list(range(1, n + 1))
    while lo:
        a, b = (lo & -lo).bit_length() - 1, (ro & -ro).bit_length() - 1
        images[a], images[b] = b + 1, a + 1
        lo &= lo - 1
        ro &= ro - 1
    return tuple(images)


def _generators(delta: SimplicialComplex) -> Iterator[Permutation]:
    """The generators of :func:`pi_delta_generators`, lazily, in its order."""
    pairs = sum(f * (f - 1) // 2 for fv in delta.link_f_vectors().values() for f in fv)
    if pairs > PAIR_BUDGET:
        raise BudgetExceeded(
            f"generator walk would examine {pairs} link-face pairs, over {PAIR_BUDGET}"
        )
    n, verts = delta.n, delta.vertices
    link_pairs = (
        (left, right)
        for i in verts
        for _, same in groupby(delta.link(1 << i - 1)[1:], key=int.bit_count)  # nonempty T
        for left, right in combinations(same, 2)
        if not left & right
    )
    singletons = combinations([1 << i - 1 for i in verts], 2)
    seen: set[tuple[int, ...]] = set()
    for left, right in chain(link_pairs, singletons):
        if (g := swap_permutation(n, left, right)) not in seen:
            seen.add(g)
            yield tuple.__new__(Permutation, g)  # a swap is a bijection by construction


def pi_delta_generators(delta: SimplicialComplex) -> tuple[Permutation, ...]:
    """Generators of the subgroup the symmetry reduction quantifies over.

    Link-pair swaps per vertex first, then every transposition, since every
    vertex link holds the empty face.  Only disjoint pairs are swapped: if
    L, T are in Link(i), so are L-T and T-L, a smaller pair giving the same
    swap earlier.  Each candidate's image tuple is built once by
    :func:`swap_permutation` and dropped if it was seen already; none is the
    identity.  BudgetExceeded is raised before the first pair if the walk
    would pass PAIR_BUDGET link pairs.
    """
    return tuple(_generators(delta))


@dataclass(frozen=True)
class ContainmentReport:
    """Outcome of the generator-preservation check for the generated subgroup."""

    contained: bool
    witness_generator: Permutation | None = None
    witness_face: int | None = None


def _is_skeleton(delta: SimplicialComplex) -> bool:
    """Are the faces all sum_c C(|V|, c) subsets of V of size <= rank?"""
    size = len(delta.vertices)
    return len(delta.faces) == sum(comb(size, c) for c in range(delta.rank + 1))


def check_pi_delta_contained(delta: SimplicialComplex) -> ContainmentReport:
    """True iff every generator preserves the complex.

    The generators generate Sym(V), which preserves exactly the skeleta of
    the simplex on V.  Otherwise the first generator that moves a facet is
    reported with that facet.
    """
    if _is_skeleton(delta):
        return ContainmentReport(True)
    # some transposition moves a face, so the walk stops at a witness
    return next(
        ContainmentReport(False, gen, moved)
        for gen in _generators(delta)
        if (moved := moved_facet(delta, gen)) is not None
    )


@dataclass(frozen=True)
class ShapleyClassification:
    """Whether all vertex links share one f-vector (and which)."""

    is_shapley: bool
    s_vector: FVector | None = None
    witness: tuple[int, int] | None = None


def classify_shapley(delta: SimplicialComplex) -> ShapleyClassification:
    """Compare per-vertex link f-vectors; unequal ranks also disqualify."""
    fvs = delta.link_f_vectors()
    if not fvs:
        raise EmptyComplex("classification needs at least one vertex")
    (first, s), *rest = fvs.items()
    for v, fv in rest:
        if fv != s:
            return ShapleyClassification(False, witness=(first, v))
    return ShapleyClassification(True, s_vector=s)


def p_system_rows(delta: SimplicialComplex) -> tuple[tuple[FVector, ...], list[int]]:
    """Deduplicated link f-vector rows of the common-probability system.

    Returns the distinct rows (first-occurrence order over ascending
    vertices) and, per row, a representative vertex.
    """
    if not delta.has_pure_links():
        raise NotPureLinks("the common-probability system requires pure links")
    reps: dict[FVector, int] = {}
    for v, fv in delta.link_f_vectors().items():
        reps.setdefault(fv, v)
    return tuple(reps), list(reps.values())


def solve_p_system(delta: SimplicialComplex) -> LinearSolution:
    """Solve f(Link(i)) . p = 1 over all vertices i, exactly.

    Rows are the vertex-link f-vectors (all of length rank, thanks to pure
    links), deduplicated before elimination; unknowns are (p_0, ..., p_{r-1}).
    """
    rows, _ = p_system_rows(delta)
    return solve_exact(RationalMatrix(delta.rank, rows), [1] * len(rows))

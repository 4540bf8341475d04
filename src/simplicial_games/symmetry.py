"""Symmetries of a complex and the common-probability linear system.

A permutation acts on faces as a bit permutation of the vertex masks.  One
primitive, :func:`moved_facet`, maps each facet mask through a per-vertex
bit table and reports the first facet sent outside the complex; since a
bijection preserving the facet set preserves the whole complex, this is the
preservation test everywhere.

Symm(D) is the subgroup of S_n whose members map faces to faces.  It is
found by backtracking over vertex images (n <= 10): vertex v may go to w
only when their vertex-link f-vectors agree or neither is a vertex, and a
branch is cut as soon as the image of the assigned part of some facet is no
longer a face.  The group order, all the search reports, is the product of
the orbit sizes along the stabilizer chain of 1, 2, ..., n.

The generated subgroup driving the symmetry reduction is built from two
generator families, both by :func:`swap_permutation`: for every vertex i,
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
from functools import cached_property
from itertools import chain, combinations, groupby
from math import comb
from typing import Iterator, Mapping

from .complexes import Face, FVector, SimplicialComplex
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EmptyComplex,
    GroundSetTooLarge,
    NotPureLinks,
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


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., n}; images[k] is the image of vertex k+1."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_mapping(cls, n: int, mapping: Mapping[int, int]) -> "Permutation":
        return cls(tuple(mapping.get(v, v) for v in range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        return cls.from_mapping(n, {i: j, j: i})

    @property
    def n(self) -> int:
        return len(self.images)

    @property
    def bits(self) -> list[int]:
        """The bit table: bits[v-1] is the mask of the image of vertex v."""
        return [1 << (w - 1) for w in self.images]

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, walked from the moved vertices up: each starts at its minimum."""
        images = self.images
        seen: set[int] = set()
        out = []
        for v in [v for v, w in enumerate(images, 1) if v != w]:
            if v not in seen:
                cyc = [v]
                w = images[v - 1]
                while w != v:
                    cyc.append(w)
                    w = images[w - 1]
                seen.update(cyc)
                out.append(tuple(cyc))
        return tuple(out)

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycs)


def moved_facet(delta: SimplicialComplex, perm: Permutation) -> Face | None:
    """The first facet perm maps outside the complex, or None if it preserves it.

    A bijection sending every facet to a face preserves the whole complex.
    """
    if perm.n != delta.n:
        raise DimensionMismatch(
            f"permutation of 1..{perm.n} applied to a complex over 1..{delta.n}"
        )
    bits = perm.bits
    faces = delta.face_masks
    for f in delta.facets:
        if _image_mask(f, bits) not in faces:
            return f
    return None


def permutation_preserves(delta: SimplicialComplex, perm: Permutation) -> bool:
    """Does perm map the complex onto itself?"""
    return moved_facet(delta, perm) is None


class SymmetryGroup:
    """Symm(delta), searched by backtracking over vertex images.

    Vertex v may go to w only when their vertex-link f-vectors agree or
    neither is a vertex; a branch is cut as soon as the partial image of a
    facet is not a face.  ``order`` multiplies, over k, the orbit size of k
    in the pointwise stabilizer of 1..k-1, each orbit member found by one
    search stopped at its first hit.  Membership of one permutation is
    :func:`permutation_preserves`.
    """

    def __init__(self, delta: SimplicialComplex):
        self.n = delta.n
        self._faces = delta.face_masks
        self._facets = delta.facets
        # _holders[v]: indices of the facets through vertex v+1
        self._holders = [
            [k for k, m in enumerate(self._facets) if m >> v & 1] for v in range(self.n)
        ]
        # _allowed[v]: the 0-based images vertex v+1 may take
        profile = delta.link_f_vectors()
        self._allowed = [
            [w for w in range(self.n) if profile.get(w + 1) == profile.get(v + 1)]
            for v in range(self.n)
        ]

    @cached_property
    def order(self) -> int:
        order = 1
        for k in range(self.n):
            fixed = list(range(k))
            order *= sum(
                1
                for w in self._allowed[k]
                if w == k
                or (w > k and next(self._completions(fixed + [w]), None) is not None)
            )
        return order

    def _completions(self, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        """Image tuples of the members sending vertex v+1 to prefix[v]+1."""
        img = [0] * len(self._facets)
        images = [0] * self.n
        for v, w in enumerate(prefix):
            if not self._place(v, w, img):
                return
            images[v] = w
        used = sum(1 << w for w in prefix)
        yield from self._search(len(prefix), images, img, used)

    def _place(self, v: int, w: int, img: list[int]) -> bool:
        """Add w to the partial image of each facet through v, if all stay faces."""
        bit = 1 << w
        holders = self._holders[v]
        for done, k in enumerate(holders):
            if (img[k] | bit) not in self._faces:
                for j in holders[:done]:
                    img[j] ^= bit
                return False
            img[k] |= bit
        return True

    def _search(
        self, v: int, images: list[int], img: list[int], used: int
    ) -> Iterator[tuple[int, ...]]:
        if v == self.n:
            yield tuple(w + 1 for w in images)
            return
        for w in self._allowed[v]:
            if used >> w & 1 or not self._place(v, w, img):
                continue
            images[v] = w
            yield from self._search(v + 1, images, img, used | 1 << w)
            for k in self._holders[v]:
                img[k] ^= 1 << w


def symm_group(delta: SimplicialComplex) -> SymmetryGroup:
    """Symm(delta): all permutations of [n] preserving the complex."""
    if delta.n > SYMM_GROUP_MAX_N:
        raise GroundSetTooLarge(
            f"symmetry group search capped at n={SYMM_GROUP_MAX_N}, got n={delta.n}"
        )
    return SymmetryGroup(delta)


def _swap_images(identity: list[int], left: int, right: int) -> tuple[int, ...]:
    """The image tuple of the swap pairing the bits of two masks in ascending order."""
    images = identity.copy()
    while left:
        a, b = (left & -left).bit_length() - 1, (right & -right).bit_length() - 1
        images[a], images[b] = b + 1, a + 1
        left &= left - 1
        right &= right - 1
    return tuple(images)


def swap_permutation(n: int, left: int, right: int) -> Permutation:
    """The permutation exchanging two equal-cardinality sets, given as masks.

    The symmetric differences are paired in sorted order; the overlap and
    everything else stay fixed.
    """
    lo, ro = left & ~right, right & ~left
    if lo.bit_count() != ro.bit_count():
        raise ValueError("sets must have equal cardinality")
    if (lo | ro) >> n:
        raise ValueError(f"sets must lie in 1..{n}")
    return Permutation(_swap_images(list(range(1, n + 1)), lo, ro))


def _generators(delta: SimplicialComplex) -> Iterator[Permutation]:
    """The generators of :func:`pi_delta_generators`, lazily, in its order."""
    pairs = sum(f * (f - 1) // 2 for fv in delta.link_f_vectors().values() for f in fv)
    if pairs > PAIR_BUDGET:
        raise BudgetExceeded(
            f"generator walk would examine {pairs} link-face pairs, over {PAIR_BUDGET}"
        )
    n, verts, ident = delta.n, delta.vertices, list(range(1, delta.n + 1))
    link_pairs = (
        (left, right)
        for i in verts
        for _, same in groupby(delta.link(1 << i - 1)[1:], key=len)  # nonempty T
        for left, right in combinations(same, 2)
        if not left & right
    )
    singletons = combinations([1 << i - 1 for i in verts], 2)
    seen: set[tuple[int, ...]] = set()
    for left, right in chain(link_pairs, singletons):
        if (key := _swap_images(ident, left, right)) not in seen:
            seen.add(key)
            yield swap_permutation(n, left, right)


def pi_delta_generators(delta: SimplicialComplex) -> tuple[Permutation, ...]:
    """Generators of the subgroup the symmetry reduction quantifies over.

    Link-pair swaps per vertex first, then every transposition, since every
    vertex link holds the empty face.  Only disjoint pairs are swapped: if
    L, T are in Link(i), so are L-T and T-L, a smaller pair giving the same
    swap earlier.  A candidate is dropped before it is built when its image
    tuple was seen already; none is the identity.  BudgetExceeded is raised
    before the first pair if the walk would pass PAIR_BUDGET link pairs.
    """
    return tuple(_generators(delta))


@dataclass(frozen=True)
class ContainmentReport:
    """Outcome of the generator-preservation check for the generated subgroup."""

    contained: bool
    witness_generator: Permutation | None = None
    witness_face: Face | None = None


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

"""Shared fixture complexes used across the suite."""

from itertools import combinations
from random import Random

import pytest

from simplicial_games import SimplicialComplex, full_simplex
from oracles import facet_masks_of


def figure_a() -> SimplicialComplex:
    """Three triangles sharing vertex 3 pairwise along edges."""
    return SimplicialComplex.from_facets(5, [[1, 2, 3], [2, 3, 5], [3, 4, 5]])


def figure_b() -> SimplicialComplex:
    """Two triangles glued at the single vertex 3."""
    return SimplicialComplex.from_facets(5, [[1, 2, 3], [3, 4, 5]])


def cycle(n: int) -> SimplicialComplex:
    edges = [[i, i + 1] for i in range(1, n)] + [[n, 1]]
    return SimplicialComplex.from_facets(n, edges)


def boundary_simplex(n: int) -> SimplicialComplex:
    """All proper subsets of [n]."""
    return SimplicialComplex.from_facets(
        n, [list(c) for c in combinations(range(1, n + 1), n - 1)]
    )


def petersen() -> SimplicialComplex:
    outer = [[i, i % 5 + 1] for i in range(1, 6)]
    spokes = [[i, i + 5] for i in range(1, 6)]
    inner = [[i + 5, (i + 1) % 5 + 5 + 1] for i in range(1, 6)]
    return SimplicialComplex.from_facets(10, outer + spokes + inner)


def all_fixtures() -> dict[str, SimplicialComplex]:
    """The acceptance corpus, keyed by a stable name."""
    fixtures = {
        "figure_a": figure_a(),
        "figure_b": figure_b(),
        "boundary_simplex_4": boundary_simplex(4),
        "skeleton_5_2": full_simplex(5).skeleton(2),
        "cycle_4": cycle(4),
        "cycle_5": cycle(5),
        "petersen": petersen(),
    }
    for n in range(2, 6):
        fixtures[f"simplex_{n}"] = full_simplex(n)
    return fixtures


def golden_fixtures() -> dict[str, SimplicialComplex]:
    """The acceptance corpus plus the extra complexes of ``tests/golden/``."""
    fixtures = all_fixtures()
    fixtures.update(
        {
            "path_3": SimplicialComplex.from_facets(3, [[1, 2], [2, 3]]),
            "mixed_5": SimplicialComplex.from_facets(5, [[1, 2, 3], [3, 4], [5]]),
            "loose_6": SimplicialComplex.from_facets(6, [[1, 2], [2, 3]]),
            "simplex_8": full_simplex(8),
            "cycle_11": cycle(11),
            "skeleton_11_2": SimplicialComplex.from_facets(11, combinations(range(1, 12), 2)),
        }
    )
    return fixtures


def random_nonpure_complexes(count: int, seed: int) -> list[SimplicialComplex]:
    """``count`` seeded complexes on 2..10 vertices whose facets differ in size."""
    rng = Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 10)
        facets = [
            rng.sample(range(1, n + 1), rng.randint(1, min(n, 5)))
            for _ in range(rng.randint(2, 6))
        ]
        delta = SimplicialComplex.from_facets(n, facets)
        tops = facet_masks_of(set(delta.faces))
        if len({f.bit_count() for f in tops}) > 1:
            out.append(delta)
    return out


@pytest.fixture(scope="session")
def fixtures() -> dict[str, SimplicialComplex]:
    return all_fixtures()

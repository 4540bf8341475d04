"""The benchmark corpus: complex families, seeded games and workload batches.

Complexes are named by id strings such as ``skeleton-12-3`` (facets are the
3-subsets of 12 vertices) and are the same for every seed, so their answers
can be stored in ``expected.json``.  The seed draws the game values, the
order of the commands in a batch, and the ``--seed`` given to the program.

Games are built from Harsanyi dividends: a random rational d_T on every
nonempty face and v(S) = sum of d_T over T subset of S.  On a full simplex
the Shapley value of player i is then sum of d_T / |T| over T containing i,
which gives an exact expected answer without running the program's code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from random import Random


# -- complexes ----------------------------------------------------------


def _skeleton(n: int, k: int) -> list[list[int]]:
    return [list(c) for c in combinations(range(1, n + 1), k)]


def _cycle(n: int) -> list[list[int]]:
    return [[i, i + 1] for i in range(1, n)] + [[1, n]]


def _random_nonpure(index: int) -> tuple[int, list[list[int]]]:
    """Pool member ``index``: 9-13 vertices, 7-20 facets of 2-5 vertices."""
    rng = Random(f"nonpure-{index}")
    n = 9 + index % 5
    facets = [
        sorted(rng.sample(range(1, n + 1), rng.randint(2, 5)))
        for _ in range(7 + (5 * index) % 14)
    ]
    return n, facets


def complex_doc(cid: str) -> dict:
    """The complex file for a corpus id."""
    kind, *nums = cid.split("-")
    p = [int(x) for x in nums if x.isdigit()]
    if kind == "simplex":
        n, facets = p[0], [list(range(1, p[0] + 1))]
    elif kind == "skeleton":
        n, facets = p[0], _skeleton(p[0], p[1])
    elif kind == "boundary":
        n, facets = p[0], _skeleton(p[0], p[0] - 1)
    elif kind == "cycle":
        n, facets = p[0], _cycle(p[0])
    elif kind == "cone":  # cone over the cycle on p[0] vertices, apex p[0] + 1
        n, facets = p[0] + 1, [e + [p[0] + 1] for e in _cycle(p[0])]
    elif kind == "petersen":
        n = 10
        facets = (
            [[i, i % 5 + 1] for i in range(1, 6)]
            + [[i, i + 5] for i in range(1, 6)]
            + [[i + 5, (i + 1) % 5 + 6] for i in range(1, 6)]
        )
    elif kind == "figure" and nums == ["a"]:
        n, facets = 5, [[1, 2, 3], [2, 3, 5], [3, 4, 5]]
    elif kind == "figure" and nums == ["b"]:
        n, facets = 5, [[1, 2, 3], [3, 4, 5]]
    elif kind == "nonpure":
        n, facets = _random_nonpure(p[0])
    else:
        raise ValueError(f"unknown complex id {cid!r}")
    return {"n": n, "facets": facets}


def face_masks(doc: dict) -> list[int]:
    """Every face of the complex as a vertex bitmask, empty face included."""
    faces: set[int] = set()
    for facet in doc["facets"]:
        mask = sum(1 << (v - 1) for v in facet)
        sub = mask
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
    return sorted(faces)


def mask_key(mask: int) -> str:
    return ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def vertex_count(doc: dict) -> int:
    return len({v for f in doc["facets"] for v in f})


# -- games --------------------------------------------------------------


@dataclass(frozen=True)
class DividendGame:
    """A dense game v and its dividends d, both keyed by face mask."""

    n: int
    dividends: dict[int, Fraction]
    worth: dict[int, Fraction]

    def to_doc(self) -> dict:
        return {"values": {mask_key(m): str(w) for m, w in self.worth.items()}}

    def shapley_on_simplex(self) -> dict[int, Fraction]:
        """The classical Shapley value, valid when the complex is a full simplex."""
        phi = {i: Fraction(0) for i in range(1, self.n + 1)}
        for mask, d in self.dividends.items():
            share = d / mask.bit_count()
            for i in range(self.n):
                if mask >> i & 1:
                    phi[i + 1] += share
        return phi


def dividend_game(doc: dict, rng: Random) -> DividendGame:
    masks = [m for m in face_masks(doc) if m]
    dividends = {m: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for m in masks}
    worth = dict(dividends)
    # Sum over subsets one vertex at a time; the face set is downward closed.
    for bit in (1 << i for i in range(doc["n"])):
        for m in masks:
            if m & bit and m != bit:
                worth[m] += worth[m ^ bit]
    return DividendGame(doc["n"], dividends, worth)


# -- workloads ----------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """One CLI command of a batch.

    ``game`` k > 0 names the k-th game on the complex; ``seed`` is added to
    the run's seed to give the program's ``--seed`` (the random games of
    ``verify`` and of the ``decompose`` cross-check).
    """

    cmd: str
    cid: str
    fmt: str = "json"
    game: int = 0
    player: int | None = None
    seed: int = 0


def _alternate(specs: list[tuple]) -> list[Spec]:
    """Give every other command the table format, so both output paths run."""
    return [
        Spec(*s[:2], "table" if k % 2 else "json", *s[2:]) for k, s in enumerate(specs)
    ]


# One small command of every kind rides in every batch, so that every layer
# is measured on every workload.  They take a few milliseconds each; the
# decompose is consistent, so its cross-check runs the permutation oracle.
BACKGROUND = [
    Spec("info", "figure-a", "table"),
    Spec("shapley", "simplex-5", "json", game=1),
    Spec("symmetry", "figure-a", "json"),
    Spec("psystem", "figure-a", "table"),
    Spec("decompose", "boundary-4", "json", player=1),
    Spec("efficiency", "figure-b", "table", game=1),
    Spec("verify", "figure-b", "table"),
]

_STRUCTURE_PURE = [
    "skeleton-10-2", "skeleton-12-2", "skeleton-14-2", "skeleton-16-2",
    "skeleton-10-3", "skeleton-11-3", "skeleton-12-3", "skeleton-13-3",
    "skeleton-14-3", "skeleton-15-3", "skeleton-16-3", "skeleton-12-4",
    "cycle-12", "cycle-20", "cycle-30", "cycle-40", "cone-8", "cone-12", "cone-20",
    "boundary-6", "boundary-7", "boundary-8", "petersen",
]
_STRUCTURE_NONPURE = [f"nonpure-{k}" for k in range(10)]


def _structure() -> list[Spec]:
    specs: list[tuple] = []
    for cid in _STRUCTURE_PURE:
        specs += [("info", cid), ("psystem", cid), ("efficiency", cid, 1)]
    for cid in _STRUCTURE_NONPURE:
        player = complex_doc(cid)["facets"][0][0]
        specs += [("info", cid), ("efficiency", cid, 1), ("decompose", cid, 0, player)]
    return _alternate(specs)


def _value() -> list[Spec]:
    # Twelve games on the 9-simplex span the 90th percentile of the batch,
    # so that it falls among commands of one size.
    specs = [Spec("shapley", f"simplex-{n}", game=g) for n, games in
             ((8, 71), (9, 12), (10, 1), (11, 1)) for g in range(1, games + 1)]
    specs += _alternate([("efficiency", f"simplex-{n}", g) for n, games in
                         ((8, 3), (9, 1)) for g in range(1, games + 1)])
    specs += _alternate([("verify", cid) for cid in (
        "figure-a", "figure-b", "cycle-8", "petersen", "simplex-5",
    )])
    return specs


def _symmetry() -> list[Spec]:
    # n <= 8: the n! group scan runs.  The five costliest run in one format
    # only, so that they stay above the 90th percentile of the batch.
    scans = ["simplex-8", "skeleton-7-3", "cone-7", "cycle-8", "boundary-7"]
    small_scans = [
        "simplex-7", "simplex-6", "boundary-6", "cycle-7", "cone-6", "skeleton-6-2",
        "skeleton-6-3", "simplex-5", "boundary-5", "cycle-5", "cycle-6", "cone-5",
        "skeleton-5-2", "skeleton-5-3", "cycle-4", "cone-4", "figure-b",
    ]
    generators_only = [  # n > 10: generators and containment only
        "cycle-30", "skeleton-12-2", "cone-12", "skeleton-11-2", "skeleton-13-2",
        *(f"cycle-{n}" for n in (*range(11, 32, 2), 12, 14)),
        *(f"cone-{n}" for n in range(10, 19)),
    ]
    twice = [("symmetry", cid) for cid in small_scans + generators_only for _fmt in range(2)]
    return [Spec("symmetry", cid) for cid in scans] + _alternate(twice)


def _decompose() -> list[Spec]:
    return _alternate([("decompose", cid, 0, p, seed) for cid, players, seeds in (
        ("skeleton-12-3", (6,), 1), ("skeleton-10-3", (3,), 1), ("skeleton-9-3", (7,), 1),
        ("boundary-6", (2,), 1), ("skeleton-8-3", (1, 3, 5, 7), 1),
        ("skeleton-7-3", range(1, 8), 1), ("skeleton-6-3", range(1, 7), 3),
        ("boundary-5", range(1, 6), 2), ("skeleton-5-3", range(1, 6), 5),
        ("boundary-4", range(1, 5), 7),
    ) for p in players for seed in range(seeds)])


WORKLOADS = {
    "structure": _structure,
    "value": _value,
    "symmetry": _symmetry,
    "decompose": _decompose,
}


def batch(workload: str) -> list[Spec]:
    """The workload's fixed command batch, background commands included."""
    return WORKLOADS[workload]() + BACKGROUND


@dataclass
class Corpus:
    """The files of one batch on disk, and the games behind them."""

    files: dict[str, Path]
    games: dict[tuple[str, int], DividendGame]
    docs: dict[str, dict]


def write_corpus(specs: list[Spec], seed: int, out: Path) -> Corpus:
    """Write every complex and game file the batch names into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    rng = Random(seed)
    corpus = Corpus({}, {}, {})
    for spec in specs:
        if spec.cid not in corpus.docs:
            doc = corpus.docs[spec.cid] = complex_doc(spec.cid)
            corpus.files[spec.cid] = _dump(out / f"{spec.cid}.json", doc)
        key = (spec.cid, spec.game)
        if spec.game and key not in corpus.games:
            game = corpus.games[key] = dividend_game(corpus.docs[spec.cid], rng)
            corpus.files[f"{spec.cid}.g{spec.game}"] = _dump(
                out / f"{spec.cid}.g{spec.game}.json", game.to_doc()
            )
    return corpus


def _dump(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path

"""Brute-force definitional oracles, independent of the package internals.

Everything here works on raw bitmasks and scans all 2^n subsets (n <= 12),
testing membership straight from the definitions.  Expected values frozen
into the tests were computed with these oracles.  ``solve_exact_ref`` is the
dense Gauss-Jordan solver that ``exactnum.solve_exact`` replaced, and
``generalized_shapley_ref``, ``random_monotone_game_ref``,
``has_pure_links_ref`` and ``axiom_suite_ref`` are the term-by-term value,
the all-pairs monotone game, the link walk and the probe-by-game axiom
suite that the package's closed forms replaced, and
``probabilistic_value_ref``, ``is_dummy_ref`` and ``is_monotone_ref`` the
link and covering-pair walks that the mask-table kernels replaced, and
``efficiency_coefficients_ref`` the per-face gain/loss sum that the
scatter over the tables replaced, and ``pi_delta_contained_ref`` the
generator walk that the face-count containment test replaced, and
``cycles_ref`` the all-vertex cycle walk that the moved-vertex walk
replaced, and ``decomposition_system_ref`` the decomposition rows built
from a scan of every facet per link face, with the weights written out,
and ``game_from_dict_ref``, ``efficiency_scatter_ref`` and
``closed_form_ref`` the per-key game loader, the ``Fraction`` scatter and
the per-bit extension count that the int-pair loader, the int scatter and
the set-bit walk replaced, and ``complex_from_dict_ref``,
``link_f_vectors_ref``, ``sort_key`` and ``face_key`` the per-vertex complex
loader, the (face, vertex) walk, the mask-flip canonical key and the
per-face printed key that the one-pass loader and the vertex-id table
replaced, and ``draw_ref`` the two ``randint`` calls per drawn worth that
the one-call draw from ``getrandbits`` replaced, kept as the references
their results must equal.  ``built_link`` builds a link as a complex,
which no command does: ``SimplicialComplex.link`` returns only its faces.
``efficiency_rhs`` is the right side sum_T a_T v(T) of the efficiency
identity for any coefficients, which the closed-form right side must equal.
``doubling_closure_ref`` is the closure walk that doubles out every subset
of every facet, which the walk that stops at closed faces replaced; it
reaches the families on up to 64 vertices that ``closure_masks`` cannot.

The JSON writers, the indicator game, the monotone and dummy predicates,
the permutation action on games and the symmetry-reduction check are used
by the tests alone, so they live here and not in the package.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb
from random import Random
from typing import Mapping

from simplicial_games import complexes
from simplicial_games.complexes import (
    EMPTY_FACE,
    Face,
    SimplicialComplex,
    _canonical,
    _check_vertex_ids,
    _ID_BYTE,
    as_face,
    format_ids,
)
from simplicial_games.errors import (
    BudgetExceeded,
    DimensionMismatch,
    EmptyCarrierNotAllowed,
    EmptyComplex,
    FaceNotInComplex,
    GameFaceNotInComplex,
    HypothesisNotMet,
    KeyOutsideLink,
    MissingPlayerTable,
    NotPureLinks,
    ParseError,
    SimplicialGamesError,
    VertexOutOfRange,
)
from simplicial_games.exactnum import LinearSolution, SolveStatus, format_rational, parse_rational
from simplicial_games.games import (
    _DRAWN_DENOMINATOR,
    Game,
    _coalition_ids,
    carrier_game,
    random_dummy_game,
    random_game,
    random_monotone_game,
    random_rational,
    scale_add,
)
from simplicial_games.symmetry import (
    _image_mask,
    check_pi_delta_contained,
    classify_shapley,
    moved_facet,
)
from simplicial_games.values import (
    AxiomCheck,
    ProbabilityTable,
    _link_weights,
    _player_tables,
    probabilistic_value,
    shapley_weights,
)


# -- test-only helpers: JSON writers, games, predicates, permutation action --

class PermutationNotSymmetry(SimplicialGamesError):
    code = "PermutationNotSymmetry"


# each byte bit-reversed and complemented: the low 64 bits of sort_key
_FLIPPED = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


def sort_key(face: int) -> int:
    """Cardinality, then the lowest differing vertex: the vertex tuples' order.

    The low 64 bits are the complemented bit-reversed mask, so of two faces
    of one size the one holding the lowest vertex they differ in is smaller.
    """
    flipped = face.to_bytes(8, "little").translate(_FLIPPED)
    return face.bit_count() << 64 | int.from_bytes(flipped, "big")


def face_key(face: Face) -> str:
    """The key "i,j,..." a face is printed under, from its vertex tuple."""
    return ",".join(str(v) for v in Face(face).vertices)


def complex_to_dict(delta: SimplicialComplex) -> dict:
    return {"n": delta.n, "facets": [list(Face(f).vertices) for f in delta.facets]}


def game_to_dict(v: Game) -> dict:
    return {
        "values": {face_key(f): format_rational(w) for f, w in v.values.items()}
    }


def indicator_game(delta: SimplicialComplex, t) -> Game:
    """Worth 1 at exactly the face t (the difference of the two carrier games)."""
    t = as_face(t)
    if not delta.has_face(t):
        raise FaceNotInComplex(f"{t} is not a face of the complex")
    if t == EMPTY_FACE:
        raise EmptyCarrierNotAllowed("the empty face cannot carry an indicator")
    num = dict.fromkeys(delta.faces, 0)
    num[t] = 1
    return Game._of(delta, num, 1)


def is_monotone(v: Game) -> bool:
    """v(S) <= v(T) over all comparable pairs; covering pairs T - j, T suffice."""
    num = v.numerators
    for m, w in num.items():
        rest = m
        while rest:
            low = rest & -rest
            if num[m ^ low] > w:
                return False
            rest ^= low
    return True


def is_dummy(v: Game, i: int) -> bool:
    """Does player i add exactly v({i}) to every coalition it can join?"""
    bit = v.complex.require_vertex(i)
    num = v.numerators
    vi = num[bit]
    return all(w == num[m ^ bit] + vi for m, w in num.items() if m & bit)


def apply_face(perm, face: int) -> Face:
    """The image of a face under a permutation, given as its image tuple."""
    return Face(_image_mask(face, [1 << (w - 1) for w in perm]))


def permuted(v: Game, perm) -> Game:
    """The game T -> v(pi T); pi must preserve the complex."""
    bad = moved_facet(v.complex, perm)
    if bad is not None:
        raise PermutationNotSymmetry(f"{perm} maps face {bad} outside the complex")
    num = v.numerators
    return Game._of(
        v.complex,
        {f: num[apply_face(perm, f)] for f in v.complex.faces},
        v.denominator,
    )


@dataclass(frozen=True)
class SymmetryReductionReport:
    """Whether per-player weights collapse to per-cardinality constants."""

    ok: bool
    common_p: dict[int, Fraction] | None = None
    violation: tuple[int, Face, Fraction, Fraction] | None = None


def check_symmetry_reduction(
    delta: SimplicialComplex, tables: Mapping[int, ProbabilityTable]
) -> SymmetryReductionReport:
    """Verify p_T^i depends only on |T| for nonempty T, across all players.

    Requires the generated-subgroup containment hypothesis; the report
    carries the shared constants (p_1, ..., ) or the first violation
    (player, face, expected, actual).
    """
    report = check_pi_delta_contained(delta)
    if not report.contained:
        raise HypothesisNotMet(
            f"generated subgroup not contained in Symm: generator "
            f"{report.witness_generator} moves {report.witness_face} outside"
        )
    common: dict[int, Fraction] = {}
    for i in delta.vertices:
        table = tables[i]
        for t in delta.link(Face.from_vertices([i]))[1:]:  # nonempty T
            p = table.get(t, 0)
            card = t.bit_count()
            if card not in common:
                common[card] = p
            elif common[card] != p:
                return SymmetryReductionReport(
                    False, violation=(i, t, common[card], p)
                )
    return SymmetryReductionReport(True, common_p=common)


def game_from_dict_ref(data: object, delta: SimplicialComplex) -> Game:
    """The game file read key by key: ids, a Face, a Fraction per worth."""
    if not isinstance(data, dict) or "values" not in data:
        raise ParseError("game document must be an object with a 'values' key")
    raw = data["values"]
    if not isinstance(raw, dict):
        raise ParseError("'values' must map coalition keys to rationals")
    worth: dict[Face, Fraction] = {}
    for key, text in raw.items():
        if key == "":
            raise ParseError("the empty coalition may not appear in a game file")
        ids = _coalition_ids(key)
        # ids are compared with n before the mask, which is max(ids) bits wide
        if max(ids) > delta.n or (f := Face.from_vertices(ids)) not in delta.face_ids:
            raise GameFaceNotInComplex(f"{{{key}}} is not a face of the complex")
        if f in worth:  # read already, under another spelling
            first = next(k for k in raw if Face.from_vertices(_coalition_ids(k)) == f)
            raise ParseError(f"keys {first!r} and {key!r} name one coalition {f}")
        if not isinstance(text, str):
            raise ParseError(f"worth of {key!r} must be a rational string")
        worth[f] = parse_rational(text)
    return Game(delta, worth)


def complex_from_dict_ref(data: object) -> SimplicialComplex:
    """The complex file read vertex by vertex: each facet checked, then a Face."""
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
    faces = []
    for f in facets:
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in f):
            raise ParseError(f"facet {f!r} contains a non-integer vertex id")
        if any(v > n for v in f):  # before the mask, which is v bits wide
            raise VertexOutOfRange(
                f"face {format_ids(sorted(f))} has vertices outside 1..{n}"
            )
        faces.append(Face.from_vertices(f))
    return SimplicialComplex.from_facets(n, faces)


def link_f_vectors_ref(delta) -> dict:
    """f(Link(v)) for every vertex v, counted by walking every (face, vertex) pair."""
    counts: list[list[int]] = [[] for _ in range(delta.n)]
    for f in delta.faces:
        card = f.bit_count()
        while f:
            low = f & -f
            row = counts[low.bit_length() - 1]
            if len(row) < card:
                row.extend([0] * (card - len(row)))
            row[card - 1] += 1
            f ^= low
    return {v + 1: tuple(row) for v, row in enumerate(counts) if row}


def efficiency_scatter_ref(delta, tables) -> dict:
    """The efficiency coefficients scattered from the weights as ``Fraction``s."""
    player_tables = list(_player_tables(delta, tables))
    a = dict.fromkeys(delta.faces, Fraction(0))
    for i, table in player_tables:
        for t, up, p in _link_weights(table, i, delta.face_ids):
            a[up] += p
            a[t] -= p
    del a[EMPTY_FACE]
    return a


def efficiency_rhs(coeffs, v) -> Fraction:
    """sum_T a_T v(T), one ``Fraction`` product per face."""
    return sum((a * v.value(t) for t, a in coeffs.items()), Fraction(0))


def closed_form_ref(delta) -> dict:
    """Closed-form a_T = |T| w_{|T|-1} - ext(T) w_{|T|}, ext(T) counted bit by bit."""
    if not delta.has_pure_links():
        raise NotPureLinks("closed-form coefficients require pure links")
    cls = classify_shapley(delta)
    if not cls.is_shapley:
        raise HypothesisNotMet(
            f"closed-form coefficients require a Shapley complex; links of "
            f"vertices {cls.witness} differ"
        )
    weights = shapley_weights(cls.s_vector)
    ext = Counter(g ^ 1 << j for g in delta.face_ids for j in range(delta.n) if g >> j & 1)
    return {
        t: t.bit_count() * weights[t.bit_count() - 1]
        - (ext[t] * weights[t.bit_count()] if ext[t] else 0)
        for t in delta.faces[1:]
    }


def doubling_closure_ref(n: int, masks: list[int]) -> SimplicialComplex:
    """The complex of in-range masks, each facet's 2^|facet| subsets doubled out in full.

    The walk the constructor ran before it stopped at closed faces: facets
    largest first, the same budget count and message before each facet
    (``complexes.FACE_BUDGET`` read at call time), then the same tables.
    """
    closure: set[int] = set()
    facets = []
    walked = 0
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if m in closure:
            continue
        walked += 1 << m.bit_count()
        budget = complexes.FACE_BUDGET
        if walked > budget:
            raise BudgetExceeded(f"closure would walk {walked} subsets, over the budget of {budget}")
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
    delta = SimplicialComplex.__new__(SimplicialComplex)
    delta.n, delta.face_ids, delta._link_f_vectors = n, ids, None
    delta.faces = _canonical(ids.keys(), ids)
    delta.facets = _canonical(facets, ids)
    delta.rank = delta.faces[-1].bit_count() if delta.faces else -1
    return delta


def closure_masks(n: int, facet_masks: list[int]) -> set[int]:
    """All subsets of [n] contained in some listed face."""
    return {
        s
        for s in range(1 << n)
        if any(s & f == s for f in facet_masks)
    }


def facet_masks_of(faces: set[int]) -> set[int]:
    return {
        f
        for f in faces
        if not any(f != g and f & g == f for g in faces)
    }


def link_masks(n: int, faces: set[int], s: int) -> set[int]:
    return {
        t
        for t in range(1 << n)
        if t & s == 0 and (t | s) in faces
    }


def built_link(delta, s) -> SimplicialComplex:
    """Link(s) built as a complex on [n]: the constructor closes its faces."""
    return SimplicialComplex(delta.n, delta.link(s))


def skeleton_masks(faces: set[int], k: int) -> set[int]:
    return {f for f in faces if f.bit_count() <= k}


def is_downward_closed(faces: set[int]) -> bool:
    """Every face minus any one of its vertices is again a face."""
    return all(
        f & ~(1 << j) in faces for f in faces for j in range(f.bit_length())
    )


def star_masks(faces: set[int], s: int) -> set[int]:
    """The faces inside some face that contains s."""
    holders = [t for t in faces if s & t == s]
    return {a for a in faces if any(a & t == a for t in holders)}


def f_vector_of(faces: set[int]) -> tuple[int, ...]:
    rank = max(f.bit_count() for f in faces)
    counts = [0] * (rank + 1)
    for f in faces:
        counts[f.bit_count()] += 1
    return tuple(counts)


def ext_ids(n: int, faces: set[int], t: int) -> set[int]:
    return {
        j
        for j in range(1, n + 1)
        if not t >> (j - 1) & 1 and (t | 1 << (j - 1)) in faces
    }


def symm_elements(n: int, faces: set[int]) -> set[tuple[int, ...]]:
    """Image tuples of the face-preserving permutations of [n], by definition scan.

    Every permutation is tested on every face, each face mapped through the
    permutation's bit table: bits[v-1] is the mask of the image of vertex v.
    """
    out = set()
    for images in permutations(range(1, n + 1)):
        bits = [1 << (w - 1) for w in images]
        for f in faces:
            img = 0
            while f:
                low = f & -f
                img |= bits[low.bit_length() - 1]
                f ^= low
            if img not in faces:
                break
        else:
            out.add(images)
    return out


def symm_order(n: int, faces: set[int]) -> int:
    """Order of the face-preserving subgroup of S_n, by definition scan."""
    return len(symm_elements(n, faces))


def vertices_of(n: int, m: int) -> list[int]:
    return [v for v in range(1, n + 1) if m >> (v - 1) & 1]


def swap_images_ref(n: int, left: int, right: int) -> tuple[int, ...]:
    """Image tuple pairing sorted L-minus-T with sorted T-minus-L; all else fixed."""
    images = list(range(1, n + 1))
    for x, y in zip(vertices_of(n, left & ~right), vertices_of(n, right & ~left)):
        images[x - 1], images[y - 1] = y, x
    return tuple(images)


def pi_delta_generators_ref(n: int, faces: set[int]) -> list[tuple[int, ...]]:
    """Image tuples of the generated subgroup's generators, by definition.

    For each vertex i in ascending order, each cardinality in ascending
    order, and each pair L, T of link members of that cardinality (canonical
    face order, pairs in combination order): the permutation pairing sorted
    L-minus-T with sorted T-minus-L.  Then, for each pair of vertices i < j
    whose links share a face, the transposition (i j).  Identities and
    repeated image tuples are dropped.
    """
    out: list[tuple[int, ...]] = []

    def emit(images: tuple[int, ...]) -> None:
        if images != tuple(range(1, n + 1)) and images not in out:
            out.append(images)

    verts = [v for v in range(1, n + 1) if 1 << (v - 1) in faces]
    links = {i: link_masks(n, faces, 1 << (i - 1)) for i in verts}
    for i in verts:
        # canonical face order: cardinality, then the sorted vertex tuple
        members = sorted(links[i], key=lambda m: (m.bit_count(), vertices_of(n, m)))
        for card in range(1, n + 1):
            same = [t for t in members if t.bit_count() == card]
            for a in range(len(same)):
                for b in range(a + 1, len(same)):
                    emit(swap_images_ref(n, same[a], same[b]))
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            i, j = verts[a], verts[b]
            if links[i] & links[j]:
                images = list(range(1, n + 1))
                images[i - 1], images[j - 1] = j, i
                emit(tuple(images))
    return out


def pi_delta_contained_ref(n: int, faces: set[int]) -> tuple[tuple[int, ...], int] | None:
    """None when every generator maps every face to a face, by definition.

    Otherwise the first generator of ``pi_delta_generators_ref`` that does
    not, with the first facet in canonical order it maps outside.
    """
    facets = sorted(facet_masks_of(faces), key=lambda m: (m.bit_count(), vertices_of(n, m)))
    for images in pi_delta_generators_ref(n, faces):
        def image(m):
            return sum(1 << (images[v - 1] - 1) for v in vertices_of(n, m))

        if any(image(f) not in faces for f in faces):
            return images, next(f for f in facets if image(f) not in faces)
    return None


def eliminate_rank(rows: list[list[Fraction]]) -> int:
    """Rank by elimination with last-nonzero pivot (a second, different rule)."""
    work = [list(r) for r in rows]
    m = len(work)
    if m == 0:
        return 0
    ncols = len(work[0])
    rank = 0
    for c in range(ncols):
        pr = next((r for r in range(m - 1, rank - 1, -1) if work[r][c] != 0), None)
        if pr is None:
            continue
        work[rank], work[pr] = work[pr], work[rank]
        piv = work[rank][c]
        for r in range(m):
            if r != rank and work[r][c] != 0:
                f = work[r][c] / piv
                work[r] = [work[r][k] - f * work[rank][k] for k in range(ncols)]
        rank += 1
    return rank


def system_inconsistent(matrix, rhs) -> bool:
    """rank(A) < rank([A|b]) via the independent elimination above."""
    rows = [[Fraction(e) for e in row] for row in matrix]
    aug = [row + [Fraction(b)] for row, b in zip(rows, rhs)]
    return eliminate_rank(rows) < eliminate_rank(aug)


def matvec(a, xs) -> list[Fraction]:
    """A @ xs for a RationalMatrix A."""
    if len(xs) != a.cols:
        raise DimensionMismatch(f"vector length {len(xs)} != cols {a.cols}")
    return [sum((Fraction(e) * x for e, x in zip(row, xs)), Fraction(0)) for row in a._rows]


def solve_exact_ref(a, b) -> LinearSolution:
    """Dense Gauss-Jordan on [A | I | b] with first-nonzero pivots."""
    if a.rows != len(b):
        raise DimensionMismatch(f"matrix has {a.rows} rows but rhs has {len(b)}")
    m, n = a.rows, a.cols
    # Augment [A | I | b]; the I block tracks row operations so an
    # inconsistent row yields a certificate against the original system.
    tab = [
        [Fraction(e) for e in row] + [Fraction(int(r == k)) for k in range(m)] + [Fraction(b[r])]
        for r, row in enumerate(a._rows)
    ]
    width = n + m + 1
    pivot_of_col: dict[int, int] = {}
    rank = 0
    for c in range(n):
        pr = next((r for r in range(rank, m) if tab[r][c] != 0), None)
        if pr is None:
            continue
        tab[rank], tab[pr] = tab[pr], tab[rank]
        piv = tab[rank][c]
        tab[rank] = [e / piv for e in tab[rank]]
        for r in range(m):
            if r != rank and tab[r][c] != 0:
                f = tab[r][c]
                tab[r] = [tab[r][k] - f * tab[rank][k] for k in range(width)]
        pivot_of_col[c] = rank
        rank += 1

    for r in range(rank, m):
        if tab[r][-1] != 0:
            lam = [e / tab[r][-1] for e in tab[r][n : n + m]]
            return LinearSolution(
                status=SolveStatus.INCONSISTENT,
                particular=None,
                nullspace_basis=(),
                certificate=tuple(lam),
            )

    free_cols = [c for c in range(n) if c not in pivot_of_col]
    particular = [Fraction(0)] * n
    for c, r in pivot_of_col.items():
        particular[c] = tab[r][-1]
    basis = []
    for fc in free_cols:
        z = [Fraction(0)] * n
        z[fc] = Fraction(1)
        for c, r in pivot_of_col.items():
            z[c] = -tab[r][fc]
        basis.append(tuple(z))
    status = SolveStatus.UNIQUE if not free_cols else SolveStatus.UNDERDETERMINED
    return LinearSolution(
        status=status,
        particular=tuple(particular),
        nullspace_basis=tuple(basis),
    )


def generalized_shapley_ref(v, i: int) -> Fraction:
    """The generalized Shapley value term by term, one weight per link face."""
    single = v.complex.require_vertex(i)
    link = built_link(v.complex, single)
    fv = link.f_vector()
    r_i = link.rank
    total = Fraction(0)
    for t in link.faces:
        total += Fraction(1, fv[t.bit_count()]) * (
            v.value(t | single) - v.value(t)
        )
    return total / (r_i + 1)


def probabilistic_value_ref(v, i: int, table) -> Fraction:
    """sum_T p_T (v(T+i) - v(T)) over the link of i, the link built."""
    single = v.complex.require_vertex(i)
    link = built_link(v.complex, single)
    total = Fraction(0)
    for t, p in table.items():
        if not link.has_face(t):
            raise KeyOutsideLink(f"{Face(t)} is not in the link of vertex {i}")
        total += p * (v.value(t | single) - v.value(t))
    return total


def efficiency_coefficients_ref(delta, tables) -> dict:
    """a_T = sum_{i in T} p^i_{T-i} - sum_{j: T in Link(j)} p^j_T, face by face."""
    for i in delta.vertices:
        if i not in tables:
            raise MissingPlayerTable(f"no table for player {i}")
    out = {}
    for t in delta.faces:
        if t == EMPTY_FACE:
            continue
        gain = sum(
            (tables[i].get(Face(t & ~(1 << (i - 1))), 0) for i in Face(t).vertices),
            Fraction(0),
        )
        loss = sum((tables[j].get(t, 0) for j in delta.extension_set(t)), Fraction(0))
        out[t] = gain - loss
    return out


def is_dummy_ref(v, i: int) -> bool:
    """Does player i add exactly v({i}) to every face of its built link?"""
    single = v.complex.require_vertex(i)
    vi = v.value(single)
    for t in built_link(v.complex, single).faces:
        if v.value(t | single) != v.value(t) + vi:
            return False
    return True


def is_monotone_ref(v) -> bool:
    """v(S) <= v(S + j) over the covering pairs, S + j found by membership."""
    for s in v.complex.faces:
        ws = v.value(s)
        for j in range(1, v.complex.n + 1):
            if s >> (j - 1) & 1:
                continue
            t = Face(s | 1 << (j - 1))
            if v.complex.has_face(t) and ws > v.value(t):
                return False
    return True


def draw_ref(rng: Random, lo: int = -9) -> int:
    """p/q for p = rng.randint(lo, 9), then q = rng.randint(1, 9), over _DRAWN_DENOMINATOR."""
    p = rng.randint(lo, 9)
    return p * (_DRAWN_DENOMINATOR // rng.randint(1, 9))


def random_monotone_game_ref(delta, rng):
    """A nonnegative combination of carrier games, each face summing all weights.

    Each weight is p/q, p drawn from 0..9 and then q from 1..9.
    """
    weights = {
        f: Fraction(rng.randint(0, 9), rng.randint(1, 9))
        for f in delta.faces
        if f != EMPTY_FACE
    }
    values = {}
    for s in delta.faces:
        if s == EMPTY_FACE:
            continue
        total = sum(
            (w for t, w in weights.items() if t & s == t), Fraction(0)
        )
        values[s] = total
    return Game(delta, values)


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of a after b: v -> a(b(v))."""
    return tuple(a[w - 1] for w in b)


def inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for v, w in enumerate(a, start=1):
        inv[w - 1] = v
    return tuple(inv)


def cycles_ref(images: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Nontrivial cycles of a permutation, walked from every vertex in order."""
    seen: set[int] = set()
    out = []
    for v in range(1, len(images) + 1):
        if v in seen:
            continue
        cyc = [v]
        seen.add(v)
        w = images[v - 1]
        while w != v:
            cyc.append(w)
            seen.add(w)
            w = images[w - 1]
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return tuple(out)


def decomposition_system_ref(delta, i: int) -> tuple:
    """(facet_order, row_faces, matrix, rhs) of the decomposition of player i.

    Per link face T, every facet through T + i is found by a scan of all
    facets and placed in its column; the right side is 1/((r_i+1) f_{|T|-1}).
    """
    single = delta.require_vertex(i)
    fv = delta.link_f_vectors()[i]
    facet_order = delta.facets_containing(single)
    col = {f: k for k, f in enumerate(facet_order)}
    rows, rhs = [], []
    for t in delta.link(single):
        coeffs = [Fraction(0)] * len(facet_order)
        for f in delta.facets_containing(t | single):
            size = f.bit_count()
            coeffs[col[f]] += Fraction(1, size * comb(size - 1, t.bit_count()))
        rows.append(tuple(coeffs))
        rhs.append(Fraction(1, len(fv) * fv[t.bit_count()]))
    return facet_order, delta.link(single), tuple(rows), tuple(rhs)


def link_transposition_bijection(delta, i: int, j: int) -> dict:
    """The face map T -> T (j not in T) / (T+i)-j (j in T) from Link(i) to Link(j).

    Whenever the transposition (i, j) preserves the complex this is a
    cardinality-preserving bijection, hence the two links share one f-vector.
    """
    out = {}
    for t in delta.link(Face.from_vertices([i])):
        if t >> (j - 1) & 1:
            out[t] = Face((t | 1 << (i - 1)) & ~(1 << (j - 1)))
        else:
            out[t] = t
    return out


def has_pure_links_ref(delta) -> bool:
    """Every vertex link, built, has all facets of cardinality rank-1."""
    if not delta.faces or not delta.vertices:
        raise EmptyComplex("pure-links test needs at least one vertex")
    want = delta.rank - 1
    for v in delta.vertices:
        lk = built_link(delta, Face.from_vertices([v]))
        if any(f.bit_count() != want for f in lk.facets):
            return False
    return True


def axiom_suite_ref(delta, tables, seed: int = 0, rounds: int = 5):
    """The axiom suite with every carrier probe built and evaluated as a game."""
    for i in delta.vertices:
        if i not in tables:
            raise MissingPlayerTable(f"no table for player {i}")
    rng = Random(seed)
    checks = []
    star_cache = {
        i: delta.star(Face.from_vertices([i])) for i in delta.vertices
    }
    for i in delta.vertices:
        table = tables[i]
        single = Face.from_vertices([i])
        link = delta.link(single)

        ok, detail = True, ""
        for _ in range(rounds):
            v, w = random_game(delta, rng), random_game(delta, rng)
            a, b = random_rational(rng), random_rational(rng)
            left = probabilistic_value(scale_add(v, w, a, b), i, table)
            right = a * probabilistic_value(v, i, table) + b * probabilistic_value(
                w, i, table
            )
            if left != right:
                ok, detail = False, f"{left} != {right}"
                break
        checks.append(AxiomCheck("linearity", i, ok, detail))

        ok, detail = True, ""
        off_star = [
            f for f in delta.faces if f != EMPTY_FACE and f not in star_cache[i]
        ]
        for _ in range(rounds):
            v = random_game(delta, rng)
            modified = dict(v.values)
            for f in off_star:
                modified[f] = v.value(f) + random_rational(rng)
            w = Game(delta, modified)
            if probabilistic_value(v, i, table) != probabilistic_value(w, i, table):
                ok, detail = False, "value moved with off-star modification"
                break
        checks.append(AxiomCheck("star_locality", i, ok, detail))

        ok, detail = True, ""
        probes = [carrier_game(delta, single)]
        probes += [random_dummy_game(delta, i, rng) for _ in range(rounds)]
        for v in probes:
            got = probabilistic_value(v, i, table)
            want = v.value(single)
            if got != want:
                ok, detail = False, f"dummy payoff {got} != v(i) = {want}"
                break
        checks.append(AxiomCheck("dummy", i, ok, detail))

        ok, detail = True, ""
        monotone_probes = [carrier_game(delta, t, strict=True) for t in link]
        monotone_probes += [random_monotone_game(delta, rng) for _ in range(rounds)]
        for v in monotone_probes:
            got = probabilistic_value(v, i, table)
            if got < 0:
                ok, detail = False, f"negative value {got} on a monotone game"
                break
        checks.append(AxiomCheck("monotone", i, ok, detail))
    return tuple(checks)

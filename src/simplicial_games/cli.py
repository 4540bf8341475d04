"""Command-line front end.

Commands: info, shapley, symmetry, psystem, decompose, verify, efficiency.
Each command computes one result, a dict under its JSON keys, and ``show``
prints it in the format asked for.  The JSON output is that result on one
line from ``json.dumps``, with every rational as the string "p/q".  The
table is formatted from the same values.  All verdicts are computed on exact
rationals; the decimal column of a table is a 6-significant-digit
approximation, display only.  Identical inputs and seed produce
byte-identical output.

Exit codes: 0 success, 2 parse/config error, a malformed command line included,
3 mathematical precondition violated, 4 verification failure; each error prints
one ``error[Code]: ...`` line on stderr.  ``--help`` prints usage and exits 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from decimal import Decimal, localcontext
from fractions import Fraction
from random import Random
from typing import Callable

from .complexes import Face, SimplicialComplex, format_ids, load_complex
from .errors import (
    EmptyComplex, HypothesisNotMet, NotPureLinks, ParseError, SimplicialGamesError,
)
from .exactnum import SolveStatus, format_rational
from .games import load_game, random_game
from .symmetry import (
    SYMM_GROUP_MAX_N,
    _is_skeleton,
    classify_shapley,
    moved_facet,
    pi_delta_generators,
    p_system_rows,
    solve_p_system,
    symm_group,
)
from .values import (
    axiom_suite,
    canonical_shapley_tables,
    check_shapley_efficiency_identity,
    decompose_shapley,
    generalized_shapley,
    shapley_efficiency_closed_form,
    shapley_efficiency_numerators,
    shapley_efficiency_rhs,
    shapley_weights,
)

EXIT_OK = 0
EXIT_VERIFICATION = 4


def approx(q: Fraction) -> str:
    try:
        return f"{q.numerator / q.denominator:.6g}"
    except OverflowError:  # past the float range: the same form from 6 decimal digits
        with localcontext() as ctx:
            ctx.prec = 6
            return f"{(Decimal(q.numerator) / q.denominator).normalize():.6g}"


def tuple_str(xs) -> str:
    """(x, y, ...) for ints or rationals, each in its "p/q" form."""
    return "(" + ", ".join(map(format_rational, xs)) + ")"


def rational(o: object) -> str:
    """The JSON form of a rational, "p/q"; no other type has one."""
    if isinstance(o, Fraction):
        return format_rational(o)
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def emit_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, default=rational) + "\n")


def show(args, result: dict, table: Callable[[], list[str]], code: int = EXIT_OK) -> int:
    """Print the result as JSON, or the lines of its table; return the exit code."""
    if args.format == "json":
        emit_json(result)
    else:
        emit(table())
    return code


def by_face_key(delta: SimplicialComplex, by_face: dict) -> dict:
    """The same items keyed "i,j,...", since a JSON object's keys are strings."""
    ids = delta.face_ids
    return {",".join(map(str, ids[f])): w for f, w in by_face.items()}


def load_nonempty_complex(path: str) -> SimplicialComplex:
    """The complex at ``path``; every command refuses one with no vertex."""
    delta = load_complex(path)
    if not delta.vertices:
        raise EmptyComplex("the complex has no vertex")
    return delta


def cmd_info(args) -> int:
    delta = load_nonempty_complex(args.complex)
    fv = delta.f_vector()
    link_fvs = delta.link_f_vectors()
    pure = delta.has_pure_links()
    cls = classify_shapley(delta)
    facets = [tuple(delta.face_ids[f]) for f in delta.facets]
    result = {
        "n": delta.n,
        "rank": delta.rank,
        "facets": facets,
        "f_vector": fv,
        "link_f_vectors": link_fvs,
        "pure_links": pure,
        "shapley": {
            "is_shapley": cls.is_shapley,
            "s_vector": cls.s_vector if cls.is_shapley else None,
            "witness": cls.witness or None,
        },
    }

    def table():
        lines = [
            f"n: {delta.n}",
            f"rank: {delta.rank}",
            "facets: " + " ".join(map(format_ids, facets)),
            f"f-vector: {tuple_str(fv)}",
            "link f-vectors:",
        ]
        lines += [f"  vertex {i}: {tuple_str(v)}" for i, v in link_fvs.items()]
        lines.append(f"pure links: {'yes' if pure else 'no'}")
        if cls.is_shapley:
            lines.append(f"shapley complex: yes, s = {tuple_str(cls.s_vector)}")
        else:
            i, j = cls.witness
            lines.append(f"shapley complex: no (witness: vertices {i} and {j})")
        return lines

    return show(args, result, table)


def cmd_shapley(args) -> int:
    delta = load_nonempty_complex(args.complex)
    game = load_game(args.game, delta)
    values = {i: generalized_shapley(game, i) for i in delta.vertices}
    aggregate = sum(values.values(), Fraction(0))
    closed_rhs = None
    try:
        closed_rhs = shapley_efficiency_rhs(game)
    except (NotPureLinks, HypothesisNotMet):
        pass
    match = closed_rhs == aggregate if closed_rhs is not None else None
    result = {
        "values": values,
        "aggregate": aggregate,
        "efficiency_rhs": closed_rhs,
        "efficiency_match": match,
    }

    def table():
        lines = ["player  value  approx"]
        lines += [f"{i}  {format_rational(v)}  {approx(v)}" for i, v in values.items()]
        lines.append(f"sum  {format_rational(aggregate)}  {approx(aggregate)}")
        if closed_rhs is not None:
            verdict = "match" if match else "MISMATCH"
            lines.append(f"efficiency rhs  {format_rational(closed_rhs)}  ({verdict})")
        return lines

    return show(args, result, table)


def cmd_symmetry(args) -> int:
    delta = load_nonempty_complex(args.complex)
    gens = pi_delta_generators(delta)
    skeleton = _is_skeleton(delta)  # then every generator, a permutation of V, preserves it
    bads = [None if skeleton else moved_facet(delta, g) for g in gens]
    ids = delta.face_ids
    verdicts = [(g, None if bad is None else tuple(ids[bad])) for g, bad in zip(gens, bads)]
    witness = next(((g, moved) for g, moved in verdicts if moved is not None), None)
    order = symm_group(delta) if delta.n <= SYMM_GROUP_MAX_N else None
    pairing = "canonical sorted order for overlapping swaps"
    result = {
        "symm_order": order,
        "generators": [
            {"perm": g, "preserves": moved is None, "moved_face": moved}
            for g, moved in verdicts
        ],
        "pi_delta_contained": witness is None,
        "witness": {"perm": witness[0], "face": witness[1]} if witness else None,
        "pairing": pairing,
    }

    def table():
        skipped = f"skipped (n > {SYMM_GROUP_MAX_N}; generator checks only)"
        lines = [
            f"symmetry group order: {skipped if order is None else order}",
            f"generated-subgroup generators: {len(gens)}",
        ]
        for g, moved in verdicts:
            verdict = "preserves" if moved is None else f"moves {format_ids(moved)} outside"
            lines.append(f"  {g}: {verdict}")
        contained = "pi(Delta) contained in Symm(Delta): "
        if witness is None:
            lines.append(contained + "yes")
        else:
            g, moved = witness
            lines.append(contained + f"no (witness {g} on {format_ids(moved)})")
        lines.append(f"pairing: {pairing}")
        return lines

    return show(args, result, table)


def cmd_psystem(args) -> int:
    delta = load_nonempty_complex(args.complex)
    rows, reps = p_system_rows(delta)
    solution = solve_p_system(delta)
    # one distinct link f-vector s is a Shapley complex; its one row gives
    # sum_k s_k / (len(s) s_k) = 1, so the canonical solution satisfies it
    shapley = len(rows) == 1
    canonical = shapley_weights(rows[0]) if shapley else None
    result = {
        "rows": rows,
        "status": solution.status.value,
        "particular": solution.particular or None,
        "nullspace": solution.nullspace_basis,
        "canonical": canonical,
        "canonical_satisfies": shapley or None,
    }

    def table():
        lines = ["distinct link f-vector rows:"]
        lines += [f"  {tuple_str(row)}  (vertex {rep})" for row, rep in zip(rows, reps)]
        lines.append(f"status: {solution.status.value}")
        if solution.particular is not None:
            particular = tuple_str(solution.particular)
            lines.append(f"particular (free variables zeroed): {particular}")
        lines += [f"nullspace: {tuple_str(z)}" for z in solution.nullspace_basis]
        if canonical is not None:
            lines.append(
                f"canonical p_k = 1/(r*s_k): {tuple_str(canonical)}  satisfies system: yes"
            )
        return lines

    return show(args, result, table)


def cmd_decompose(args) -> int:
    delta = load_nonempty_complex(args.complex)
    dec = decompose_shapley(delta, args.player)
    solution = dec.solution
    exact = solution.status is not SolveStatus.INCONSISTENT
    status = "exact" if exact else "infeasible"
    weights = (
        by_face_key(delta, dict(zip(dec.facet_order, solution.particular))) if exact else None
    )
    result = {
        "player": args.player,
        "status": status,
        "facets": [tuple(delta.face_ids[f]) for f in dec.facet_order],
        "weights": weights,
        "certificate": solution.certificate,
    }

    def table():
        lines = [f"player: {args.player}", f"status: {status}"]
        if exact:
            for key, w in weights.items():
                lines.append(f"  c_{{{key}}} = {format_rational(w)}  {approx(w)}")
        else:
            lines.append(
                "inconsistency certificate (combination of rows vanishing on the "
                "left, 1 on the right):"
            )
            for t, coeff in zip(dec.row_faces, solution.certificate):
                if coeff != 0:
                    lines.append(f"  {format_rational(coeff)} * row[{Face(t)}]")
        return lines

    return show(args, result, table)


def cmd_efficiency(args) -> int:
    delta = load_nonempty_complex(args.complex)
    a, d = shapley_efficiency_numerators(delta)
    closed = None
    try:
        closed = shapley_efficiency_closed_form(delta)
    except (NotPureLinks, HypothesisNotMet):
        pass
    check = None
    if args.game:
        game = load_game(args.game, delta)
        check = check_shapley_efficiency_identity(a, d, game)
    # one Fraction per distinct numerator, shared by the faces that have it
    shared = {x: Fraction(x, d) for x in set(a.values())}
    coeffs = dict(zip(a, map(shared.__getitem__, a.values())))
    # the nonempty faces in canonical order, as in closed
    coefficients = by_face_key(delta, coeffs)
    matches = closed == coeffs if closed is not None else None
    result = {
        "coefficients": coefficients,
        "closed_form": dict(zip(coefficients, closed.values())) if closed is not None else None,
        "closed_form_matches": matches,
        "identity": None if check is None else {
            "lhs": check.lhs, "rhs": check.rhs, "residual": check.residual,
            "equal": check.equal,
        },
    }

    def table():
        lines = ["a_T coefficients (canonical tables):"]
        for key, a in coefficients.items():
            lines.append(f"  {{{key}}}: {format_rational(a)}  {approx(a)}")
        if matches is not None:
            lines.append("closed form matches construction: " + ("yes" if matches else "NO"))
        if check is not None:
            lines.append(
                f"identity: sum phi = {format_rational(check.lhs)}, "
                f"sum a_T v(T) = {format_rational(check.rhs)}, "
                f"residual = {format_rational(check.residual)}"
            )
        return lines

    ok = check is None or check.equal
    return show(args, result, table, EXIT_OK if ok else EXIT_VERIFICATION)


def cmd_verify(args) -> int:
    delta = load_nonempty_complex(args.complex)
    given = [load_game(args.game, delta)] if args.game else []
    tables = canonical_shapley_tables(delta)
    checks = axiom_suite(delta, tables, seed=args.seed)
    rng = Random(args.seed)
    games = [random_game(delta, rng) for _ in range(10)] + given
    a, d = shapley_efficiency_numerators(delta)
    identity = [check_shapley_efficiency_identity(a, d, game) for game in games]
    ok = all(c.ok for c in checks) and all(c.equal for c in identity)
    result = {
        "checks": [asdict(c) for c in checks],
        "efficiency_identity": [{"equal": c.equal, "residual": c.residual} for c in identity],
        "ok": ok,
    }

    def table():
        lines = [
            f"{c.axiom} player {c.player}: " + ("ok" if c.ok else f"FAIL ({c.detail})")
            for c in checks
        ]
        lines += [
            f"efficiency identity game {k}: "
            + ("ok" if c.equal else f"FAIL (residual {format_rational(c.residual)})")
            for k, c in enumerate(identity)
        ]
        lines.append("verdict: " + ("all checks passed" if ok else "VIOLATIONS FOUND"))
        return lines

    return show(args, result, table, EXIT_OK if ok else EXIT_VERIFICATION)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a malformed command line, printed like any error
        raise ParseError(message.replace("\n", "\\n"))  # an argv word may hold a newline


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="simplicial-games",
        description="Exact cooperative-game analysis on simplicial complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)  # each a _Parser too

    def common(p, game=False, game_required=False, player=False):
        p.add_argument("--complex", required=True, help="complex JSON file")
        if game:
            p.add_argument("--game", required=game_required, help="game JSON file")
        if player:
            p.add_argument("--player", type=int, required=True, help="vertex id")
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--seed", type=int, default=0)

    common(sub.add_parser("info", help="structure report"))
    shapley = sub.add_parser("shapley", help="generalized Shapley values")
    common(shapley, game=True, game_required=True)
    common(sub.add_parser("symmetry", help="symmetry groups and containment"))
    common(sub.add_parser("psystem", help="common-probability linear system"))
    common(sub.add_parser("decompose", help="facet decomposition of the value"), player=True)
    efficiency = sub.add_parser("efficiency", help="efficiency coefficients and identity")
    common(efficiency, game=True)
    common(sub.add_parser("verify", help="axiom suite on seeded random games"), game=True)
    return parser


_HANDLERS = {
    "info": cmd_info,
    "shapley": cmd_shapley,
    "symmetry": cmd_symmetry,
    "psystem": cmd_psystem,
    "decompose": cmd_decompose,
    "efficiency": cmd_efficiency,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except SimplicialGamesError as e:
        sys.stderr.write(f"error[{e.code}]: {e}\n")
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())

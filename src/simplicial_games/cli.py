"""Command-line front end.

Commands: info, shapley, symmetry, psystem, decompose, verify, efficiency.
All verdicts are computed on exact rationals; the decimal column in table
output is a 6-significant-digit approximation, display only.  Identical
inputs and seed produce byte-identical output.

Exit codes: 0 success, 2 parse/config error, 3 mathematical precondition
violated, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from random import Random

from .complexes import load_complex
from .errors import SimplicialGamesError
from .exactnum import format_rational
from .games import face_key, load_game, random_game
from .symmetry import (
    SYMM_GROUP_MAX_N,
    classify_shapley,
    moved_facet,
    pi_delta_generators,
    p_system_rows,
    solve_p_system,
    symm_group,
)
from .values import (
    DecompositionStatus,
    axiom_suite,
    canonical_shapley_tables,
    check_efficiency_identity,
    decompose_shapley,
    efficiency_coefficients,
    generalized_shapley,
    shapley_efficiency_closed_form,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4


def approx(q: Fraction) -> str:
    return f"{q.numerator / q.denominator:.6g}"


def fvec_str(fv) -> str:
    return "(" + ", ".join(str(x) for x in fv) + ")"


def emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def emit_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _game_value_block(values: dict) -> dict:
    return {face_key(f): format_rational(w) for f, w in values.items()}


def cmd_info(args) -> int:
    delta = load_complex(args.complex)
    fv = delta.f_vector()
    link_fvs = delta.link_f_vectors()
    pure = delta.has_pure_links()
    cls = classify_shapley(delta)
    if args.format == "json":
        emit_json(
            {
                "n": delta.n,
                "rank": delta.rank,
                "facets": [list(f.vertices) for f in delta.facets],
                "f_vector": list(fv),
                "link_f_vectors": {str(i): list(v) for i, v in link_fvs.items()},
                "pure_links": pure,
                "shapley": {
                    "is_shapley": cls.is_shapley,
                    "s_vector": list(cls.s_vector) if cls.is_shapley else None,
                    "witness": list(cls.witness) if cls.witness else None,
                },
            }
        )
        return EXIT_OK
    lines = [
        f"n: {delta.n}",
        f"rank: {delta.rank}",
        "facets: " + " ".join(map(str, delta.facets)),
        f"f-vector: {fvec_str(fv)}",
        "link f-vectors:",
    ]
    lines += [f"  vertex {i}: {fvec_str(v)}" for i, v in link_fvs.items()]
    lines.append(f"pure links: {'yes' if pure else 'no'}")
    if cls.is_shapley:
        lines.append(f"shapley complex: yes, s = {fvec_str(cls.s_vector)}")
    else:
        lines.append(
            f"shapley complex: no (witness: vertices {cls.witness[0]} and {cls.witness[1]})"
        )
    emit(lines)
    return EXIT_OK


def cmd_shapley(args) -> int:
    delta = load_complex(args.complex)
    game = load_game(args.game, delta)
    values = {i: generalized_shapley(game, i) for i in delta.vertices}
    aggregate = sum(values.values(), Fraction(0))
    closed_rhs = None
    try:
        coeffs = shapley_efficiency_closed_form(delta)
        worth = game.mask_table()
        closed_rhs = sum((a * worth[t.mask] for t, a in coeffs.items()), Fraction(0))
    except SimplicialGamesError:
        pass
    if args.format == "json":
        emit_json(
            {
                "values": {str(i): format_rational(v) for i, v in values.items()},
                "aggregate": format_rational(aggregate),
                "efficiency_rhs": (
                    format_rational(closed_rhs) if closed_rhs is not None else None
                ),
                "efficiency_match": (
                    closed_rhs == aggregate if closed_rhs is not None else None
                ),
            }
        )
        return EXIT_OK
    lines = ["player  value  approx"]
    for i, v in values.items():
        lines.append(f"{i}  {format_rational(v)}  {approx(v)}")
    lines.append(f"sum  {format_rational(aggregate)}  {approx(aggregate)}")
    if closed_rhs is not None:
        verdict = "match" if closed_rhs == aggregate else "MISMATCH"
        lines.append(
            f"efficiency rhs  {format_rational(closed_rhs)}  ({verdict})"
        )
    emit(lines)
    return EXIT_OK


def cmd_symmetry(args) -> int:
    delta = load_complex(args.complex)
    gens = pi_delta_generators(delta)
    verdicts = [(g, moved_facet(delta, g)) for g in gens]
    witness = next(((g, bad) for g, bad in verdicts if bad is not None), None)
    group = symm_group(delta) if delta.n <= SYMM_GROUP_MAX_N else None
    if args.format == "json":
        emit_json(
            {
                "symm_order": group.order if group else None,
                "generators": [
                    {
                        "perm": list(g.images),
                        "preserves": bad is None,
                        "moved_face": list(bad.vertices) if bad else None,
                    }
                    for g, bad in verdicts
                ],
                "pi_delta_contained": witness is None,
                "witness": (
                    {"perm": list(witness[0].images), "face": list(witness[1].vertices)}
                    if witness
                    else None
                ),
                "pairing": "canonical sorted order for overlapping swaps",
            }
        )
        return EXIT_OK
    lines = []
    if group:
        lines.append(f"symmetry group order: {group.order}")
    else:
        lines.append(
            f"symmetry group order: skipped (n > {SYMM_GROUP_MAX_N}; generator checks only)"
        )
    lines.append(f"generated-subgroup generators: {len(gens)}")
    for g, bad in verdicts:
        verdict = "preserves" if bad is None else f"moves {bad} outside"
        lines.append(f"  {g}: {verdict}")
    if witness is None:
        lines.append("pi(Delta) contained in Symm(Delta): yes")
    else:
        lines.append(
            "pi(Delta) contained in Symm(Delta): no "
            f"(witness {witness[0]} on {witness[1]})"
        )
    lines.append("pairing: canonical sorted order for overlapping swaps")
    emit(lines)
    return EXIT_OK


def cmd_psystem(args) -> int:
    delta = load_complex(args.complex)
    rows, reps = p_system_rows(delta)
    solution = solve_p_system(delta)
    cls = classify_shapley(delta)
    canonical = None
    canonical_ok = None
    if cls.is_shapley:
        s = cls.s_vector
        r = delta.rank
        canonical = [Fraction(1, r * s[k]) for k in range(r)]
        canonical_ok = all(
            sum((Fraction(row[k]) * canonical[k] for k in range(r)), Fraction(0)) == 1
            for row in rows
        )
    if args.format == "json":
        emit_json(
            {
                "rows": [list(row) for row in rows],
                "status": solution.status.value,
                "particular": (
                    [format_rational(x) for x in solution.particular]
                    if solution.particular
                    else None
                ),
                "nullspace": [
                    [format_rational(x) for x in z] for z in solution.nullspace_basis
                ],
                "canonical": (
                    [format_rational(x) for x in canonical] if canonical else None
                ),
                "canonical_satisfies": canonical_ok,
            }
        )
        return EXIT_OK
    lines = ["distinct link f-vector rows:"]
    for row, rep in zip(rows, reps):
        lines.append(f"  {fvec_str(row)}  (vertex {rep})")
    lines.append(f"status: {solution.status.value}")
    if solution.particular is not None:
        lines.append(
            "particular (free variables zeroed): ("
            + ", ".join(format_rational(x) for x in solution.particular)
            + ")"
        )
    for z in solution.nullspace_basis:
        lines.append(
            "nullspace: (" + ", ".join(format_rational(x) for x in z) + ")"
        )
    if canonical is not None:
        lines.append(
            "canonical p_k = 1/(r*s_k): ("
            + ", ".join(format_rational(x) for x in canonical)
            + ")  satisfies system: "
            + ("yes" if canonical_ok else "NO")
        )
    emit(lines)
    return EXIT_OK


def cmd_decompose(args) -> int:
    delta = load_complex(args.complex)
    dec = decompose_shapley(delta, args.player)
    if args.format == "json":
        emit_json(
            {
                "player": dec.player,
                "status": dec.status.value,
                "facets": [list(f.vertices) for f in dec.facet_order],
                "weights": (
                    {face_key(f): format_rational(w) for f, w in dec.facet_weights.items()}
                    if dec.facet_weights is not None
                    else None
                ),
                "certificate": (
                    [format_rational(x) for x in dec.certificate]
                    if dec.certificate is not None
                    else None
                ),
            }
        )
        return EXIT_OK
    lines = [f"player: {dec.player}", f"status: {dec.status.value}"]
    if dec.status is DecompositionStatus.EXACT:
        for f in dec.facet_order:
            w = dec.facet_weights[f]
            lines.append(f"  c_{f} = {format_rational(w)}  {approx(w)}")
    else:
        lines.append(
            "inconsistency certificate (combination of rows vanishing on the "
            "left, 1 on the right):"
        )
        lam = dec.certificate
        for t, coeff in zip(dec.row_faces, lam):
            if coeff != 0:
                lines.append(f"  {format_rational(coeff)} * row[{t}]")
    emit(lines)
    return EXIT_OK


def cmd_efficiency(args) -> int:
    delta = load_complex(args.complex)
    tables = canonical_shapley_tables(delta)
    coeffs = efficiency_coefficients(delta, tables)
    closed = None
    try:
        closed = shapley_efficiency_closed_form(delta)
    except SimplicialGamesError:
        pass
    check = None
    if args.game:
        game = load_game(args.game, delta)
        check = check_efficiency_identity(coeffs, tables, game)
    if args.format == "json":
        emit_json(
            {
                "coefficients": _game_value_block(coeffs),
                "closed_form": _game_value_block(closed) if closed else None,
                "closed_form_matches": closed == coeffs if closed else None,
                "identity": (
                    {
                        "lhs": format_rational(check.lhs),
                        "rhs": format_rational(check.rhs),
                        "residual": format_rational(check.residual),
                        "equal": check.equal,
                    }
                    if check
                    else None
                ),
            }
        )
        return EXIT_OK if (check is None or check.equal) else EXIT_VERIFICATION
    lines = ["a_T coefficients (canonical tables):"]
    for t, a in coeffs.items():
        lines.append(f"  {t}: {format_rational(a)}  {approx(a)}")
    if closed is not None:
        lines.append(
            "closed form matches construction: "
            + ("yes" if closed == coeffs else "NO")
        )
    if check is not None:
        lines.append(
            f"identity: sum phi = {format_rational(check.lhs)}, "
            f"sum a_T v(T) = {format_rational(check.rhs)}, "
            f"residual = {format_rational(check.residual)}"
        )
        if not check.equal:
            emit(lines)
            return EXIT_VERIFICATION
    emit(lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    delta = load_complex(args.complex)
    tables = canonical_shapley_tables(delta)
    report = axiom_suite(delta, tables, seed=args.seed)
    lines = []
    ok = report.ok
    for c in report.checks:
        status = "ok" if c.ok else f"FAIL ({c.detail})"
        lines.append(f"{c.axiom} player {c.player}: {status}")
    rng = Random(args.seed)
    games = [random_game(delta, rng) for _ in range(10)]
    if args.game:
        games.append(load_game(args.game, delta))
    coeffs = efficiency_coefficients(delta, tables)
    identity_results = []
    for k, game in enumerate(games):
        check = check_efficiency_identity(coeffs, tables, game)
        identity_results.append(check)
        status = "ok" if check.equal else f"FAIL (residual {check.residual})"
        lines.append(f"efficiency identity game {k}: {status}")
        ok = ok and check.equal
    lines.append("verdict: " + ("all checks passed" if ok else "VIOLATIONS FOUND"))
    if args.format == "json":
        emit_json(
            {
                "checks": [
                    {
                        "axiom": c.axiom,
                        "player": c.player,
                        "ok": c.ok,
                        "detail": c.detail,
                    }
                    for c in report.checks
                ],
                "efficiency_identity": [
                    {"equal": c.equal, "residual": format_rational(c.residual)}
                    for c in identity_results
                ],
                "ok": ok,
            }
        )
    else:
        emit(lines)
    return EXIT_OK if ok else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplicial-games",
        description="Exact cooperative-game analysis on simplicial complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, game=False, game_required=False, player=False):
        p.add_argument("--complex", required=True, help="complex JSON file")
        if game:
            p.add_argument(
                "--game", required=game_required, help="game JSON file"
            )
        if player:
            p.add_argument("--player", type=int, required=True, help="vertex id")
        p.add_argument(
            "--format", choices=("table", "json"), default="table"
        )
        p.add_argument("--seed", type=int, default=0)

    common(sub.add_parser("info", help="structure report"))
    common(
        sub.add_parser("shapley", help="generalized Shapley values"),
        game=True,
        game_required=True,
    )
    common(sub.add_parser("symmetry", help="symmetry groups and containment"))
    common(sub.add_parser("psystem", help="common-probability linear system"))
    common(
        sub.add_parser("decompose", help="facet decomposition of the value"),
        player=True,
    )
    common(
        sub.add_parser("efficiency", help="efficiency coefficients and identity"),
        game=True,
    )
    common(
        sub.add_parser("verify", help="axiom suite on seeded random games"),
        game=True,
    )
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except SimplicialGamesError as e:
        sys.stderr.write(f"error[{e.code}]: {e}\n")
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())

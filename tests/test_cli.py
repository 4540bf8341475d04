import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter

import pytest

from simplicial_games import (
    Face,
    Permutation,
    SimplicialComplex,
    full_simplex,
    moved_facet,
    pi_delta_generators,
    symm_group,
)
from simplicial_games.cli import emit_json, main
from simplicial_games import errors
from simplicial_games.errors import BudgetExceeded, ParseError, SimplicialGamesError
from simplicial_games.exactnum import parse_rational
from conftest import cycle, random_nonpure_complexes
from oracles import complex_to_dict

F = Fraction

FIGURE_A = '{"n": 5, "facets": [[1,2,3],[2,3,5],[3,4,5]]}'
CYCLE_4 = '{"n": 4, "facets": [[1,2],[2,3],[3,4],[1,4]]}'
SIMPLEX_4 = '{"n": 4, "facets": [[1,2,3,4]]}'
EDGE_GAME = '{"values": {"1,2": "1"}}'


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("figure_a.json", FIGURE_A),
        ("cycle4.json", CYCLE_4),
        ("simplex4.json", SIMPLEX_4),
        ("edge_game.json", EDGE_GAME),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_figure_a(files, capsys):
    code, out, _ = run(capsys, "info", "--complex", files["figure_a.json"])
    assert code == 0
    assert "f-vector: (1, 5, 7, 3)" in out
    assert "pure links: yes" in out


def test_info_simplex_s_vector(files, capsys):
    code, out, _ = run(capsys, "info", "--complex", files["simplex4.json"])
    assert code == 0
    # the s-vector printed is the common link f-vector
    assert "shapley complex: yes, s = (1, 3, 3, 1)" in out


def test_shapley_cycle_edge_game(files, capsys):
    code, out, _ = run(
        capsys,
        "shapley",
        "--complex",
        files["cycle4.json"],
        "--game",
        files["edge_game.json"],
    )
    assert code == 0
    assert "1  1/4" in out
    assert "3  0" in out
    assert "sum  1/2" in out
    assert "(match)" in out


def test_shapley_json_roundtrip(files, capsys):
    code, out, _ = run(
        capsys,
        "shapley",
        "--complex",
        files["cycle4.json"],
        "--game",
        files["edge_game.json"],
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    values = {k: parse_rational(v) for k, v in doc["values"].items()}
    assert values == {"1": F(1, 4), "2": F(1, 4), "3": F(0), "4": F(0)}
    assert parse_rational(doc["aggregate"]) == F(1, 2)
    assert doc["efficiency_match"] is True


def test_psystem_cycle(files, capsys):
    code, out, _ = run(capsys, "psystem", "--complex", files["cycle4.json"])
    assert code == 0
    assert "status: underdetermined" in out
    assert "particular (free variables zeroed): (1, 0)" in out
    assert "canonical p_k = 1/(r*s_k): (1/2, 1/4)  satisfies system: yes" in out


def test_decompose_simplex(files, capsys):
    code, out, _ = run(
        capsys, "decompose", "--complex", files["simplex4.json"], "--player", "2"
    )
    assert code == 0
    assert "status: exact" in out
    assert "c_{1,2,3,4} = 1" in out


def test_decompose_full_11_simplex(tmp_path, capsys):
    # the answer is one facet of weight 1; no 11-player oracle may run
    path = tmp_path / "simplex11.json"
    path.write_text(json.dumps({"n": 11, "facets": [list(range(1, 12))]}))
    code, out, err = run(capsys, "decompose", "--complex", str(path), "--player", "1")
    assert code == 0, err
    assert "c_{1,2,3,4,5,6,7,8,9,10,11} = 1  1" in out


def test_decompose_infeasible_reports_certificate(files, capsys):
    code, out, _ = run(
        capsys, "decompose", "--complex", files["figure_a.json"], "--player", "3"
    )
    assert code == 0
    assert "status: infeasible" in out
    assert "certificate" in out


def test_symmetry_report(files, capsys):
    code, out, _ = run(capsys, "symmetry", "--complex", files["cycle4.json"])
    assert code == 0
    assert "symmetry group order: 8" in out
    assert "pi(Delta) contained in Symm(Delta): no" in out


def symmetry_corpus() -> dict[str, SimplicialComplex]:
    """Skeleta, with and without isolated ids, cycles, cones and non-pure complexes."""
    rng = Random(23)
    corpus = {}
    for k in range(6):
        n = rng.randint(2, 7)
        rank = rng.randint(1, n)
        skeleton = full_simplex(n).skeleton(rank)
        corpus[f"skeleton_{n}_{rank}"] = skeleton
        # ids past n are isolated: no face holds them
        corpus[f"skeleton_{n}_{rank}_in_{n + 2}"] = SimplicialComplex(n + 2, skeleton.facets)
    for n in (4, 5, 7):
        corpus[f"cycle_{n}"] = cycle(n)
        apex = 1 << n
        corpus[f"cone_{n}"] = SimplicialComplex(n + 1, [Face(f | apex) for f in cycle(n).facets])
    for k, delta in enumerate(random_nonpure_complexes(6, seed=29)):
        corpus[f"nonpure_{k}"] = delta
    return corpus


@pytest.mark.parametrize("name, delta", symmetry_corpus().items())
def test_symmetry_verdicts_are_the_preservation_test_of_each_generator(
    name, delta, tmp_path, capsys
):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(complex_to_dict(delta)))
    code, out, _ = run(capsys, "symmetry", "--complex", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["symm_order"] == symm_group(delta)
    gens = pi_delta_generators(delta)
    assert [tuple(g["perm"]) for g in doc["generators"]] == [tuple(g) for g in gens]
    moved = [moved_facet(delta, g) for g in gens]
    assert [g["preserves"] for g in doc["generators"]] == [f is None for f in moved]
    assert [g["moved_face"] for g in doc["generators"]] == [
        None if f is None else list(Face(f).vertices) for f in moved
    ]
    witness = next(
        ({"perm": list(g), "face": list(Face(f).vertices)}
         for g, f in zip(gens, moved) if f is not None),
        None,
    )
    assert (doc["pi_delta_contained"], doc["witness"]) == (witness is None, witness)


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("command", ["shapley", "efficiency"])
def test_closed_form_errors_other_than_its_refusals_propagate(
    command, fmt, files, monkeypatch, capsys
):
    from simplicial_games import cli

    def over_budget(delta_or_game):
        raise BudgetExceeded("closed form over budget")

    # shapley takes the closed-form right side, efficiency the whole table
    monkeypatch.setattr(cli, "shapley_efficiency_rhs", over_budget)
    monkeypatch.setattr(cli, "shapley_efficiency_closed_form", over_budget)
    argv = ["--complex", files["simplex4.json"], "--game", files["edge_game.json"]]
    code, out, err = run(capsys, command, *argv, "--format", fmt)
    assert (code, out, err) == (3, "", "error[BudgetExceeded]: closed form over budget\n")


def test_verify_passes(files, capsys):
    code, out, _ = run(
        capsys, "verify", "--complex", files["figure_a.json"], "--seed", "7"
    )
    assert code == 0
    assert "verdict: all checks passed" in out


def test_efficiency_with_game(files, capsys):
    code, out, _ = run(
        capsys,
        "efficiency",
        "--complex",
        files["cycle4.json"],
        "--game",
        files["edge_game.json"],
    )
    assert code == 0
    assert "closed form matches construction: yes" in out
    assert "residual = 0" in out


def test_output_is_deterministic(files, capsys):
    _, first, _ = run(
        capsys, "verify", "--complex", files["figure_a.json"], "--seed", "3"
    )
    _, second, _ = run(
        capsys, "verify", "--complex", files["figure_a.json"], "--seed", "3"
    )
    assert first == second


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_failing_verdicts_are_reported(fmt, files, monkeypatch, capsys):
    # every golden identity holds, so the failure branches are forced here
    from simplicial_games import cli
    from simplicial_games.values import AxiomCheck, EfficiencyCheck

    monkeypatch.setattr(
        cli, "check_efficiency_identity", lambda *_: EfficiencyCheck(False, F(1), F(3), F(-2))
    )
    monkeypatch.setattr(
        cli, "shapley_efficiency_closed_form", lambda delta: {t: F(7) for t in delta.faces[1:]}
    )
    monkeypatch.setattr(cli, "shapley_efficiency_rhs", lambda game: F(7))
    monkeypatch.setattr(
        cli,
        "axiom_suite",
        lambda *_, **__: (AxiomCheck("null", 2, False, "phi = 1"),),
    )
    cycle, game = files["cycle4.json"], files["edge_game.json"]
    as_json = fmt == "json"

    code, out, _ = run(capsys, "efficiency", "--complex", cycle, "--game", game, "--format", fmt)
    assert code == 4
    if as_json:
        doc = json.loads(out)
        assert doc["closed_form_matches"] is False
        assert doc["identity"] == {"lhs": "1", "rhs": "3", "residual": "-2", "equal": False}
    else:
        assert "closed form matches construction: NO" in out
        assert "identity: sum phi = 1, sum a_T v(T) = 3, residual = -2" in out

    code, out, _ = run(capsys, "shapley", "--complex", cycle, "--game", game, "--format", fmt)
    assert code == 0
    if as_json:
        doc = json.loads(out)
        assert (doc["efficiency_rhs"], doc["efficiency_match"]) == ("7", False)
    else:
        assert "efficiency rhs  7  (MISMATCH)" in out

    code, out, _ = run(capsys, "verify", "--complex", cycle, "--format", fmt)
    assert code == 4
    if as_json:
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["checks"] == [{"axiom": "null", "player": 2, "ok": False, "detail": "phi = 1"}]
    else:
        assert "null player 2: FAIL (phi = 1)" in out
        assert "efficiency identity game 0: FAIL (residual -2)" in out
        assert out.endswith("verdict: VIOLATIONS FOUND\n")


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 5, "facets": [[1,2]')
    code, _, err = run(capsys, "info", "--complex", str(bad))
    assert code == 2
    assert err.startswith("error[ParseError]:")
    assert "line" in err and "column" in err


def test_vertex_out_of_range_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "facets": [[1,3]]}')
    code, _, err = run(capsys, "info", "--complex", str(bad))
    assert code == 3
    assert err.startswith("error[VertexOutOfRange]:")


def test_out_of_range_facet_rejected_before_closure(tmp_path, capsys):
    # a 60-vertex facet has 2^60 subfaces; the ids are checked first
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "facets": [list(range(1, 61))]}))
    code, out, err = run(capsys, "info", "--complex", str(bad))
    assert code == 3
    assert out == ""
    assert re.fullmatch(r"error\[VertexOutOfRange\]: [^\n]*\n", err), err


@pytest.mark.parametrize("command", [["info"], ["shapley", "--game", "{game}"]], ids=["info", "shapley"])
def test_exponential_closure_is_refused_before_it_starts(command, files, tmp_path, capsys):
    # one 30-vertex facet has 2^30 subsets, over the closure budget
    path = tmp_path / "simplex30.json"
    path.write_text(json.dumps({"n": 30, "facets": [list(range(1, 31))]}))
    argv = [command[0], "--complex", str(path), *command[1:]]
    argv = [a.format(game=files["edge_game.json"]) for a in argv]
    start = perf_counter()
    code, out, err = run(capsys, *argv)
    assert perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert re.fullmatch(r"error\[BudgetExceeded\]: [^\n]*\n", err), err


@pytest.mark.parametrize("n", [14, 16])
def test_generator_walk_past_the_budget_is_refused_in_a_fresh_process(n, tmp_path):
    # the 14-simplex has 72,746,856 pairs of equal-size link faces to walk
    path = tmp_path / f"simplex{n}.json"
    path.write_text(json.dumps({"n": n, "facets": [list(range(1, n + 1))]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    argv = [sys.executable, "-m", "simplicial_games.cli", "symmetry", "--complex", str(path)]
    start = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert perf_counter() - start < 2.0
    assert (proc.returncode, proc.stdout) == (3, "")
    assert re.fullmatch(r"error\[BudgetExceeded\]: [^\n]*\n", proc.stderr), proc.stderr


HUGE_ID = 10**9


@pytest.mark.parametrize(
    "argv, error",
    [
        (["info", "--complex", "{complex}"], "VertexOutOfRange"),
        (["shapley", "--complex", "{cycle}", "--game", "{game}"], "GameFaceNotInComplex"),
        (["decompose", "--complex", "{cycle}", "--player", str(HUGE_ID)], "VertexNotInComplex"),
    ],
    ids=["complex", "game", "player"],
)
def test_huge_vertex_id_is_refused_at_once(argv, error, files, tmp_path, capsys):
    # a vertex id is a bit position: its mask is HUGE_ID bits wide
    paths = {"complex": tmp_path / "c.json", "game": tmp_path / "g.json"}
    paths["complex"].write_text(json.dumps({"n": 3, "facets": [[1, HUGE_ID]]}))
    paths["game"].write_text(json.dumps({"values": {f"1,{HUGE_ID}": "1"}}))
    argv = [a.format(cycle=files["cycle4.json"], **paths) for a in argv]
    start = perf_counter()
    code, out, err = run(capsys, *argv)
    assert perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert re.fullmatch(rf"error\[{error}\]: [^\n]*{HUGE_ID}[^\n]*\n", err), err


def test_game_face_not_in_complex_exits_3(files, tmp_path, capsys):
    bad = tmp_path / "bad_game.json"
    bad.write_text('{"values": {"1,3": "1"}}')
    code, _, err = run(
        capsys,
        "shapley",
        "--complex",
        files["cycle4.json"],
        "--game",
        str(bad),
    )
    assert code == 3
    assert err.startswith("error[GameFaceNotInComplex]:")


def test_missing_game_flag_exits_2(files, capsys):
    code, out, err = run(capsys, "shapley", "--complex", files["cycle4.json"])
    assert code == 2
    assert out == ""
    assert err == "error[ParseError]: the following arguments are required: --game\n"


@pytest.mark.parametrize("argv", [["--help"], ["info", "--help"]])
def test_help_prints_usage_on_stdout_and_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    out, err = capsys.readouterr()
    assert exit_.value.code == 0
    assert out.startswith("usage: simplicial-games")
    assert err == ""


def test_every_error_code_is_its_class_name():
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, SimplicialGamesError)
        and c is not SimplicialGamesError
    ]
    assert ParseError in classes and BudgetExceeded in classes
    for c in classes:
        assert c.code == c.__name__
        assert c.exit_code == (2 if issubclass(c, ParseError) else 3), c


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "info", "--complex", "/nonexistent/x.json")
    assert code == 2
    assert err.startswith("error[FileNotFound]:")


HOSTILE = {
    "non_utf8": ("--complex", b'{"n": 4, "facets": [[1, 2]]}\xff'),
    "directory": ("--complex", None),
    "huge_n": ("--complex", b'{"n": ' + b"7" * 5000 + b', "facets": [[1, 2]]}'),
    "huge_value": ("--game", b'{"values": {"1,2": "' + b"7" * 5000 + b'"}}'),
    "non_ascii_digits": ("--game", '{"values": {"1,2": "\u0663/4"}}'.encode()),
    "deep_complex": ("--complex", b"[" * 100000 + b"]" * 100000),
    "deep_game": ("--game", b'{"values": ' * 100000 + b"{}" + b"}" * 100000),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_input_exits_2(name, files, tmp_path, capsys):
    flag, content = HOSTILE[name]
    path = tmp_path / "hostile"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    argv = ["shapley", "--complex", files["cycle4.json"], "--game", files["edge_game.json"]]
    argv[argv.index(flag) + 1] = str(path)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert re.fullmatch(r"error\[\w+\]: [^\n]*\n", err), err


EMPTY_COMPLEXES = {"no_facet": '{"n": 2, "facets": []}', "empty_facet": '{"n": 2, "facets": [[]]}'}
COMMANDS = [
    ["info"], ["psystem"], ["symmetry"], ["verify"], ["efficiency"],
    ["shapley", "--game", "{game}"], ["decompose", "--player", "1"],
]


@pytest.mark.parametrize("name", sorted(EMPTY_COMPLEXES))
@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_complex_with_no_vertex_is_refused(name, command, tmp_path, capsys):
    path, game = tmp_path / "empty.json", tmp_path / "game.json"
    path.write_text(EMPTY_COMPLEXES[name])
    game.write_text('{"values": {}}')
    argv = [command[0], "--complex", str(path), *(a.format(game=game) for a in command[1:])]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "error[EmptyComplex]: the complex has no vertex\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_result_too_long_to_print_is_a_typed_error(fmt, tmp_path, capsys):
    # each worth is printable, but their sum has a denominator of over 9000 digits
    big = 10**3000
    complex_path, game = tmp_path / "edge.json", tmp_path / "game.json"
    complex_path.write_text('{"n": 2, "facets": [[1, 2]]}')
    game.write_text(json.dumps(
        {"values": {"1": f"1/{big + 1}", "2": f"1/{big + 3}", "1,2": f"1/{big + 7}"}}
    ))
    argv = ["shapley", "--complex", str(complex_path), "--game", str(game), "--format", fmt]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert re.fullmatch(r"error\[ResultTooLong\]: [^\n]*\n", err), err


def test_value_past_the_float_range_is_approximated(tmp_path, capsys):
    complex_path, game = tmp_path / "edge.json", tmp_path / "game.json"
    complex_path.write_text('{"n": 2, "facets": [[1, 2]]}')
    game.write_text(json.dumps({"values": {"1": str(3 * 10**400), "1,2": "1"}}))
    code, out, _ = run(capsys, "shapley", "--complex", str(complex_path), "--game", str(game))
    assert code == 0
    # phi_1 = (3e400 + 1 - 0) / 2, phi_2 = (1 - 3e400) / 2
    assert f"1  {3 * 10**400 + 1}/2  1.5e+400\n" in out
    assert f"2  -{3 * 10**400 - 1}/2  -1.5e+400\n" in out


@pytest.mark.parametrize("command", ["shapley", "efficiency", "verify"])
def test_game_over_a_huge_denominator_is_refused_before_its_table(command, tmp_path, capsys):
    # 1023 worths over 200-digit denominators M k + 1: any two share at most
    # a factor of their index difference, so their lcm has about 10^5 digits
    complex_path, game = tmp_path / "simplex10.json", tmp_path / "game.json"
    complex_path.write_text(json.dumps({"n": 10, "facets": [list(range(1, 11))]}))
    m = 10**199
    game.write_text(json.dumps({"values": {
        ",".join(str(j + 1) for j in range(10) if mask >> j & 1): f"1/{m * mask + 1}"
        for mask in range(1, 1 << 10)
    }}))
    start = perf_counter()
    code, out, err = run(capsys, command, "--complex", str(complex_path), "--game", str(game))
    assert perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert re.fullmatch(r"error\[BudgetExceeded\]: [^\n]*\n", err), err


def test_emit_json_prints_one_line_from_json_dumps(capsys):
    # a tuple subclass is a list, an int subclass an int, a rational "p/q"
    emit_json({"perm": Permutation((2, 1, 3)), "face": Face(5), Face(3): F(1, 2)})
    assert capsys.readouterr().out == '{"perm": [2, 1, 3], "face": 5, "3": "1/2"}\n'


@pytest.mark.parametrize(
    "doc", [{"x": [{1}]}, {"x": {F(1, 2): 1}}], ids=["set", "fraction_key"],
)
def test_json_writer_refuses_what_it_has_no_form_for(doc):
    with pytest.raises(TypeError):
        emit_json(doc)

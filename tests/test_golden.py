"""Golden stdout of the CLI commands, byte for byte.

The files under ``tests/golden/`` hold the output of each command in both
formats on every acceptance fixture and on a few extra complexes (n > 10,
a failing containment, a non-pure complex).  A command that fails leaves
its ``error[...]`` line and an ``[exit N]`` line in the file.  A
``decompose`` file holds the outputs for every vertex of the complex,
concatenated in vertex order.  The structure and value commands
(``info``, ``psystem``, ``efficiency`` with and without a game,
``shapley``, ``verify``) also run on the 3-skeleta on 9 and 10 vertices and
on a seeded non-pure complex; their game is seeded too.  To re-record them
with the package on the import path::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest

from simplicial_games import Face, SimplicialComplex, full_simplex
from simplicial_games.cli import main
from simplicial_games.games import random_game
from simplicial_games.symmetry import check_pi_delta_contained
from conftest import golden_fixtures
from oracles import complex_to_dict, game_to_dict

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("table", "json")
# The commands each name runs: the key is the file-name prefix.
COMMANDS = {
    "symmetry": ["symmetry"],
    "decompose": ["decompose"],
    "info": ["info"],
    "psystem": ["psystem"],
    "efficiency": ["efficiency"],
    "efficiency_game": ["efficiency", "--game", "{game}"],
    "shapley": ["shapley", "--game", "{game}"],
    "verify": ["verify", "--seed", "3"],
}
FIXTURE_COMMANDS = ("symmetry", "decompose")
STRUCTURE_COMMANDS = [c for c in COMMANDS if c not in FIXTURE_COMMANDS]
GAME_SEED = 11


def seeded_nonpure() -> SimplicialComplex:
    """Facets of random sizes 1..4 on 8 vertices, from a fixed seed."""
    rng = Random(2024)
    facets = [rng.sample(range(1, 9), rng.randint(1, 4)) for _ in range(7)]
    return SimplicialComplex.from_facets(8, facets)


def command_stdout(
    command: str, delta: SimplicialComplex, fmt: str, tmp_dir: Path
) -> str:
    path = tmp_dir / "complex.json"
    path.write_text(json.dumps(complex_to_dict(delta)))
    game = tmp_dir / "game.json"
    game.write_text(json.dumps(game_to_dict(random_game(delta, Random(GAME_SEED)))))
    argv = [a.format(game=game) for a in COMMANDS[command]]
    runs = (
        [["--player", str(i)] for i in delta.vertices] if command == "decompose" else [[]]
    )
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        for extra in runs:
            code = main([*argv, "--complex", str(path), "--format", fmt, *extra])
            if code != 0:
                print(f"[exit {code}]")
    return out.getvalue()


def golden_path(command: str, name: str, fmt: str) -> Path:
    return GOLDEN / f"{command}_{name}.{'txt' if fmt == 'table' else 'json'}"


FIXTURES = golden_fixtures()
STRUCTURE_FIXTURES = {
    **FIXTURES,
    "skeleton_9_3": full_simplex(9).skeleton(3),
    "skeleton_10_3": full_simplex(10).skeleton(3),
    "nonpure_8": seeded_nonpure(),
}


def fixtures_for(command: str) -> dict[str, SimplicialComplex]:
    """The complexes a command's goldens cover."""
    return FIXTURES if command in FIXTURE_COMMANDS else STRUCTURE_FIXTURES


def test_seeded_nonpure_is_not_pure():
    assert len({f.bit_count() for f in STRUCTURE_FIXTURES["nonpure_8"].facets}) > 1


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_symmetry_stdout_matches_golden(name, fmt, tmp_path):
    got = command_stdout("symmetry", FIXTURES[name], fmt, tmp_path)
    assert got == golden_path("symmetry", name, fmt).read_text()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_symmetry_containment_is_the_library_report(name):
    # the command walks every generator; the library counts faces first
    doc = json.loads(golden_path("symmetry", name, "json").read_text())
    report = check_pi_delta_contained(FIXTURES[name])
    assert doc["pi_delta_contained"] == report.contained
    assert doc["witness"] == (None if report.contained else {
        "perm": list(report.witness_generator),
        "face": list(Face(report.witness_face).vertices),
    })


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_decompose_stdout_matches_golden(name, fmt, tmp_path):
    got = command_stdout("decompose", FIXTURES[name], fmt, tmp_path)
    assert got == golden_path("decompose", name, fmt).read_text()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(STRUCTURE_FIXTURES))
@pytest.mark.parametrize("command", STRUCTURE_COMMANDS)
def test_structure_stdout_matches_golden(command, name, fmt, tmp_path):
    got = command_stdout(command, STRUCTURE_FIXTURES[name], fmt, tmp_path)
    assert got == golden_path(command, name, fmt).read_text()


@pytest.mark.parametrize("command", COMMANDS)
def test_structure_reports_build_no_link(command, tmp_path, monkeypatch):
    # every command reads a link as the faces through the player, and counts
    # extensions off the covers: the only complexes it builds are the ones
    # it loads from facets, and it builds no extension set
    init = SimplicialComplex.__init__

    def loaded_only(self, n, faces):
        caller = sys._getframe(1).f_code.co_name
        assert caller == "from_facets", f"complex built in {caller}"
        init(self, n, faces)

    def no_extension_set(self, t):
        raise AssertionError(f"extension set of {t} built")

    monkeypatch.setattr(SimplicialComplex, "__init__", loaded_only)
    monkeypatch.setattr(SimplicialComplex, "extension_set", no_extension_set)
    for name, delta in fixtures_for(command).items():
        for fmt in FORMATS:
            got = command_stdout(command, delta, fmt, tmp_path)
            assert got == golden_path(command, name, fmt).read_text()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", ["figure_a", "figure_b", "nonpure_8"])
def test_efficiency_and_verify_take_the_int_path(name, fmt, tmp_path, monkeypatch):
    # both commands build a_T by the int scatter and check the identity on it:
    # with the table scatter, its identity check and the group value raising,
    # each exits 0 with the stdout it has without the patches
    from simplicial_games import cli, values

    delta = STRUCTURE_FIXTURES[name]
    path, game = tmp_path / "complex.json", tmp_path / "game.json"
    path.write_text(json.dumps(complex_to_dict(delta)))
    game.write_text(json.dumps(game_to_dict(random_game(delta, Random(GAME_SEED)))))
    runs = [
        ["efficiency", "--game", str(game)],
        ["verify", "--seed", "3", "--game", str(game)],
    ]

    def stdout(argv):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main([*argv, "--complex", str(path), "--format", fmt]) == 0
        return out.getvalue()

    unpatched = [stdout(argv) for argv in runs]

    def table_path(*_):
        raise AssertionError("a command read the weight-table scatter")

    for module in (values, cli):
        for fn in ("efficiency_coefficients", "check_efficiency_identity", "group_value"):
            monkeypatch.setattr(module, fn, table_path, raising=module is values)
    assert [stdout(argv) for argv in runs] == unpatched


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            for name, delta in fixtures_for(command).items():
                for fmt in FORMATS:
                    path = golden_path(command, name, fmt)
                    path.write_text(command_stdout(command, delta, fmt, Path(tmp)))

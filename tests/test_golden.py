"""Golden stdout of the ``symmetry`` and ``decompose`` commands, byte for byte.

The files under ``tests/golden/`` hold the output of each command in both
formats on every acceptance fixture and on a few extra complexes (n > 10,
a failing containment, a non-pure complex).  A ``decompose`` file holds the
outputs for every vertex of the complex, concatenated in vertex order.  To
re-record them with the package on the import path::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from simplicial_games import SimplicialComplex
from simplicial_games.cli import main
from simplicial_games.complexes import complex_to_dict
from conftest import golden_fixtures

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("table", "json")
COMMANDS = ("symmetry", "decompose")


def command_stdout(
    command: str, delta: SimplicialComplex, fmt: str, tmp_dir: Path
) -> str:
    path = tmp_dir / "complex.json"
    path.write_text(json.dumps(complex_to_dict(delta)))
    runs = (
        [["--player", str(i)] for i in delta.vertices] if command == "decompose" else [[]]
    )
    out = io.StringIO()
    with redirect_stdout(out):
        for extra in runs:
            code = main([command, "--complex", str(path), "--format", fmt, *extra])
            assert code == 0
    return out.getvalue()


def golden_path(command: str, name: str, fmt: str) -> Path:
    return GOLDEN / f"{command}_{name}.{'txt' if fmt == 'table' else 'json'}"


FIXTURES = golden_fixtures()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_symmetry_stdout_matches_golden(name, fmt, tmp_path):
    got = command_stdout("symmetry", FIXTURES[name], fmt, tmp_path)
    assert got == golden_path("symmetry", name, fmt).read_text()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_decompose_stdout_matches_golden(name, fmt, tmp_path):
    got = command_stdout("decompose", FIXTURES[name], fmt, tmp_path)
    assert got == golden_path("decompose", name, fmt).read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            for name, delta in FIXTURES.items():
                for fmt in FORMATS:
                    path = golden_path(command, name, fmt)
                    path.write_text(command_stdout(command, delta, fmt, Path(tmp)))

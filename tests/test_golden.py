"""Golden stdout of the ``symmetry`` command, byte for byte.

The files under ``tests/golden/`` hold the output of ``symmetry`` in both
formats on every acceptance fixture and on a few extra complexes (n > 10,
a failing containment, a non-pure complex).  To re-record them with the
package on the import path::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

from simplicial_games import SimplicialComplex, full_simplex
from simplicial_games.cli import main
from simplicial_games.complexes import complex_to_dict
from conftest import all_fixtures, cycle

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("table", "json")


def golden_fixtures() -> dict[str, SimplicialComplex]:
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


def symmetry_stdout(delta: SimplicialComplex, fmt: str, tmp_dir: Path) -> str:
    path = tmp_dir / "complex.json"
    path.write_text(json.dumps(complex_to_dict(delta)))
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["symmetry", "--complex", str(path), "--format", fmt])
    assert code == 0
    return out.getvalue()


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"symmetry_{name}.{'txt' if fmt == 'table' else 'json'}"


FIXTURES = golden_fixtures()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_symmetry_stdout_matches_golden(name, fmt, tmp_path):
    delta = FIXTURES[name]
    assert symmetry_stdout(delta, fmt, tmp_path) == golden_path(name, fmt).read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, delta in FIXTURES.items():
            for fmt in FORMATS:
                golden_path(name, fmt).write_text(symmetry_stdout(delta, fmt, Path(tmp)))

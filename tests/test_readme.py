"""The README's library quick tour runs, and shows what its comments state."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    """The one ``python`` block of the README."""
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    return block


def shown_values(source: str) -> dict[int, object]:
    """Run the block; the value of each bare expression, by its line number."""
    namespace: dict = {}
    shown = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            shown[stmt.lineno] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return shown


def test_readme_quick_tour_shows_what_its_comments_state():
    source = quick_tour()
    lines = source.splitlines()
    comments = {
        line.split("#", 1)[0].strip(): line.split("#", 1)[1].strip()
        for line in lines
        if "#" in line
    }
    shown = {lines[k - 1].split("#", 1)[0].strip(): v for k, v in shown_values(source).items()}
    assert shown.keys() == comments.keys()

    assert shown["delta.f_vector()"] == (1, 5, 7, 3)
    assert comments["delta.f_vector()"] == "(1, 5, 7, 3)"

    link = "len(delta.link(Face.from_vertices([3])))"
    assert shown[link] == 8
    assert comments[link].startswith("8 faces")

    assert type(shown["generalized_shapley(v, 3)"]) is Fraction
    assert comments["generalized_shapley(v, 3)"] == "exact Fraction"

    status = "decompose_shapley(delta, 3).solution.status"
    assert shown[status].value == "inconsistent"
    assert comments[status].startswith("inconsistent")

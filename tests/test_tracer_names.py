"""Every name the benchmark's layer tracer wraps still exists in the package.

``bench/tracer.py`` rebinds functions and methods by name; a rename or a
deletion in ``src/`` breaks ``bench/run.py --trace 1``, and so does a
figure the benchmark divides by reading 0.  The tracer is loaded by path
and left unedited.
"""

import importlib
import importlib.util
import json
from pathlib import Path
from random import Random

import pytest

import simplicial_games
import simplicial_games.cli
from simplicial_games.complexes import full_simplex
from simplicial_games.games import random_game
from conftest import figure_a, figure_b
from oracles import complex_to_dict, game_to_dict

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER_MODULE = load_tracer()


@pytest.mark.parametrize("module, path", TRACER_MODULE.SPANS + TRACER_MODULE.COUNTS)
def test_traced_name_resolves(module, path):
    assert module in TRACER_MODULE.MODULES
    holder = importlib.import_module(f"simplicial_games.{module}")
    *owner, attr = path.split(".")
    for name in owner:
        holder = getattr(holder, name)
    assert callable(getattr(holder, attr))
    if owner:  # a method is patched in its class __dict__, not inherited
        assert attr in holder.__dict__


def test_traced_commands_count_what_the_benchmark_divides_by(tmp_path, capsys):
    # bench/run.py divides by these figures or takes len() of the generators,
    # and --trace 1 reads the solver dimensions and the value-kernel calls
    rng = Random(5)
    paths = {}
    for name, delta in (("a", figure_a()), ("b", figure_b())):
        paths[name] = tmp_path / f"figure_{name}.json"
        paths[name].write_text(json.dumps(complex_to_dict(delta)))
        paths["game_" + name] = tmp_path / f"game_{name}.json"
        paths["game_" + name].write_text(json.dumps(game_to_dict(random_game(delta, rng))))
    runs = [["symmetry", "--complex", paths["a"]], ["verify", "--complex", paths["b"]]]
    for name in ("a", "b"):
        complex_, game = ["--complex", paths[name]], ["--game", paths["game_" + name]]
        runs += [
            ["shapley", *complex_, *game],
            ["efficiency", *complex_, *game],
            ["psystem", *complex_],
            ["decompose", *complex_, "--player", "3"],
        ]
    tracer = TRACER_MODULE.Tracer(simplicial_games)
    tracer.install()
    try:
        tracer.start_batch()
        for k, argv in enumerate(runs):
            tracer.start_command(k)
            assert simplicial_games.cli.main([str(arg) for arg in argv]) == 0, argv
        tracer.end_batch()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    figures = tracer.batches[-1]
    built = ("symmetry.swap_permutation.calls", "symmetry.transposition.calls")
    assert sum(figures.get(name, 0) for name in built) > 0
    for name in (
        "symmetry.generators",
        "complexes.link.calls",
        "exactnum.solve_exact.rows",
        "exactnum.solve_exact.cols",
        "values.generalized_shapley.calls",
        "values.decompose_shapley.calls",
    ):
        assert figures.get(name, 0) > 0, name


def test_a_traced_symmetry_run_counts_more_candidates_than_generators(tmp_path, capsys):
    # symmetry.generator_yield is generators over swap_permutation calls: the
    # 2-skeleton of the 5-simplex has 40 candidate pairs for 10 transpositions
    path = tmp_path / "skeleton.json"
    path.write_text(json.dumps(complex_to_dict(full_simplex(5).skeleton(2))))
    tracer = TRACER_MODULE.Tracer(simplicial_games)
    tracer.install()
    try:
        tracer.start_batch()
        tracer.start_command(0)
        assert simplicial_games.cli.main(["symmetry", "--complex", str(path)]) == 0
        tracer.end_batch()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    figures = tracer.batches[-1]
    assert figures["symmetry.swap_permutation.calls"] > figures["symmetry.generators"] > 0

"""Every name the benchmark's layer tracer wraps still exists in the package.

``bench/tracer.py`` rebinds functions and methods by name; a rename or a
deletion in ``src/`` breaks ``bench/run.py --trace 1``.  The tracer is
loaded by path and left unedited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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

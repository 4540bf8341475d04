"""Outside-in layer tracing: spans around the public functions of each module.

``Tracer.install`` rebinds each listed function in every module namespace
that holds it (and in the CLI's handler table), and each listed method on
its class.  A span records its name, start, end, parent span and command
id; spans stay in memory until ``dump`` writes them out once.

Functions called thousands of times per command get a call counter but no
span, so their time stays in their caller's self time: the per-permutation
preservation test, the swap and transposition candidates, and the rational
parser.  Hot leaf helpers (``Face`` methods, ``has_face``, ``Game.value``,
``format_rational``) are not wrapped at all.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "complexes", "games", "values", "exactnum", "symmetry")

# (module, attribute path) of every function that gets a span.
SPANS = [
    ("cli", "main"), ("cli", "build_parser"), ("cli", "emit"), ("cli", "emit_json"),
    ("cli", "cmd_info"), ("cli", "cmd_shapley"), ("cli", "cmd_symmetry"),
    ("cli", "cmd_psystem"), ("cli", "cmd_decompose"), ("cli", "cmd_efficiency"),
    ("cli", "cmd_verify"),
    ("complexes", "load_complex"), ("complexes", "complex_from_dict"),
    ("complexes", "SimplicialComplex.from_facets"), ("complexes", "SimplicialComplex.link"),
    ("complexes", "SimplicialComplex.star"), ("complexes", "SimplicialComplex.f_vector"),
    ("complexes", "SimplicialComplex.skeleton"), ("complexes", "SimplicialComplex.has_pure_links"),
    ("complexes", "SimplicialComplex.extension_set"),
    ("complexes", "SimplicialComplex.facets_containing"),
    ("games", "load_game"), ("games", "game_from_dict"), ("games", "Game.__init__"),
    ("games", "Game.mask_table"), ("games", "carrier_game"), ("games", "scale_add"),
    ("games", "random_game"), ("games", "random_monotone_game"), ("games", "random_dummy_game"),
    ("values", "probabilistic_value"), ("values", "generalized_shapley"),
    ("values", "classical_shapley_all"), ("values", "classical_shapley_oracle"),
    ("values", "canonical_shapley_tables"), ("values", "group_value"),
    ("values", "efficiency_coefficients"), ("values", "shapley_efficiency_closed_form"),
    ("values", "check_efficiency_identity"), ("values", "decompose_shapley"),
    ("values", "axiom_suite"),
    ("exactnum", "solve_exact"),
    ("symmetry", "symm_group"), ("symmetry", "pi_delta_generators"),
    ("symmetry", "check_pi_delta_contained"), ("symmetry", "classify_shapley"),
    ("symmetry", "p_system_rows"), ("symmetry", "solve_p_system"),
]

# Functions that only count their calls.
COUNTS = [
    ("symmetry", "permutation_preserves"), ("symmetry", "swap_permutation"),
    ("symmetry", "Permutation.transposition"), ("exactnum", "parse_rational"),
    ("complexes", "SimplicialComplex.__init__"),
]


def span_name(module: str, path: str) -> str:
    """'games', 'Game.__init__' -> 'games.Game'; methods drop their class."""
    cls, _, attr = path.rpartition(".")
    return f"{module}.{cls if attr == '__init__' else attr}"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.mods = {m: getattr(package, m) for m in MODULES}
        self.spans: list[list] = []  # [name, start, end, parent, command]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.command = 0
        self.batches: list[dict] = []  # per-layer figures of each finished batch
        self._first_span = 0
        self._pins: list = []  # complexes whose links were counted this command
        self._links: set = set()
        self._undo: list = []

    # -- recording -----------------------------------------------------

    def start_batch(self) -> None:
        self._first_span = len(self.spans)
        self.counts.clear()

    def end_batch(self) -> None:
        figures = dict(self.layer_totals(self._first_span))
        figures.update(self.counts)
        self.batches.append(figures)

    def start_command(self, command: int) -> None:
        self.command = command
        self._pins.clear()
        self._links.clear()

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.command])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if after:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn, after=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            result = fn(*args, **kwargs)
            if after:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- counters measured at the boundaries ----------------------------

    def _after_hooks(self):
        c = self.counts
        as_face = self.mods["complexes"].as_face

        def link(args, kwargs, result):
            key = (id(args[0]), as_face(args[1]).mask)
            if key not in self._links:
                self._links.add(key)
                self._pins.append(args[0])  # keeps id() unique within the command
                c["complexes.link.distinct"] += 1

        def complex_init(args, kwargs, result):
            c["complexes.faces_built"] += len(args[0].faces)

        def solve(args, kwargs, result):
            c["exactnum.solve_exact.rows"] += args[0].rows
            c["exactnum.solve_exact.cols"] += args[0].cols
            c[f"exactnum.solve_exact.{result.status.value}"] += 1

        def orderings(args, kwargs, result):
            c["values.oracle_orderings"] += math.factorial(len(result))

        def generators(args, kwargs, result):
            c["symmetry.generators"] += len(result)

        def preserves(args, kwargs, result):
            if self.stack and self.spans[self.stack[-1]][0] == "symmetry.symm_group":
                c["symmetry.symm_group.perms_scanned"] += 1

        return {
            "complexes.link": link,
            "complexes.SimplicialComplex": complex_init,
            "exactnum.solve_exact": solve,
            "values.classical_shapley_all": orderings,
            "symmetry.pi_delta_generators": generators,
            "symmetry.permutation_preserves": preserves,
        }

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        hooks = self._after_hooks()
        for kind, entries in ((self._span, SPANS), (self._counter, COUNTS)):
            for module, path in entries:
                name = span_name(module, path)
                self._patch(self.mods[module], path, lambda fn: kind(name, fn, hooks.get(name)))

    def _patch(self, module, path: str, make) -> None:
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._set(cls, attr, new)
            return
        orig = getattr(module, path)
        new = make(orig)
        for holder in (self.package, *self.mods.values()):
            if getattr(holder, path, None) is orig:
                self._set(holder, path, new)
        handlers = self.mods["cli"]._HANDLERS
        for key, fn in list(handlers.items()):
            if fn is orig:
                self._undo.append((handlers.__setitem__, key, fn))
                handlers[key] = new

    def _set(self, holder, attr, new) -> None:
        self._undo.append((functools.partial(setattr, holder), attr, holder.__dict__[attr]))
        setattr(holder, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            setter, key, old = self._undo.pop()
            setter(key, old)

    # -- results -------------------------------------------------------

    def layer_totals(self, first_span: int = 0) -> dict[str, float]:
        """Self time and calls per span name, and per module, from ``first_span`` on."""
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                child[parent - first_span] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(spans):
            self_s = end - start - child[k]
            out[name + ".self_s"] += self_s
            out[name + ".calls"] += 1
            out[name.split(".")[0] + ".self_s"] += self_s
        return out

    def dump(self, path: Path) -> None:
        """Write every span once, names interned, as gzipped JSON."""
        names: dict[str, int] = {}
        rows = [
            [names.setdefault(name, len(names)), round(s, 7), round(e, 7), p, c]
            for name, s, e, p, c in self.spans
        ]
        doc = {"fields": ["name", "start", "end", "parent", "command"],
               "names": list(names), "spans": rows}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))

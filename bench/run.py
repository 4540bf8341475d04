"""End-to-end and per-layer benchmark of the simplicial-games CLI.

    python3 bench/run.py --workload structure --seed 1 --seconds 20 --trace 0

Runs the workload's fixed batch of CLI commands in-process through
``simplicial_games.cli.main()`` with stdout captured, one command at a time
(one process, one thread, a closed loop with a single client), repeating
the batch until ``--seconds`` have passed.  Every answer is checked exactly.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  ``--workload all`` runs every
workload in a fresh process of its own and prints one table.

See README.md for the workloads, the metrics and what each layer metric
should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from answers import check
from corpus import BACKGROUND, WORKLOADS, Corpus, Spec, batch, write_corpus
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

SETUP_REPEATS = 5

# Times are scaled to a host on which ``reference_kernel`` takes this long.
REFERENCE_S = 300e-6
REFERENCE_WINDOW = 5  # commands on each side whose kernel times set a command's scale

END_TO_END = [
    ("wall_s", "s"), ("cmd_p50_ms", "ms"), ("cmd_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"), ("setup_s", "s"),
]

# Per-layer metrics, each a per-batch figure (median over the traced batches).
PER_LAYER = [
    ("complexes.self_s", "s"), ("complexes.from_facets.self_s", "s"),
    ("complexes.faces_built", "count"), ("complexes.link.self_s", "s"),
    ("complexes.link.calls", "count"), ("complexes.link.distinct", "count"),
    ("complexes.link.hit_ratio", "ratio"), ("complexes.extension_set.self_s", "s"),
    ("complexes.extension_set.calls", "count"), ("complexes.facets_containing.self_s", "s"),
    ("complexes.f_vector.self_s", "s"), ("complexes.has_pure_links.self_s", "s"),
    ("complexes.load_complex.self_s", "s"),
    ("games.self_s", "s"), ("games.load_game.self_s", "s"), ("games.Game.self_s", "s"),
    ("games.Game.calls", "count"), ("games.random_game.self_s", "s"),
    ("games.random_monotone_game.self_s", "s"), ("games.random_dummy_game.self_s", "s"),
    ("games.carrier_game.self_s", "s"), ("games.scale_add.self_s", "s"),
    ("exactnum.self_s", "s"), ("exactnum.parse_rational.calls", "count"),
    ("exactnum.solve_exact.self_s", "s"), ("exactnum.solve_exact.calls", "count"),
    ("exactnum.solve_exact.rows", "count"), ("exactnum.solve_exact.cols", "count"),
    ("exactnum.solve_exact.unique", "count"), ("exactnum.solve_exact.underdetermined", "count"),
    ("exactnum.solve_exact.inconsistent", "count"),
    ("values.self_s", "s"), ("values.generalized_shapley.self_s", "s"),
    ("values.generalized_shapley.calls", "count"), ("values.probabilistic_value.self_s", "s"),
    ("values.probabilistic_value.calls", "count"), ("values.canonical_shapley_tables.self_s", "s"),
    ("values.efficiency_coefficients.self_s", "s"),
    ("values.shapley_efficiency_closed_form.self_s", "s"),
    ("values.check_efficiency_identity.self_s", "s"), ("values.axiom_suite.self_s", "s"),
    ("values.decompose_shapley.self_s", "s"), ("values.classical_shapley_all.self_s", "s"),
    ("values.oracle_orderings", "count"),
    ("symmetry.self_s", "s"), ("symmetry.symm_group.self_s", "s"),
    ("symmetry.symm_group.perms_scanned", "count"), ("symmetry.pi_delta_generators.self_s", "s"),
    ("symmetry.swap_permutation.calls", "count"), ("symmetry.transposition.calls", "count"),
    ("symmetry.generators", "count"), ("symmetry.generator_yield", "ratio"),
    ("symmetry.check_pi_delta_contained.self_s", "s"),
    ("symmetry.permutation_preserves.calls", "count"), ("symmetry.classify_shapley.self_s", "s"),
    ("symmetry.solve_p_system.self_s", "s"),
    ("cli.self_s", "s"), ("cli.stdout_bytes", "bytes"), ("cli.main.calls", "count"),
    ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.uncovered_share", "ratio"),
]


def load_package():
    """Import the package from this checkout's ``src/``, afresh."""
    if not (SRC / "simplicial_games" / "cli.py").is_file():
        raise SystemExit(f"error: no simplicial_games package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == "simplicial_games"]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("simplicial_games")
    importlib.import_module("simplicial_games.cli")
    if Path(package.__file__).resolve().parent != SRC / "simplicial_games":
        raise SystemExit(f"error: imported simplicial_games from {package.__file__}")
    return package


def argv_for(spec: Spec, corpus: Corpus, seed: int) -> list[str]:
    argv = [spec.cmd, "--complex", str(corpus.files[spec.cid])]
    if spec.game:
        argv += ["--game", str(corpus.files[f"{spec.cid}.g{spec.game}"])]
    if spec.player is not None:
        argv += ["--player", str(spec.player)]
    return argv + ["--format", spec.fmt, "--seed", str(seed + spec.seed)]


def reference_kernel() -> float:
    """Time a fixed piece of pure-Python work: rationals, a dict, calls.

    On a shared 2-vCPU virtual machine the speed drifted by up to 1.7x
    within minutes, and the drift moved this kernel and the program alike:
    over 14 batches of ``symmetry`` in one process the raw batch time varied
    by 16% (coefficient of variation), the batch time scaled by the kernel
    by 5%.  So the kernel runs before every command and every time is
    scaled by it.
    """
    start = perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 100):
        acc += Fraction(i, i % 7 + 1)
        seen[i & 31] = acc
    return perf_counter() - start


def speed_scales(kernel_s: list[float]) -> list[float]:
    """Per command: REFERENCE_S over the mean kernel time around it."""
    n, w = len(kernel_s), REFERENCE_WINDOW
    return [
        REFERENCE_S / statistics.fmean(kernel_s[max(0, j - w):j + w + 1]) for j in range(n)
    ]


@dataclass
class Outcome:
    latency_s: float
    stdout_bytes: int
    scale: float = 1.0  # REFERENCE_S / kernel time around this command

    @property
    def scaled_s(self) -> float:
        return self.latency_s * self.scale


@dataclass
class Session:
    """Everything set up for one run: package, corpus, expected answers."""

    seed: int
    specs: list[Spec]
    package: object
    corpus: Corpus
    stored: dict
    setup_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0

    def run_command(self, spec: Spec) -> Outcome:
        argv = argv_for(spec, self.corpus, self.seed)
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        main = self.package.cli.main
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception:  # a crash is a failed command; keep measuring the rest
            latency = perf_counter() - start
            failure = "raised " + traceback.format_exc().strip().splitlines()[-1]
        else:
            latency = perf_counter() - start
            failure = check(spec, code, out.getvalue(), self.corpus, self.stored)
        if failure:
            self.failures.append(f"{' '.join(argv)}: {failure}")
        return Outcome(latency, len(out.getvalue()))

    def run_batch(self, tracer: Tracer | None = None) -> list[Outcome]:
        gc.collect()
        if tracer:
            tracer.start_batch()
        outcomes, kernel_s = [], []
        for k, spec in enumerate(self.specs):
            kernel_s.append(reference_kernel())
            if tracer:
                tracer.start_command(k)
            outcomes.append(self.run_command(spec))
        scales = speed_scales(kernel_s)
        for outcome, scale in zip(outcomes, scales):
            outcome.scale = scale
        if tracer:
            tracer.end_batch()
        return outcomes


def set_up(workload: str, seed: int, workdir: Path, stored: dict) -> Session:
    """Write the corpus, import the package and run the warm-up pass; time it.

    Repeated ``SETUP_REPEATS`` times; the last one is kept for measuring.
    """
    specs = batch(workload)
    random.Random(seed).shuffle(specs)
    times = []
    for k in range(SETUP_REPEATS):
        kernel_s = [reference_kernel() for _ in range(REFERENCE_WINDOW)]
        start = perf_counter()
        corpus = write_corpus(specs, seed, workdir / f"setup{k}")
        session = Session(seed, specs, load_package(), corpus, stored)
        for spec in BACKGROUND:
            session.run_command(spec)
        elapsed = perf_counter() - start
        kernel_s += [reference_kernel() for _ in range(REFERENCE_WINDOW)]
        times.append(elapsed * REFERENCE_S / statistics.fmean(kernel_s))
    session.setup_s = times
    return session


def measure(session: Session, seconds: float, tracer: Tracer | None = None) -> list[list[Outcome]]:
    """Repeat the batch for ``seconds``: at least once, and not starting a
    batch that, by the time the last one took, would end after ``seconds``."""
    batches = []
    start = perf_counter()
    while True:
        batch_start = perf_counter()
        batches.append(session.run_batch(tracer))
        now = perf_counter()
        if now - start + (now - batch_start) > seconds:
            return batches


def typical_latencies(batches: list[list[Outcome]]) -> list[float]:
    """Each command's median scaled latency over the batches, in seconds."""
    return [statistics.median(b[k].scaled_s for b in batches) for k in range(len(batches[0]))]


def end_to_end(session: Session, batches: list[list[Outcome]]) -> dict[str, float]:
    typical_ms = [s * 1000 for s in typical_latencies(batches)]
    return {
        "wall_s": sum(typical_ms) / 1000,
        "cmd_p50_ms": statistics.median(typical_ms),
        "cmd_p90_ms": statistics.quantiles(typical_ms, n=10)[8],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(session.setup_s),
    }


def per_layer(session: Session, seconds: float, trace_path: Path) -> dict[str, float]:
    """Half the time untraced, half traced; per-batch medians of the layer figures."""
    plain = measure(session, seconds / 2)
    tracer = Tracer(session.package)
    tracer.install()
    try:
        traced = measure(session, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_path)

    for outcomes, figures in zip(traced, tracer.batches):
        wall = sum(o.latency_s for o in outcomes)
        covered = sum(v for k, v in figures.items() if k.count(".") == 1 and k.endswith(".self_s"))
        figures["trace.uncovered_share"] = (wall - covered) / wall
        figures["cli.stdout_bytes"] = sum(o.stdout_bytes for o in outcomes)
        scale = statistics.fmean(o.scale for o in outcomes)
        figures.update((k, v * scale) for k, v in list(figures.items()) if k.endswith(".self_s"))
    metrics = {
        name: statistics.median(b.get(name, 0) for b in tracer.batches) for name, _ in PER_LAYER
    }
    calls, distinct = metrics["complexes.link.calls"], metrics["complexes.link.distinct"]
    metrics["complexes.link.hit_ratio"] = 1 - distinct / calls
    candidates = metrics["symmetry.swap_permutation.calls"] + metrics["symmetry.transposition.calls"]
    metrics["symmetry.generator_yield"] = metrics["symmetry.generators"] / candidates
    metrics["trace.untraced_wall_s"] = sum(typical_latencies(plain))
    metrics["trace.traced_wall_s"] = sum(typical_latencies(traced))
    metrics["trace.overhead_ratio"] = metrics["trace.traced_wall_s"] / metrics["trace.untraced_wall_s"]
    return metrics


def metadata(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "simplicial_games").glob("*.py"))
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "src_lines": src_lines,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, stored: dict | None = None) -> dict:
    """One run; returns the result object that ``main`` prints last."""
    if stored is None:
        stored = json.loads(EXPECTED.read_text())
    workdir = OUT / f"{workload}-{seed}-{os.getpid()}"
    try:
        session = set_up(workload, seed, workdir, stored)
        session.attempted, session.failures = 0, []  # the warm-up pass is set-up
        if trace:
            metrics = per_layer(session, seconds, OUT / f"spans-{workload}-{seed}.json.gz")
            units = dict(PER_LAYER)
        else:
            metrics = end_to_end(session, measure(session, seconds))
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in session.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(session.failures)
    return {
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def report(workload: str, result: dict) -> str:
    """Human-readable lines: the metrics, fail_ratio and every ratio with its base."""
    m = {k: v["value"] for k, v in result["metrics"].items()}
    lines = [f"{workload}: " + " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in result["metrics"].items())]
    lines.append(f"  fail_ratio={result['failed'] / result['attempted']:.6g} "
                 f"({result['failed']} of {result['attempted']} commands)")
    if "trace.overhead_ratio" in m:
        lines += [
            f"  link cache: {m['complexes.link.distinct']:g} distinct of {m['complexes.link.calls']:g} calls,"
            f" hit ratio {m['complexes.link.hit_ratio']:.4f}",
            f"  generators: {m['symmetry.generators']:g} distinct of"
            f" {m['symmetry.swap_permutation.calls'] + m['symmetry.transposition.calls']:g} candidates",
            f"  solve_exact: {m['exactnum.solve_exact.calls']:g} calls, {m['exactnum.solve_exact.rows']:g} rows"
            f" x {m['exactnum.solve_exact.cols']:g} cols in all; unique {m['exactnum.solve_exact.unique']:g},"
            f" underdetermined {m['exactnum.solve_exact.underdetermined']:g},"
            f" inconsistent {m['exactnum.solve_exact.inconsistent']:g}",
            f"  permutation oracle: {m['values.oracle_orderings']:g} orderings",
            f"  tracing overhead: {m['trace.traced_wall_s']:.4f} s traced / {m['trace.untraced_wall_s']:.4f} s"
            f" untraced = {m['trace.overhead_ratio']:.4f}; uncovered share {m['trace.uncovered_share']:.4f}",
        ]
    return "\n".join(lines)


def run_all(args) -> int:
    """Each workload in a fresh process, so each has its own peak RSS."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
        print(report(workload, results[workload]), flush=True)
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()  # fails early, before any output, without the sources
    if args.workload == "all":
        return run_all(args)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("meta " + json.dumps(metadata(args.seed)))
    print(report(args.workload, result))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

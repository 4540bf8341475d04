"""Digest every benchmark-corpus command, so two checkouts can be compared.

    python3 tools/corpus_digest.py [--root CHECKOUT] > digest.txt

Builds each workload batch of ``bench/corpus.py`` at seeds 1 and 7, the way
``bench/run.py`` builds it (the batch shuffled by the seed, then its files
written, so the games are the benchmark's), and runs every distinct command
in-process through ``simplicial_games.cli.main()`` once in each output
format.  Prints one line per command: its key (workload, seed, spec and
format, never the temporary path), the sha256 of its stdout and of its
stderr, and its exit code.  ``--root`` names the checkout whose ``src/``
and ``bench/`` are used, by default the one holding this script, so the
same script digests a checkout that predates it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import random
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 7)
FORMATS = ("json", "table")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(root: Path) -> list[str]:
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    corpus = importlib.import_module("corpus")
    argv_for = importlib.import_module("run").argv_for
    cli = importlib.import_module("simplicial_games.cli")
    if Path(cli.__file__).resolve().parent != (root / "src" / "simplicial_games").resolve():
        raise SystemExit(f"error: imported simplicial_games from {cli.__file__}")
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in corpus.WORKLOADS:
            for seed in SEEDS:
                specs = corpus.batch(workload)
                random.Random(seed).shuffle(specs)
                written = corpus.write_corpus(specs, seed, Path(tmp, f"{workload}-{seed}"))
                runs = dict.fromkeys(
                    dataclasses.replace(spec, fmt=fmt) for spec in specs for fmt in FORMATS
                )
                for spec in runs:
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv_for(spec, written, seed))
                    key = (
                        f"{workload} seed={seed} {spec.cmd} {spec.cid} game={spec.game} "
                        f"player={spec.player} seed+={spec.seed} {spec.fmt}"
                    )
                    lines.append(
                        f"{key} stdout={sha256(out.getvalue())} "
                        f"stderr={sha256(err.getvalue().replace(tmp, '<corpus>'))} exit={code}"
                    )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parents[1],
        help="checkout whose src/ and bench/ are digested (default: this one)",
    )
    args = parser.parse_args(argv)
    sys.stdout.write("\n".join(digest(args.root.resolve())) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

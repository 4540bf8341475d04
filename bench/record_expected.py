"""Record the stored expected answers in ``expected.json``.

    python3 bench/record_expected.py

Runs every command whose answer depends only on the complex once, in JSON
format, and stores its canonical answer.  The stored answers are what the
benchmark checks the program against, so re-record them only together with
a change that means to alter the program's output, and say so in that
change.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from dataclasses import replace

from answers import canonical, expected_key, stored_part
from corpus import WORKLOADS, batch, write_corpus
from run import EXPECTED, OUT, argv_for, load_package

STORED_COMMANDS = {"info", "psystem", "efficiency", "decompose", "symmetry"}


def main() -> int:
    specs = {}
    for workload in WORKLOADS:
        for spec in batch(workload):
            if spec.cmd in STORED_COMMANDS:
                specs.setdefault(expected_key(spec), replace(spec, fmt="json", game=0))
    workdir = OUT / "record"
    try:
        corpus = write_corpus(list(specs.values()), 0, workdir)
        cli = load_package().cli
        stored = {}
        for key, spec in sorted(specs.items()):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv_for(spec, corpus, 0))
            if code != 0:
                print(f"{key}: exit code {code}", file=sys.stderr)
                return 1
            stored[key] = stored_part(canonical(spec, out.getvalue()))
            print(key, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

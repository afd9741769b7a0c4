"""Write cli_transcript.json: each command line of COMMANDS, run through
`sdpdeg.cli.main` in process, mapped to its exit code, its standard error,
and the byte length and SHA-256 of its standard output, with every
elapsed_ms value masked.

Regenerate it, from the repository root, only for a change that alters the
output on purpose, and say why in CHANGES.md:

    PYTHONPATH=src python tests/data/make_cli_transcript.py

`tests/test_cli.py::test_cli_transcript_replays` replays the file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
from pathlib import Path

from sdpdeg.cli import main

TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")

# elapsed_ms in a value line (elapsed_ms=0.02) and in a JSON row ("elapsed_ms": 0.02)
_ELAPSED = re.compile(r'(elapsed_ms"?[=:] ?)[0-9.e+-]+')


def _commands() -> list[str]:
    tables = [
        f"table {n} --method {method}{check} --format {fmt}"
        for method in ("auto", "psi_product", "residue")
        for check in ("", " --check")
        for n in range(2, 13)
        for fmt in ("csv", "json")
    ]
    tables += [f"table {n} --method theorem1" for n in range(2, 8)]
    tables += [f"table {n} --method theorem1 --check --format json" for n in range(2, 8)]
    tables += ["table 2 --method closed", "table 3 --method closed --check --format json"]
    # the k = 0 and l = 0 edge of every rank, by every method
    edges = []
    for n in (4, 7):
        for r in range(1, n):
            for m in (n - r + 1) * (n - r) // 2, n * (n + 1) // 2 - r * (r + 1) // 2:
                edges += [f"value {m} {n} {r} --method {method}" for method in (
                    "auto", "auto --check", "psi_product", "residue", "residue --check",
                    "theorem1", "closed")]
    readme = [
        "value 3 4 2", "value 6 5 3 --check", "value 4 4 2 --method residue --check",
        "value 2 3 2 --method residue --lambda 1/2,3/2,4",
        "value 6 5 3 --check --lambda=-3/2,1,2,7,11",
        "table 6", "table 6 --format json", "table 6 --check",
        "verify", "verify --suite lemma21 --seed 7", "verify --suite cross-methods --max-n 5",
    ]
    refusals = [
        "value 2 4 2", "value 3 4 4", "value 6 5 3 --method closed", "table 4 --method closed",
        "value 3 4 2 --method bogus", "table 5 --method bogus", "table 1", "table 0",
        "verify --max-n 8", "verify --suite bogus", "value 3 4",
    ]
    # usage errors argparse reports before any subcommand runs; the line
    # "" is a bare `sdpdeg`
    usage = ["", "bogus", "bogus table", "tab 4", "table 5 extra", "--check table 5"]
    return tables + edges + readme + refusals + ["verify --max-n 4"] + usage


COMMANDS = _commands()


def record(command: str) -> dict:
    """What `sdpdeg <command>` does, in the transcript's form."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(shlex.split(command))
        except SystemExit as exc:  # a usage error, raised by argparse
            code = exc.code
    stdout = _ELAPSED.sub(r"\g<1>*", out.getvalue()).encode()
    return {
        "exit": code,
        "stderr": err.getvalue(),
        "stdout_bytes": len(stdout),
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
    }


if __name__ == "__main__":
    # argparse wraps its usage lines to the terminal width
    os.environ["COLUMNS"] = "80"
    TRANSCRIPT.write_text(json.dumps({c: record(c) for c in COMMANDS}, indent=1) + "\n")
    print(f"wrote {len(COMMANDS)} commands to {TRANSCRIPT}")

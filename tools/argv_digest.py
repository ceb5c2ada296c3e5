"""Digest the output of every benchmark argv, for byte-identity checks.

Runs, in-process through `cole_lab.cli.main`, every argv of the three
benchmark workloads in perfbench/workloads.py (verify-all among them), then
the `--format json` run of each norms, decay, residual and solve argv, and
prints one JSON object that maps each argv to the sha256 of its exit code,
stdout and stderr.  cole_lab is imported from the src/ of the checkout this
script lives in, so a change keeps every benchmark byte when

    python <parent checkout>/tools/argv_digest.py > parent.json
    python tools/argv_digest.py > change.json
    diff parent.json change.json

prints nothing.  perfbench/ is only read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from cole_lab import cli  # noqa: E402

_JSON_COMMANDS = ("norms", "decay", "residual", "solve")


def argvs() -> list:
    """Every benchmark argv, then the --format json run of each of them
    whose command writes a table."""
    plain = [op.argv for ops in workloads.WORKLOADS.values() for op in ops]
    return plain + [argv + ("--format", "json") for argv in plain
                    if argv[0] in _JSON_COMMANDS]


def digest(argv) -> str:
    """sha256 of argv's exit code (or the exception it raised), stdout and
    stderr, hashed as perfbench's worker hashes them."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as e:
            rc = e.code
        except Exception as e:
            rc, exc = None, f"{type(e).__name__}: {e}"
    return hashlib.sha256(f"{rc}\0{exc}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def main() -> None:
    print(json.dumps({" ".join(argv): digest(argv) for argv in argvs()}, indent=1))


if __name__ == "__main__":
    main()

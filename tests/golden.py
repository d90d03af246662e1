"""Golden outputs of ``freevol fill`` and ``freevol pingpong`` on the four fixture pairs.

``tests/golden/pairs/`` holds the pair files, ``tests/golden/<request>.out``
each request's standard output, and ``tests/golden/exit_codes.json`` each
request's exit code.  ``test_golden.py`` replays every request through
``cli.main`` twice in one process; ``check`` replays each one in a fresh
process through a command, by default the installed ``freevol`` script::

    python tests/golden.py check
    PYTHONPATH=src python tests/golden.py check --command "python -m freevol.cli"

``write`` rewrites the pair files and outputs from the code it runs.  Run
it only for a change that is meant to alter the output, and say so.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
PAIRS = ("certified_filling_pair", "mirror_filling_pair", "pair_with_sixth_power", "pair_with_single_step")
WORDS = {"alternating": "1:+N 2:-N", "same_ends": "1:+N 2:+N 1:-N", "below_threshold": "1:+3 2:-2"}
PINGPONG_FLAGS = {"plain": [], "json": ["--json"], "trials": ["--trials", "1", "--max-len", "4"]}


def pair_path(pair: str) -> Path:
    return GOLDEN / "pairs" / f"{pair}.json"


def requests() -> dict[str, list[str]]:
    """Each request's name and its arguments, pair files by absolute path."""
    named = {}
    for pair in PAIRS:
        path = str(pair_path(pair))
        named[f"{pair}.fill"] = ["fill", "--pair", path]
        named[f"{pair}.fill.json"] = ["fill", "--pair", path, "--json"]
        for word_name, word in WORDS.items():
            for flag_name, flags in PINGPONG_FLAGS.items():
                named[f"{pair}.pingpong.{word_name}.{flag_name}"] = ["pingpong", "--pair", path, word, *flags]
    return named


def expected(name: str) -> tuple[int, str]:
    """The exit code and standard output recorded for one request."""
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    return codes[name], (GOLDEN / f"{name}.out").read_text()


def write() -> None:
    """Record every request's pair file, exit code and output from this code."""
    import fixtures
    from freevol import cli

    (GOLDEN / "pairs").mkdir(parents=True, exist_ok=True)
    for pair in PAIRS:
        payload = cli.pair_to_json(getattr(fixtures, pair)())
        pair_path(pair).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    codes = {}
    for name, argv in requests().items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            codes[name] = cli.main(argv)
        (GOLDEN / f"{name}.out").write_text(out.getvalue())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


def check(command: list[str]) -> int:
    """Run each request in a fresh process; print a diff for every mismatch."""
    mismatches = 0
    for name, argv in requests().items():
        fresh = subprocess.run([*command, *argv], capture_output=True, text=True, timeout=120)
        code, out = expected(name)
        if (fresh.returncode, fresh.stdout) != (code, out):
            mismatches += 1
            print(f"{name}: exit {fresh.returncode}, expected {code}", file=sys.stderr)
            diff = difflib.unified_diff(
                out.splitlines(keepends=True), fresh.stdout.splitlines(keepends=True), f"golden/{name}.out", "fresh"
            )
            sys.stderr.writelines(diff)
    print(f"{len(requests()) - mismatches} of {len(requests())} golden requests match")
    return 1 if mismatches else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("check", "write"))
    parser.add_argument("--command", default="freevol", help="how to start freevol (check only)")
    args = parser.parse_args()
    if args.action == "write":
        write()
        return 0
    return check(shlex.split(args.command))


if __name__ == "__main__":
    sys.exit(main())

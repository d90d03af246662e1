"""Golden outputs of ``freevol fold``, ``volume``, ``fill`` and ``pingpong``.

``fill`` and ``pingpong`` run on the four fixture pairs, ``volume`` on the
fixture splittings, and ``fill`` again on invalid pair files: each is a
fixture pair with some fields of one side replaced, and ``INVALID`` names
the error it exits with.  ``tests/golden/pairs/`` holds the pair files,
``tests/golden/splittings/`` the splitting files,
``tests/golden/<request>.out`` each request's standard output, and
``tests/golden/exit_codes.json`` each request's exit code.
``test_golden.py`` replays every request through
``cli.main`` twice in one process; ``check`` replays each one in a fresh
process through a command, by default the installed ``freevol`` script::

    python tests/golden.py check
    PYTHONPATH=src python tests/golden.py check --command "python -m freevol.cli"

``write`` rewrites the pair and splitting files and the outputs from the
code it runs.  Run it only for a change that is meant to alter the output,
and say so.
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
FOLDS = {
    "loop": ["-k", "2", "a", "a"],
    "two_letters": ["-k", "2", "ab", "abba"],
    "rank_two": ["-k", "3", "abbc", "cababbc"],
    "three_words": ["-k", "3", "aCCbc", "cababbc", "abc"],
}
VOLUME_WORDS = {"cyclic": ["cababbc"], "rank_two": ["aCCbc", "abc"]}
VOLUME_FLAGS = {"plain": [], "json": ["--json"], "dot": ["--dot"]}
# name: (fixture pair, side, fields replaced, the error printed on standard error)
INVALID = {
    "unknown_kind": (
        "certified_filling_pair",
        "second",
        {"kind": "graph"},
        "unknown kind 'graph'",
    ),
    "malformed_a_part": (
        "certified_filling_pair",
        "second",
        {"a_part": 12},
        "malformed splitting payload: a_part must be list, got 12",
    ),
    "short_relative_basis": (
        "certified_filling_pair",
        "second",
        {"relative_basis": ["ac", "bC"]},
        "relative basis size differs from ambient rank",
    ),
    "not_a_basis": (
        "certified_filling_pair",
        "second",
        {"relative_basis": ["ab", "ab", "c"]},
        "relative basis is not a basis",
    ),
    "overlapping_parts": (
        "pair_with_single_step",
        "second",
        {"b0_part": [2]},
        "A-part and B0-part must partition the relative letters",
    ),
    "empty_b0_part": (
        "pair_with_single_step",
        "second",
        {"a_part": [1, 2, 3], "b0_part": []},
        "A-part and B0-part must both be nonempty",
    ),
    "a_part_of_size_one": (
        "pair_with_single_step",
        "second",
        {"a_part": [2], "b0_part": [1, 3]},
        "A-part of size one makes the vertex group equal the edge group",
    ),
    "no_stable_index": (
        "certified_filling_pair",
        "second",
        {"stable_index": None},
        "HNN splitting needs a stable index",
    ),
    "stable_letter_in_a_part": (
        "certified_filling_pair",
        "second",
        {"stable_index": 2},
        "A-part and stable letter must partition the relative letters",
    ),
    "empty_edge_word": (
        "certified_filling_pair",
        "first",
        {"edge_word": "1"},
        "edge word is empty",
    ),
    "edge_word_outside_a_part": (
        "certified_filling_pair",
        "first",
        {"edge_word": "ac"},
        "edge word uses letters outside the A-part",
    ),
    "edge_word_not_cyclically_reduced": (
        "certified_filling_pair",
        "first",
        {"edge_word": "abA"},
        "edge word is not cyclically reduced",
    ),
    "divisible_edge_word": (
        "certified_filling_pair",
        "first",
        {"edge_word": "abab"},
        "edge word is a proper power",
    ),
    "ambient_bases_differ": (
        "certified_filling_pair",
        "second",
        {"ambient_rank": 2, "relative_basis": ["a", "b"], "a_part": [1], "edge_word": "a", "stable_index": 2},
        "paired splittings must share the same ambient basis",
    ),
}


def pair_path(pair: str) -> Path:
    return GOLDEN / "pairs" / f"{pair}.json"


def splitting_path(name: str) -> Path:
    return GOLDEN / "splittings" / f"{name}.json"


def splitting_names() -> dict[str, str]:
    """Each fixture splitting's file name, from its name in ``fixtures.fixture_splittings``."""
    import fixtures

    return {name: name.replace("()", "") for name in fixtures.fixture_splittings()}


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
    for fold_name, args in FOLDS.items():
        named[f"fold.{fold_name}.json"] = ["fold", *args, "--json"]
    for splitting in splitting_names().values():
        path = str(splitting_path(splitting))
        for words_name, words in VOLUME_WORDS.items():
            for flag_name, flags in VOLUME_FLAGS.items():
                argv = ["volume", "--splitting", path, *words, *flags]
                named[f"{splitting}.volume.{words_name}.{flag_name}"] = argv
    for invalid in INVALID:
        named[f"invalid.{invalid}.fill"] = ["fill", "--pair", str(pair_path(f"invalid.{invalid}"))]
    return named


def expected(name: str) -> tuple[int, str]:
    """The exit code and standard output recorded for one request."""
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    return codes[name], (GOLDEN / f"{name}.out").read_text()


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write() -> None:
    """Record every request's pair or splitting file, exit code and output from this code."""
    import fixtures
    from freevol import cli, splittings

    (GOLDEN / "pairs").mkdir(parents=True, exist_ok=True)
    (GOLDEN / "splittings").mkdir(parents=True, exist_ok=True)
    for pair in PAIRS:
        write_json(pair_path(pair), cli.pair_to_json(getattr(fixtures, pair)()))
    for invalid, (pair, side, fields, _) in INVALID.items():
        payload = cli.pair_to_json(getattr(fixtures, pair)())
        payload[side].update(fields)
        write_json(pair_path(f"invalid.{invalid}"), payload)
    for name, splitting in fixtures.fixture_splittings().items():
        write_json(splitting_path(splitting_names()[name]), splittings.to_json(splitting))
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

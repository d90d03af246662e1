"""Command-line surface: fold, volume, fill, and pingpong subcommands.

Exit codes: 0 success / definitely true, 1 definitely false, 2 unknown,
3 hypotheses violated, 4 over budget (``pingpong --images`` when the images,
and ``--trials`` too when one twist factor, could exceed ``LETTER_BUDGET``
letters; nothing is printed on standard output), 64 usage error.  A reader
that closes standard output early (``freevol ... | head``) changes
neither: the rest of the output is dropped, nothing is printed on standard
error, and the exit code is still the verdict's.  All JSON output carries
a top-level ``"schema": "freevol/1"`` field, and identical invocations
(including ``--seed``) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import filling, pingpong, splittings, stallings
from .errors import BudgetExceeded, FreevolError, HypothesisViolated, UsageError
from .splittings import CyclicSplitting, MarkedPair
from .volume import analyze, to_dot as volume_to_dot
from .words import Basis, parse_word, render_word

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_HYPOTHESES = 3
EXIT_BUDGET = 4
EXIT_USAGE = 64

PAIR_SCHEMA = "freevol/1"


def _read_json(path: str):
    """Parse a JSON file; a file that cannot be opened or read is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(str(exc)) from exc


def load_splitting(path: str) -> CyclicSplitting:
    return splittings.from_json(_read_json(path))


def load_pair(path: str) -> MarkedPair:
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise UsageError(f"pair file must hold a JSON object, not {type(payload).__name__}")
    for key in ("first", "second"):
        if key not in payload:
            raise UsageError(f"pair file is missing field {key!r}")
    return MarkedPair(
        splittings.from_json(payload["first"]),
        splittings.from_json(payload["second"]),
    )


def pair_to_json(pair: MarkedPair) -> dict:
    return {
        "schema": PAIR_SCHEMA,
        "first": splittings.to_json(pair.first),
        "second": splittings.to_json(pair.second),
    }


def _write(text: str) -> None:
    """Print ``text`` to standard output and flush it.

    If the reader has closed the pipe, standard output is pointed at
    os.devnull, so that later writes and the flush at exit drop silently.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        _write(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _write("\n".join(f"{key}: {value}" for key, value in payload.items() if key != "schema"))


def cmd_fold(args: argparse.Namespace) -> int:
    basis = Basis.standard(args.rank)
    gens = [parse_word(text, basis) for text in args.words]
    if any(not g for g in gens):
        raise UsageError("generators must be nonempty reduced words")
    graph = stallings.subgroup_graph(basis, gens, keep_basepoint=True)
    if args.dot:
        _write(stallings.to_dot(graph, basis))
        return EXIT_OK
    payload = {
        "schema": "freevol/1",
        "rank": stallings.rank(graph),
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
    }
    _emit(payload, args.json)
    return EXIT_OK


def cmd_volume(args: argparse.Namespace) -> int:
    splitting = load_splitting(args.splitting)
    basis = splitting.ambient_basis
    gens = [parse_word(text, basis) for text in args.words]
    if any(not g for g in gens):
        raise UsageError("generators must be nonempty reduced words")
    report = analyze(splitting, gens)
    if args.dot:
        _write(volume_to_dot(report, basis))
        return EXIT_OK
    _emit(report.to_json(), args.json)
    return EXIT_OK


def cmd_fill(args: argparse.Namespace) -> int:
    pair = load_pair(args.pair)
    certificate = filling.check_filling(pair)
    _emit(certificate.to_json(), args.json)
    if certificate.fills is True:
        return EXIT_OK
    if certificate.fills is False:
        return EXIT_FALSE
    return EXIT_UNKNOWN


def cmd_pingpong(args: argparse.Namespace) -> int:
    if args.trials < 0:
        raise UsageError(f"--trials must be at least 0, got {args.trials}")
    if args.max_len < 1:
        raise UsageError(f"--max-len must be at least 1, got {args.max_len}")
    pair = load_pair(args.pair)
    config = pingpong.configure(pair)
    word = pingpong.parse_twist_word(args.word, config.threshold)
    certificate = pingpong.certify(config, word)
    payload = certificate.to_json()
    if args.images:
        phi = pingpong.realize(config, word)
        # Text output prints keys in insertion order: the images follow "word".
        head = {key: payload.pop(key) for key in ("schema", "word")}
        head["automorphism"] = [render_word(image, phi.basis) for image in phi.images]
        payload = {**head, **payload}
    if args.trials:
        forward, backward = pingpong.twist_factors(config, word)
        payload["orbit_check"] = pingpong.empirical_no_periodic_orbit(
            None,
            max_len=args.max_len,
            max_power=args.trials,
            factors=forward,
            inverse_factors=backward,
            seed=args.seed,
        )
    _emit(payload, args.json)
    if certificate.verdict == pingpong.VERDICT_NOT_MET:
        return EXIT_HYPOTHESES
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freevol",
        description=(
            "Cyclic splittings of free groups: foldings, free volume, "
            "filling certificates, and twist-word certification."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fold = sub.add_parser("fold", help="fold a subgroup graph from generators")
    fold.add_argument("--rank", "-k", type=int, required=True)
    fold.add_argument("words", nargs="+", metavar="WORD")
    fold.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    fold.add_argument("--json", action="store_true")
    fold.set_defaults(handler=cmd_fold)

    volume = sub.add_parser("volume", help="free volume of a subgroup")
    volume.add_argument("--splitting", required=True, metavar="FILE.json")
    volume.add_argument("words", nargs="+", metavar="WORD")
    volume.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    volume.add_argument("--json", action="store_true")
    volume.set_defaults(handler=cmd_volume)

    fill = sub.add_parser("fill", help="filling certificate for a pair")
    fill.add_argument("--pair", required=True, metavar="FILE.json")
    fill.add_argument("--json", action="store_true")
    fill.set_defaults(handler=cmd_fill)

    pp = sub.add_parser("pingpong", help="certify a twist word on a pair")
    pp.add_argument("--pair", required=True, metavar="FILE.json")
    pp.add_argument(
        "word",
        metavar="TWIST_WORD",
        help='for example "1:+N 2:-N"; N is the computed threshold',
    )
    pp.add_argument("--json", action="store_true")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument(
        "--trials",
        type=int,
        default=0,
        help="if positive, run the periodic-orbit sample up to this power",
    )
    pp.add_argument("--max-len", type=int, default=6, dest="max_len")
    pp.add_argument("--images", action="store_true", help="also print the realized images")
    pp.set_defaults(handler=cmd_pingpong)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; normalize to the documented code.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.handler(args)
    except (UsageError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisViolated as exc:
        print(f"hypotheses violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESES
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FreevolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FALSE


if __name__ == "__main__":
    sys.exit(main())

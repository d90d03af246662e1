import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures as fx
import freevol
from freevol import cli, pingpong, twisting
from freevol.splittings import MarkedPair, to_json, transform
from freevol.words import power, render_word


def write_splitting(tmp_path, splitting, name):
    path = tmp_path / name
    path.write_text(json.dumps(to_json(splitting)))
    return str(path)


def write_pair(tmp_path, pair, name):
    path = tmp_path / name
    path.write_text(json.dumps(cli.pair_to_json(pair)))
    return str(path)


def subprocess_env():
    """The environment for ``python -m freevol.cli``, with this package's source first."""
    src = str(Path(freevol.__file__).resolve().parents[1])
    path_entries = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fold_dot_output(capsys):
    code, out, _ = run(capsys, ["fold", "-k", "3", "abbc", "cababbc", "--dot"])
    assert code == 0
    assert out.startswith("digraph")


def test_fold_reports_rank(capsys):
    code, out, _ = run(capsys, ["fold", "-k", "3", "abbc", "cababbc", "--json"])
    assert code == 0
    assert json.loads(out)["rank"] == 2


def test_fold_single_loop(capsys):
    code, out, _ = run(capsys, ["fold", "-k", "2", "a", "a", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 1 and payload["edges"] == 1


def test_fold_empty_word_is_usage_error(capsys):
    code, _, err = run(capsys, ["fold", "-k", "2", ""])
    assert code == 64
    assert "error" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 64


def test_volume_anchor(capsys, tmp_path):
    path = write_splitting(tmp_path, fx.amalgam_over_c(), "t1.json")
    code, out, _ = run(capsys, ["volume", "--splitting", path, "aCCbc", "--json"])
    assert code == 0
    assert json.loads(out)["free_volume"] == 2


@pytest.mark.parametrize("relative_basis", [["ab", "ab", "c"], ["1", "ab", "c"]])
def test_volume_refuses_a_relative_basis_that_is_not_a_basis(capsys, tmp_path, relative_basis):
    path = tmp_path / "bad.json"
    payload = {
        "schema": "freevol/1",
        "kind": "amalgam",
        "ambient_rank": 3,
        "relative_basis": relative_basis,
        "a_part": [1, 2],
        "edge_word": "ab",
        "b0_part": [3],
    }
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, ["volume", "--splitting", str(path), "a"])
    assert (code, out, err) == (1, "", "error: relative basis is not a basis\n")


def test_volume_of_edge_word_is_zero(capsys, tmp_path):
    path = write_splitting(tmp_path, fx.amalgam_over_c(), "t1.json")
    code, out, _ = run(capsys, ["volume", "--splitting", path, "c", "--json"])
    assert code == 0
    assert json.loads(out)["free_volume"] == 0


def test_volume_of_twisted_edge_word(capsys, tmp_path):
    path = write_splitting(tmp_path, fx.amalgam_over_c(), "t1.json")
    code, out, _ = run(capsys, ["volume", "--splitting", path, "cababbc", "--json"])
    assert code == 0
    assert json.loads(out)["free_volume"] == 4


def test_fill_unknown_exit_code(capsys, tmp_path):
    path = write_pair(tmp_path, fx.pair_with_sixth_power(), "pair.json")
    code, out, _ = run(capsys, ["fill", "--pair", path, "--json"])
    assert code == 2
    payload = json.loads(out)
    assert payload["f2"] is True and payload["f3"] is False


def test_fill_identical_pair_exit_code(capsys, tmp_path):
    from freevol.splittings import MarkedPair

    base = fx.amalgam_over_c()
    path = write_pair(tmp_path, MarkedPair(base, base), "same.json")
    code, _, _ = run(capsys, ["fill", "--pair", path, "--json"])
    assert code == 1


def test_fill_certified_pair_exit_code(capsys, tmp_path):
    path = write_pair(tmp_path, fx.certified_filling_pair(), "fills.json")
    code, out, _ = run(capsys, ["fill", "--pair", path, "--json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "fills"


def test_pingpong_certified(capsys, tmp_path):
    path = write_pair(tmp_path, fx.certified_filling_pair(), "fills.json")
    code, out, _ = run(capsys, ["pingpong", "--pair", path, "1:+N 2:+N", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "fully_irreducible_hyperbolic"
    assert payload["threshold"] == 15


def test_pingpong_single_twist(capsys, tmp_path):
    path = write_pair(tmp_path, fx.certified_filling_pair(), "fills.json")
    code, out, _ = run(capsys, ["pingpong", "--pair", path, "1:+N", "--json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "conjugate_to_twist_power"


def test_pingpong_hypotheses_not_met(capsys, tmp_path):
    path = write_pair(tmp_path, fx.certified_filling_pair(), "fills.json")
    code, out, _ = run(capsys, ["pingpong", "--pair", path, "1:+1 2:+N", "--json"])
    assert code == 3
    assert json.loads(out)["verdict"] == "hypotheses_not_met"


def test_pingpong_elliptic_edge_word_exit_code(capsys, tmp_path):
    path = write_pair(tmp_path, fx.pair_with_single_step(), "elliptic.json")
    code, out, err = run(capsys, ["pingpong", "--pair", path, "1:+N 2:+N", "--json"])
    assert code == 1
    assert out == ""
    assert "edge word is elliptic" in err


def test_pingpong_with_orbit_sample(capsys, tmp_path):
    path = write_pair(tmp_path, fx.certified_filling_pair(), "fills.json")
    code, out, _ = run(
        capsys,
        [
            "pingpong", "--pair", path, "1:+N 2:+N",
            "--json", "--trials", "2", "--max-len", "4", "--seed", "1",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_check"]["ok"] is True


@pytest.mark.parametrize("trials, max_len", [("100000000", "1"), ("1", "12")])
def test_orbit_sample_over_the_work_budget_exits_with_the_budget_code(capsys, tmp_path, trials, max_len):
    path = write_pair(tmp_path, fx.certified_filling_pair(), "fills.json")
    argv = ["pingpong", "--pair", path, "1:+N 2:+N", "--trials", trials, "--max-len", max_len]
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_BUDGET == 4
    assert out == ""
    assert err.startswith("error:") and f"budget of {pingpong.ORBIT_BUDGET} word powers" in err


def test_output_is_deterministic(capsys, tmp_path):
    path = write_pair(tmp_path, fx.certified_filling_pair(), "fills.json")
    argv = [
        "pingpong", "--pair", path, "1:+N 2:+N",
        "--json", "--trials", "2", "--max-len", "4", "--seed", "7", "--images",
    ]
    code, first, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(first)
    assert "automorphism" in payload and "orbit_check" in payload
    _, second, _ = run(capsys, argv)
    assert first == second


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, ["fill", "--pair", str(tmp_path / "nope.json")])
    assert code == 64
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [["fill", "--pair"], ["volume", "ab", "--splitting"], ["pingpong", "1:+N 2:+N", "--pair"]],
)
def test_directory_as_input_file_is_usage_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, argv + [str(tmp_path)])
    assert code == 64
    assert out == ""
    assert err.startswith("error:")


GOOD_SPLITTING = to_json(fx.certified_filling_pair().first)


@pytest.mark.parametrize(
    "payload, expected",
    [
        (5, 64),
        ([], 64),
        ({"first": 1, "second": 2}, 1),
        ({"first": dict(GOOD_SPLITTING, relative_basis=7), "second": GOOD_SPLITTING}, 1),
        ({"first": dict(GOOD_SPLITTING, edge_word=5), "second": GOOD_SPLITTING}, 1),
        ({"first": dict(GOOD_SPLITTING, stable_index=[3]), "second": GOOD_SPLITTING}, 1),
        ({"first": dict(GOOD_SPLITTING, a_part="12"), "second": GOOD_SPLITTING}, 1),
        ({"first": dict(GOOD_SPLITTING, ambient_rank=3.5), "second": GOOD_SPLITTING}, 1),
    ],
)
def test_malformed_pair_file_is_an_error_not_a_traceback(capsys, tmp_path, payload, expected):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, ["fill", "--pair", str(path)])
    assert code == expected
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "flags, named",
    [(["--trials", "-1"], "--trials"), (["--max-len", "0"], "--max-len"),
     (["--trials", "2", "--max-len", "0"], "--max-len")],
)
def test_pingpong_rejects_bad_orbit_sample_flags(capsys, tmp_path, flags, named):
    path = write_pair(tmp_path, fx.certified_filling_pair(), "fills.json")
    code, out, err = run(capsys, ["pingpong", "--pair", path, "1:+N 2:+N", "--json", *flags])
    assert code == 64
    assert out == ""
    assert err.startswith("error:") and named in err


def test_pingpong_non_filling_pair_is_not_certified(capsys, tmp_path):
    base = fx.hnn_over_commutator()
    pair = MarkedPair(base, transform(base, fx.cycling_automorphism()))
    path = write_pair(tmp_path, pair, "commutator.json")
    code, out, _ = run(capsys, ["pingpong", "--pair", path, "1:+N 2:+N", "--json"])
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "hypotheses_not_met"
    assert payload["failed_check"] == "filling"
    assert payload["checks"]["filling"]["verdict"] == "not_filling"


def test_pingpong_unknown_filling_is_not_certified(capsys, tmp_path):
    path = write_pair(tmp_path, fx.pair_with_sixth_power(), "pair.json")
    code, out, _ = run(capsys, ["pingpong", "--pair", path, "1:+N 2:+N", "--json"])
    assert code == 3
    payload = json.loads(out)
    assert payload["failed_check"] == "filling"
    assert payload["checks"]["filling"]["verdict"] == "unknown"


def test_pingpong_commutator_pair_under_fourth_power(capsys, tmp_path):
    base = fx.hnn_over_commutator()
    pair = MarkedPair(base, transform(base, power(fx.cycling_automorphism(), 4)))
    path = write_pair(tmp_path, pair, "commutator4.json")
    code, out, _ = run(capsys, ["pingpong", "--pair", path, "1:+N 2:+N", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "fully_irreducible_hyperbolic"
    assert payload["checks"]["filling"]["verdict"] == "fills"


@pytest.mark.parametrize("extra", [[], ["--trials", "2", "--max-len", "4"]])
def test_pingpong_never_realizes_by_default(capsys, tmp_path, no_realize, extra):
    path = write_pair(tmp_path, fx.certified_filling_pair(), "fills.json")
    code, out, _ = run(capsys, ["pingpong", "--pair", path, "1:+N 2:+N", "--json"] + extra)
    assert code == 0
    payload = json.loads(out)
    assert "automorphism" not in payload
    assert payload["verdict"] == "fully_irreducible_hyperbolic"
    if extra:
        assert payload["orbit_check"]["ok"] is True


def test_six_factor_pingpong_has_flat_memory(capsys, tmp_path, no_realize):
    path = write_pair(tmp_path, fx.certified_filling_pair(), "fills.json")
    word = "1:+N 2:-N 1:+N 2:+N 1:-N 2:+N"
    tracemalloc.start()
    try:
        code = cli.main(["pingpong", "--pair", path, word, "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["verdict"] == "fully_irreducible_hyperbolic"
    assert peak < 1 << 20


@pytest.mark.parametrize("word", ["1:+N 2:+N", "1:+N 2:-N 1:+N", "1:+1 2:+N"])
def test_pingpong_images_add_only_the_realized_images(capsys, tmp_path, word):
    pair = fx.certified_filling_pair()
    path = write_pair(tmp_path, pair, "fills.json")
    config = pingpong.configure(pair)
    realized = pingpong.realize(config, pingpong.parse_twist_word(word, config.threshold))
    images = [render_word(image, realized.basis) for image in realized.images]

    code, out, err = run(capsys, ["pingpong", "--pair", path, word, "--json"])
    with_code, with_out, with_err = run(
        capsys, ["pingpong", "--pair", path, word, "--json", "--images"]
    )
    assert (with_code, with_err) == (code, err)
    assert json.loads(with_out) == {**json.loads(out), "automorphism": images}

    code, out, err = run(capsys, ["pingpong", "--pair", path, word])
    with_code, with_out, with_err = run(capsys, ["pingpong", "--pair", path, word, "--images"])
    assert (with_code, with_err) == (code, err)
    lines = out.splitlines()
    assert lines[0].startswith("word: ")
    lines.insert(1, f"automorphism: {images}")
    assert with_out.splitlines() == lines


def test_closed_stdout_keeps_exit_code_and_leaves_stderr_empty(tmp_path):
    """``freevol pingpong ... --images | head -c 1``: the images overflow any pipe buffer."""
    path = write_pair(tmp_path, fx.certified_filling_pair(), "fills.json")
    env = subprocess_env()
    argv = ["pingpong", "--pair", path, "1:+N 2:-N 1:+N 2:+N", "--images"]
    process = subprocess.Popen(
        [sys.executable, "-m", "freevol.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert process.stdout.read(1) == b"w"
    process.stdout.close()
    stderr = process.stderr.read()
    process.stderr.close()
    assert (process.wait(timeout=60), stderr) == (0, b"")


def test_images_over_the_letter_budget_exit_with_the_budget_code(tmp_path):
    """On the sixth-power pair (N = 111) this word's images need 22.8 million letters."""
    path = write_pair(tmp_path, fx.pair_with_sixth_power(), "sixth.json")
    env = subprocess_env()
    argv = ["pingpong", "--pair", path, "1:+N 2:-N 1:+N 2:+N", "--images"]
    result = subprocess.run(
        [sys.executable, "-m", "freevol.cli", *argv],
        capture_output=True,
        env=env,
        timeout=20,
    )
    assert result.returncode == cli.EXIT_BUDGET == 4
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    assert f"budget of {pingpong.LETTER_BUDGET}".encode() in result.stderr


@pytest.mark.parametrize("flags", [["--images"], ["--trials", "1"]])
def test_one_huge_twist_exponent_exits_with_the_budget_code(tmp_path, flags):
    """T1^300000000 needs 600 million letters; it is refused before any is built."""
    path = write_pair(tmp_path, fx.certified_filling_pair(), "fills.json")
    env = subprocess_env()
    result = subprocess.run(
        [sys.executable, "-m", "freevol.cli", "pingpong", "--pair", path, "1:+300000000", *flags],
        capture_output=True,
        env=env,
        timeout=20,
    )
    assert result.returncode == cli.EXIT_BUDGET == 4
    assert result.stdout == b""
    assert b"Traceback" not in result.stderr
    assert f"budget of {pingpong.LETTER_BUDGET}".encode() in result.stderr


def test_one_huge_twist_exponent_still_certifies(capsys, tmp_path):
    path = write_pair(tmp_path, fx.certified_filling_pair(), "fills.json")
    code, out, _ = run(capsys, ["pingpong", "--pair", path, "1:+300000000 2:+N", "--json"])
    assert code == 0
    assert json.loads(out)["verdict"] == pingpong.VERDICT_IWIP


def test_pair_over_the_bcc_budget_exits_with_the_budget_code_and_is_not_cached(capsys, tmp_path, monkeypatch):
    path = write_pair(tmp_path, fx.certified_filling_pair(), "fills.json")
    argv = ["pingpong", "--pair", path, "1:+N 2:-N", "--json"]
    twisting.bcc_between.cache_clear()
    monkeypatch.setattr(twisting, "BCC_BUDGET", 10)
    code, out, err = run(capsys, argv)
    assert (code, out) == (cli.EXIT_BUDGET, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "closure entries, over BCC_BUDGET, the budget of 10 entries" in err
    monkeypatch.undo()
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["constants"] == {"B": 1, "M": 6, "C": 15}


def test_realize_names_the_budget_and_the_letters_needed(monkeypatch):
    config = pingpong.configure(fx.certified_filling_pair())
    word = pingpong.parse_twist_word("1:+N 2:-N", config.threshold)
    monkeypatch.setattr(pingpong, "LETTER_BUDGET", 100)
    with pytest.raises(freevol.BudgetExceeded, match=r"needs up to \d+ letters, over the budget of 100"):
        pingpong.realize(config, word)


def test_repeated_calls_in_one_process_match_fresh_processes(capsys, tmp_path, monkeypatch):
    """The parser is built once, and no call leaves state that a later call sees."""
    # Help text wraps at the terminal width; fix it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    path = write_pair(tmp_path, fx.certified_filling_pair(), "fills.json")
    usage_error = ["fold", "-k", "2", "zz"]
    certify = ["pingpong", "--pair", path, "1:+N 2:-N", "--json"]
    argvs = [usage_error, ["pingpong", "--help"], ["fill", "--pair", path, "--json"], usage_error, certify, certify]
    build_parser, built = cli.build_parser, []

    def counting_build_parser():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        in_process = [run(capsys, argv) for argv in argvs]
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert [code for code, _, _ in in_process] == [64, 0, 0, 64, 0, 0]
    env = subprocess_env()
    for argv, result in zip(argvs, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "freevol.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == result, argv


FUZZ_PAIRS = [
    cli.pair_to_json(make())
    for make in (fx.certified_filling_pair, fx.mirror_filling_pair, fx.pair_with_sixth_power, fx.pair_with_single_step)
]
ODD_VALUES = (None, True, 0, -1, 2, 4, 1.5, "", "ab", "x", [], [1, 2], [3], {}, {"kind": "hnn"})
WORD_LETTERS = "abcABCdz1 "


@st.composite
def mutated_pair_files(draw):
    """A fixture pair's JSON with fields dropped, retyped or mutated, sometimes cut short."""
    payload = copy.deepcopy(draw(st.sampled_from(FUZZ_PAIRS)))
    for _ in range(draw(st.integers(0, 3))):
        owners = [payload] + [payload[key] for key in ("first", "second") if isinstance(payload.get(key), dict)]
        owner = draw(st.sampled_from(owners))
        key = draw(st.sampled_from(sorted(owner) + ["b0_part", "stable_index"]))
        action = draw(st.sampled_from(("drop", "retype", "mutate")))
        value = owner.get(key)
        if action == "drop":
            owner.pop(key, None)
        elif isinstance(value, str) and action == "mutate":
            i = draw(st.integers(0, len(value)))
            j = draw(st.integers(i, len(value)))
            owner[key] = value[:i] + draw(st.text(WORD_LETTERS, max_size=3)) + value[j:]
        elif type(value) is int and action == "mutate":
            owner[key] = value + draw(st.integers(-3, 3))
        elif not isinstance(value, list) or action == "retype":
            owner[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        else:
            i = draw(st.integers(0, len(value)))
            items = draw(st.lists(st.integers(-1, 4) | st.sampled_from(WORD_LETTERS), max_size=2))
            owner[key] = value[:i] + items + value[i + 1 :]
    text = json.dumps(payload)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


twist_words = st.one_of(
    st.lists(
        st.builds(
            "{}:{}{}".format,
            st.sampled_from("0123"),
            st.sampled_from(["+", "-", ""]),
            st.sampled_from(["N", "0", "1", "15", "300000000", "x"]) | st.integers(0, 99).map(str),
        ),
        max_size=5,
    ).map(" ".join),
    st.text("12:+-N0 x", max_size=12),
)


@given(mutated_pair_files(), twist_words, st.sampled_from(("pingpong", "fill")))
@settings(deadline=None)
def test_mutated_pair_files_and_twist_words_exit_with_a_documented_code(tmp_path_factory, text, word, command):
    path = tmp_path_factory.mktemp("fuzz") / "pair.json"
    path.write_text(text)
    argv = [command, "--pair", str(path)] + ([word, "--json"] if command == "pingpong" else ["--json"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3, 4, 64)
    assert "Traceback" not in err.getvalue()

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import fixtures as fx
import freevol
from freevol import cli, pingpong
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


def test_realize_names_the_budget_and_the_letters_needed(monkeypatch):
    config = pingpong.configure(fx.certified_filling_pair())
    word = pingpong.parse_twist_word("1:+N 2:-N", config.threshold)
    monkeypatch.setattr(pingpong, "LETTER_BUDGET", 100)
    with pytest.raises(freevol.BudgetExceeded, match=r"needs up to \d+ letters, over the budget of 100"):
        pingpong.realize(config, word)

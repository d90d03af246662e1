import pytest

import fixtures as fx
import oracles
from freevol import stallings as st_mod
from freevol import volume as vol
from freevol.words import enumerate_cyclic_classes

B3 = fx.B3
P = fx.w3


@pytest.mark.parametrize(
    "splitting_name, text, expected",
    [
        ("amalgam_over_c", "cababbc", 4),
        ("amalgam_over_c", "aCCbc", 2),
        ("amalgam_over_c", "c", 0),
        ("amalgam_over_c", "a", 0),
        ("amalgam_over_c", "ab", 2),
        ("amalgam_over_ab", "ab", 0),
        ("amalgam_over_ab", "ac", 2),
        ("hnn_over_commutator", "c", 1),
        ("hnn_over_commutator", "abAB", 0),
        ("hnn_over_commutator", "a", 0),
        ("hnn_over_commutator", "cc", 2),
    ],
)
def test_translation_length_anchors(splitting_name, text, expected):
    splitting = getattr(fx, splitting_name)()
    assert vol.translation_length(splitting, P(text)) == expected
    assert oracles.translation_length(splitting, P(text)) == expected


def test_translation_length_in_transformed_splitting():
    pair = fx.pair_with_single_step()
    assert vol.translation_length(pair.second, P("aCCbc")) == 4
    assert vol.translation_length(pair.second, P("c")) == 2


def test_free_volume_of_product_generator():
    # <ac> against the amalgam over ab: two edges with trivial stabilizer.
    report = vol.analyze(fx.amalgam_over_ab(), [P("ac")])
    assert report.free_volume == 2
    assert oracles.translation_length(fx.amalgam_over_ab(), P("ac")) == 2
    assert all(chain.simply_connected for chain in report.chains if chain.essential)


def test_elliptic_word_has_closed_chain():
    report = vol.analyze(fx.amalgam_over_c(), [P("c")])
    assert report.free_volume == 0


def test_free_volume_of_rank_two_subgroup():
    assert vol.free_volume(fx.amalgam_over_c(), [P("a"), P("baB")]) == 2


def test_power_linearity():
    splitting = fx.amalgam_over_c()
    for text in ("ab", "cababbc", "aCCbc"):
        base = vol.translation_length(splitting, P(text))
        for n in (2, 3, 4):
            assert vol.translation_length(splitting, P(text) * n) == n * base


def test_report_json_schema():
    payload = vol.analyze(fx.amalgam_over_c(), [P("ab")]).to_json()
    assert payload["schema"] == "freevol/1"
    assert payload["free_volume"] == 2


def test_lambda_graph_of_cyclic_subgroup_is_circle():
    graph = vol.lambda_graph(fx.amalgam_over_c(), [P("aCCbc")])
    assert st_mod.rank(graph) == 1
    degrees = {}
    for source, target, _label in graph.edges:
        degrees[source] = degrees.get(source, 0) + 1
        degrees[target] = degrees.get(target, 0) + 1
    assert all(d == 2 for d in degrees.values())


def test_oracle_agreement_on_sample():
    splittings = [fx.amalgam_over_c(), fx.amalgam_over_ab(), fx.hnn_over_commutator()]
    for splitting in splittings:
        for cyclic in enumerate_cyclic_classes(3, 4):
            assert vol.translation_length(
                splitting, cyclic.letters
            ) == oracles.translation_length(splitting, cyclic.letters)


def test_bilipschitz_sample_smoke():
    pair = fx.pair_with_sixth_power()
    report = oracles.bilipschitz_sample(pair.first, pair.second, 40, 8, seed=5)
    assert report["samples"] > 0
    assert report["min_ratio"] is not None and report["min_ratio"] > 0
    assert report["max_ratio"] >= report["min_ratio"]

import pytest

import fixtures as fx
from freevol import splittings as sp
from freevol.errors import BudgetExceeded, InvalidSplitting
from freevol.words import (
    compose,
    invert,
    power,
    render_word,
)

B3 = fx.B3
P = fx.w3


def R(word):
    return render_word(word, B3)


def test_validate_fixtures():
    for splitting in (
        fx.amalgam_over_c(),
        fx.amalgam_over_ab(),
        fx.hnn_over_commutator(),
        fx.certified_filling_pair().second,
    ):
        assert sp.validate(splitting)
        assert sp.diagnostics(splitting) == []


def test_validate_rejects_divisible_edge_word():
    bad = sp.CyclicSplitting(
        kind=sp.AMALGAM,
        ambient_basis=B3,
        relative_basis=(P("a"), P("c"), P("b")),
        a_part=(1, 2),
        edge_word=(2, 2),
        b0_part=(3,),
    )
    assert not sp.validate(bad)
    with pytest.raises(InvalidSplitting):
        sp.require_valid(bad)


def test_validate_rejects_non_basis():
    bad = sp.CyclicSplitting(
        kind=sp.AMALGAM,
        ambient_basis=B3,
        relative_basis=(P("a"), P("a"), P("b")),
        a_part=(1, 2),
        edge_word=(2,),
        b0_part=(3,),
    )
    assert not sp.validate(bad)


@pytest.mark.parametrize("relative_basis", [("ab", "ab", "c"), ("1", "ab", "c")])
def test_diagnostics_name_a_relative_basis_that_is_not_a_basis(relative_basis):
    bad = sp.CyclicSplitting(
        kind=sp.AMALGAM,
        ambient_basis=B3,
        relative_basis=tuple(P(w) for w in relative_basis),
        a_part=(1, 2),
        edge_word=(1, 2),
        b0_part=(3,),
    )
    assert sp.diagnostics(bad) == ["relative basis is not a basis"]


def test_amalgam_twist_conjugates_one_side():
    twist = sp.dehn_twist(fx.amalgam_over_c())
    assert [R(w) for w in twist.images] == ["a", "cbC", "c"]


def test_hnn_twist_multiplies_stable_letter():
    twist = sp.dehn_twist(fx.hnn_over_commutator())
    assert [R(w) for w in twist.images] == ["a", "b", "abABc"]


def test_twist_powers_compose():
    splitting = fx.amalgam_over_c()
    assert sp.dehn_twist(splitting, 3) == power(sp.dehn_twist(splitting), 3)


FIXTURE_SPLITTINGS = {
    "amalgam_over_c": fx.amalgam_over_c(),
    "amalgam_over_ab": fx.amalgam_over_ab(),
    "hnn_over_commutator": fx.hnn_over_commutator(),
    "sixth_power_second": fx.pair_with_sixth_power().second,
    "single_step_second": fx.pair_with_single_step().second,
    "certified_first": fx.certified_filling_pair().first,
    "certified_second": fx.certified_filling_pair().second,
    "mirror_second": fx.mirror_filling_pair().second,
}


@pytest.mark.parametrize("name", sorted(FIXTURE_SPLITTINGS))
def test_twist_power_closed_form_matches_iterated_power(name):
    splitting = FIXTURE_SPLITTINGS[name]
    twist = sp.dehn_twist(splitting)
    for n in range(-7, 13):
        assert sp.dehn_twist(splitting, n) == power(twist, n), n


@pytest.mark.parametrize("name", sorted(FIXTURE_SPLITTINGS))
def test_twist_letter_budget_covers_what_is_built(name, monkeypatch):
    splitting = FIXTURE_SPLITTINGS[name]
    for n in (-40, -1, 1, 3, 40):
        built = sum(map(len, sp.dehn_twist(splitting, n).images))
        monkeypatch.setattr(sp, "LETTER_BUDGET", max(built, abs(n) * len(splitting.edge_word)) - 1)
        with pytest.raises(BudgetExceeded, match=f"power {n} needs up to"):
            sp.dehn_twist(splitting, n)
        monkeypatch.undo()


def test_twist_over_the_letter_budget_names_the_letters_needed(monkeypatch):
    splitting = fx.pair_with_sixth_power().second
    monkeypatch.setattr(sp, "LETTER_BUDGET", 8545)
    assert sum(map(len, sp.dehn_twist(splitting, 100).images)) == 8467
    monkeypatch.setattr(sp, "LETTER_BUDGET", 8544)
    with pytest.raises(BudgetExceeded, match="needs up to 8545 letters, over the budget of 8544"):
        sp.dehn_twist(splitting, 100)


def test_vertex_groups():
    assert [[R(w) for w in g] for g in sp.vertex_groups(fx.amalgam_over_c())] == [
        ["a", "c"],
        ["c", "b"],
    ]
    assert [[R(w) for w in g] for g in sp.vertex_groups(fx.hnn_over_commutator())] == [
        ["a", "b", "CabABc"]
    ]


def test_transform_is_right_action():
    splitting = fx.amalgam_over_c()
    phi = fx.cycling_automorphism()
    psi = invert(phi)
    assert sp.transform(splitting, compose(phi, psi)) == sp.transform(
        sp.transform(splitting, phi), psi
    )


def test_transform_edge_word():
    pair = fx.pair_with_sixth_power()
    assert R(pair.first.edge_word_ambient()) == "c"
    assert R(pair.second.edge_word_ambient()) == "cababbc"


def test_relative_coordinates_roundtrip():
    pair = fx.pair_with_sixth_power()
    word = P("aCCbc")
    roundtrip = sp.from_relative(pair.second, sp.to_relative(pair.second, word))
    assert roundtrip == word


def test_transform_convention():
    # Pulling back along phi^-1 carries the edge word forward: the
    # transformed splitting's edge element is phi(c).
    base = fx.amalgam_over_c()
    phi = fx.cycling_automorphism()
    pulled = sp.transform(base, invert(phi))
    assert R(pulled.edge_word_ambient()) == "ab"
    # Pulling back along phi itself carries it backward: phi^-1(c) = b.
    pushed = sp.transform(base, phi)
    assert R(pushed.edge_word_ambient()) == "b"
    assert sp.to_relative(pushed, P("ab")) == (3, 2)


def test_json_roundtrip():
    for splitting in (fx.amalgam_over_c(), fx.hnn_over_commutator()):
        payload = sp.to_json(splitting)
        assert payload["schema"] == "freevol/1"
        assert sp.from_json(payload) == splitting
        assert sp.loads(sp.dumps(splitting)) == splitting


def test_marked_pair_requires_same_basis():
    with pytest.raises(InvalidSplitting):
        sp.MarkedPair(
            fx.amalgam_over_c(),
            sp.CyclicSplitting(
                kind=sp.AMALGAM,
                ambient_basis=fx.B2,
                relative_basis=(fx.w2("a"), fx.w2("b")),
                a_part=(1,),
                edge_word=(1,),
                b0_part=(2,),
            ),
        )

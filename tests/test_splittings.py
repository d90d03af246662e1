from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fixtures as fx
from freevol import splittings as sp
from freevol.errors import BudgetExceeded, InvalidSplitting
from freevol.words import (
    Basis,
    compose,
    invert,
    power,
    reduce_word,
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
        # Building a copy checks the normal form again, and finds nothing.
        assert replace(splitting) == splitting


def test_validate_rejects_divisible_edge_word():
    with pytest.raises(InvalidSplitting) as refused:
        sp.CyclicSplitting(
            kind=sp.AMALGAM,
            ambient_basis=B3,
            relative_basis=(P("a"), P("c"), P("b")),
            a_part=(1, 2),
            edge_word=(2, 2),
            b0_part=(3,),
        )
    assert refused.value.diagnostics == ["edge word is a proper power"]


def test_validate_rejects_non_basis():
    with pytest.raises(InvalidSplitting) as refused:
        sp.CyclicSplitting(
            kind=sp.AMALGAM,
            ambient_basis=B3,
            relative_basis=(P("a"), P("a"), P("b")),
            a_part=(1, 2),
            edge_word=(2,),
            b0_part=(3,),
        )
    assert refused.value.diagnostics == ["relative basis is not a basis"]


@pytest.mark.parametrize("relative_basis", [("ab", "ab", "c"), ("1", "ab", "c")])
def test_diagnostics_name_a_relative_basis_that_is_not_a_basis(relative_basis):
    with pytest.raises(InvalidSplitting) as refused:
        replace(fx.amalgam_over_ab(), relative_basis=tuple(P(w) for w in relative_basis))
    assert refused.value.diagnostics == ["relative basis is not a basis"]


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
    # A valid rank-2 splitting, so that the pair's own basis check refuses it.
    rank_two = sp.CyclicSplitting(
        kind=sp.HNN,
        ambient_basis=fx.B2,
        relative_basis=(fx.w2("a"), fx.w2("b")),
        a_part=(1,),
        edge_word=(1,),
        stable_index=2,
    )
    with pytest.raises(InvalidSplitting) as refused:
        sp.MarkedPair(fx.amalgam_over_c(), rank_two)
    assert refused.value.diagnostics == ["paired splittings must share the same ambient basis"]


def _standard_splittings():
    """An HNN splitting at each rank 2-5 and an amalgam at each rank 3-5, in standard letters."""
    for rank in range(2, 6):
        basis = Basis.standard(rank)
        letters = tuple((i,) for i in range(1, rank + 1))
        vertex = tuple(range(1, rank))
        yield sp.CyclicSplitting(sp.HNN, basis, letters, vertex, vertex, stable_index=rank)
        if rank > 2:
            yield sp.CyclicSplitting(sp.AMALGAM, basis, letters, vertex, vertex, b0_part=(rank,))


BASE_SPLITTINGS = [*fx.fixture_splittings().values(), *_standard_splittings()]


def field_changes(splitting):
    """Replacements for any of the fields of ``splitting`` that ``from_json`` reads."""
    k = splitting.rank
    letter = st.integers(1, k).flatmap(lambda i: st.sampled_from((i, -i)))
    word = st.lists(letter, max_size=6).map(tuple)
    indices = st.lists(st.integers(0, k + 1), max_size=k + 1).map(tuple)
    relative_basis = st.one_of(
        st.just(splitting.relative_basis[:-1]),
        st.just(splitting.relative_basis[:1] * k),
        st.tuples(st.integers(0, k - 1), word.map(reduce_word)).map(
            lambda change: tuple(
                change[1] if i == change[0] else image for i, image in enumerate(splitting.relative_basis)
            )
        ),
    )
    optional = {
        "kind": st.sampled_from((sp.AMALGAM, sp.HNN, "graph")),
        "relative_basis": relative_basis,
        "a_part": indices,
        "b0_part": indices,
        "stable_index": st.one_of(st.none(), st.integers(0, k + 1)),
        "edge_word": st.tuples(word, st.integers(1, 3)).map(lambda power: power[0] * power[1]),
    }
    return st.fixed_dictionaries({}, optional=optional)


def _unchecked(values):
    """A CyclicSplitting holding ``values``, built without the constructor's check."""
    splitting = object.__new__(sp.CyclicSplitting)
    for field in fields(sp.CyclicSplitting):
        object.__setattr__(splitting, field.name, values.get(field.name, field.default))
    return splitting


def _normal_form_problems(values):
    """What ``_diagnostics`` finds in ``values``: the list that ``diagnostics`` returned when it was public."""
    return list(sp._diagnostics.__wrapped__(_unchecked(values)))


def _refusal(build):
    """The diagnostics of the InvalidSplitting that ``build()`` raises, or [] when it builds."""
    try:
        build()
    except InvalidSplitting as refused:
        return refused.diagnostics
    return []


@given(data=st.data())
def test_construction_refuses_exactly_what_the_normal_form_check_refuses(data):
    """``transform`` never raises, and each way to build a splitting refuses only what ``_diagnostics`` finds."""
    base = data.draw(st.sampled_from(BASE_SPLITTINGS))
    moved = sp.transform(base, data.draw(fx.nielsen_automorphisms(base.rank)))
    changes = data.draw(field_changes(moved))
    values = {field.name: getattr(moved, field.name) for field in fields(moved)} | changes
    expected = _normal_form_problems(values)
    assert _refusal(lambda: sp.CyclicSplitting(**values)) == expected
    assert _refusal(lambda: replace(moved, **changes)) == expected

    basis = moved.ambient_basis
    payload = {
        "schema": "freevol/1",
        "kind": values["kind"],
        "ambient_rank": basis.rank,
        "relative_basis": [render_word(image, basis) for image in values["relative_basis"]],
        "a_part": list(values["a_part"]),
        "edge_word": render_word(values["edge_word"], basis),
        "b0_part": list(values["b0_part"]),
        "stable_index": values["stable_index"],
    }
    # from_json reduces the words it parses, and reads b0_part only for an amalgam, stable_index only for HNN.
    parsed = values | {
        "relative_basis": tuple(map(reduce_word, values["relative_basis"])),
        "edge_word": reduce_word(values["edge_word"]),
        "b0_part": values["b0_part"] if values["kind"] == sp.AMALGAM else (),
        "stable_index": values["stable_index"] if values["kind"] == sp.HNN else None,
    }
    assert _refusal(lambda: sp.from_json(payload)) == _normal_form_problems(parsed)

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures as fx
import oracles
from freevol import stallings as st_mod
from freevol import twisting as tw
from freevol import volume as vol
from freevol.errors import InvalidSplitting
from freevol.splittings import HNN, dehn_twist, from_relative, to_relative, vertex_groups
from freevol.words import (
    Automorphism,
    apply,
    concat,
    conjugate,
    cyclically_reduce,
    enumerate_cyclic_classes,
    invert_word,
    reduce_word,
    render_word,
)

B3 = fx.B3
P = fx.w3
SPLITTINGS = fx.fixture_splittings()
# <BABCA, abAbc> in the HNN splitting over ab: the chain pipeline counted 3
# free edges before the splitting's own twist and 2 after it.
MENDED_GENS = [P("BABCA"), P("abAbc")]

words = st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), min_size=1, max_size=6)
reduced = words.map(reduce_word).filter(bool)
subgroups = st.lists(reduced, min_size=1, max_size=3)


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


def test_report_lists_essential_singleton_chains():
    # <ab> against the amalgam over c: no vertex lifts c, and each vertex
    # is a free edge of the quotient, so both count as singleton chains.
    report = vol.analyze(fx.amalgam_over_c(), [P("ab")])
    assert [chain.chain_vertices for chain in report.chains] == [(0,), (1,)]
    assert all(chain.essential and chain.simply_connected for chain in report.chains)
    dot = vol.to_dot(report, fx.amalgam_over_c())
    assert dot.count("fillcolor=black") == 2


@pytest.mark.parametrize("name", SPLITTINGS)
def test_volume_dot_labels_edges_by_relative_generators(name):
    # amalgam_over_c's relative basis is (a, c, b): its second relative
    # letter reads c, not b.  Transformed splittings have words there.
    splitting = SPLITTINGS[name]
    for generator in splitting.relative_basis:
        text = render_word(generator, B3)
        dot = vol.to_dot(vol.analyze(splitting, [generator]), splitting)
        assert dot.splitlines()[2:] == [f'  v0 -> v0 [label="{text}"];', "}"]


def test_lambda_graph_of_cyclic_subgroup_is_circle():
    graph = vol.lambda_graph(fx.amalgam_over_c(), [P("aCCbc")])
    assert st_mod.rank(graph) == 1
    degrees = {}
    for source, target, _label in graph.edges:
        degrees[source] = degrees.get(source, 0) + 1
        degrees[target] = degrees.get(target, 0) + 1
    assert all(d == 2 for d in degrees.values())


def test_oracle_agreement_on_sample():
    classes = list(enumerate_cyclic_classes(3, 6))
    for splitting in SPLITTINGS.values():
        for cyclic in classes:
            assert vol.translation_length(
                splitting, cyclic.letters
            ) == oracles.translation_length(splitting, cyclic.letters)


def _power(word, n):
    return word * n if n >= 0 else invert_word(word) * -n


@st.composite
def planted_relative_words(draw, splitting):
    """Separators with gaps x c^j y between them, x and y short A-words, often empty.

    Half the gaps open with the inverse separator and close with the
    separator, so for an HNN splitting they are pinches t^-1 c^j t when x
    and y are empty.  The word is reduced, in the splitting's relative
    letters.
    """
    c = splitting.edge_word
    a_word = st.lists(st.sampled_from([x for i in splitting.a_part for x in (i, -i)]), max_size=2)
    separators = [splitting.stable_index] if splitting.kind == HNN else list(splitting.b0_part)
    letters = []
    for _ in range(draw(st.integers(1, 5))):
        s = draw(st.sampled_from(separators))
        j = draw(st.integers(-2, 2))
        gap = [*draw(a_word), *_power(c, j), *draw(a_word)]
        if draw(st.booleans()):
            letters += [-s, *gap, s]
        else:
            letters += [draw(st.sampled_from((s, -s))), *gap]
    return reduce_word(letters)


def planted_words(splitting):
    """``planted_relative_words``, in ambient letters."""
    return planted_relative_words(splitting).map(lambda word: from_relative(splitting, word))


@st.composite
def twisted_words(draw):
    """T^n(g) for a random word g, a fixture splitting's twist T and |n| <= 64."""
    twist = dehn_twist(draw(st.sampled_from(list(SPLITTINGS.values()))), draw(st.integers(-64, 64)))
    return apply(twist, draw(reduced))


@pytest.mark.parametrize("name", SPLITTINGS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_translation_length_equals_the_fold_and_the_oracle(name, data):
    splitting = SPLITTINGS[name]
    word = data.draw(st.one_of(reduced, planted_words(splitting), twisted_words()))
    core, _ = cyclically_reduce(word)
    folded = vol.free_volume(splitting, [core]) if core else 0
    assert vol.translation_length(splitting, word) == folded == oracles.translation_length(splitting, word)


@pytest.mark.parametrize("name", SPLITTINGS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_elliptic_words_have_translation_length_zero(name, data):
    splitting = SPLITTINGS[name]
    conjugator = data.draw(words.map(reduce_word))
    for group in vertex_groups(splitting):
        pieces = data.draw(st.lists(st.sampled_from([*group, *map(invert_word, group)]), max_size=4))
        word = conjugate(concat(*pieces), conjugator)
        assert vol.translation_length(splitting, word) == 0
        assert oracles.translation_length(splitting, word) == 0


@pytest.mark.parametrize(
    "changes, diagnostics",
    [
        ({"edge_word": (2, 2)}, ["edge word is a proper power"]),
        ({"relative_basis": (P("a"), P("a"), P("b"))}, ["relative basis is not a basis"]),
        (
            {"b0_part": ()},
            ["A-part and B0-part must partition the relative letters", "A-part and B0-part must both be nonempty"],
        ),
    ],
)
def test_translation_length_refuses_an_invalid_splitting(changes, diagnostics):
    """No length is measured on an invalid splitting: it cannot be built."""
    with pytest.raises(InvalidSplitting) as refused:
        replace(fx.amalgam_over_c(), **changes)
    assert refused.value.diagnostics == diagnostics


@pytest.mark.parametrize("name", SPLITTINGS)
def test_chain_oracle_agrees_on_cyclic_classes(name):
    splitting = SPLITTINGS[name]
    for cyclic in enumerate_cyclic_classes(3, 5):
        gens = [cyclic.letters]
        assert vol.free_volume(splitting, gens) == oracles.chain_free_volume(splitting, gens)


def test_free_volume_survives_the_twist_that_broke_the_chain_count():
    splitting = fx.certified_filling_pair().first
    twisted = [apply(dehn_twist(splitting, 1), g) for g in MENDED_GENS]
    assert oracles.chain_free_volume(splitting, MENDED_GENS) == 3
    assert vol.free_volume(splitting, MENDED_GENS) == 2
    assert vol.free_volume(splitting, twisted) == 2


def test_growth_bounds_hold_where_the_chain_count_broke_them():
    pair = fx.certified_filling_pair()
    consts = tw.constants(2, pair.first, pair.second)
    report = tw.check_volume_growth_bounds(
        pair.first, pair.second, MENDED_GENS, 64, consts, rank_bound=2
    )
    assert report["all_ok"]
    assert report["vol1"] == 2
    observed = [report["bounds"][f"twist_power_{n}"]["observed"] for n in (64, -64)]
    assert observed == [264, 262]


def _assert_same_volume(splitting, gens, moved):
    assert vol.free_volume(splitting, moved) == vol.free_volume(splitting, gens)


@pytest.mark.parametrize("name", SPLITTINGS)
@settings(max_examples=40, deadline=None)
@given(gens=subgroups, n=st.integers(1, 5), sign=st.sampled_from((1, -1)))
def test_free_volume_is_invariant_under_the_splittings_twist(name, gens, n, sign):
    splitting = SPLITTINGS[name]
    twist = dehn_twist(splitting, sign * n)
    _assert_same_volume(splitting, gens, [apply(twist, g) for g in gens])


@pytest.mark.parametrize("name", ["amalgam_over_c", "amalgam_over_ab"])
@settings(max_examples=60, deadline=None)
@given(
    gens=subgroups,
    exponents=st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    signs=st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))),
)
def test_free_volume_is_invariant_under_vertex_group_automorphisms(name, gens, exponents, signs):
    """x -> e^i x^+-1 e^j and y -> e^k y^+-1 e^l, with the edge word e fixed.

    The vertex groups are <e, x> and <e, y>: x = a and y = b over e = c for
    amalgam_over_c, x = b and y = c over e = ab for amalgam_over_ab (so a,
    which is e b^-1, goes to e x'^-1).  Each map is an automorphism of one
    vertex group that fixes the edge word, so together they act on the
    Bass-Serre tree by an isometry, which keeps the quotient graph of groups.
    """
    i, j, k, l = exponents
    edge, x, y = ((3,), 1, 2) if name == "amalgam_over_c" else ((1, 2), 2, 3)
    images = {
        x: concat(_power(edge, i), (signs[0] * x,), _power(edge, j)),
        y: concat(_power(edge, k), (signs[1] * y,), _power(edge, l)),
    }
    if name == "amalgam_over_ab":
        images[1] = concat(edge, invert_word(images[2]))
    else:
        images[3] = edge
    phi = Automorphism(B3, (images[1], images[2], images[3]))
    assert apply(phi, edge) == edge
    _assert_same_volume(getattr(fx, name)(), gens, [apply(phi, g) for g in gens])


@pytest.mark.parametrize("name", SPLITTINGS)
@settings(max_examples=40, deadline=None)
@given(gens=subgroups, conjugator=reduced)
def test_free_volume_is_invariant_under_conjugation(name, gens, conjugator):
    splitting = SPLITTINGS[name]
    _assert_same_volume(splitting, gens, [conjugate(g, conjugator) for g in gens])


@pytest.mark.parametrize("name", SPLITTINGS)
@settings(max_examples=40, deadline=None)
@given(gens=subgroups, power=st.integers(-2, 2).filter(bool))
def test_free_volume_is_invariant_under_conjugation_by_the_edge_word(name, gens, power):
    splitting = SPLITTINGS[name]
    edge = splitting.edge_word_ambient()
    conjugator = edge * power if power > 0 else invert_word(edge) * -power
    _assert_same_volume(splitting, gens, [conjugate(g, conjugator) for g in gens])


@pytest.mark.parametrize("name", SPLITTINGS)
@settings(max_examples=40, deadline=None)
@given(gens=st.lists(reduced, min_size=2, max_size=3), data=st.data())
def test_free_volume_is_invariant_under_nielsen_moves(name, gens, data):
    splitting = SPLITTINGS[name]
    i, j = data.draw(st.permutations(range(len(gens))))[:2]
    factor = data.draw(st.sampled_from((gens[j], invert_word(gens[j]))))
    moved = list(gens)
    moved[i] = reduce_word(factor + gens[i] if data.draw(st.booleans()) else gens[i] + factor)
    _assert_same_volume(splitting, gens, moved)


def test_bilipschitz_sample_smoke():
    pair = fx.pair_with_sixth_power()
    report = oracles.bilipschitz_sample(pair.first, pair.second, 40, 8, seed=5)
    assert report["samples"] > 0
    assert report["min_ratio"] is not None and report["min_ratio"] > 0
    assert report["max_ratio"] >= report["min_ratio"]


# ---------------------------------------------------------------------------
# relative_volume shortens Gamma's arcs; analyze counts on the full table.

PAIRS = ["certified_filling_pair", "mirror_filling_pair", "pair_with_single_step", "pair_with_sixth_power"]


def _full_count(splitting, gens):
    """The free volume of relative generators, counted by ``analyze`` on the unshortened table."""
    return vol.analyze(splitting, [from_relative(splitting, g) for g in gens]).free_volume


def _twisted(pair, swapped, gens, n):
    first, second = (pair.second, pair.first) if swapped else (pair.first, pair.second)
    return second, tw._twisted_words(first, second, [to_relative(first, g) for g in gens], n)


@pytest.mark.parametrize("name", SPLITTINGS)
@settings(deadline=None)
@given(data=st.data())
def test_shortened_volume_equals_the_full_count(name, data):
    """1-4 planted generators, conjugated by a planted word half the time, so that arcs meet
    at branch vertices in every way."""
    splitting = SPLITTINGS[name]
    word = planted_relative_words(splitting).filter(bool)
    gens = data.draw(st.lists(word, min_size=1, max_size=4))
    if data.draw(st.booleans()):
        h = data.draw(word)
        gens = [reduce_word(h + g + invert_word(h)) for g in gens]
    assert vol.relative_volume(splitting, gens) == _full_count(splitting, gens)


@settings(deadline=None)
@given(
    pair=st.sampled_from(PAIRS),
    swapped=st.booleans(),
    gens=st.lists(reduced, min_size=1, max_size=3),
    n=st.integers(1, 128),
    sign=st.sampled_from((1, -1)),
)
def test_shortened_volume_equals_the_full_count_on_twisted_words(pair, swapped, gens, n, sign):
    """T^(+-n) of 1-3 generators by a fixture pair's twist, in the other splitting's letters."""
    splitting, words = _twisted(getattr(fx, pair)(), swapped, gens, sign * n)
    assert vol.relative_volume(splitting, words) == _full_count(splitting, words)


# amalgam_over_c's relative letters are a = 1, c = 2 (the edge word) and
# b = 3 (B0); the HNN splitting over ab has a = 1, b = 2 and t = 3.
BAR = (3, 1, 3, 1, 3, 1)
HNN_BAR = (3, 1, -3, 2, 3, 1)


@pytest.mark.parametrize(
    "splitting_name, gens, cut",
    [
        # A loop arc b c b c B c at one branch vertex: r = 0, and the kept
        # separators b, B are inverse, so c stands in for c b c.
        ("amalgam_over_c", [(1,), (3, 2, 3, 2, -3, 2)], 0),
        # The same with b, b kept: the stand-in is empty.
        ("amalgam_over_c", [(1,), (3, 2, 3, 2, 3, 2)], 0),
        # T ab t a T ab t b: two pinches and nothing else, d = 0, so ab stands in.
        ("certified_filling_pair().first", [(1,), (-3, 1, 2, 3, 1, -3, 1, 2, 3, 2)], 0),
        # t a T ab t b: one pinch in three separators, d = 1; x = a stands in
        # for a T ab, and the arc's one free edge becomes two.
        ("certified_filling_pair().first", [(1,), (3, 1, -3, 1, 2, 3, 2)], -1),
        # A barbell: loops at both ends of the bridge b a b a b a, whose
        # middle a b a holds r = 2 gaps a and becomes one.
        ("amalgam_over_c", [(1, 3, 1, 3), BAR + (3, 1, 3, 2) + invert_word(BAR)], 2),
        # The bridge t a T b t a: d = 3 with no pinch.
        ("certified_filling_pair().first", [(1, 3, 1, 3), HNN_BAR + (3, 2, 3, 2) + invert_word(HNN_BAR)], 1),
    ],
)
def test_shortening_anchors(splitting_name, gens, cut):
    splitting = SPLITTINGS[splitting_name]
    links = st_mod.fold_generators(gens, keep_basepoint=False)
    size = len(links)
    assert vol._shorten(splitting, links) == cut
    assert len(links) < size
    assert vol.relative_volume(splitting, gens) == _full_count(splitting, gens)


def test_shortened_volume_equals_the_full_count_on_the_benchmark_families():
    """``twist_growth`` compares a family's ops only with each other; here each is counted
    twice, on the shortened and on the full table."""
    for pair, gens in fx.benchmark_families():
        for n in (16, 32, 64, 128):
            for power in (n, -n):
                splitting, words = _twisted(pair, False, gens, power)
                assert vol.relative_volume(splitting, words) == _full_count(splitting, words)


def test_quotient_table_does_not_grow_with_the_twist_power(monkeypatch):
    quotient = vol._quotient
    sizes = []

    def measured(splitting, links):
        sizes[-1] = max(sizes[-1], len(links))
        return quotient(splitting, links)

    monkeypatch.setattr(vol, "_quotient", measured)
    for pair, gens in fx.benchmark_families():
        for n in (16, 128):
            sizes.append(0)
            for power in (n, -n):
                vol.relative_volume(*_twisted(pair, False, gens, power))
        assert sizes[-1] <= sizes[-2]

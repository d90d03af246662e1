
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures as fx
import oracles
from freevol import filling as fl
from freevol.splittings import MarkedPair, vertex_groups
from freevol.stallings import subgroup_graph
from freevol.words import (
    Automorphism,
    Basis,
    CyclicWord,
    apply_cyclic,
    compose,
    parse_word,
    reduce_word,
    render_word,
)

B2 = fx.B2
B3 = fx.B3
P = fx.w3


def classes(basis, texts):
    return [CyclicWord.of(parse_word(t, basis)) for t in texts]


def test_whitehead_graph_edges():
    # Cyclic word ab: adjacencies a.b and b.a give edges {a^-1, b}, {b^-1, a}.
    graph = fl.whitehead_graph(classes(B2, ["ab"]), 2)
    assert len(graph.edges) == 2
    assert not graph.is_connected()


def test_minimize_single_letter_is_stable():
    minimized, total, log = fl.whitehead_minimize(classes(B3, ["a"]), 3)
    assert total == 1
    assert log == ()
    assert [render_word(c.letters, B3) for c in minimized] == ["a"]


def test_minimize_commutator_rank2():
    minimized, total, _log = fl.whitehead_minimize(classes(B2, ["abAB"]), 2)
    assert total == 4  # the commutator class is already minimal


def test_commutator_fills_rank2():
    ok, evidence = fl.cut_vertex_check(classes(B2, ["abAB"]), 2)
    assert ok
    assert evidence.criterion == fl.WHITEHEAD_CRITERION
    assert evidence.connected is True
    assert evidence.cut_vertex is None


def test_two_letters_in_rank3_do_not_fill():
    ok, evidence = fl.cut_vertex_check(classes(B3, ["a", "b"]), 3)
    assert not ok
    assert evidence.connected is False


@pytest.mark.parametrize(
    "rank, edges, cut",
    [
        # The word aab: the path b - A - a - B, cut at the search's root a and at A.
        (2, fl.whitehead_graph(classes(B2, ["aab"]), 2).edges, 1),
        # A star at the root a.
        (2, ((1, -1), (1, 2), (1, -2)), 1),
        # The path a - A - b - B: the search confirms b first, but A is less.
        (2, ((1, -1), (-1, 2), (2, -2)), -1),
        # Rank 3: the path a - c - B - A - b - C with cuts c, B, A, b; a is the root.
        (3, ((1, 3), (3, -2), (-2, -1), (-1, 2), (2, -3)), -1),
        # A cycle through every letter has none; a disconnected graph reports none.
        (2, ((1, -1), (-1, 2), (2, -2), (-2, 1)), None),
        (2, fl.whitehead_graph(classes(B2, ["ab"]), 2).edges, None),
        (3, ((1, -1), (1, 2), (1, -2)), None),
    ],
)
def test_cut_vertex_is_least_in_letter_order(rank, edges, cut):
    graph = fl.WhiteheadGraph(rank=rank, edges=tuple(edges))
    assert graph.cut_vertex() == cut
    assert oracles.cut_vertex(graph) == cut


def test_check_f2_equals_oracle_pullbacks():
    base = fx.amalgam_over_c()
    pairs = [
        fx.pair_with_sixth_power(),
        fx.pair_with_single_step(),
        fx.certified_filling_pair(),
        fx.mirror_filling_pair(),
        MarkedPair(base, base),
    ]
    for pair in pairs:
        cores1, cores2 = (
            [subgroup_graph(pair.ambient_basis, gens, keep_basepoint=False) for gens in vertex_groups(s)]
            for s in (pair.first, pair.second)
        )
        expected = [
            {"vertex_group_1": i, "vertex_group_2": j, "component_ranks": oracles.pullback_ranks(core1, core2)}
            for i, core1 in enumerate(cores1)
            for j, core2 in enumerate(cores2)
        ]
        ok, evidence = fl.check_f2(pair)
        assert evidence.to_json() == {"pullbacks": expected}
        assert ok == all(r == 0 for item in expected for r in item["component_ranks"])


def test_check_f2_on_pulled_back_pair():
    pair = fx.pair_with_sixth_power()
    ok, evidence = fl.check_f2(pair)
    assert ok
    assert all(
        all(rank == 0 for rank in item.component_ranks)
        for item in evidence.pullbacks
    )


def test_check_f2_fails_on_identical_pair():
    base = fx.amalgam_over_c()
    certificate = fl.check_filling(MarkedPair(base, base))
    assert certificate.f2 is False
    assert certificate.fills is False
    assert certificate.verdict == "not_filling"


def test_check_f3_witness_on_pulled_back_pair():
    pair = fx.pair_with_sixth_power()
    ok, evidence = fl.check_f3(pair)
    assert not ok
    assert evidence.minimized_classes == ("c", "b")


def test_unknown_verdict_when_only_f3_fails():
    certificate = fl.check_filling(fx.pair_with_sixth_power())
    assert certificate.f2 is True
    assert certificate.f3 is False
    assert certificate.fills is None
    assert certificate.verdict == "unknown"
    assert certificate.witness == ("c", "b")
    payload = certificate.to_json()
    assert payload["schema"] == "freevol/1"


def test_filling_pair_certified():
    for pair in (fx.certified_filling_pair(), fx.mirror_filling_pair()):
        certificate = fl.check_filling(pair)
        assert certificate.fills is True
        assert certificate.verdict == "fills"


def test_check_f1_for_discharges_witness_subgroup():
    pair = fx.pair_with_sixth_power()
    ok, evidence = fl.check_f1_for(pair, [P("c"), P("cababbc")])
    assert ok
    assert evidence == {"vol_1": 3, "vol_2": 2}


# ---------------------------------------------------------------------------
# Whitehead descent by minimum cuts


@st.composite
def class_lists(draw, ranks=(2, 3, 4), max_len=10):
    """A rank and 1-3 nonempty cyclic classes over it, possibly leaving letters unused."""
    rank = draw(st.sampled_from(ranks))
    letters = st.sampled_from([x for i in range(1, rank + 1) for x in (i, -i)])
    words = st.lists(letters, min_size=1, max_size=max_len).map(
        lambda w: CyclicWord.of(reduce_word(w))
    )
    found = draw(st.lists(words.filter(lambda c: c.letters), min_size=1, max_size=3))
    return rank, found


def total(found):
    return sum(len(c.letters) for c in found)


def cut_capacity(cap, side):
    return sum(n for u in side for v, n in cap[u].items() if v not in side)


@given(class_lists())
@settings(max_examples=40, deadline=None)
def test_move_changes_length_by_cut_minus_degree(example):
    rank, found = example
    cap = fl._cut_graph(found, rank)
    for a, side, phi in oracles.whitehead_moves(rank):
        moved = [apply_cyclic(phi, c) for c in found]
        change = cut_capacity(cap, set(side)) - sum(cap[a].values())
        assert total(moved) - total(found) == change


@given(class_lists())
@settings(max_examples=100, deadline=None)
def test_minimize_equals_exhaustive_descent(example):
    rank, found = example
    assert fl.whitehead_minimize(found, rank) == oracles.exhaustive_whitehead_minimize(found, rank)


def whitehead_scrambled(rank, text, moves):
    """The class of ``text`` moved by ``moves`` entries of the oracle's move table."""
    table = oracles.whitehead_moves(rank)
    found = CyclicWord.of(parse_word(text, Basis.standard(rank)))
    for i in moves:
        found = apply_cyclic(table[i % len(table)][2], found)
    return found


@pytest.mark.parametrize(
    "rank, texts",
    [
        (5, ["a", "e"]),
        (5, ["abcde", "aBcDe", "d"]),
        (5, ["aabbc", "ccd"]),
        (6, ["abcdef", "a"]),
        (6, ["aBcD", "f"]),
    ],
)
def test_minimize_equals_exhaustive_descent_at_high_rank(rank, texts):
    found = classes(Basis.standard(rank), texts)
    assert fl.whitehead_minimize(found, rank) == oracles.exhaustive_whitehead_minimize(found, rank)


@pytest.mark.parametrize("rank, text, moves", [(3, "abc", [5, 40, 17, 66]), (4, "abdC", [300, 7, 200])])
def test_multi_step_descent_equals_exhaustive_descent(rank, text, moves):
    found = [whitehead_scrambled(rank, text, moves), CyclicWord.of((1,))]
    result = fl.whitehead_minimize(found, rank)
    assert len(result[2]) >= 2
    assert result == oracles.exhaustive_whitehead_minimize(found, rank)


def networkx_cut_graph(cap):
    graph = nx.Graph()
    graph.add_nodes_from(cap)
    for u, row in cap.items():
        for v, count in row.items():
            graph.add_edge(u, v, capacity=count)
    return graph


@given(class_lists(ranks=(2, 3, 4, 5, 6), max_len=14))
@settings(max_examples=40, deadline=None)
def test_improving_side_exists_iff_min_cut_below_degree(example):
    rank, found = example
    cap = fl._cut_graph(found, rank)
    graph = networkx_cut_graph(cap)
    for a in cap:
        degree = sum(cap[a].values())
        below = nx.minimum_cut_value(graph, a, -a) < degree
        assert fl._cut_below(cap, {a}, {-a}, degree) == below
        # Why only positive multipliers are tried: a and a^-1 agree on both.
        assert sum(cap[-a].values()) == degree
        assert fl._cut_below(cap, {-a}, {a}, degree) == below


def test_rank_eight_minimize_is_fast():
    basis = Basis.standard(8)
    # x -> x a for every other generator, then x -> b^-1 x: a descent of many steps.
    right_a = Automorphism(basis, ((1,),) + tuple((g, 1) for g in range(2, 9)))
    left_b = Automorphism(basis, tuple((g,) if g == 2 else (-2, g) for g in range(1, 9)))
    phi = compose(left_b, right_a)
    found = [
        apply_cyclic(phi, CyclicWord.of(parse_word(text, basis)))
        for text in ("abcdefgh", "aBcDeFgH", "hhgfe")
    ]
    start = time.perf_counter()
    _minimized, length, log = fl.whitehead_minimize(found, 8)
    assert time.perf_counter() - start < 1.0
    assert len(log) >= 2 and length <= 21


@st.composite
def whitehead_graphs(draw):
    """A rank of 1-6 and 0-14 edges between its signed letters."""
    rank = draw(st.integers(1, 6))
    letter = st.sampled_from([x for i in range(1, rank + 1) for x in (i, -i)])
    edges = draw(st.lists(st.tuples(letter, letter).filter(lambda e: e[0] != e[1]), max_size=14))
    return fl.WhiteheadGraph(rank=rank, edges=tuple(edges))


@given(whitehead_graphs())
@settings(max_examples=300, deadline=None)
def test_cut_vertex_equals_oracle_on_random_graphs(graph):
    assert graph.is_connected() == oracles.whitehead_connected(graph)
    assert graph.cut_vertex() == oracles.cut_vertex(graph)


@given(class_lists(ranks=(2, 3, 4, 5, 6), max_len=14))
@settings(max_examples=100, deadline=None)
def test_cut_vertex_equals_oracle_on_classes(example):
    rank, found = example
    minimized, _, _ = fl.whitehead_minimize(found, rank)
    for words in (found, minimized):
        graph = fl.whitehead_graph(words, rank)
        assert graph.is_connected() == oracles.whitehead_connected(graph)
        assert graph.cut_vertex() == oracles.cut_vertex(graph)

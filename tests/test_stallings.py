import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures as fx
import oracles
from freevol import stallings as st_mod
from freevol.splittings import dehn_twist, to_relative
from freevol.words import Basis, CyclicWord, apply, invert_word, parse_word, reduce_word

B2 = Basis.standard(2)
B3 = Basis.standard(3)

letters3 = st.sampled_from([1, -1, 2, -2, 3, -3])
words3 = st.lists(letters3, min_size=1, max_size=8).map(lambda w: reduce_word(w))


def graph_of(basis, texts, keep_basepoint=True):
    gens = [parse_word(t, basis) for t in texts]
    return st_mod.subgroup_graph(basis, gens, keep_basepoint=keep_basepoint)


def test_single_loop():
    graph = graph_of(B2, ["a"])
    assert len(graph.vertices) == 1
    assert len(graph.edges) == 1
    assert st_mod.rank(graph) == 1


def test_fold_fixture_rank():
    graph = graph_of(B3, ["abbc", "cababbc"], keep_basepoint=False)
    assert st_mod.rank(graph) == 2


def test_membership():
    graph = graph_of(B2, ["ab", "abba"])
    assert st_mod.contains(graph, parse_word("ab", B2))
    assert st_mod.contains(graph, parse_word("abBAabba", B2))
    assert not st_mod.contains(graph, parse_word("a", B2))
    assert not st_mod.contains(graph, parse_word("b", B2))
    assert st_mod.contains(graph, ())


@given(words3)
@settings(max_examples=50, deadline=None)
def test_cyclic_core_spells_cyclic_reduction(word):
    if not word:
        return
    cyclic = CyclicWord.of(word)
    core = st_mod.subgroup_graph(B3, [word], keep_basepoint=False)
    assert st_mod.rank(core) == 1
    assert len(core.edges) == len(cyclic.letters)
    assert CyclicWord.of(st_mod.cycle_word(core)) in (cyclic, CyclicWord.of(invert_word(word)))


def test_pullback_intersections():
    g1 = graph_of(B2, ["a"], keep_basepoint=False)
    g2 = graph_of(B2, ["aa", "b"], keep_basepoint=False)
    components = st_mod.pullback(g1, g2)
    ranks = sorted(st_mod.rank(c) for c in components)
    assert ranks == [1]  # <a> and <aa, b> meet in <aa>


def test_pullback_trivial_intersection():
    g1 = graph_of(B2, ["a"], keep_basepoint=False)
    g2 = graph_of(B2, ["b"], keep_basepoint=False)
    assert all(st_mod.rank(c) == 0 for c in st_mod.pullback(g1, g2))


def test_malnormality():
    assert st_mod.is_malnormal(graph_of(B2, ["ab"], keep_basepoint=False))
    # <a, bab^-1> is not malnormal (conjugation by b fixes part of it).
    assert not st_mod.is_malnormal(graph_of(B2, ["a", "baB"], keep_basepoint=False))


@pytest.mark.parametrize(
    "texts1, texts2, ranks",
    [
        # <a, b, c^2> and <a, b, c^3> meet in <a, b, c^6>: one component of rank 3.
        (["a", "b", "cc"], ["a", "b", "ccc"], [3]),
        # Two components of positive rank: <a, b> itself and a conjugate of <cc>.
        (["a", "b", "cac"], ["a", "b", "cc"], [1, 2]),
        # Two trees, and no product at all.
        (["ab"], ["aB"], [0, 0]),
        (["a"], ["b"], []),
    ],
)
def test_pullback_ranks_of_components_of_positive_rank(texts1, texts2, ranks):
    core1 = graph_of(B3, texts1, keep_basepoint=False)
    core2 = graph_of(B3, texts2, keep_basepoint=False)
    assert st_mod.pullback_ranks(core1, core2) == ranks
    assert sorted(st_mod.rank(c) for c in st_mod.pullback(core1, core2)) == ranks
    assert oracles.pullback_ranks(core1, core2) == ranks


@st.composite
def subgroup_pairs(draw):
    """A rank of 2-6 and two cores of 1-3 nonempty generators, some conjugated by a common word."""
    rank = draw(st.integers(2, 6))
    letter = st.sampled_from([x for x in range(-rank, rank + 1) if x])
    word = st.lists(letter, min_size=1, max_size=7).map(reduce_word).filter(bool)
    conjugator = draw(st.lists(letter, max_size=3).map(tuple))

    def core():
        gens = draw(st.lists(word, min_size=1, max_size=3))
        if draw(st.booleans()):
            gens = [reduce_word(conjugator + g + invert_word(conjugator)) for g in gens]
        return st_mod.subgroup_graph(Basis.standard(rank), gens, keep_basepoint=False)

    return core(), core()


@given(subgroup_pairs())
@settings(max_examples=150, deadline=None)
def test_pullback_and_malnormality_equal_oracle(cores):
    core1, core2 = cores
    assert st_mod.pullback_ranks(core1, core2) == oracles.pullback_ranks(core1, core2)
    got, expected = st_mod.pullback(core1, core2), oracles.pullback(core1, core2)
    assert sorted(map(st_mod.canonical_form, got)) == sorted(map(st_mod.canonical_form, expected))
    for core in cores:
        assert st_mod.is_malnormal(core) == oracles.is_malnormal(core)


@given(subgroup_pairs())
@settings(max_examples=50, deadline=None)
def test_fiber_product_of_folded_graphs_needs_no_fold(cores):
    # The ground for reading ranks off the partition: coring a component
    # merges nothing and keeps E - V + 1.
    components, _ = oracles.fiber_product(*cores)
    for component in components:
        core, merges = st_mod.fold_and_core(component, keep_basepoint=False)
        assert merges == 0
        assert st_mod.rank(core) == st_mod.rank(component)


@st.composite
def multigraphs(draw):
    """Nodes, some given up front, and links between them, loops and repeats included."""
    nodes = draw(st.lists(st.integers(-6, 6), max_size=8, unique=True))
    node = st.integers(-6, 6)
    return nodes, draw(st.lists(st.tuples(node, node), max_size=16))


@given(multigraphs())
@settings(max_examples=300, deadline=None)
def test_forest_equals_networkx_components(case):
    nodes, links = case
    forest = st_mod.Forest(nodes)
    graph = nx.MultiGraph()
    graph.add_nodes_from(nodes)
    for u, w in links:
        graph.add_nodes_from((u, w))
        closes_cycle = nx.has_path(graph, u, w)
        joined = forest.join(u, w)
        assert (joined is None) == closes_cycle
        if joined is not None:
            assert joined[0] < joined[1]
        graph.add_edge(u, w)
    expected = {}
    for component in nx.connected_components(graph):
        edges = graph.subgraph(component).number_of_edges()
        expected[min(component)] = edges - len(component) + 1
        assert {forest.root(v) for v in component} == {min(component)}
    assert forest.ranks() == expected


def test_isomorphism_via_canonical_form():
    g1 = graph_of(B2, ["ab", "ba"], keep_basepoint=False)
    g2 = graph_of(B2, ["ba", "ab"], keep_basepoint=False)
    assert st_mod.isomorphic(g1, g2)
    assert st_mod.canonical_form(g1) == st_mod.canonical_form(g2)


@given(words3)
@settings(max_examples=30, deadline=None)
def test_inverse_word_gives_same_subgroup_graph(word):
    if not word:
        return
    g1 = st_mod.subgroup_graph(B3, [word], keep_basepoint=False)
    g2 = st_mod.subgroup_graph(B3, [invert_word(word)], keep_basepoint=False)
    assert st_mod.isomorphic(g1, g2)


def test_to_dot_mentions_letters():
    graph = graph_of(B2, ["ab"])
    dot = st_mod.to_dot(graph, B2)
    assert dot.startswith("digraph")
    assert '"a"' in dot or "label=a" in dot or "a" in dot


@st.composite
def generator_sets(draw):
    """Generator words of rank 1-4, some unreduced (tree cores), some with c^64 hairs."""
    rank = draw(st.integers(1, 4))
    letter = st.sampled_from([x for x in range(-rank, rank + 1) if x])
    word = st.lists(letter, min_size=1, max_size=8).map(tuple)
    gens = draw(st.lists(word, min_size=1, max_size=4))
    if draw(st.booleans()):
        c = draw(st.lists(letter, min_size=1, max_size=3).map(tuple))
        conjugator, tail = draw(word), draw(word)
        hair = reduce_word(conjugator + c * 64 + tail + invert_word(c) * 64)
        gens.append(hair or c)
    return rank, gens


def assert_folds_like_oracle(graph):
    for keep_basepoint in (True, False):
        folded, merges = st_mod.fold_and_core(graph, keep_basepoint)
        expected, trace = oracles.fold_and_core(graph, keep_basepoint)
        assert folded == expected
        assert merges == len(trace.folds)


def assert_subgroup_graph_folds_the_wedge(rank, gens):
    """``subgroup_graph`` builds the oracle's fold of ``from_generators``, vertex ids included."""
    basis = Basis.standard(rank)
    for keep_basepoint in (True, False):
        expected, _ = oracles.fold_and_core(st_mod.from_generators(basis, gens), keep_basepoint)
        assert st_mod.subgroup_graph(basis, gens, keep_basepoint) == expected


@given(generator_sets())
@settings(max_examples=100, deadline=None)
def test_fold_equals_oracle_on_generator_sets(case):
    rank, gens = case
    assert_folds_like_oracle(st_mod.from_generators(Basis.standard(rank), gens))
    assert_subgroup_graph_folds_the_wedge(rank, gens)


@st.composite
def raw_graphs(draw):
    """Arbitrary labeled graphs: loops, repeated labels, isolated vertices, trees."""
    vertices = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True))
    vertex = st.sampled_from(vertices)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 3)), max_size=16))
    basepoint = draw(st.none() | vertex)
    return st_mod.LabeledGraph(frozenset(vertices), frozenset(edges), basepoint=basepoint)


@given(raw_graphs())
@settings(max_examples=300, deadline=None)
def test_fold_equals_oracle_on_raw_graphs(graph):
    assert_folds_like_oracle(graph)


def test_fold_keeps_tree_center():
    # The path 0 - 1 - 2 - 3 shrinks to its central edge's larger end, 2.
    path = st_mod.LabeledGraph(frozenset(range(4)), frozenset({(0, 1, 1), (1, 2, 2), (2, 3, 1)}))
    folded, merges = st_mod.fold_and_core(path, keep_basepoint=False)
    assert folded == st_mod.LabeledGraph(frozenset({2}), frozenset())
    assert merges == 0
    assert folded == oracles.fold_and_core(path, keep_basepoint=False)[0]


def test_spell_path():
    edges = set()
    assert st_mod.spell_path(edges, parse_word("aBa", B2), 0, 0, 5) == [0, 5, 6, 0]
    assert edges == {(0, 5, 1), (6, 5, 2), (6, 0, 1)}
    assert st_mod.spell_path(set(), parse_word("ab", B2), 3, None, 7) == [3, 7, 8]


@given(
    pair=st.sampled_from(
        ["certified_filling_pair", "mirror_filling_pair", "pair_with_single_step", "pair_with_sixth_power"]
    ),
    swapped=st.booleans(),
    gens=st.lists(words3.filter(bool), min_size=2, max_size=2),
    n=st.integers(1, 128),
    sign=st.sampled_from((1, -1)),
)
@settings(max_examples=40, deadline=None)
def test_subgroup_graph_equals_folding_the_wedge_of_twisted_words(pair, swapped, gens, n, sign):
    """Two generators twisted by a fixture pair's twist, in the other splitting's relative
    letters: the words that ``volume`` folds."""
    pair = getattr(fx, pair)()
    first, second = (pair.second, pair.first) if swapped else (pair.first, pair.second)
    twisted = [to_relative(second, apply(dehn_twist(first, sign * n), g)) for g in gens]
    assert_subgroup_graph_folds_the_wedge(3, twisted)

"""Independent oracles used to cross-check the library.

The translation-length oracle works directly on normal forms for the two
splitting shapes: syllable reduction for an amalgam, in one stack pass that
merges same-side syllables and hands a syllable in the edge group to its
neighbour, and pinch (Britton) reduction for an HNN extension, repeated
until nothing changes.  It shares only word/coordinate plumbing with the
library.  The library's ``translation_length`` counts the same length in
one pass over the gaps between separators, so the oracle checks that
count, and the folding ``free_volume`` on the cyclic subgroup is its
second cross-check.

The reference folder ``fold_and_core`` keeps the library's original
folding schedule: it always merges at the least conflicting (vertex, label)
and prunes in full sweeps.  A heap of those conflicts finds the next one,
so nothing is rebuilt after a merge, but the schedule stays simple enough
to trust.  The library's worklist fold must return an equal graph, vertex
ids included.

``pullback``, ``pullback_ranks`` and ``is_malnormal`` are the library's
original pullbacks: they split the fiber product into component graphs and
fold and core each one with the reference folder, where the library reads
every rank off one union-find pass.  ``cut_vertex`` is the original
cut-vertex test, which rebuilds the Whitehead graph without each vertex in
turn, where the library runs one articulation-point search.  Both must
agree with the library on every input.

``twisted_core`` builds the core of a twisted subgroup without twisting
any word: ``graph_surgery`` inserts a segment spelling the n-th edge-word
power at each crossing vertex of the subgroup's graph and re-roots the
edges there, and the reference folder above folds the result.  It must be
isomorphic to the core of the generators' images under ``dehn_twist``, so
it cross-checks the twist, the library fold and the crossing vertices of
the chain pipeline below at once.  ``graph_composition`` likewise rewrites a core
graph through a change of marking by substituting image words for labels.

``chain_free_volume`` is the library's original free volume: it finds the
chains of lifts of the edge-word loop, reclassifies edges next to them
until nothing changes, and counts essential simply connected chains plus
essential vertices.  It is not invariant under the splitting's own twist
(``<BABCA, abAbc>`` in the HNN splitting over ``ab`` gets 3, and 2 once
twisted), but on cyclic subgroups it must agree with the library's count
on the quotient graph of groups.

``bilipschitz_sample`` compares the library's summed volumes with the
rose length of random classes.  No verdict uses it, so it lives here.

``suffix_window_bcc`` is the library's original bounded cancellation
constant: it tracks the reachable suffixes of images in a window that
doubles until no cancellation reaches past it, and gives up past a state
budget.  Its state count grows exponentially, but wherever it finishes it
must agree with the library's ``bcc``.

``nielsen_invert`` is the library's original automorphism inverse: it
shortens the images by Nielsen moves, searching breadth-first through
equal-length states when no single move shortens them, and stops that
search after ``_PLATEAU_LIMIT`` states.  The library inverts by one
labelled fold instead.  An inverse is unique, so wherever the Nielsen
search finishes both must return equal automorphisms, and both must refuse
the same non-bases.

``exhaustive_whitehead_minimize`` is the library's original Whitehead
descent: each step applies all 2k * 2^(2k-2) moves of ``whitehead_moves``
to the classes and keeps the least strictly improving one.  The library
finds that same move by minimum cuts, so the two must return equal
classes, totals and move logs.

``enumerate_cyclic_classes`` is the library's original class enumeration:
it builds every reduced word of each length and keeps those equal to their
least rotation (Booth's algorithm).  The library generates the same classes
as cyclically reduced necklaces, so both must yield equal lists.

``empirical_no_periodic_orbit`` is the library's original orbit sampler:
it evaluates every class in the symmetric-group quotients letter by letter
and compares every class those quotients cannot tell apart by building
both images in full, without a budget.  The library adds an SL(2) trace
filter and a letter budget, so its report must agree on the classes
checked and pruned, on the violation and on ``ok``, with no more exact
comparisons.  Its abelianization matrices (``_abelianization_matrix``,
``_mat_mul``) are also the reference for the library's tracked Z^k values.
"""

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from typing import Iterator, Optional, Sequence

from freevol.errors import HypothesisViolated, NotAnAutomorphism, UsageError
from freevol.filling import WhiteheadMove
from freevol.pingpong import _PERM_DEGREE, _cycle_type
from freevol.splittings import AMALGAM, HNN, CyclicSplitting, require_valid, to_relative
from freevol.stallings import Edge, LabeledGraph, spell_path
from freevol.volume import lambda_graph, translation_length as library_translation_length
from freevol.words import (
    Automorphism,
    Basis,
    CyclicWord,
    Word,
    apply,
    apply_cyclic,
    canonical_rotation,
    compose,
    concat,
    cyclically_reduce,
    invert,
    invert_word,
    is_proper_power,
    letter_rank,
    reduce_word,
    render_word,
)


def _edge_power(word: Word, edge: Word):
    """The exponent m with word == edge^m (reduced), or None."""
    if not word:
        return 0
    if len(word) % len(edge):
        return None
    m = len(word) // len(edge)
    if word == edge * m:
        return m
    if word == invert_word(edge) * m:
        return -m
    return None


def _amalgam_length(splitting: CyclicSplitting, relative: Word) -> int:
    core, _ = cyclically_reduce(relative)
    if not core:
        return 0
    a_letters = set(splitting.a_part)
    edge = tuple(splitting.edge_word)
    inverse_edge = invert_word(edge)

    def syllable(side: str, letters: list) -> list:
        # [side, reduced letters, whether they spell a power of the edge word]
        root = edge if letters and letters[0] == edge[0] else inverse_edge
        power = len(letters) % len(edge) == 0 and all(x == root[i % len(root)] for i, x in enumerate(letters))
        return [side, letters, power]

    def mergeable(left: list, right: list) -> bool:
        return left[0] == right[0] or left[2] or right[2]

    def merge(left: list, right: list) -> list:
        # A syllable lying in the edge group belongs to both sides: it is
        # handed to its neighbour, so the blocks on either side coalesce.
        # The letters cancel only where the two syllables meet.
        side = right[0] if left[2] and not right[2] else left[0]
        letters, i = left[1], 0
        while letters and i < len(right[1]) and letters[-1] == -right[1][i]:
            letters.pop()
            i += 1
        letters.extend(right[1][i:])
        return syllable(side, letters)

    def push(stack: deque, item: list) -> None:
        stack.append(item)
        while len(stack) > 1 and mergeable(stack[-2], stack[-1]):
            right = stack.pop()
            stack[-1] = merge(stack[-1], right)

    # One stack pass over the maximal same-side blocks of the cyclic word;
    # then the first syllable moves behind the last while the two meet
    # cyclically.  Each move merges, so it ends.
    stack: deque = deque()
    for side, block in groupby(core, lambda letter: "A" if abs(letter) in a_letters else "B"):
        push(stack, syllable(side, list(block)))
    while len(stack) > 1 and mergeable(stack[-1], stack[0]):
        push(stack, stack.popleft())
    if len(stack) <= 1:
        return 0
    return len(stack)


def _hnn_length(splitting: CyclicSplitting, relative: Word) -> int:
    core, _ = cyclically_reduce(relative)
    if not core:
        return 0
    stable = splitting.stable_index
    edge = tuple(splitting.edge_word)

    # Items are either a stable-letter crossing (+1/-1) or a vertex-group
    # element carried as a reduced word in relative letters.
    items: list = []
    for letter in core:
        if abs(letter) == stable:
            items.append(("t", 1 if letter > 0 else -1))
        elif items and items[-1][0] == "v":
            items[-1] = ("v", reduce_word(items[-1][1] + (letter,)))
        else:
            items.append(("v", (letter,)))

    def in_edge_group(word: Word):
        return _edge_power(word, edge) is not None

    def collapse(positions, replacement) -> None:
        for position in sorted(positions, reverse=True):
            del items[position]
        if replacement is not None:
            items.insert(min(positions), replacement)

    def pinch_pass() -> bool:
        n = len(items)
        # Merge cyclically adjacent vertex items, drop empty ones.
        for i in range(n):
            j = (i + 1) % n
            if i == j or items[i][0] != "v":
                continue
            if items[j][0] == "v":
                items[i] = ("v", reduce_word(items[i][1] + items[j][1]))
                del items[j]
                return True
            if not items[i][1]:
                del items[i]
                return True
        # Free cancellation of adjacent opposite crossings.
        for i in range(n):
            j = (i + 1) % n
            if (
                n >= 2
                and i != j
                and items[i][0] == "t"
                and items[j][0] == "t"
                and items[i][1] == -items[j][1]
            ):
                collapse([i, j], None)
                return True
        # Pinches: t^-1 v t with v in the edge group, or t v t^-1 with the
        # conjugated element in the edge group; either way the triple is a
        # single vertex-group element.
        if n >= 3:
            for i in range(n):
                triple = [(i + d) % n for d in range(3)]
                first, middle, last = (items[p] for p in triple)
                if first[0] != "t" or middle[0] != "v" or last[0] != "t":
                    continue
                if first[1] != -last[1]:
                    continue
                conjugated = reduce_word(
                    (first[1] * stable,) + middle[1] + (last[1] * stable,)
                )
                if (first[1] == -1 and in_edge_group(middle[1])) or (
                    first[1] == 1 and in_edge_group(conjugated)
                ):
                    collapse(triple, ("v", conjugated))
                    return True
        return False

    while pinch_pass():
        pass
    return sum(1 for kind, _ in items if kind == "t")


def translation_length(splitting: CyclicSplitting, word: Word) -> int:
    """Translation length on the dual tree, via normal-form reduction."""
    relative = to_relative(splitting, word)
    if splitting.kind == AMALGAM:
        return _amalgam_length(splitting, relative)
    return _hnn_length(splitting, relative)


def bilipschitz_sample(
    splitting1: CyclicSplitting,
    splitting2: CyclicSplitting,
    trials: int,
    max_len: int,
    seed: int = 0,
) -> dict:
    """Sampled comparison of volume sums against ambient rose volume.

    For random cyclically reduced words g, compares vol1(g) + vol2(g)
    against the ambient rose length of the cyclic word; reports extremal
    ratios and the number of excluded zero-denominator samples.  The
    volumes are the library's ``volume.translation_length``.
    """
    rng = random.Random(seed)
    k = splitting1.rank
    ratios: list[float] = []
    excluded = 0
    for _ in range(trials):
        length = rng.randint(1, max_len)
        letters: list[int] = []
        for _ in range(length):
            choices = [x for x in range(-k, k + 1) if x != 0]
            if letters:
                choices = [x for x in choices if x != -letters[-1]]
            letters.append(rng.choice(choices))
        cyclic = CyclicWord.of(tuple(letters))
        if not cyclic.letters:
            excluded += 1
            continue
        rose_volume = len(cyclic.letters)
        total = library_translation_length(splitting1, cyclic.letters) + library_translation_length(
            splitting2, cyclic.letters
        )
        if total == 0 or rose_volume == 0:
            excluded += 1
            continue
        ratios.append(total / rose_volume)
    return {
        "schema": "freevol/1",
        "samples": len(ratios),
        "excluded": excluded,
        "min_ratio": min(ratios) if ratios else None,
        "max_ratio": max(ratios) if ratios else None,
    }


def max_cancellation(nu, max_len: int) -> int:
    """Brute-force largest one-sided cancellation at a reduced junction.

    Enumerates every pair of reduced words up to ``max_len`` whose
    concatenation is reduced and measures the cancellation between their
    images under ``nu``: the common prefix of ``nu(w)^-1`` and ``nu(v)``.
    The images ``nu(v)`` are kept in one prefix trie per first letter of
    ``v``, so each ``nu(w)^-1`` is matched against all allowed ``v`` at once.
    """
    k = nu.basis.rank
    words: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(max_len):
        grown = []
        for w in frontier:
            for x in range(-k, k + 1):
                if x and (not w or x != -w[-1]):
                    grown.append(w + (x,))
        words += grown
        frontier = grown
    nonempty = [w for w in words if w]
    images = {w: apply(nu, w) for w in nonempty}
    tries: dict[int, dict] = {}
    for v in nonempty:
        node = tries.setdefault(v[0], {})
        for letter in images[v]:
            node = node.setdefault(letter, {})
    best = 0
    for w in nonempty:
        needle = invert_word(images[w])
        for first, root in tries.items():
            if first == -w[-1]:
                continue
            node = root
            m = 0
            while m < len(needle) and needle[m] in node:
                node = node[needle[m]]
                m += 1
            best = max(best, m)
    return best


@dataclass
class FoldTrace:
    """Replayable log of vertex merges and prunes performed while folding."""

    folds: list[tuple[int, int]] = field(default_factory=list)
    prunes: list[int] = field(default_factory=list)


def _prune(
    vertices: set[int],
    edges: set[Edge],
    keep: Optional[int],
    trace: FoldTrace,
) -> None:
    """Iteratively remove valence-<=1 vertices (except ``keep``)."""
    while True:
        degree: dict[int, int] = {v: 0 for v in vertices}
        for source, target, _ in edges:
            degree[source] += 1
            degree[target] += 1
        removable = sorted(
            v for v, d in degree.items() if d <= 1 and v != keep and len(vertices) > 1
        )
        if not removable:
            return
        for vertex in removable:
            if vertex not in vertices or len(vertices) == 1:
                continue
            incident = [e for e in edges if vertex in (e[0], e[1])]
            if len(incident) > 1:
                continue  # degree changed by an earlier removal in this sweep
            vertices.discard(vertex)
            for edge in incident:
                edges.discard(edge)
            trace.prunes.append(vertex)


def fold_and_core(graph: LabeledGraph, keep_basepoint: bool) -> tuple[LabeledGraph, FoldTrace]:
    """Fold to an immersion, then prune to a core graph.

    Fold scheduling is deterministic: among all fold candidates, merge the
    two least vertices reached from the lowest (vertex id, label, direction)
    conflict, into the lesser one.  ``reach`` maps each (vertex, label,
    direction) to the vertices its edges reach, and a heap holds every key
    that has reached two or more; a key is looked at again when it is on
    top, and dropped if it no longer conflicts.  A merge renames only the
    merged vertex's edges.
    """
    merged_into: dict[int, int] = {}
    edges: set[Edge] = set()
    incident: dict[int, set[Edge]] = {v: set() for v in graph.vertices}
    reach: dict[tuple[int, int, int], set[int]] = {}
    conflicts: list[tuple[int, int, int]] = []

    def add(edge: Edge) -> None:
        if edge in edges:
            return  # duplicate edges collapse, as ``edges`` is a set
        edges.add(edge)
        source, target, label = edge
        incident[source].add(edge)
        incident[target].add(edge)
        for key, other in (((source, label, +1), target), ((target, label, -1), source)):
            others = reach.setdefault(key, set())
            others.add(other)
            if len(others) > 1:
                heapq.heappush(conflicts, key)

    def remove(edge: Edge) -> None:
        edges.remove(edge)
        source, target, label = edge
        incident[source].discard(edge)
        incident[target].discard(edge)
        reach[(source, label, +1)].discard(target)
        reach[(target, label, -1)].discard(source)

    for edge in graph.edges:
        add(edge)
    trace = FoldTrace()
    while conflicts:
        others = reach[conflicts[0]]
        if len(others) < 2:
            heapq.heappop(conflicts)
            continue
        keep_vertex, merge_vertex = heapq.nsmallest(2, others)
        merged_into[merge_vertex] = keep_vertex
        trace.folds.append((keep_vertex, merge_vertex))
        moved = list(incident[merge_vertex])
        for edge in moved:
            remove(edge)
        del incident[merge_vertex]
        for source, target, label in moved:
            source, target = (keep_vertex if v == merge_vertex else v for v in (source, target))
            add((source, target, label))

    def find(v: int) -> int:
        while v in merged_into:
            v = merged_into[v]
        return v

    vertices = set(incident)
    basepoint = find(graph.basepoint) if graph.basepoint is not None else None
    _prune(vertices, edges, basepoint if keep_basepoint else None, trace)
    if not keep_basepoint:
        basepoint = None
    elif basepoint not in vertices:
        basepoint = None
    return (
        LabeledGraph(frozenset(vertices), frozenset(edges), basepoint=basepoint),
        trace,
    )


# ---------------------------------------------------------------------------
# Pullbacks and malnormality, one graph per component


def connected_components(graph: LabeledGraph) -> list[LabeledGraph]:
    """The components of ``graph``, in the order of their least vertex."""
    adjacency: dict[int, set[int]] = {v: set() for v in graph.vertices}
    for source, target, _ in graph.edges:
        adjacency[source].add(target)
        adjacency[target].add(source)
    seen: set[int] = set()
    components: list[LabeledGraph] = []
    for start in sorted(graph.vertices):
        if start in seen:
            continue
        stack = [start]
        block = set()
        while stack:
            vertex = stack.pop()
            if vertex in block:
                continue
            block.add(vertex)
            stack.extend(adjacency[vertex] - block)
        seen |= block
        edges = frozenset(e for e in graph.edges if e[0] in block)
        basepoint = graph.basepoint if graph.basepoint in block else None
        components.append(LabeledGraph(frozenset(block), edges, basepoint=basepoint))
    return components


def fiber_product(
    graph1: LabeledGraph, graph2: LabeledGraph
) -> tuple[list[LabeledGraph], dict[tuple[int, int], int]]:
    """Components of the fiber product over the rose, and each vertex pair's id."""
    table2: dict[int, list[tuple[int, int]]] = {}
    for source, target, label in graph2.edges:
        table2.setdefault(label, []).append((source, target))
    pair_ids: dict[tuple[int, int], int] = {}
    edges: set[Edge] = set()
    for source1, target1, label in graph1.edges:
        for source2, target2 in table2.get(label, []):
            source = pair_ids.setdefault((source1, source2), len(pair_ids))
            target = pair_ids.setdefault((target1, target2), len(pair_ids))
            edges.add((source, target, label))
    product = LabeledGraph(frozenset(pair_ids.values()), frozenset(edges))
    return connected_components(product), pair_ids


def _rank(graph: LabeledGraph) -> int:
    return len(graph.edges) - len(graph.vertices) + 1


def pullback(graph1: LabeledGraph, graph2: LabeledGraph) -> list[LabeledGraph]:
    """The library's original pullback: each component folded and cored on its own."""
    components, _ = fiber_product(graph1, graph2)
    return [fold_and_core(component, keep_basepoint=False)[0] for component in components]


def pullback_ranks(graph1: LabeledGraph, graph2: LabeledGraph) -> list[int]:
    """The ranks of ``pullback``'s cores, sorted, as the filling check used to read them."""
    return sorted(_rank(core) for core in pullback(graph1, graph2))


def is_malnormal(graph: LabeledGraph) -> bool:
    """The library's original malnormality test: every non-diagonal core has rank 0."""
    components, pair_ids = fiber_product(graph, graph)
    diagonal = {pair_ids[(v, v)] for v in graph.vertices if (v, v) in pair_ids}
    for component in components:
        if component.vertices & diagonal:
            continue
        core, _ = fold_and_core(component, keep_basepoint=False)
        if _rank(core) > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Cut vertices by removing each vertex in turn


def whitehead_connected(graph, removed: Optional[int] = None) -> bool:
    """Whether ``graph`` (a ``filling.WhiteheadGraph``) minus ``removed`` is connected."""
    adj: dict[int, set[int]] = {v: set() for v in graph.vertices if v != removed}
    for x, y in graph.edges:
        if removed in (x, y):
            continue
        adj[x].add(y)
        adj[y].add(x)
    if not adj:
        return True
    seen = set()
    stack = [next(iter(sorted(adj, key=letter_rank)))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    return len(seen) == len(adj)


def cut_vertex(graph) -> Optional[int]:
    """The library's original cut-vertex test: the first vertex, in the order
    a < A < b < B < ..., whose removal disconnects a connected graph."""
    if not whitehead_connected(graph):
        return None
    for v in graph.vertices:
        if not whitehead_connected(graph, removed=v):
            return v
    return None


# ---------------------------------------------------------------------------
# Graph composition and graph surgery


def graph_composition(graph: LabeledGraph, nu: Automorphism) -> LabeledGraph:
    """Replace each edge label by its image word, then fold to a core."""
    vertices = set(graph.vertices)
    edges: set[Edge] = set()
    next_vertex = max(vertices, default=-1) + 1
    for source, target, label in graph.edges:
        path = apply(nu, (label,))
        if not path:
            raise HypothesisViolated("change of marking sends a generator to the identity")
        vertices.update(spell_path(edges, path, source, target, next_vertex))
        next_vertex += len(path) - 1
    basepoint = graph.basepoint
    composed = LabeledGraph(frozenset(vertices), frozenset(edges), basepoint=basepoint)
    core, _ = fold_and_core(composed, keep_basepoint=basepoint is not None)
    return core


# ---------------------------------------------------------------------------
# Free volume by chain reclassification


A_EDGE = "A"
B0_EDGE = "B0"
T_EDGE = "T"


@dataclass(frozen=True)
class Chain:
    """A maximal concatenation of lifts of the edge-word loop.

    ``chain_vertices`` are the lift endpoints in order; ``path_vertices``
    and ``path_edges`` cover the whole image, including subdivision points
    interior to a single lift.
    """

    chain_vertices: tuple[int, ...]
    path_vertices: frozenset[int]
    path_edges: frozenset[Edge]
    is_cycle: bool
    essential: bool = False

    @property
    def simply_connected(self) -> bool:
        return not self.is_cycle


def initial_edge_class(splitting: CyclicSplitting, label: int) -> str:
    if splitting.kind == HNN:
        return T_EDGE if label == splitting.stable_index else A_EDGE
    return A_EDGE if label in splitting.a_part else B0_EDGE


def _edge_word_lifts(
    graph: LabeledGraph, edge_word: Word
) -> dict[int, tuple[int, frozenset[int], frozenset[Edge]]]:
    """For each vertex where the edge-word loop lifts: endpoint and image.

    The graph is folded, so from a fixed start vertex the lift is unique;
    the resulting vertex-to-endpoint map is a partial injection.
    """
    table = graph.out_map()
    lifts: dict[int, tuple[int, frozenset[int], frozenset[Edge]]] = {}
    for start in sorted(graph.vertices):
        current = start
        vertices = {start}
        edges: set[Edge] = set()
        ok = True
        for letter in edge_word:
            nxt = table.get((current, letter))
            if nxt is None:
                ok = False
                break
            if letter > 0:
                edges.add((current, nxt, letter))
            else:
                edges.add((nxt, current, -letter))
            current = nxt
            vertices.add(current)
        if ok:
            lifts[start] = (current, frozenset(vertices), frozenset(edges))
    return lifts


def find_chains(graph: LabeledGraph, splitting: CyclicSplitting) -> list[Chain]:
    """All maximal chains, unclassified (``essential`` left False)."""
    lifts = _edge_word_lifts(graph, splitting.edge_word)
    successor = {v: target for v, (target, _, _) in lifts.items()}
    has_predecessor = set(successor.values())
    chains: list[Chain] = []
    visited: set[int] = set()

    def walk(start: int) -> None:
        vertex_sequence = [start]
        current = start
        while current in successor:
            visited.add(current)
            current = successor[current]
            vertex_sequence.append(current)
            if current == start:
                break
        is_cycle = len(vertex_sequence) > 1 and vertex_sequence[-1] == vertex_sequence[0]
        path_vertices: set[int] = set(vertex_sequence)
        path_edges: set[Edge] = set()
        for v in vertex_sequence[:-1]:
            _, vs, es = lifts[v]
            path_vertices |= vs
            path_edges |= es
        chains.append(
            Chain(tuple(vertex_sequence), frozenset(path_vertices), frozenset(path_edges), is_cycle)
        )

    for start in sorted(successor):
        if start not in has_predecessor:
            walk(start)  # maximal path orbit
    for start in sorted(successor):
        if start not in visited:
            walk(start)  # remaining orbits are cycles
    return chains


def _incidences(graph: LabeledGraph) -> dict[int, list[tuple[Edge, str]]]:
    """Edge incidences per vertex, tagged 'out' at the source, 'in' at the target."""
    table: dict[int, list[tuple[Edge, str]]] = {v: [] for v in graph.vertices}
    for edge in graph.edges:
        source, target, _ = edge
        table[source].append((edge, "out"))
        table[target].append((edge, "in"))
    return table


def classify_chains(
    graph: LabeledGraph, splitting: CyclicSplitting, chains: Sequence[Chain]
) -> tuple[list[Chain], dict[Edge, str]]:
    """Essential/nonessential status plus edge classes, run to a fixpoint.

    Reclassification: in the amalgam case the edges of a chain whose only
    adjacencies are B0-edges at chain vertices become B0-edges; in the HNN
    case positive stable-letter edges adjacent to a nonessential chain
    become A-edges.  Both rules can cascade, so classification repeats
    until neither edge classes nor chain statuses change.
    """
    classes = {edge: initial_edge_class(splitting, edge[2]) for edge in graph.edges}
    incidences = _incidences(graph)
    status: list[Optional[bool]] = [None] * len(chains)
    for _ in range(len(graph.edges) + len(chains) + 2):
        changed = False
        for index, chain in enumerate(chains):
            adjacent: list[tuple[Edge, str, int]] = []
            for vertex in chain.path_vertices:
                for edge, direction in incidences[vertex]:
                    if edge in chain.path_edges:
                        continue
                    adjacent.append((edge, direction, vertex))
            if splitting.kind == AMALGAM:
                only_b0_at_chain_vertices = all(
                    classes[edge] == B0_EDGE and vertex in chain.chain_vertices
                    for edge, _, vertex in adjacent
                )
                only_a = all(classes[edge] == A_EDGE for edge, _, _ in adjacent)
                essential = not (only_b0_at_chain_vertices or only_a)
                reclassify = not essential and only_b0_at_chain_vertices
                if reclassify:
                    for edge in chain.path_edges:
                        if classes[edge] != B0_EDGE:
                            classes[edge] = B0_EDGE
                            changed = True
            else:
                only_positive_t_at_chain_vertices = all(
                    classes[edge] == T_EDGE
                    and direction == "out"
                    and vertex in chain.chain_vertices
                    for edge, direction, vertex in adjacent
                )
                only_harmless = all(
                    classes[edge] == A_EDGE
                    or (classes[edge] == T_EDGE and direction == "in")
                    for edge, direction, _ in adjacent
                )
                essential = not (only_positive_t_at_chain_vertices or only_harmless)
                if not essential:
                    for edge, direction, _ in adjacent:
                        if classes[edge] == T_EDGE and direction == "out":
                            classes[edge] = A_EDGE
                            changed = True
            if status[index] != essential:
                status[index] = essential
                changed = True
        if not changed:
            break
    classified = [
        Chain(
            chain.chain_vertices,
            chain.path_vertices,
            chain.path_edges,
            chain.is_cycle,
            essential=bool(status[index]),
        )
        for index, chain in enumerate(chains)
    ]
    return classified, classes


def essential_and_crossing_vertices(
    graph: LabeledGraph,
    splitting: CyclicSplitting,
    chains: Sequence[Chain],
    classes: dict[Edge, str],
) -> tuple[frozenset[int], frozenset[int]]:
    incidences = _incidences(graph)
    essential_chain_vertices: set[int] = set()
    any_chain_vertices: set[int] = set()
    for chain in chains:
        any_chain_vertices.update(chain.chain_vertices)
        if chain.essential:
            essential_chain_vertices.update(chain.chain_vertices)
    essential: set[int] = set()
    crossing: set[int] = set()
    for vertex in graph.vertices:
        local = incidences[vertex]
        if splitting.kind == AMALGAM:
            touches_a = any(classes[e] == A_EDGE for e, _ in local)
            touches_b0 = any(classes[e] == B0_EDGE for e, _ in local)
            if vertex not in essential_chain_vertices and touches_a and touches_b0:
                essential.add(vertex)
            if vertex in essential_chain_vertices and touches_b0:
                crossing.add(vertex)
        else:
            starts_positive_t = any(
                classes[e] == T_EDGE and d == "out" for e, d in local
            )
            if vertex not in any_chain_vertices and starts_positive_t:
                essential.add(vertex)
            if vertex in essential_chain_vertices and starts_positive_t:
                crossing.add(vertex)
    crossing |= essential
    return frozenset(essential), frozenset(crossing)


def chain_free_volume(splitting: CyclicSplitting, gens: Sequence[Word]) -> int:
    """Essential simply connected chains plus essential vertices."""
    graph = lambda_graph(splitting, gens)
    chains = find_chains(graph, splitting)
    chains, classes = classify_chains(graph, splitting, chains)
    essential, _ = essential_and_crossing_vertices(graph, splitting, chains, classes)
    return sum(1 for c in chains if c.essential and c.simply_connected) + len(essential)


@dataclass(frozen=True)
class SurgeredGraph:
    """Result of inserting edge-word-power segments at crossing vertices."""

    graph: LabeledGraph
    segments: tuple[tuple[int, int], ...]  # (crossing vertex, segment endpoint)
    power: int


def graph_surgery(graph: LabeledGraph, splitting: CyclicSplitting, n: int) -> SurgeredGraph:
    """Insert a segment spelling the n-th edge-word power at each crossing vertex.

    In the amalgam case every B0-class incidence at the crossing vertex is
    re-rooted to the far end of its segment; in the HNN case only the source
    of the positive stable-letter edge moves.  Folding and pruning the
    result yields the core graph of the n-th twist image of the subgroup.
    """
    require_valid(splitting)
    if n == 0:
        return SurgeredGraph(graph, (), 0)
    chains = find_chains(graph, splitting)
    chains, classes = classify_chains(graph, splitting, chains)
    _, crossing = essential_and_crossing_vertices(graph, splitting, chains, classes)
    c = splitting.edge_word
    segment_word = c * n if n > 0 else invert_word(c) * (-n)
    vertices = set(graph.vertices)
    edges = set(graph.edges)
    next_vertex = max(vertices, default=-1) + 1
    segments: list[tuple[int, int]] = []
    for vertex in sorted(crossing):
        stops = spell_path(edges, segment_word, vertex, None, next_vertex)
        vertices.update(stops)
        next_vertex += len(segment_word)
        far_end = stops[-1]
        segments.append((vertex, far_end))
        if splitting.kind == AMALGAM:
            moving = [e for e in edges if classes.get(e) == B0_EDGE and vertex in (e[0], e[1])]
        else:
            moving = [
                e
                for e in edges
                if classes.get(e) == T_EDGE and e[0] == vertex
            ]
        for edge in moving:
            source, target, label = edge
            edges.discard(edge)
            new_source = far_end if source == vertex else source
            new_target = far_end if target == vertex else target
            if splitting.kind != AMALGAM:
                new_target = target  # only the source of a positive edge moves
            moved = (new_source, new_target, label)
            edges.add(moved)
            classes[moved] = classes.pop(edge)
    surgered = LabeledGraph(frozenset(vertices), frozenset(edges))
    return SurgeredGraph(surgered, tuple(segments), n)


def twisted_core(graph: LabeledGraph, splitting: CyclicSplitting, n: int) -> LabeledGraph:
    """Folded core of the surgered graph: the core of the twisted subgroup."""
    surgered = graph_surgery(graph, splitting, n)
    core, _ = fold_and_core(surgered.graph, keep_basepoint=False)
    return core


# ---------------------------------------------------------------------------
# Bounded cancellation by suffix windows


class _WindowOverflow(Exception):
    """Suffix window too small to certify a cancellation; retry larger."""


class CancellationBudgetExceeded(RuntimeError):
    """The exact cancellation automaton grew past the resource budget.

    The constant is still well defined; this computation strategy tracks
    reachable image suffixes and some basis changes make that state space
    blow up exponentially.
    """


STATE_BUDGET = 300_000


def _suffix_states(
    nu: Automorphism, window: int, max_states: int = STATE_BUDGET
) -> dict[int, set[tuple[Word, bool]]]:
    """Reachable (suffix, exact) states of images of reduced words.

    Keyed by the last letter of the source word.  ``exact`` means the stored
    word is the entire image, not just its last ``window`` letters.
    """
    k = nu.basis.rank
    letters = [x for x in range(-k, k + 1) if x != 0]
    images = {x: apply(nu, (x,)) for x in letters}
    states: dict[int, set[tuple[Word, bool]]] = {x: set() for x in letters}
    queue: list[tuple[int, Word, bool]] = []
    for x in letters:
        image = images[x]
        exact = len(image) <= window
        suffix = image if exact else image[-window:]
        if (suffix, exact) not in states[x]:
            states[x].add((suffix, exact))
            queue.append((x, suffix, exact))
    total_states = sum(len(v) for v in states.values())
    while queue:
        x, suffix, exact = queue.pop()
        for y in letters:
            if y == -x:
                continue
            tail = images[y]
            m = 0
            while m < len(suffix) and m < len(tail) and suffix[len(suffix) - 1 - m] == -tail[m]:
                m += 1
            if m == len(suffix) and not exact:
                raise _WindowOverflow
            merged = suffix[: len(suffix) - m] + tail[m:]
            new_exact = exact and len(merged) <= window
            new_suffix = merged if len(merged) <= window else merged[-window:]
            if not exact:
                new_exact = False
            if (new_suffix, new_exact) not in states[y]:
                total_states += 1
                if total_states > max_states:
                    raise CancellationBudgetExceeded(
                        f"more than {max_states} suffix states at window {window}"
                    )
                states[y].add((new_suffix, new_exact))
                queue.append((y, new_suffix, new_exact))
    return states


class _TrieNode:
    __slots__ = ("children", "ends_inexact")

    def __init__(self) -> None:
        self.children: dict[int, _TrieNode] = {}
        self.ends_inexact = False


def _max_cancellation(nu: Automorphism, window: int, max_states: int) -> int:
    """Exact max one-sided cancellation between images of a reduced product.

    Prefix states of images of words starting with y are the inverses of
    suffix states of words ending with -y; matches are found by walking the
    inverted-reversed suffix through a per-letter prefix trie.
    """
    suffixes = _suffix_states(nu, window, max_states)
    tries: dict[int, _TrieNode] = {}
    for y in suffixes:
        root = _TrieNode()
        for s, exact in suffixes[-y]:
            prefix = invert_word(s)
            node = root
            for letter in prefix:
                node = node.children.setdefault(letter, _TrieNode())
            if not exact:
                node.ends_inexact = True
        tries[y] = root
    best = 0
    for x, sstates in suffixes.items():
        for suffix, s_exact in sstates:
            needle = invert_word(suffix)
            for y, root in tries.items():
                if y == -x:
                    continue
                node = root
                depth = 0
                for letter in needle:
                    nxt = node.children.get(letter)
                    if nxt is None:
                        break
                    node = nxt
                    depth += 1
                    if node.ends_inexact:
                        # Some prefix window is fully cancelled; the true
                        # cancellation may extend past what we stored.
                        raise _WindowOverflow
                else:
                    if not s_exact and node.children:
                        raise _WindowOverflow
                best = max(best, depth)
    return best


def suffix_window_bcc(nu: Automorphism, max_states: int = STATE_BUDGET) -> int:
    """The library's original bounded cancellation constant, by suffix windows.

    The minimal C with |nu(w)| + |nu(w')| - |nu(w w')| <= 2C over reduced
    concatenations, computed by closing the suffix-state graph.  Its state
    count can grow exponentially; past ``max_states`` it raises
    CancellationBudgetExceeded.
    """
    longest = max((len(apply(nu, (i + 1,))) for i in range(nu.basis.rank)), default=1)
    window = 2 * longest + 2
    while window <= 1 << 16:
        try:
            return _max_cancellation(nu, window, max_states)
        except _WindowOverflow:
            window *= 2
    raise RuntimeError("bounded cancellation window grew past 65536; giving up")


# ---------------------------------------------------------------------------
# Automorphism inversion by Nielsen reduction


def _nielsen_moves(rank: int) -> Iterator[tuple[int, int, int, bool]]:
    """All elementary replacement moves (i, j, sign, premultiply)."""
    for i in range(rank):
        for j in range(rank):
            if i == j:
                continue
            for sign in (1, -1):
                for pre in (False, True):
                    yield (i, j, sign, pre)


_PLATEAU_LIMIT = 20000


def _apply_nielsen(
    state: tuple[Word, ...], move: tuple[int, int, int, bool]
) -> tuple[Word, ...]:
    i, j, sign, pre = move
    other = state[j] if sign > 0 else invert_word(state[j])
    candidate = concat(other, state[i]) if pre else concat(state[i], other)
    replaced = list(state)
    replaced[i] = candidate
    return tuple(replaced)


def nielsen_invert(phi: Automorphism) -> Automorphism:
    """The library's original inverse, by total-length-decreasing Nielsen reduction.

    Each replacement of image i by its product with image j corresponds to
    precomposing with an elementary automorphism; accumulating those
    elementary automorphisms against the terminal signed permutation yields
    the inverse.  When no single move shortens the images, a breadth-first
    search through length-preserving moves finds a path off the plateau.
    The search stops after ``_PLATEAU_LIMIT`` states and then raises
    NotAnAutomorphism, which is proven only when the plateau was exhausted.
    """
    basis = phi.basis
    rank = basis.rank
    if any(len(image) == 0 for image in phi.images):
        raise NotAnAutomorphism("an image is the empty word")
    moves = tuple(_nielsen_moves(rank))
    state: tuple[Word, ...] = tuple(phi.images)
    applied: list[tuple[int, int, int, bool]] = []
    while True:
        total = sum(len(w) for w in state)
        if total == rank:
            break
        # BFS over the plateau of equal-length states for a shortening move.
        visited: dict[tuple[Word, ...], list] = {state: []}
        queue = deque([state])
        shortened = None
        while queue and shortened is None:
            current = queue.popleft()
            for move in moves:
                candidate = _apply_nielsen(current, move)
                new_total = sum(len(w) for w in candidate)
                if new_total < total:
                    shortened = (visited[current] + [move], candidate)
                    break
                if (
                    new_total == total
                    and candidate not in visited
                    and len(visited) < _PLATEAU_LIMIT
                ):
                    visited[candidate] = visited[current] + [move]
                    queue.append(candidate)
        if shortened is None:
            raise NotAnAutomorphism(
                "Nielsen reduction stalled above total length = rank; "
                "the images do not reduce to a basis"
            )
        path, state = shortened
        applied.extend(path)
    # Fold every applied move into the accumulated left factor of the inverse.
    accumulated = Automorphism.identity(basis)
    for i, j, sign, pre in applied:
        elem_images = [(t + 1,) for t in range(rank)]
        if pre:
            elem_images[i] = reduce_word(((j + 1) * sign, i + 1))
        else:
            elem_images[i] = reduce_word((i + 1, (j + 1) * sign))
        accumulated = compose(accumulated, Automorphism(basis, tuple(elem_images)))
    # state is now a signed permutation: x_i -> x_{sigma(i)}^{eps_i}.
    perm_inverse_images: list[Word] = [()] * rank
    for i, image in enumerate(state):
        target = image[0]
        perm_inverse_images[abs(target) - 1] = ((i + 1) if target > 0 else -(i + 1),)
    if any(im == () for im in perm_inverse_images):
        raise NotAnAutomorphism("terminal tuple is not a signed permutation")
    return compose(accumulated, Automorphism(basis, tuple(perm_inverse_images)))


# ---------------------------------------------------------------------------
# Whitehead descent by trying every move


@lru_cache(maxsize=16)
def whitehead_moves(rank: int) -> tuple[tuple[int, tuple[int, ...], Automorphism], ...]:
    """All letter-multiplier moves: multiplier ``a`` plus a side set ``A``.

    The move sends ``x -> x a`` when ``x`` is in ``A`` (and ``x^-1`` is
    not), ``x -> a^-1 x`` when only ``x^-1`` is in ``A``, and conjugates
    by ``a`` when both are.  The multiplier itself is fixed.
    """
    basis = Basis.standard(rank)
    signed = sorted(
        [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)],
        key=letter_rank,
    )
    moves: list[tuple[int, tuple[int, ...], Automorphism]] = []
    for a in signed:
        others = [x for x in signed if abs(x) != abs(a)]
        for mask in range(1, 1 << len(others)):
            side = {a} | {others[i] for i in range(len(others)) if mask >> i & 1}
            images: list[Word] = []
            for g in range(1, rank + 1):
                if g == abs(a):
                    images.append((g,))
                    continue
                head = g in side
                tail = -g in side
                if head and tail:
                    images.append((-a, g, a))
                elif head:
                    images.append((g, a))
                elif tail:
                    images.append((-a, g))
                else:
                    images.append((g,))
            moves.append(
                (a, tuple(sorted(side, key=letter_rank)), Automorphism(basis, tuple(images)))
            )
    return tuple(moves)


def exhaustive_whitehead_minimize(
    classes: Sequence[CyclicWord], rank: int
) -> tuple[tuple[CyclicWord, ...], int, tuple[WhiteheadMove, ...]]:
    """The library's original Whitehead descent, by trial of every move.

    At each step every move of ``whitehead_moves`` is applied to all
    classes at once; among the strictly improving moves the
    lexicographically least ``(multiplier, side set)`` is applied.
    """
    current = tuple(classes)
    total = sum(len(c.letters) for c in current)
    log: list[WhiteheadMove] = []
    moves = whitehead_moves(rank)
    while True:
        best = None
        for a, side, phi in moves:
            candidate = tuple(apply_cyclic(phi, c) for c in current)
            length = sum(len(c.letters) for c in candidate)
            if length < total:
                key = (letter_rank(a), tuple(letter_rank(x) for x in side))
                if best is None or key < best_key:
                    best = (a, side, candidate, length)
                    best_key = key
        if best is None:
            return current, total, tuple(log)
        a, side, current, total = best
        log.append(WhiteheadMove(a, side, total))


def enumerate_reduced_words(rank: int, length: int) -> Iterator[Word]:
    """All freely reduced words of exactly the given length."""
    letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    letters.sort(key=letter_rank)

    def extend(prefix: list[int], remaining: int) -> Iterator[Word]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for letter in letters:
            if prefix and prefix[-1] == -letter:
                continue
            prefix.append(letter)
            yield from extend(prefix, remaining - 1)
            prefix.pop()

    yield from extend([], length)


def enumerate_cyclic_classes(rank: int, max_len: int) -> Iterator[CyclicWord]:
    """All nontrivial conjugacy classes with cyclic length <= max_len, one per class."""
    for length in range(1, max_len + 1):
        for word in enumerate_reduced_words(rank, length):
            if word[0] == -word[-1] and length >= 2:
                continue  # not cyclically reduced
            if canonical_rotation(word) == word:
                yield CyclicWord(word)


def _apply_factors(factors: Sequence[Automorphism], word: Word) -> Word:
    for factor in reversed(factors):
        word = apply(factor, word)
    return word


def _perm_of_word(word: Word, gen_perms: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    perm = tuple(range(_PERM_DEGREE))
    for letter in word:
        base = gen_perms[abs(letter) - 1]
        if letter < 0:
            inv = [0] * _PERM_DEGREE
            for i, v in enumerate(base):
                inv[v] = i
            base = tuple(inv)
        perm = tuple(perm[base[i]] for i in range(_PERM_DEGREE))
    return perm


def _abelianization_matrix(images: Sequence[Word], rank: int) -> list[list[int]]:
    matrix = [[0] * rank for _ in range(rank)]
    for j, image in enumerate(images):
        for letter in image:
            matrix[abs(letter) - 1][j] += 1 if letter > 0 else -1
    return matrix


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [
        [sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _word_sort_key(word: Sequence[int]) -> tuple[int, ...]:
    return tuple(letter_rank(x) for x in word)


def empirical_no_periodic_orbit(
    phi: Optional[Automorphism],
    max_len: int,
    max_power: int,
    factors: Optional[Sequence[Automorphism]] = None,
    inverse_factors: Optional[Sequence[Automorphism]] = None,
    quotient_samples: int = 4,
    seed: int = 0,
) -> dict:
    """Sampled evidence that no short conjugacy class is periodic (original)."""
    if max_power < 1 or max_len < 1:
        raise UsageError(
            f"orbit sample needs max_power and max_len of at least 1, got {max_power} and {max_len}"
        )
    if factors is None:
        factors = [] if phi is None else [phi]
    if not factors:
        raise UsageError("orbit sample needs phi or a nonempty list of its factors")
    basis = factors[0].basis if phi is None else phi.basis
    rank = basis.rank
    if inverse_factors is None:
        inverse_factors = [invert(f) for f in reversed(factors)]
    forward = list(factors)
    backward = list(inverse_factors)

    pairs = []  # (p, hi, lo) with hi - lo = p
    for p in range(1, max_power + 1):
        pairs.append((p, -(-p // 2), -(p // 2)))
    hi_max = max(hi for _, hi, _ in pairs)
    lo_min = min(lo for _, _, lo in pairs)

    letters = list(range(1, rank + 1))
    step_up = [_apply_factors(forward, (x,)) for x in letters]
    step_down = [_apply_factors(backward, (x,)) for x in letters]

    mat_up = _abelianization_matrix(step_up, rank)
    mat_down = _abelianization_matrix(step_down, rank)
    identity = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    ab: dict[int, list[list[int]]] = {0: identity}
    for j in range(1, hi_max + 1):
        ab[j] = _mat_mul(mat_up, ab[j - 1])
    for j in range(-1, lo_min - 1, -1):
        ab[j] = _mat_mul(mat_down, ab[j + 1])
    diff = {p: [
        [ab[hi][i][j] - ab[lo][i][j] for j in range(rank)] for i in range(rank)
    ] for p, hi, lo in pairs}

    rng = random.Random(seed)
    quotients = []  # per sample: {j: gen perms}
    for _ in range(quotient_samples):
        base = []
        for _ in range(rank):
            perm = list(range(_PERM_DEGREE))
            rng.shuffle(perm)
            base.append(tuple(perm))
        maps = {0: base}
        for j in range(1, hi_max + 1):
            maps[j] = [_perm_of_word(image, maps[j - 1]) for image in step_up]
        for j in range(-1, lo_min - 1, -1):
            maps[j] = [_perm_of_word(image, maps[j + 1]) for image in step_down]
        quotients.append(maps)

    def exact_image(cyc: CyclicWord, j: int) -> CyclicWord:
        word: Word = cyc.letters
        chain = forward if j > 0 else backward
        for _ in range(abs(j)):
            word = _apply_factors(chain, word)
        return CyclicWord.of(word)

    checked = 0
    pruned = 0
    filtered_exact = 0
    violation: Optional[dict] = None
    for cyc in enumerate_cyclic_classes(rank, max_len):
        checked += 1
        power_flag, _, _ = is_proper_power(cyc)
        if power_flag:
            pruned += 1
            continue
        inverse_class = CyclicWord.of(invert_word(cyc.letters))
        if inverse_class.letters != cyc.letters and _word_sort_key(
            inverse_class.letters
        ) < _word_sort_key(cyc.letters):
            pruned += 1
            continue
        vector = [0] * rank
        for letter in cyc.letters:
            vector[abs(letter) - 1] += 1 if letter > 0 else -1
        exact_cache: dict[int, CyclicWord] = {}
        for p, hi, lo in pairs:
            d = diff[p]
            if any(
                sum(d[i][j] * vector[j] for j in range(rank)) != 0
                for i in range(rank)
            ):
                continue
            if any(
                _cycle_type(_perm_of_word(cyc.letters, maps[hi]))
                != _cycle_type(_perm_of_word(cyc.letters, maps[lo]))
                for maps in quotients
            ):
                continue
            filtered_exact += 1
            if hi not in exact_cache:
                exact_cache[hi] = exact_image(cyc, hi)
            if lo not in exact_cache:
                exact_cache[lo] = exact_image(cyc, lo)
            if exact_cache[hi] == exact_cache[lo]:
                violation = {
                    "word": render_word(cyc.letters, basis),
                    "power": p,
                }
                break
        if violation is not None:
            break
    return {
        "schema": "freevol/1",
        "max_len": max_len,
        "max_power": max_power,
        "classes_checked": checked,
        "classes_pruned": pruned,
        "exact_comparisons": filtered_exact,
        "violation": violation,
        "ok": violation is None,
    }

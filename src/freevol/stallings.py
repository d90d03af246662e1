"""Stallings subgroup graphs: folding, pruning, membership, rank, pullbacks.

A graph is a finite set of integer vertices with directed edges labeled by
positive generator indices.  A folded graph has at most one outgoing and one
incoming edge per (vertex, label), which makes the label-reading map to the
rose locally injective.

The pullback of two folded graphs is their fiber product over the rose, and
the cores of its components are the intersections of the conjugates of the
two subgroups (Stallings 1983, "Topology of finite graphs").  That product
is folded too, and pruning keeps E - V + 1, so the components' ranks come
from one pass over the product's edges (``_fiber_product``).
``pullback_ranks`` and ``is_malnormal`` read them there, and only
``pullback`` builds and cores a graph per component.  No library caller
needs those graphs, but ``pullback`` stays public API: it is exported by
``freevol``, and the benchmark's traced run times it by name.

A folded graph is held as a table, ``Links``: each vertex's row maps a
signed label to the neighbor it leads to.  ``subgroup_graph`` builds the
table of a subgroup's core with ``fold_generators``, which spells each
generator only where the graph built so far cannot read it;
``fold_and_core`` folds an arbitrary graph and stays for raw graphs and
``pullback``.  Both hand what is left to fold to one merge loop,
``_fold``, and prune with one ``_prune`` (Stallings 1983; Touikan 2006).
``volume`` reads the table of a core as it is, without a graph.

``Forest``, the library's one union-find, counts each component's
E - V + 1.  It merges vertex classes in ``_fold``, splits fiber products,
and finds the vertex orbits of ``volume``'s quotient graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import TrivialSubgroup
from .words import Basis, Word

Edge = tuple[int, int, int]  # (source, target, label)
Links = dict[int, dict[int, int]]  # a folded graph's table: vertex -> {signed label: neighbor}


@dataclass(frozen=True)
class LabeledGraph:
    vertices: frozenset[int]
    edges: frozenset[Edge]
    basepoint: Optional[int] = None

    def __post_init__(self) -> None:
        for source, target, label in self.edges:
            if label <= 0:
                raise ValueError("edge labels are positive generator indices")
            if source not in self.vertices or target not in self.vertices:
                raise ValueError("edge endpoint outside vertex set")
        if self.basepoint is not None and self.basepoint not in self.vertices:
            raise ValueError("basepoint outside vertex set")

    def out_map(self) -> dict[tuple[int, int], int]:
        """(vertex, signed label) -> neighbor, for folded graphs."""
        table: dict[tuple[int, int], int] = {}
        for source, target, label in self.edges:
            table[(source, label)] = target
            table[(target, -label)] = source
        return table


class Forest:
    """Union-find over int nodes that counts each component's E - V + 1.

    Each component's root is its least node, so the roots do not depend on
    the order of the joins, and ``root`` halves the path it walks.
    ``join(u, w)`` links two nodes, adding either one if it is new.  It
    returns the two roots it merged, least first, or None when u and w were
    already joined; such a link closes a cycle, and ``ranks`` counts it.
    """

    __slots__ = ("_parent", "_cycles")

    def __init__(self, nodes: Iterable[int] = ()):
        self._parent = {node: node for node in nodes}
        self._cycles: dict[int, int] = {}  # root -> E - V + 1, when positive

    def root(self, node: int) -> int:
        parent = self._parent
        up = parent[node]
        while up != node:
            parent[node] = node = parent[up]  # point at the grandparent and step there
            up = parent[node]
        return node

    def join(self, u: int, w: int) -> Optional[tuple[int, int]]:
        parent, cycles = self._parent, self._cycles
        # setdefault adds a new node, and a node's parent has the node's root.
        first, second = self.root(parent.setdefault(u, u)), self.root(parent.setdefault(w, w))
        if first == second:
            cycles[first] = cycles.get(first, 0) + 1
            return None
        if second < first:
            first, second = second, first
        parent[second] = first
        if second in cycles:
            cycles[first] = cycles.get(first, 0) + cycles.pop(second)
        return first, second

    def ranks(self) -> dict[int, int]:
        """E - V + 1 of each component, keyed by its root."""
        return {node: self._cycles.get(node, 0) for node, up in self._parent.items() if node == up}


def spell_path(
    edges: set[Edge], word: Word, source: int, target: Optional[int], fresh: int
) -> list[int]:
    """Add to ``edges`` a path from ``source`` to ``target`` reading ``word``.

    The interior vertices get the ids ``fresh``, ``fresh + 1``, ...; a
    ``target`` of None is one more fresh vertex.  Returns the vertices
    along the path, ``source`` first.
    """
    end = fresh + len(word) - 1 if target is None else target
    stops = [source, *range(fresh, fresh + len(word) - 1), end]
    for tail, head, letter in zip(stops, stops[1:], word):
        edges.add((tail, head, letter) if letter > 0 else (head, tail, -letter))
    return stops


def from_generators(basis: Basis, gens: Sequence[Word]) -> LabeledGraph:
    """Wedge of subdivided loops at basepoint 0, one loop per generator word."""
    if not gens or any(len(g) == 0 for g in gens):
        raise TrivialSubgroup("need nonempty generator words")
    vertices = {0}
    edges: set[Edge] = set()
    fresh = 1
    for gen in gens:
        vertices.update(spell_path(edges, gen, 0, 0, fresh))
        fresh += len(gen) - 1
    return LabeledGraph(frozenset(vertices), frozenset(edges), basepoint=0)


def _prune(links: Links, keep: Optional[int]) -> None:
    """Remove valence-<=1 vertices other than ``keep`` in rounds, never the last one.

    ``links`` is a folded graph's table, so a vertex's valence is the size
    of its row.  Each round removes, in id order, the vertices that had
    valence at most one when it began; a degree queue finds the next
    round's vertices among the neighbors of the removed ones.  A tree
    without ``keep`` therefore shrinks to its center, or to the larger end
    of its central edge.
    """
    layer = sorted(v for v, out in links.items() if len(out) <= 1 and v != keep)
    while layer and len(links) > 1:
        exposed: set[int] = set()
        for vertex in layer:
            if len(links) == 1:
                break
            for key, other in links.pop(vertex).items():
                del links[other][-key]
                if len(links[other]) <= 1 and other != keep:
                    exposed.add(other)
        layer = sorted(v for v in exposed if v in links)


def _enter(links: Links, edges: Iterable[Edge], pending: list[tuple[int, int]]) -> None:
    """Enter each edge, its label signed, into the table; each clash of a label goes onto ``pending``."""
    for source, target, label in edges:
        for vertex, key, other in ((source, label, target), (target, -label, source)):
            known = links[vertex].setdefault(key, other)
            if known != other:
                pending.append((known, other))


def _fold(links: Links, pending: list[tuple[int, int]]) -> tuple[Callable[[int], int], int]:
    """Merge each pending pair of vertices, and every clash that causes, until ``links`` is folded.

    A union-find worklist fold (Touikan 2006): the classes of vertices are
    the components of a ``Forest``, every class keeps one row, two rows
    merge smaller into larger, and each clash of a label found while
    merging goes onto the stack of pending merges.  That costs O(E log E)
    dictionary operations for E edges.  Each class is named by its least
    vertex id, the class's root, so the result does not depend on the order
    of the merges; every neighbor is rewritten to its root at the end.
    Returns the root map and the number of merges.
    """
    forest = Forest(links)
    join, root = forest.join, forest.root
    merges = 0
    while pending:
        joined = join(*pending.pop())
        if joined is None:
            continue
        keep_vertex, merge_vertex = joined
        merges += 1
        kept, moved = links[keep_vertex], links.pop(merge_vertex)
        if len(kept) < len(moved):
            kept, moved = moved, kept
            links[keep_vertex] = kept
        for key, other in moved.items():
            known = kept.setdefault(key, other)
            if known != other:
                pending.append((known, other))
    for out in links.values():
        for key, other in out.items():
            out[key] = root(other)
    return root, merges


def as_graph(links: Links, basepoint: Optional[int] = None) -> LabeledGraph:
    """The graph whose table is ``links``."""
    edges = frozenset((v, w, key) for v, out in links.items() for key, w in out.items() if key > 0)
    return LabeledGraph(frozenset(links), edges, basepoint=basepoint)


def fold_and_core(graph: LabeledGraph, keep_basepoint: bool) -> tuple[LabeledGraph, int]:
    """Fold to an immersion, then prune to a core graph.

    Returns the core and the number of vertex merges, which is 0 exactly
    when ``graph`` was already folded.  Every edge enters the table, the
    clashes go to ``_fold``, and pruning is linear after one sort per
    round.  Each folded vertex is named by the least input vertex id in its
    class.
    """
    links: Links = {v: {} for v in graph.vertices}
    pending: list[tuple[int, int]] = []
    _enter(links, graph.edges, pending)
    root, merges = _fold(links, pending)
    basepoint = root(graph.basepoint) if graph.basepoint is not None and keep_basepoint else None
    _prune(links, basepoint)
    return as_graph(links, basepoint), merges


def fold_generators(gens: Sequence[Word], keep_basepoint: bool) -> Links:
    """The table of ``fold_and_core(from_generators(basis, gens), keep_basepoint)[0]``.

    Vertex ids, basepoint 0 included, are those of that core.  Each
    generator is added to the graph folded so far along its path in
    ``from_generators``, whose vertices at positions 0 .. L are 0, f, f + 1,
    ..., f + L - 2, 0.  The path is read forward from 0 and backward from 0
    as far as the graph allows: the positions read lie in the class of the
    vertex reached, whose least id is older, so none of them is added.
    While both reads stop at one vertex and leave it by the same missing
    label, both next positions lie in one class, whose least id is the
    forward one's: one vertex of that id is added, and both reads step
    onto it.  Only the middle is then spelled, each vertex with its id in
    ``from_generators``.  A clash left, from an unreduced word or from
    the two reads meeting, goes to ``_fold``.

    The classes are those of folding the whole wedge at once, since folds
    commute and every identification above is one that folding makes; so
    the names agree, and pruning at the end gives the same core.  A
    reduced generator whose reads do not meet causes no clash, so neither
    its hair nor what it shares with the others is spelled and merged.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise TrivialSubgroup("all generators are trivial")
    links: Links = {0: {}}
    fresh = 1
    for word in gens:
        pending: list[tuple[int, int]] = []
        last = len(word)
        head, a = 0, 0  # the forward read: at position a, on vertex head
        while a < last and (step := links[head].get(word[a])) is not None:
            head, a = step, a + 1
        tail, b = 0, last  # the backward read: at position b, on vertex tail
        while b > a and (step := links[tail].get(-word[b - 1])) is not None:
            tail, b = step, b - 1
        while head == tail and a + 1 < b - 1 and word[a] == -word[b - 1] and word[a] not in links[head]:
            links[head][word[a]] = fresh + a
            links[fresh + a] = {-word[a]: head}
            head = tail = fresh + a
            a, b = a + 1, b - 1
        path = [head, *range(fresh + a, fresh + b - 1), tail]  # the middle's positions a .. b
        links.update((vertex, {}) for vertex in path[1:-1])
        _enter(links, zip(path, path[1:], word[a:b]), pending)
        if a == b and head != tail:
            pending.append((head, tail))
        if pending:
            _fold(links, pending)
        fresh += last - 1
    _prune(links, 0 if keep_basepoint else None)
    return links


def subgroup_graph(basis: Basis, gens: Sequence[Word], keep_basepoint: bool = True) -> LabeledGraph:
    """Folded (core) graph of the subgroup generated by ``gens``, empty words dropped.

    Built by ``fold_generators``; it equals the core of
    ``fold_and_core(from_generators(basis, gens), keep_basepoint)``, vertex
    ids and basepoint included.
    """
    return as_graph(fold_generators(gens, keep_basepoint), 0 if keep_basepoint else None)


def read_path(table: dict[tuple[int, int], int], start: int, word: Word) -> Optional[int]:
    """End of the path reading ``word`` from ``start``, or None if it leaves the graph.

    ``table`` is a folded graph's ``out_map``, so the path is unique.
    """
    for letter in word:
        start = table.get((start, letter))
        if start is None:
            return None
    return start


def contains(graph: LabeledGraph, word: Word) -> bool:
    """Membership test: does ``word`` label a closed path at the basepoint?"""
    if graph.basepoint is None:
        raise ValueError("membership needs a basepointed graph")
    return read_path(graph.out_map(), graph.basepoint, word) == graph.basepoint


def rank(graph: LabeledGraph) -> int:
    """First Betti number E - V + 1 of a connected graph."""
    return len(graph.edges) - len(graph.vertices) + 1


def cycle_word(graph: LabeledGraph) -> Word:
    """The word read once around a folded graph that is a single cycle.

    The walk starts at the least vertex along its greatest signed label, so
    the word is cyclically reduced and depends only on the graph.
    """
    exits: dict[int, list[tuple[int, int]]] = {}  # vertex -> [(signed label, neighbor)]
    for source, target, label in graph.edges:
        exits.setdefault(source, []).append((label, target))
        exits.setdefault(target, []).append((-label, source))
    start = min(graph.vertices)
    letter, vertex = max(exits[start])
    word = [letter]
    while vertex != start:
        letter, vertex = next((x, w) for x, w in exits[vertex] if x != -letter)
        word.append(letter)
    return tuple(word)


def _fiber_product(
    graph1: LabeledGraph, graph2: LabeledGraph, edges: Optional[list[Edge]] = None
) -> tuple[Forest, Callable[[int, int], int]]:
    """The components of the fiber product of two folded graphs over the rose.

    The product's vertices are the pairs (v1, v2) that an edge of each graph
    with the same label leaves or enters, so the full V1 x V2 product is
    never materialized.  Each pair is named by one int, ``vertex(v1, v2)``,
    and one pass over the label coincidences joins the ends of every product
    edge in a ``Forest``, which is returned with ``vertex``.

    When both graphs are folded, so is the product, and pruning keeps
    E - V + 1, so the forest's ranks are those of the components' cores.
    If ``edges`` is given, every product edge is appended to it.
    """
    low = min(graph2.vertices, default=0)
    span = max(graph2.vertices, default=0) - low + 1

    def vertex(v1: int, v2: int) -> int:
        return v1 * span + v2 - low

    ends2: dict[int, list[tuple[int, int]]] = {}  # label -> [(source - low, target - low)] of graph2
    for source2, target2, label in graph2.edges:
        ends2.setdefault(label, []).append((source2 - low, target2 - low))
    forest = Forest()
    join = forest.join
    for source1, target1, label in graph1.edges:
        source1, target1 = source1 * span, target1 * span
        for source2, target2 in ends2.get(label, ()):
            source, target = source1 + source2, target1 + target2  # vertex(v1, v2)
            if edges is not None:
                edges.append((source, target, label))
            join(source, target)
    return forest, vertex


def pullback(graph1: LabeledGraph, graph2: LabeledGraph) -> list[LabeledGraph]:
    """Cores of all components of the fiber product over the rose.

    The product's edges are split by its components in one pass,
    and each component is cored by ``fold_and_core``; the components come
    in the order of their least vertex.  For folded graphs the cores are
    the intersections of conjugates of the two subgroups (Stallings 1983),
    and when only their ranks are needed ``pullback_ranks`` builds none.
    """
    edges: list[Edge] = []
    product, _ = _fiber_product(graph1, graph2, edges)
    blocks: dict[int, list[Edge]] = {root: [] for root in sorted(product.ranks())}
    for edge in edges:
        blocks[product.root(edge[0])].append(edge)
    return [
        fold_and_core(
            LabeledGraph(frozenset(v for edge in block for v in edge[:2]), frozenset(block)),
            keep_basepoint=False,
        )[0]
        for block in blocks.values()
    ]


def pullback_ranks(graph1: LabeledGraph, graph2: LabeledGraph) -> list[int]:
    """Ranks of the components of the fiber product of two folded graphs, sorted.

    Equal to ``sorted(rank(c) for c in pullback(graph1, graph2))``, read off
    the product's ``Forest`` without building a graph per component.
    """
    product, _ = _fiber_product(graph1, graph2)
    return sorted(product.ranks().values())


def is_malnormal(graph: LabeledGraph) -> bool:
    """True iff every non-diagonal self-pullback component has rank 0.

    ``graph`` must be folded.  The diagonal of its self fiber product is
    then a union of whole components, each holding a pair (v, v) for some
    vertex v that an edge leaves; those components are skipped, and the
    others' ranks are read off the product's ``Forest``.
    """
    product, vertex = _fiber_product(graph, graph)
    diagonal = {product.root(vertex(v, v)) for v, _, _ in graph.edges}
    return all(r == 0 or root in diagonal for root, r in product.ranks().items())


def canonical_form(graph: LabeledGraph) -> tuple:
    """Canonical encoding of a folded graph up to label-preserving isomorphism.

    Breadth-first relabeling over (label, direction)-ordered edges; for
    graphs without a basepoint every vertex is tried as the start and the
    least encoding wins.
    """
    table = graph.out_map()
    labels = sorted({label for _, _, label in graph.edges})
    directions = [(label, sign) for label in labels for sign in (+1, -1)]

    def encode(start: int) -> tuple:
        order: dict[int, int] = {start: 0}
        queue = [start]
        encoding: list[tuple[int, int, int, int]] = []
        head = 0
        while head < len(queue):
            vertex = queue[head]
            head += 1
            for label, sign in directions:
                neighbor = table.get((vertex, label * sign))
                if neighbor is None:
                    continue
                if neighbor not in order:
                    order[neighbor] = len(order)
                    queue.append(neighbor)
                encoding.append((order[vertex], label, sign, order[neighbor]))
        if len(order) != len(graph.vertices):
            # Not connected from this start; encode remaining parts stably.
            encoding.append((-1, -1, -1, len(order)))
        return tuple(encoding)

    if graph.basepoint is not None:
        return ("based", encode(graph.basepoint))
    if not graph.vertices:
        return ("empty",)
    return ("free", min(encode(v) for v in sorted(graph.vertices)))


def isomorphic(graph1: LabeledGraph, graph2: LabeledGraph) -> bool:
    return canonical_form(graph1) == canonical_form(graph2)


def to_dot(graph: LabeledGraph, basis: Basis) -> str:
    """DOT export, one directed edge per graph edge, basepoint double-circled."""
    lines = ["digraph stallings {"]
    for vertex in sorted(graph.vertices):
        shape = "doublecircle" if vertex == graph.basepoint else "circle"
        lines.append(f'  v{vertex} [shape={shape}];')
    for source, target, label in sorted(graph.edges):
        name = basis.names[label - 1]
        lines.append(f'  v{source} -> v{target} [label="{name}"];')
    lines.append("}")
    return "\n".join(lines)

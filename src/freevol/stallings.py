"""Stallings subgroup graphs: folding, pruning, membership, rank, pullbacks.

A graph is a finite set of integer vertices with directed edges labeled by
positive generator indices.  A folded graph has at most one outgoing and one
incoming edge per (vertex, label), which makes the label-reading map to the
rose locally injective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import TrivialSubgroup
from .words import Basis, Word

Edge = tuple[int, int, int]  # (source, target, label)


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


@dataclass
class FoldTrace:
    """Replayable log of vertex merges and prunes performed while folding."""

    folds: list[tuple[int, int]] = field(default_factory=list)
    prunes: list[int] = field(default_factory=list)


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


def _prune(links: dict[int, dict[int, int]], keep: Optional[int], trace: FoldTrace) -> None:
    """Remove valence-<=1 vertices other than ``keep`` in rounds, never the last one.

    ``links`` maps each vertex of a folded graph to its (signed label ->
    neighbor) table, so a vertex's valence is the size of its table.  Each
    round removes, in id order, the vertices that had valence at most one
    when it began; a degree queue finds the next round's vertices among
    the neighbors of the removed ones.  A tree without ``keep`` therefore
    shrinks to its center, or to the larger end of its central edge.
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
            trace.prunes.append(vertex)
        layer = sorted(v for v in exposed if v in links)


def fold_and_core(graph: LabeledGraph, keep_basepoint: bool) -> tuple[LabeledGraph, FoldTrace]:
    """Fold to an immersion, then prune to a core graph.

    A union-find worklist fold (Touikan 2006): every class of vertices
    keeps one (signed label -> neighbor) table, two tables merge smaller
    into larger, and each clash of a label found while merging goes onto a
    stack of pending merges.  Folding costs O(E log E) dictionary
    operations for E input edges, and pruning is linear after one sort per
    round.  Each folded vertex is named by the least input vertex id in its
    class, so the result does not depend on the order of the merges.
    """
    parent: dict[int, int] = {v: v for v in graph.vertices}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    links: dict[int, dict[int, int]] = {v: {} for v in graph.vertices}
    pending: list[tuple[int, int]] = []
    for source, target, label in graph.edges:
        for vertex, key, other in ((source, label, target), (target, -label, source)):
            known = links[vertex].setdefault(key, other)
            if known != other:
                pending.append((known, other))
    trace = FoldTrace()
    while pending:
        first, second = pending.pop()
        keep_vertex, merge_vertex = sorted((find(first), find(second)))
        if keep_vertex == merge_vertex:
            continue
        parent[merge_vertex] = keep_vertex
        trace.folds.append((keep_vertex, merge_vertex))
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
            out[key] = find(other)
    basepoint = find(graph.basepoint) if graph.basepoint is not None and keep_basepoint else None
    _prune(links, basepoint, trace)
    edges = frozenset((v, w, key) for v, out in links.items() for key, w in out.items() if key > 0)
    return LabeledGraph(frozenset(links), edges, basepoint=basepoint), trace


def subgroup_graph(basis: Basis, gens: Sequence[Word], keep_basepoint: bool = True) -> LabeledGraph:
    """Folded (core) graph of the subgroup generated by ``gens``."""
    gens = [g for g in gens if g]
    if not gens:
        raise TrivialSubgroup("all generators are trivial")
    folded, _ = fold_and_core(from_generators(basis, gens), keep_basepoint=keep_basepoint)
    return folded


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


def connected_components(graph: LabeledGraph) -> list[LabeledGraph]:
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


def _fiber_product(
    graph1: LabeledGraph, graph2: LabeledGraph
) -> tuple[list[LabeledGraph], dict[tuple[int, int], int]]:
    """Components of the fiber product over the rose, and each vertex pair's id.

    Vertex pairs are generated lazily from edge coincidences, so the full
    V1 x V2 product is never materialized.
    """
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


def pullback(graph1: LabeledGraph, graph2: LabeledGraph) -> list[LabeledGraph]:
    """Cores of all components of the fiber product over the rose."""
    components, _ = _fiber_product(graph1, graph2)
    return [fold_and_core(component, keep_basepoint=False)[0] for component in components]


def is_malnormal(graph: LabeledGraph) -> bool:
    """True iff every non-diagonal self-pullback component has rank 0.

    In a folded graph the diagonal of the self fiber product is a union of
    whole components, and each such component is detected by containing a
    pair with equal coordinates.
    """
    components, pair_ids = _fiber_product(graph, graph)
    diagonal = {pair_ids[(v, v)] for v in graph.vertices if (v, v) in pair_ids}
    for component in components:
        if component.vertices & diagonal:
            continue
        core, _ = fold_and_core(component, keep_basepoint=False)
        if rank(core) > 0:
            return False
    return True


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

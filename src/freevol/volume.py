"""Free volume of subgroups relative to a cyclic splitting.

The pipeline rewrites generators in relative coordinates, builds the core graph
of the subgroup over the relative rose, detects chains (concatenations of
lifts of the edge-word loop), classifies them, and counts simply connected
essential chains plus essential vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import TrivialSubgroup
from .splittings import AMALGAM, HNN, CyclicSplitting, require_valid, to_relative
from .stallings import Edge, LabeledGraph, subgroup_graph
from .words import Basis, Word, cyclically_reduce

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


@dataclass(frozen=True)
class VolumeReport:
    graph: LabeledGraph
    edge_classes: dict[Edge, str]
    chains: tuple[Chain, ...]
    essential_vertices: frozenset[int]
    crossing_vertices: frozenset[int]
    free_volume: int

    def to_json(self) -> dict:
        return {
            "schema": "freevol/1",
            "free_volume": self.free_volume,
            "essential_vertices": sorted(self.essential_vertices),
            "crossing_vertices": sorted(self.crossing_vertices),
            "chains": [
                {
                    "vertices": list(chain.chain_vertices),
                    "essential": chain.essential,
                    "simply_connected": chain.simply_connected,
                }
                for chain in self.chains
            ],
        }


def initial_edge_class(splitting: CyclicSplitting, label: int) -> str:
    if splitting.kind == HNN:
        return T_EDGE if label == splitting.stable_index else A_EDGE
    return A_EDGE if label in splitting.a_part else B0_EDGE


def lambda_graph(splitting: CyclicSplitting, gens: Sequence[Word]) -> LabeledGraph:
    """Folded core graph of the subgroup, drawn over the relative rose."""
    require_valid(splitting)
    relative_gens = [to_relative(splitting, g) for g in gens if g]
    relative_gens = [g for g in relative_gens if g]
    if not relative_gens:
        raise TrivialSubgroup("subgroup generators are all trivial")
    return subgroup_graph(splitting.ambient_basis, relative_gens, keep_basepoint=False)


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


def analyze(splitting: CyclicSplitting, gens: Sequence[Word]) -> VolumeReport:
    graph = lambda_graph(splitting, gens)
    chains = find_chains(graph, splitting)
    chains, classes = classify_chains(graph, splitting, chains)
    essential, crossing = essential_and_crossing_vertices(graph, splitting, chains, classes)
    volume = sum(1 for c in chains if c.essential and c.simply_connected) + len(essential)
    return VolumeReport(
        graph=graph,
        edge_classes=classes,
        chains=tuple(chains),
        essential_vertices=essential,
        crossing_vertices=crossing,
        free_volume=volume,
    )


def free_volume(splitting: CyclicSplitting, gens: Sequence[Word]) -> int:
    return analyze(splitting, gens).free_volume


def translation_length(splitting: CyclicSplitting, word: Word) -> int:
    """Translation length of a single element; zero for elliptic elements."""
    core, _ = cyclically_reduce(word)
    if not core:
        return 0
    return free_volume(splitting, [core])


def to_dot(report: VolumeReport, basis: Basis) -> str:
    """DOT overlay: edge classes by color, chain edges dashed, essential vertices filled."""
    colors = {A_EDGE: "blue", B0_EDGE: "red", T_EDGE: "darkgreen"}
    chain_edges: set[Edge] = set()
    for chain in report.chains:
        if chain.essential:
            chain_edges |= set(chain.path_edges)
    lines = ["digraph volume {"]
    for vertex in sorted(report.graph.vertices):
        attrs = []
        if vertex in report.essential_vertices:
            attrs.append("style=filled fillcolor=black fontcolor=white")
        elif vertex in report.crossing_vertices:
            attrs.append("style=filled fillcolor=gray")
        lines.append(f"  v{vertex} [{' '.join(attrs)}];")
    for edge in sorted(report.graph.edges):
        source, target, label = edge
        name = basis.names[label - 1]
        style = "dashed" if edge in chain_edges else "solid"
        color = colors[report.edge_classes[edge]]
        lines.append(
            f'  v{source} -> v{target} [label="{name}" color={color} style={style}];'
        )
    lines.append("}")
    return "\n".join(lines)

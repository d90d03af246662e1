"""Free volume of subgroups relative to a cyclic splitting.

A cyclic splitting presents F as the fundamental group of a one-edge graph
of groups whose edge group is generated by the edge word c; T is its
Bass-Serre tree.  A finitely generated subgroup H acts on T, and T_H is its
minimal subtree.  The free volume of H is the number of edges of the
quotient graph of groups T_H/H with trivial stabilizer (Clay-Pettet).  For
H = <g> with g hyperbolic, T_H is the axis of g, so the free volume is the
translation length of g.  ``translation_length`` counts it in one pass over
the relative word, with no graph; ``free_volume`` below is the general
algorithm, and on cyclic subgroups it cross-checks that count.  Each has
an entry for words in the splitting's relative letters, ``relative_length``
and ``relative_volume``.

The quotient is read off Gamma, the folded core graph of H over the
relative rose (Bestvina-Feighn 1991; Kapovich-Weidmann-Miasnikov 2005),
held as the table ``stallings.fold_generators`` folds it into; only
``analyze`` and ``lambda_graph`` turn that table into a graph.  A
vertex Hg of Gamma stands for the tree edge g<c>.  The lift map sends a
vertex to the end of the path reading c from it; its orbits, the chains,
are the H-orbits of tree edges that Gamma meets.  A cyclic chain has
stabilizer Z, every other chain a trivial one.  Vertex orbits are the
components of the graphs below, joined in one ``stallings.Forest``, which
also counts each one's group rank E - V + 1:

* amalgam A *_<c> B with B = <c> * B0: the A-orbits are the components of
  Gamma's A-edges, the B-orbits those of its B0-edges together with one
  link v -> lift(v) per lift.  Every chain joins its A-orbit to its B-orbit.
* HNN extension with stable letter t, vertex group <A, t^-1 c t>: Gamma's
  A-edges, plus one node per chain that a t-edge leaves, joined to the head
  of each such edge and given a loop when the chain is cyclic.  Each such
  chain joins its own orbit to its heads' orbit.

These vertices and edges form the quotient Y of an H-invariant subtree that
contains T_H.  Dropping, while there is one, a valence-1 vertex whose rank
equals its edge's (0 or 1), that is whose group is its edge's group, leaves
T_H/H.  The free volume is the number of non-cyclic chains left.

``relative_volume`` shortens Gamma first, so that the quotient's cost does
not grow with long arcs (``_shorten``); ``analyze`` keeps the full table,
as it lists every chain.  An arc is a maximal path of Gamma whose interior
vertices have valence 2.  Its separators and gaps are those of
``translation_length``: B0 letters or t^+-1, and the A-words between two
of them.  An arc with m >= 2 separators keeps its word up to and including
its first separator, and from its last separator on.  Its middle, the
m - 1 gaps between those two and the separators among them, is replaced
by a stand-in gap, and what was cut is added to the count:

* amalgam, with r of the middle's gaps not powers of c: if r >= 1 the
  stand-in is one A-letter x != c^+-1, and 2(r - 1) is added; if r = 0 it
  is empty, or c when the two kept separators are inverse;
* HNN, with d = m - 2 (number of middle gaps t^-1 c^j t): if d >= 1 the
  stand-in is x, and d - 2 is added; if d = 0 it is c.  Then every
  separator lies in such a pinch, so the first is t^-1 and the last t.

Each new word is reduced and the kept vertices keep their labels, so the
shortened table is again a folded core graph.  A graph that is one cycle
has no arc with ends, and a splitting whose A-part is <c> has no x; neither
is shortened.

Proof that the count is unchanged.  The edges of T_H/H are the H-orbits of
tree edges that the axis of some element of H crosses, and up to
conjugacy in H every element of H reads around an immersed loop of Gamma.
By the proof of ``translation_length``, the axis of the element read around
a loop crosses, per period, the chains of the ends of its gaps that are
not powers of c (amalgam), or of the tails of its separators that lie in
no pinch (HNN), the chain of a t-edge's tail being the one ``_quotient``
gives that edge.  So the free volume is the number of non-cyclic chains at
such a vertex of some loop.  Reading c, an A-word, from a middle vertex
stops at the separators around its gap, and a gap's inner vertices have no
other edges; so every chain that meets the middle lies in one gap, and
every other chain is the same in both graphs, as is whether a loop crosses
it: that depends only on the gaps around it, which lie outside the middle.
Loops of the two graphs correspond, a loop through the arc running through
all of it, and in a core graph some loop does.  In the middle:

* amalgam: the two ends of each of the r gaps that are not powers of c
  lie in two chains of that gap, and every loop through the arc crosses
  them; no other middle chain is crossed.  That is 2r chains, and 2 for
  the stand-in x or 0 for a stand-in that is empty or c.
* HNN: a separator is in no pinch with its neighbours in the middle
  exactly when it is in no pinch on any loop through the arc, and the
  first separator, if t, and the last, if t^-1, have kept tails; a pinch
  could only join them to gaps outside the middle, which are the same in
  both graphs.  The other d - [first is t] - [last is t^-1] separators in
  no pinch have middle tails in distinct chains, crossed by every loop
  through the arc.  The stand-in x has two separators in no pinch and c
  none, with the same first and last separator.

So the middle holds 2(r - 1) or d - 2 more counted chains than its
stand-in, and none of them is cyclic, as a chain inside a gap is a path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .splittings import HNN, CyclicSplitting, to_relative
from .stallings import Forest, LabeledGraph, Links, as_graph, fold_generators
from .words import Word, cyclically_reduce, is_power_of, render_word


@dataclass(frozen=True)
class Chain:
    """An orbit of the lift map: one H-orbit of tree edges that Gamma meets.

    ``chain_vertices`` lists the orbit in lift order; a cyclic chain ends
    with its first vertex again.  ``essential`` says the chain is an edge
    of T_H/H.
    """

    chain_vertices: tuple[int, ...]
    is_cycle: bool
    essential: bool = False

    @property
    def simply_connected(self) -> bool:
        return not self.is_cycle


@dataclass(frozen=True)
class VolumeReport:
    """``chains`` holds every chain but the singletons that are not essential."""

    graph: LabeledGraph
    chains: tuple[Chain, ...]
    free_volume: int

    def to_json(self) -> dict:
        return {
            "schema": "freevol/1",
            "free_volume": self.free_volume,
            "chains": [
                {
                    "vertices": list(chain.chain_vertices),
                    "essential": chain.essential,
                    "simply_connected": chain.simply_connected,
                }
                for chain in self.chains
            ],
        }


def lambda_graph(splitting: CyclicSplitting, gens: Sequence[Word]) -> LabeledGraph:
    """Folded core graph of the subgroup, drawn over the relative rose."""
    return as_graph(fold_generators([to_relative(splitting, g) for g in gens], keep_basepoint=False))


def chains(links: Links, edge_word: Word) -> list[tuple[int, ...]]:
    """Orbits of the lift map: paths from each vertex without a preimage, then cycles."""
    lift = {}
    for vertex in links:
        end = vertex
        for letter in edge_word:
            end = links[end].get(letter)
            if end is None:
                break
        else:
            lift[vertex] = end
    starts = sorted(links.keys() - lift.values()) + sorted(lift)
    seen: set[int] = set()
    orbits = []
    for start in starts:
        if start in seen:
            continue
        orbit = [start]
        while orbit[-1] in lift and (len(orbit) == 1 or orbit[-1] != start):
            orbit.append(lift[orbit[-1]])
        seen.update(orbit)
        orbits.append(tuple(orbit))
    return orbits


def _prune(
    ranks: dict[int, int], ends: dict[int, tuple[int, int]], cyclic: list[bool]
) -> set[int]:
    """The edges of the graph of groups, by chain index, that survive pruning to T_H/H."""
    incident: dict[int, list[int]] = {vertex: [] for vertex in ranks}
    for index, (u, w) in ends.items():
        incident[u].append(index)
        incident[w].append(index)
    alive = set(ends)
    leaves = [vertex for vertex, edges in incident.items() if len(edges) == 1]
    while leaves:
        vertex = leaves.pop()
        edges = [index for index in incident[vertex] if index in alive]
        if len(edges) != 1 or ranks[vertex] != cyclic[edges[0]]:
            continue
        alive.remove(edges[0])
        u, w = ends[edges[0]]
        other = w if u == vertex else u
        if sum(index in alive for index in incident[other]) == 1:
            leaves.append(other)
    return alive


def _quotient(
    splitting: CyclicSplitting, links: Links
) -> tuple[list[tuple[int, ...]], list[bool], list[bool]]:
    """The chains of Gamma, given by its table, which are cyclic, and which are edges of T_H/H."""
    orbits = chains(links, splitting.edge_word)
    cyclic = [len(orbit) > 1 and orbit[-1] == orbit[0] for orbit in orbits]
    in_a = set(splitting.a_part)
    a_links, other_links = [], []  # Gamma's A-edges, and its B0- or t-edges
    for u, out in links.items():
        for label, w in out.items():
            if label > 0:
                (a_links if label in in_a else other_links).append((u, w))
    if splitting.kind == HNN:
        # Node ~i stands for the i-th chain; it joins the heads of its t-edges.
        chain_of = {v: index for index, orbit in enumerate(orbits) for v in orbit}
        heads = [(~chain_of[u], w) for u, w in other_links]
        nodes = {node for node, _ in heads}
        loops = [(node, node) for node in nodes if cyclic[~node]]
        forest = Forest(links)
        joins = a_links + heads + loops
        sides = {~node: (orbits[~node][0], node) for node in nodes}
    else:
        # Node ~v stands for vertex v on the B-side.
        lifts = [(~orbit[i], ~orbit[i + 1]) for orbit in orbits for i in range(len(orbit) - 1)]
        b_links = [(~u, ~w) for u, w in other_links]
        forest = Forest([*links, *(~v for v in links)])
        joins = a_links + b_links + lifts
        sides = {index: (orbit[0], ~orbit[0]) for index, orbit in enumerate(orbits)}
    for u, w in joins:
        forest.join(u, w)
    root = forest.root
    ends = {index: (root(u), root(w)) for index, (u, w) in sides.items()}
    alive = _prune(forest.ranks(), ends, cyclic)
    return orbits, cyclic, [index in alive for index in range(len(orbits))]


def analyze(splitting: CyclicSplitting, gens: Sequence[Word]) -> VolumeReport:
    links = fold_generators([to_relative(splitting, g) for g in gens], keep_basepoint=False)
    orbits, cyclic, essential = _quotient(splitting, links)
    chains = tuple(
        Chain(orbit, is_cycle, alive)
        for orbit, is_cycle, alive in zip(orbits, cyclic, essential)
        if len(orbit) > 1 or alive
    )
    volume = sum(1 for chain in chains if chain.essential and chain.simply_connected)
    return VolumeReport(graph=as_graph(links), chains=chains, free_volume=volume)


def free_volume(splitting: CyclicSplitting, gens: Sequence[Word]) -> int:
    """Free volume of the subgroup generated by the ambient words ``gens``."""
    return relative_volume(splitting, [to_relative(splitting, g) for g in gens])


def relative_volume(splitting: CyclicSplitting, gens: Sequence[Word]) -> int:
    """``free_volume`` of the subgroup generated by words in the splitting's relative letters.

    The quotient is counted on Gamma shortened by ``_shorten``, plus the
    free edges that shortening cut: each arc's middle becomes one gap, so a
    twist's long c^n arcs cost what a short word costs.  The module
    docstring proves the two counts equal.
    """
    links = fold_generators(gens, keep_basepoint=False)
    cut = _shorten(splitting, links)
    _, cyclic, essential = _quotient(splitting, links)
    return cut + sum(1 for is_cycle, alive in zip(cyclic, essential) if alive and not is_cycle)


def _shorten(splitting: CyclicSplitting, links: Links) -> int:
    """Cut the middle of every arc of Gamma's table down to a stand-in gap; return the free edges cut.

    ``links`` is changed in place.  The stand-ins and the count are those
    of the module docstring, with x the first A-part letter other than
    c^+-1.  An arc is rewritten only where its stand-in is shorter than its
    middle.
    """
    c = splitting.edge_word
    x = next((letter for letter in splitting.a_part if (letter,) != c and (-letter,) != c), None)
    branches = [vertex for vertex, out in links.items() if len(out) > 2]
    if x is None or not branches:
        return 0
    hnn = splitting.kind == HNN
    separators = splitting.separators
    fresh = max(links) + 1
    walked: set[tuple[int, int]] = set()  # (branch vertex, signed label) of an arc walked from its other end
    cut = 0
    for start in branches:
        for first, step in list(links[start].items()):
            if (start, first) in walked:
                continue
            path, word, came = [start], [first], -first
            while len(row := links[step]) == 2:
                path.append(step)
                for key in row:
                    if key != came:
                        break
                word.append(key)
                came = -key
                step = row[key]
            path.append(step)
            walked.add((step, came))
            cuts = [i for i, letter in enumerate(word) if abs(letter) in separators]
            if len(cuts) < 2:
                continue
            uncounted = sum(uncounted_gaps(splitting, word, zip(cuts, cuts[1:])))
            i, j = cuts[0], cuts[-1]
            if hnn:
                d = len(cuts) - 2 * uncounted
                stand_in, gain = ((x,), d - 2) if d else (c, 0)
            else:
                r = len(cuts) - 1 - uncounted
                stand_in, gain = ((x,), 2 * r - 2) if r else (c if word[i] == -word[j] else (), 0)
            if len(stand_in) >= j - i - 1:
                continue
            for vertex in path[i + 1 : j + 1]:
                del links[vertex]
            spelled = [path[i], *range(fresh, fresh + len(stand_in) + 1), path[j + 1]]
            fresh += len(stand_in) + 1
            links.update((vertex, {}) for vertex in spelled[1:-1])
            for tail, head, letter in zip(spelled, spelled[1:], (word[i], *stand_in, word[j])):
                links[tail][letter] = head
                links[head][-letter] = tail
            cut += gain
    return cut


def translation_length(splitting: CyclicSplitting, word: Word) -> int:
    """Translation length of ``word`` on the Bass-Serre tree; zero for elliptic elements.

    Let x be the cyclic reduction of the word in relative letters.  Call
    the B0 letters (amalgam) or t^+-1, t the stable letter (HNN), the
    separators, and the letters between two cyclically consecutive
    separators a gap.  A gap is a reduced word in A-part letters, and such
    a word lies in the edge group <c> exactly when it is c^j letter for
    letter, since c is cyclically reduced.  Without a separator x lies in
    the vertex group <A> and the length is 0.  Otherwise:

    * Amalgam A *_<c> B, B = <c> * B0.  Join every gap that is a power of
      c, the empty gap included, to the separators around it.  What is
      left alternates between the other gaps, which lie in A but not in
      <c>, and maximal runs of separators and c-power gaps, which lie in B
      and, holding a B0 letter, not in <c> (normal form in a free product).
      If r gaps are left, r >= 1, that is a cyclically reduced normal form
      of length 2r, so g translates by 2r (Serre, Trees); if r = 0,
      x lies in B.  So the length is 2 r in every case.
    * HNN extension of G = <A, d>, free on A and d = t^-1 c t.  By Britton's
      lemma a cyclic word in G and t^+-1 with no pinch, t^-1 h t with h in
      <c> or t h t^-1 with h in <d>, translates by its number of t letters.
      In x a gap t h t^-1 is no pinch: h lies in <A>, which meets <d>
      trivially, and h is not empty, as x is cyclically reduced.  So the
      pinches of x are its gaps t^-1 c^j t, j != 0.  They are disjoint: a
      t^-1 can only open the gap after it, and a t only close the one
      before it.  Replace each by d^j.  Pinches cannot nest: a new one
      would be t^e h t^-e with h = u_0 d^(j_1) u_1 ... d^(j_r) u_r, r >= 1,
      the u_i gaps of x.  The gaps u_1, ..., u_(r-1) lie between t and
      t^-1, so they are not empty, and h is reduced in G.  It holds d, so
      it is not in <c>; it would be in <d> only with u_0 empty, but for
      e = 1 the gap u_0 too lies between t and t^-1.  So what is left has
      no pinch, even cyclically, and the length is #t - 2 (number of gaps
      t^-1 c^j t).
    """
    return relative_length(splitting, to_relative(splitting, word))


def relative_length(splitting: CyclicSplitting, word: Word) -> int:
    """``translation_length`` of a word given in the splitting's relative letters."""
    return cyclic_length(splitting, cyclically_reduce(word)[0])


def cyclic_length(splitting: CyclicSplitting, x: Word) -> int:
    """``relative_length`` of a relative word ``x`` that is already cyclically reduced."""
    separators = splitting.separators
    cuts = [i for i, letter in enumerate(x) if abs(letter) in separators]
    if not cuts:
        return 0
    uncounted = sum(uncounted_gaps(splitting, x + x, zip(cuts, [*cuts[1:], cuts[0] + len(x)])))
    if splitting.kind == HNN:
        return len(cuts) - 2 * uncounted
    return 2 * (len(cuts) - uncounted)


def uncounted_gaps(splitting: CyclicSplitting, word: Word, ends: Iterable[tuple[int, int]]) -> Iterator[bool]:
    """Per separator positions ``(i, j)`` in ``word``, whether ``translation_length`` skips their gap.

    It does when the gap is a power of c, the empty one included (amalgam),
    or a pinch t^-1 c^j t (HNN).  A gap starting with neither c[0] nor
    c[-1]^-1 is no nonempty power of c, so it is not compared.
    """
    c = splitting.edge_word
    starts = (c[0], -c[-1])
    amalgam = splitting.kind != HNN
    for i, j in ends:
        yield (amalgam or word[i] < 0 < word[j]) and (
            j == i + 1 or word[i + 1] in starts and is_power_of(word[i + 1 : j], c)
        )


def to_dot(report: VolumeReport, splitting: CyclicSplitting) -> str:
    """DOT overlay: vertices of counted chains filled black, of essential cyclic ones gray.

    The graph lives over the relative rose, so each edge is labelled with
    its relative generator spelled in the ambient basis.
    """
    names = [render_word(word, splitting.ambient_basis) for word in splitting.relative_basis]
    styles = {}
    for chain in report.chains:
        if chain.essential:
            fill = "fillcolor=gray" if chain.is_cycle else "fillcolor=black fontcolor=white"
            styles.update(dict.fromkeys(chain.chain_vertices, f"style=filled {fill}"))
    lines = ["digraph volume {"]
    for vertex in sorted(report.graph.vertices):
        lines.append(f"  v{vertex} [{styles.get(vertex, '')}];")
    for source, target, label in sorted(report.graph.edges):
        lines.append(f'  v{source} -> v{target} [label="{names[label - 1]}"];')
    lines.append("}")
    return "\n".join(lines)

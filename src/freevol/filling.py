"""Filling tests for a pair of cyclic splittings.

Two checks are implemented.  The free-action check verifies that no
nontrivial element is elliptic in both splittings by intersecting all
conjugates of their vertex groups through graph pullbacks (Stallings 1983):
each vertex group's core graph is built once, and each pair of cores gets
the ranks of its pullback components from one union-find pass over their
fiber product (``stallings.pullback_ranks``), with no graph built per
component.  The free-factor check decides whether the two edge words can
sit inside a common proper free factor, using Whitehead minimization
followed by the cut-vertex criterion on the Whitehead graph of the
minimized conjugacy classes (Stallings 1999, "Whitehead graphs on
handlebodies").

Whitehead minimization applies, at each step, the least strictly
shortening Whitehead move ``(multiplier, sorted side)`` in the letter
order a < A < b < B < ....  Moves are priced, not tried: on the graph G'
with one edge ``{x, y^-1}`` per cyclically adjacent pair ``x . y``, the
move ``(a, A)`` changes the total cyclic length by ``cap(A) - deg(a)``.
Finding the move takes O(k) max-flows on the 2k letters per step, instead
of applying all 2k * 2^(2k-2) moves.  Each max-flow copies G' as plain
dictionaries and runs at most ``deg(a)`` augmenting depth-first searches.

One depth-first search for articulation points tells whether the
minimized Whitehead graph is connected, and finds its least cut vertex in
the letter order.

The combined verdict is conservative: a failed free-factor check only
downgrades the answer to "unknown", because the pair may still separate
every free factor and cyclic subgroup by volume even when the edge words
lie in a common proper free factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from . import stallings
from . import volume as volume_mod
from .splittings import MarkedPair, require_valid, vertex_groups
from .words import (
    Automorphism,
    Basis,
    CyclicWord,
    Word,
    apply_cyclic,
    letter_rank,
    render_word,
)

WHITEHEAD_CRITERION = "whitehead-minimization + cut-vertex test"


@dataclass(frozen=True)
class WhiteheadGraph:
    """Adjacency structure of letter transitions in a set of cyclic words.

    Vertices are the ``2 * rank`` signed letters.  Each adjacent pair
    ``x . y`` inside a cyclic word (wrap-around included) contributes one
    edge joining ``x^-1`` and ``y``.
    """

    rank: int
    edges: tuple[tuple[int, int], ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        signed = [i for i in range(1, self.rank + 1)] + [
            -i for i in range(1, self.rank + 1)
        ]
        return tuple(sorted(signed, key=letter_rank))

    @cached_property
    def _search(self) -> tuple[int, Optional[int]]:
        """How many letters one depth-first search from ``a`` reaches, and
        the least cut vertex among them in the order a < A < b < B < ....

        The search finds every cut vertex of the component of ``a`` (Hopcroft
        and Tarjan 1973): the root when it has two or more children, and any
        other vertex ``u`` with a child whose subtree has no edge to a vertex
        discovered before ``u``.
        """
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for x, y in self.edges:
            adj[x].add(y)
            adj[y].add(x)
        if not adj:
            return 0, None
        root = self.vertices[0]
        order = {root: 0}  # discovery index
        low = {root: 0}  # least index an edge from the vertex's subtree reaches
        cuts: set[int] = set()
        root_children = 0
        stack = [(root, None, iter(adj[root]))]
        while stack:
            u, parent, neighbors = stack[-1]
            for w in neighbors:
                if w not in order:
                    order[w] = low[w] = len(order)
                    stack.append((w, u, iter(adj[w])))
                    break
                if w != parent:
                    low[u] = min(low[u], order[w])
            else:
                stack.pop()
                if parent == root:
                    root_children += 1
                elif parent is not None:
                    low[parent] = min(low[parent], low[u])
                    if low[u] >= order[parent]:
                        cuts.add(parent)
        if root_children > 1:
            cuts.add(root)
        return len(order), min(cuts, key=letter_rank, default=None)

    def is_connected(self) -> bool:
        return self._search[0] == 2 * self.rank

    def cut_vertex(self) -> Optional[int]:
        """The least vertex, in the order a < A < b < B < ..., whose removal
        disconnects the graph; None if there is none or the graph is not connected."""
        return self._search[1] if self.is_connected() else None


def whitehead_graph(classes: Sequence[CyclicWord], rank: int) -> WhiteheadGraph:
    edges: list[tuple[int, int]] = []
    for cyc in classes:
        letters = cyc.letters
        n = len(letters)
        for i in range(n):
            x = letters[i]
            y = letters[(i + 1) % n]
            pair = tuple(sorted((-x, y), key=letter_rank))
            edges.append(pair)  # type: ignore[arg-type]
    return WhiteheadGraph(rank=rank, edges=tuple(sorted(edges)))


def _cut_graph(classes: Sequence[CyclicWord], rank: int) -> dict[int, dict[int, int]]:
    """G': edge multiplicities on the letters, keyed in the order a < A < b < B < ...

    Each cyclically adjacent pair ``x . y`` adds one edge ``{x, y^-1}``:
    the mirror image of ``WhiteheadGraph``, which joins ``x^-1`` and ``y``.
    Every row lists exactly the letters joined to its own, so ``cap[u][v]``
    exists exactly when ``cap[v][u]`` does.
    """
    cap: dict[int, dict[int, int]] = {x: {} for i in range(1, rank + 1) for x in (i, -i)}
    for cyc in classes:
        letters = cyc.letters
        for x, y in zip(letters, letters[1:] + letters[:1]):
            cap[x][-y] = cap[x].get(-y, 0) + 1
            cap[-y][x] = cap[-y].get(x, 0) + 1
    return cap


def _cut_below(cap: dict[int, dict[int, int]], sources: set[int], sinks: set[int], bound: int) -> bool:
    """Whether some letter set holding ``sources`` and no ``sinks`` has fewer
    than ``bound`` edges of G' leaving it: at most ``bound`` unit augmenting paths.

    Each call costs a copy of G' and at most ``bound`` depth-first searches
    over its 2k letters.  The residual graph keeps G's rows, so an edge
    pushed back along always has its key.
    """
    residual = {u: row.copy() for u, row in cap.items()}
    for _ in range(bound):
        parent = dict.fromkeys(sources)
        stack = list(sources)
        while stack:
            u = stack.pop()
            if u in sinks:
                break
            for v, room in residual[u].items():
                if room and v not in parent:
                    parent[v] = u
                    stack.append(v)
        else:
            return True
        while parent[u] is not None:
            residual[parent[u]][u] -= 1
            residual[u][parent[u]] += 1
            u = parent[u]
    return False


def _least_improving_move(cap: dict[int, dict[int, int]]) -> Optional[tuple[int, tuple[int, ...]]]:
    """The least strictly shortening move ``(a, sorted A)``, if there is one.

    Only the positive multipliers ``a`` are tried, in letter order.  Each
    occurrence of a or a^-1 in a class gives one edge end in G' to each of
    them, so deg(a) = deg(a^-1), and a min cut of the undirected G' between
    a and a^-1 is one between a^-1 and a.  So a^-1 has a shortening side
    exactly when a does, and then a move of a sorts first.  For the first
    multiplier with a shortening side, the least side is built letter by
    letter: a letter joins when some shortening side still exists with it,
    and the walk stops once the side so far shortens on its own past ``a``,
    as a proper prefix sorts first.
    """
    order = list(cap)
    for i, a in enumerate(order):
        if a < 0:
            continue
        degree = sum(cap[a].values())
        side, out = {a}, {-a}
        if not _cut_below(cap, side, out, degree):
            continue
        for j, v in enumerate(order):
            if abs(v) == abs(a):
                continue
            if j > i and sum(n for u in side for w, n in cap[u].items() if w not in side) < degree:
                break
            if _cut_below(cap, side | {v}, out, degree):
                side.add(v)
            else:
                out.add(v)
        return a, tuple(sorted(side, key=letter_rank))
    return None


def _whitehead_automorphism(rank: int, a: int, side: Sequence[int]) -> Automorphism:
    """The move ``x -> x a`` when ``x`` is in ``side``, ``x -> a^-1 x`` when
    ``x^-1`` is, and both when both are; the multiplier ``a`` is fixed."""
    images = tuple(
        (g,) if g == abs(a) else (-a,) * (-g in side) + (g,) + (a,) * (g in side)
        for g in range(1, rank + 1)
    )
    return Automorphism(Basis.standard(rank), images)


def _total_length(classes: Sequence[CyclicWord]) -> int:
    return sum(len(c.letters) for c in classes)


class WhiteheadMove(NamedTuple):
    """One step of a Whitehead descent: the move and the total length after it."""

    multiplier: int
    side: tuple[int, ...]
    total_length: int

    def to_json(self) -> dict:
        return {"multiplier": self.multiplier, "side": list(self.side), "total_length": self.total_length}


def whitehead_minimize(
    classes: Sequence[CyclicWord], rank: int
) -> tuple[tuple[CyclicWord, ...], int, tuple[WhiteheadMove, ...]]:
    """Greedy descent to a simultaneous local length minimum.

    A Whitehead move ``(a, A)`` has a multiplier letter ``a`` and a side
    set ``A`` holding ``a`` but not ``a^-1`` (see ``_whitehead_automorphism``).
    Each step applies the least ``(multiplier, sorted side)``, in the letter
    order a < A < b < B < ..., among the moves that strictly shorten the
    classes taken together.  The returned move log replays the descent.

    On the graph G' with one edge ``{x, y^-1}`` per cyclically adjacent
    pair ``x . y`` (the mirror image of ``WhiteheadGraph``), the move
    changes the total cyclic length by ``cap(A) - deg(a)``, where
    ``cap(A)`` counts the edges leaving ``A``.  So ``a`` has a shortening
    side exactly when the minimum cut between ``a`` and ``a^-1`` is below
    ``deg(a)``, and the least side is built letter by letter from such
    cuts: O(k) max-flows on 2k vertices per step, where trying every move
    costs 2k * 2^(2k-2) automorphism applications.
    """
    current = tuple(classes)
    total = _total_length(current)
    log: list[WhiteheadMove] = []
    while True:
        move = _least_improving_move(_cut_graph(current, rank))
        if move is None:
            return current, total, tuple(log)
        a, side = move
        phi = _whitehead_automorphism(rank, a, side)
        current = tuple(apply_cyclic(phi, c) for c in current)
        total = _total_length(current)
        log.append(WhiteheadMove(a, side, total))


class WhiteheadEvidence(NamedTuple):
    """The free-factor check's replayable evidence, words in the standard basis.

    ``graph_edges`` are the minimized classes' Whitehead graph edges as
    pairs of letters, and ``cut_vertex`` is its least cut vertex, if any.
    """

    criterion = WHITEHEAD_CRITERION  # one criterion for every check, so a class attribute

    minimized_classes: tuple[str, ...]
    total_length: int
    move_log: tuple[WhiteheadMove, ...]
    graph_edges: tuple[tuple[str, str], ...]
    connected: bool
    cut_vertex: Optional[str]

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "minimized_classes": list(self.minimized_classes),
            "total_length": self.total_length,
            "move_log": [move.to_json() for move in self.move_log],
            "graph_edges": list(map(list, self.graph_edges)),
            "connected": self.connected,
            "cut_vertex": self.cut_vertex,
        }


def cut_vertex_check(
    classes: Sequence[CyclicWord], rank: int
) -> tuple[bool, WhiteheadEvidence]:
    """Minimize the classes and test the Whitehead graph for fillingness.

    Returns ``True`` when the minimized graph is connected and has no cut
    vertex (the classes cannot lie in a common proper free factor), along
    with replayable evidence.
    """
    basis = Basis.standard(rank)
    minimized, total, log = whitehead_minimize(classes, rank)
    graph = whitehead_graph(minimized, rank)
    connected = graph.is_connected()
    cut = graph.cut_vertex()
    ok = connected and cut is None
    evidence = WhiteheadEvidence(
        minimized_classes=tuple(render_word(c.letters, basis) for c in minimized),
        total_length=total,
        move_log=log,
        graph_edges=tuple((render_word((x,), basis), render_word((y,), basis)) for x, y in graph.edges),
        connected=connected,
        cut_vertex=render_word((cut,), basis) if cut is not None else None,
    )
    return ok, evidence


class Pullback(NamedTuple):
    """One pullback of two vertex groups' cores and the ranks of its components.

    The cores are of vertex group ``vertex_group_1`` of the first splitting
    and ``vertex_group_2`` of the second, numbered as ``vertex_groups`` lists them.
    """

    vertex_group_1: int
    vertex_group_2: int
    component_ranks: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "vertex_group_1": self.vertex_group_1,
            "vertex_group_2": self.vertex_group_2,
            "component_ranks": list(self.component_ranks),
        }


class PullbackEvidence(NamedTuple):
    """The free-action check's evidence: every pullback, first splitting's group outermost."""

    pullbacks: tuple[Pullback, ...]

    def to_json(self) -> dict:
        return {"pullbacks": [pullback.to_json() for pullback in self.pullbacks]}


def check_f2(pair: MarkedPair) -> tuple[bool, PullbackEvidence]:
    """True when no nontrivial element is elliptic in both splittings.

    Every conjugate of a vertex group of the first splitting must meet
    every conjugate of a vertex group of the second trivially; this is the
    statement that all pairwise pullbacks of the vertex-group core graphs
    have only rank-zero components.
    """
    require_valid(pair.first)
    require_valid(pair.second)
    basis = pair.ambient_basis
    cores1, cores2 = (
        [stallings.subgroup_graph(basis, gens, keep_basepoint=False) for gens in vertex_groups(splitting)]
        for splitting in (pair.first, pair.second)
    )
    entries: list[Pullback] = []
    ok = True
    for i, core1 in enumerate(cores1):
        for j, core2 in enumerate(cores2):
            ranks = tuple(stallings.pullback_ranks(core1, core2))
            if any(r > 0 for r in ranks):
                ok = False
            entries.append(Pullback(i, j, ranks))
    return ok, PullbackEvidence(tuple(entries))


def check_f3(pair: MarkedPair) -> tuple[bool, WhiteheadEvidence]:
    """True when the two edge words cannot share a proper free factor."""
    require_valid(pair.first)
    require_valid(pair.second)
    c1 = CyclicWord.of(pair.first.edge_word_ambient())
    c2 = CyclicWord.of(pair.second.edge_word_ambient())
    return cut_vertex_check([c1, c2], pair.ambient_basis.rank)


@dataclass(frozen=True)
class FillingCertificate:
    """Outcome of the combined filling test with replayable evidence.

    ``fills`` is ``True`` when both checks pass, ``False`` when the
    free-action check fails (a definite obstruction), and ``None`` when
    only the free-factor check fails: the pair may still fill, but this
    tool cannot decide it.  Every field is immutable, so one certificate
    may be shared; ``to_json`` builds new dicts and lists on every call.
    """

    f2: bool
    f2_evidence: PullbackEvidence
    f3: bool
    f3_evidence: WhiteheadEvidence
    fills: Optional[bool]
    verdict: str
    witness: Optional[tuple[str, ...]]

    def to_json(self) -> dict:
        return {
            "schema": "freevol/1",
            "f2": self.f2,
            "f2_evidence": self.f2_evidence.to_json(),
            "f3": self.f3,
            "f3_evidence": self.f3_evidence.to_json(),
            "fills": self.fills,
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def check_filling(pair: MarkedPair) -> FillingCertificate:
    f2_ok, f2_evidence = check_f2(pair)
    f3_ok, f3_evidence = check_f3(pair)
    if f2_ok and f3_ok:
        fills: Optional[bool] = True
        verdict = "fills"
        witness = None
    elif not f2_ok:
        fills = False
        verdict = "not_filling"
        witness = None
    else:
        fills = None
        verdict = "unknown"
        witness = f3_evidence.minimized_classes
    return FillingCertificate(
        f2=f2_ok,
        f2_evidence=f2_evidence,
        f3=f3_ok,
        f3_evidence=f3_evidence,
        fills=fills,
        verdict=verdict,
        witness=witness,
    )


def check_f1_for(pair: MarkedPair, gens: Sequence[Word]) -> tuple[bool, dict]:
    """Discharge one candidate subgroup: its two volumes must not both vanish."""
    vol1 = volume_mod.free_volume(pair.first, list(gens))
    vol2 = volume_mod.free_volume(pair.second, list(gens))
    return vol1 + vol2 > 0, {"vol_1": vol1, "vol_2": vol2}

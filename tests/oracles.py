"""Independent oracles used to cross-check the library.

The translation-length oracle works directly on normal forms for the two
splitting shapes: syllable reduction for an amalgam and pinch (Britton)
reduction for an HNN extension.  It shares only word/coordinate plumbing
with the library; the volume machinery itself (graphs, chains) is never
touched here.

The reference folder ``fold_and_core`` is the library's original folding
loop, kept as it was: it rebuilds and sorts the whole conflict table after
every fold and prunes in full sweeps, so it is quadratic, but its schedule
is simple enough to trust.  The library's worklist fold must return an
equal graph, vertex ids included.
"""

from typing import Optional

from freevol.splittings import AMALGAM, CyclicSplitting, to_relative
from freevol.stallings import Edge, FoldTrace, LabeledGraph
from freevol.words import Word, apply, cyclically_reduce, invert_word, reduce_word


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

    # Maximal same-side blocks of the cyclic word.
    syllables: list[list] = []
    for letter in core:
        side = "A" if abs(letter) in a_letters else "B"
        if syllables and syllables[-1][0] == side:
            syllables[-1][1].append(letter)
        else:
            syllables.append([side, [letter]])

    def merge_pass() -> bool:
        changed = False
        # Merge cyclically adjacent same-side syllables and drop empty ones.
        i = 0
        while len(syllables) > 1 and i < len(syllables):
            j = (i + 1) % len(syllables)
            if syllables[i][0] == syllables[j][0] or not syllables[j][1]:
                merged = reduce_word(tuple(syllables[i][1]) + tuple(syllables[j][1]))
                syllables[i][1] = list(merged)
                del syllables[j]
                changed = True
            else:
                i += 1
        # A syllable lying in the edge group belongs to both sides: hand it
        # to its neighbour so the blocks on either side of it coalesce.
        if len(syllables) > 1:
            for i, (side, letters) in enumerate(syllables):
                if _edge_power(tuple(letters), edge) is not None:
                    syllables[i][0] = syllables[(i + 1) % len(syllables)][0]
                    return True
        return changed

    while merge_pass():
        pass
    if len(syllables) <= 1:
        return 0
    return len(syllables)


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


def max_cancellation(nu, max_len: int) -> int:
    """Brute-force largest one-sided cancellation at a reduced junction.

    Enumerates every pair of reduced words up to ``max_len`` whose
    concatenation is reduced and measures the cancellation between their
    images under ``nu``.
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
    best = 0
    for w in nonempty:
        iw = images[w]
        for v in nonempty:
            if w[-1] == -v[0]:
                continue
            iv = images[v]
            m = 0
            while m < len(iw) and m < len(iv) and iw[len(iw) - 1 - m] == -iv[m]:
                m += 1
            best = max(best, m)
    return best


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
    pair of vertices incident to the lowest (vertex id, label) conflict.
    """
    parent: dict[int, int] = {v: v for v in graph.vertices}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = {(find(s), find(t), l) for s, t, l in graph.edges}
    trace = FoldTrace()
    while True:
        conflicts: dict[tuple[int, int, int], list[int]] = {}
        for source, target, label in edges:
            conflicts.setdefault((source, label, +1), []).append(target)
            conflicts.setdefault((target, label, -1), []).append(source)
        candidates = sorted(
            (vertex, label, direction, sorted(set(others)))
            for (vertex, label, direction), others in conflicts.items()
            if len(set(others)) > 1
        )
        if not candidates:
            # Also collapse duplicate edges (same source, target, label) --
            # already handled because ``edges`` is a set.
            break
        _, _, _, others = candidates[0]
        keep_vertex, merge_vertex = others[0], others[1]
        parent[find(merge_vertex)] = find(keep_vertex)
        trace.folds.append((keep_vertex, merge_vertex))
        edges = {(find(s), find(t), l) for s, t, l in edges}
    vertices = {find(v) for v in graph.vertices}
    basepoint = find(graph.basepoint) if graph.basepoint is not None else None
    edge_set = set(edges)
    _prune(vertices, edge_set, basepoint if keep_basepoint else None, trace)
    if not keep_basepoint:
        basepoint = None
    elif basepoint not in vertices:
        basepoint = None
    return (
        LabeledGraph(frozenset(vertices), frozenset(edge_set), basepoint=basepoint),
        trace,
    )

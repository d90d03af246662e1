"""Independent oracles used to cross-check the library.

The translation-length oracle works directly on normal forms for the two
splitting shapes: syllable reduction for an amalgam and pinch (Britton)
reduction for an HNN extension.  It shares only word/coordinate plumbing
with the library; the volume machinery itself (graphs, chains) is never
touched by it.

The reference folder ``fold_and_core`` is the library's original folding
loop, kept as it was: it rebuilds and sorts the whole conflict table after
every fold and prunes in full sweeps, so it is quadratic, but its schedule
is simple enough to trust.  The library's worklist fold must return an
equal graph, vertex ids included.

``twisted_core`` builds the core of a twisted subgroup without twisting
any word: ``graph_surgery`` inserts a segment spelling the n-th edge-word
power at each crossing vertex of the subgroup's graph and re-roots the
edges there, and the reference folder above folds the result.  It must be
isomorphic to the core of the generators' images under ``dehn_twist``, so
it cross-checks the twist, the library fold and the crossing vertices of
``volume.py`` at once.  ``graph_composition`` likewise rewrites a core
graph through a change of marking by substituting image words for labels.

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
comparisons.
"""

import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from freevol.errors import HypothesisViolated, NotAnAutomorphism, UsageError
from freevol.pingpong import _PERM_DEGREE, _abelianization_matrix, _cycle_type, _mat_mul
from freevol.splittings import AMALGAM, CyclicSplitting, require_valid, to_relative
from freevol.stallings import Edge, FoldTrace, LabeledGraph, spell_path
from freevol.volume import (
    B0_EDGE,
    T_EDGE,
    classify_chains,
    essential_and_crossing_vertices,
    find_chains,
    translation_length as library_translation_length,
)
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
    letter_sort_key,
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
        key=letter_sort_key,
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
                (a, tuple(sorted(side, key=letter_sort_key)), Automorphism(basis, tuple(images)))
            )
    return tuple(moves)


def exhaustive_whitehead_minimize(
    classes: Sequence[CyclicWord], rank: int
) -> tuple[tuple[CyclicWord, ...], int, list[dict]]:
    """The library's original Whitehead descent, by trial of every move.

    At each step every move of ``whitehead_moves`` is applied to all
    classes at once; among the strictly improving moves the
    lexicographically least ``(multiplier, side set)`` is applied.
    """
    current = tuple(classes)
    total = sum(len(c.letters) for c in current)
    log: list[dict] = []
    moves = whitehead_moves(rank)
    while True:
        best = None
        for a, side, phi in moves:
            candidate = tuple(apply_cyclic(phi, c) for c in current)
            length = sum(len(c.letters) for c in candidate)
            if length < total:
                key = (letter_sort_key(a), tuple(letter_sort_key(x) for x in side))
                if best is None or key < best_key:
                    best = (a, side, candidate, length)
                    best_key = key
        if best is None:
            return current, total, log
        a, side, current, total = best
        log.append({"multiplier": a, "side": list(side), "total_length": total})


def enumerate_reduced_words(rank: int, length: int) -> Iterator[Word]:
    """All freely reduced words of exactly the given length."""
    letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    letters.sort(key=letter_sort_key)

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


def _word_sort_key(word: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple(letter_sort_key(x) for x in word)


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

"""Twisted volume growth: bounded cancellation, surgery, and growth bounds.

Implements the machinery comparing the free volume of a subgroup before and
after powers of a Dehn twist: exact bounded cancellation constants between
bases, composition of subgroup graphs with a change of marking, surgery
inserting edge-word powers at crossing vertices, safe essential pieces on
edge-word-power segments, and the resulting linear growth bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import HypothesisViolated, NotReduced
from .splittings import (
    AMALGAM,
    CyclicSplitting,
    dehn_twist,
    relative_inverse,
    require_valid,
    to_relative,
)
from .stallings import (
    Edge,
    LabeledGraph,
    fold_and_core,
    rank,
    spell_path,
    subgroup_graph,
)
from .volume import (
    B0_EDGE,
    T_EDGE,
    classify_chains,
    essential_and_crossing_vertices,
    find_chains,
    free_volume,
    translation_length,
)
from .words import (
    Automorphism,
    Word,
    apply,
    compose,
    cyclically_reduce,
    invert_word,
    reduce_word,
)


# ---------------------------------------------------------------------------
# Bounded cancellation


class _WindowOverflow(Exception):
    """Suffix window too small to certify a cancellation; retry larger."""


class CancellationBudgetExceeded(RuntimeError):
    """The exact cancellation automaton grew past the resource budget.

    The constant is still well defined; this computation strategy tracks
    reachable image suffixes and some basis changes make that state space
    blow up exponentially.
    """


_STATE_BUDGET = 300_000


def _suffix_states(
    nu: Automorphism, window: int, max_states: int = _STATE_BUDGET
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


def _max_cancellation(nu: Automorphism, window: int) -> int:
    """Exact max one-sided cancellation between images of a reduced product.

    Prefix states of images of words starting with y are the inverses of
    suffix states of words ending with -y; matches are found by walking the
    inverted-reversed suffix through a per-letter prefix trie.
    """
    suffixes = _suffix_states(nu, window)
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


def bcc(nu: Automorphism) -> int:
    """Exact bounded cancellation constant of the basis change ``nu``.

    The minimal C with |nu(w)| + |nu(w')| - |nu(w w')| <= 2C over reduced
    concatenations, computed by closing the suffix-state graph.
    """
    longest = max((len(apply(nu, (i + 1,))) for i in range(nu.basis.rank)), default=1)
    window = 2 * longest + 2
    while window <= 1 << 16:
        try:
            return _max_cancellation(nu, window)
        except _WindowOverflow:
            window *= 2
    raise RuntimeError("bounded cancellation window grew past 65536; giving up")


def basis_change(splitting1: CyclicSplitting, splitting2: CyclicSplitting) -> Automorphism:
    """Automorphism rewriting splitting-1 relative coordinates in splitting-2's."""
    return compose(relative_inverse(splitting2), splitting1.relative_automorphism())


def bcc_between(splitting1: CyclicSplitting, splitting2: CyclicSplitting) -> int:
    return bcc(basis_change(splitting1, splitting2))


# ---------------------------------------------------------------------------
# Constants


@dataclass(frozen=True)
class TwistConstants:
    B: int
    M: int
    C: int


def piece_bound(rank_bound: int, B: int) -> int:
    """Upper bound for folded-away safe pieces per unit of volume.

    For rank at most 1 (cyclic subgroups) a single piece suffices.  In
    general we charge one piece to each of the at most 2R - 2 branch
    vertices of a rank-R core for each of the 2B + 1 possible offsets of a
    short path (at most 2B edges) across that vertex.
    """
    if rank_bound <= 1 or B == 0:
        return 1
    return (2 * rank_bound - 2) * (2 * B + 1)


def constants(
    rank_bound: int, splitting1: CyclicSplitting, splitting2: CyclicSplitting
) -> TwistConstants:
    """The cancellation constant B, piece bound M, and growth constant C."""
    forward = bcc_between(splitting1, splitting2)
    backward = bcc_between(splitting2, splitting1)
    B = max(forward, backward)
    M = piece_bound(rank_bound, B)
    return TwistConstants(B=B, M=M, C=4 * B + M + 5)


# ---------------------------------------------------------------------------
# Reduced form of the edge word


def make_reduced(word: Word, splitting2: CyclicSplitting, max_power: int = 4) -> tuple[Word, Word]:
    """Rotate (conjugate) a word so its powers grow exactly linearly.

    Returns ``(reduced, conjugator)`` with ``word`` conjugate to ``reduced``
    by ``conjugator`` (all in ambient coordinates) such that for the
    returned word both the relative word length and the translation length
    of powers are linear for exponents up to ``max_power``.  Elliptic words
    are only cyclically reduced.  Raises NotReduced when no rotation works.
    """
    core, conjugator = cyclically_reduce(word)
    if not core:
        return core, conjugator
    if translation_length(splitting2, core) == 0:
        return core, conjugator
    relative = to_relative(splitting2, core)
    rel_core, rel_pre = cyclically_reduce(relative)
    for offset in range(len(rel_core)):
        rotated = rel_core[offset:] + rel_core[:offset]
        base_len = translation_length_relative(splitting2, rotated)
        if base_len == 0:
            continue
        if all(
            translation_length_relative(splitting2, rotated * n) == n * base_len
            for n in range(2, max_power + 1)
        ):
            ambient = apply(splitting2.relative_automorphism(), rotated)
            # word = conjugator . core . conjugator^-1 and
            # core = u . rotated_ambient . u^-1 for the rotation conjugator u.
            u = apply(splitting2.relative_automorphism(), rel_pre + rel_core[:offset])
            return ambient, reduce_word(conjugator + u)
    raise NotReduced("no rotation of the word has linear power growth")


def translation_length_relative(splitting: CyclicSplitting, relative_word: Word) -> int:
    """Translation length of a word already written in relative coordinates."""
    ambient = apply(splitting.relative_automorphism(), relative_word)
    return translation_length(splitting, ambient)


# ---------------------------------------------------------------------------
# Graph composition


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
# Graph surgery


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
# Safe essential pieces


def _segment_graph(word: Word) -> LabeledGraph:
    edges: set[Edge] = set()
    vertices = spell_path(edges, word, 0, None, 1)
    return LabeledGraph(frozenset(vertices), frozenset(edges))


def safe_pieces(reduced_relative: Word, ell: int, splitting2: CyclicSplitting, B: int) -> int:
    """Count of safe essential pieces on the segment of the ell-th power.

    The segment spells the given reduced relative word repeated ``ell``
    times; essential pieces (chains and essential vertices) are safe when
    they avoid every vertex of the ``B`` extremal edges at each end.
    """
    if not reduced_relative:
        raise NotReduced("empty word has no segment")
    if len(reduced_relative * 2) != 2 * len(reduced_relative):
        raise NotReduced("word is not cyclically reduced in relative letters")
    word = reduced_relative * ell
    graph = _segment_graph(word)
    chains = find_chains(graph, splitting2)
    chains, classes = classify_chains(graph, splitting2, chains)
    essential, _ = essential_and_crossing_vertices(graph, splitting2, chains, classes)
    unsafe_vertices: set[int] = set()
    total_edges = len(word)
    for index in range(min(B, total_edges)):
        unsafe_vertices.update({index, index + 1})
        unsafe_vertices.update({total_edges - index - 1, total_edges - index})
    count = 0
    for vertex in essential:
        if vertex not in unsafe_vertices:
            count += 1
    for chain in chains:
        if chain.essential and not (chain.path_vertices & unsafe_vertices):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Volume growth bounds


def check_volume_growth_bounds(
    splitting1: CyclicSplitting,
    splitting2: CyclicSplitting,
    gens: Sequence[Word],
    n: int,
    bounds: TwistConstants,
    rank_bound: Optional[int] = None,
) -> dict:
    """Evaluate the linear growth bounds for both twist directions.

    The subgroup must be cyclic or malnormal, of rank at most the bound the
    constants were computed for; otherwise HypothesisViolated is raised.
    """
    from .stallings import is_malnormal

    ambient_core = subgroup_graph(splitting1.ambient_basis, list(gens), keep_basepoint=False)
    subgroup_rank = rank(ambient_core)
    if subgroup_rank > 1 and not is_malnormal(ambient_core):
        raise HypothesisViolated("subgroup is neither cyclic nor malnormal")
    if rank_bound is not None and subgroup_rank > rank_bound:
        raise HypothesisViolated("subgroup rank exceeds the bound used for the constants")
    c1_ambient = splitting1.edge_word_ambient()
    length_c1 = translation_length(splitting2, c1_ambient)
    vol1 = free_volume(splitting1, gens)
    vol2 = free_volume(splitting2, gens)
    results = {}
    all_ok = True
    for sign in (+1, -1):
        phi = dehn_twist(splitting1, sign * n)
        twisted = [apply(phi, g) for g in gens]
        observed = free_volume(splitting2, twisted)
        lower = vol1 * (abs(n) * length_c1 - bounds.C) - bounds.M * vol2
        upper = vol1 * (abs(n) * length_c1 + bounds.C) + bounds.M * vol2
        ok_low = lower <= observed
        ok_high = observed <= upper
        all_ok = all_ok and ok_low and ok_high
        results[f"twist_power_{sign * n}"] = {
            "observed": observed,
            "lower": lower,
            "upper": upper,
            "lower_ok": ok_low,
            "upper_ok": ok_high,
        }
    return {
        "schema": "freevol/1",
        "vol1": vol1,
        "vol2": vol2,
        "edge_word_length": length_c1,
        "constants": {"B": bounds.B, "M": bounds.M, "C": bounds.C},
        "n": n,
        "all_ok": all_ok,
        "bounds": results,
    }

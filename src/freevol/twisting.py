"""Twisted volume growth: bounded cancellation, constants, and growth bounds.

Implements the machinery comparing the free volume of a subgroup before and
after powers of a Dehn twist: exact bounded cancellation constants between
the relative bases of two splittings, the constants they give, and the
resulting two-sided linear growth bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import HypothesisViolated, NotAnAutomorphism
from .splittings import CyclicSplitting, dehn_twist, relative_inverse
from .stallings import is_malnormal, rank, subgroup_graph
from .volume import free_volume, translation_length
from .words import Automorphism, Word, apply, compose


# ---------------------------------------------------------------------------
# Bounded cancellation


def _saturated_hull_automaton(nu: Automorphism) -> tuple[int, list[int], list[dict]]:
    """The Benois-saturated automaton of the image hulls of the first-letter cones.

    Returns ``(roots, label, moves)``: states ``0 .. roots - 1`` start the
    cones of the letters -k, ..., -1, 1, ..., k; ``label[p]`` is the letter
    read on every edge into ``p``; ``moves[p][z]`` holds the states reached
    from ``p`` by ε-moves and then one edge reading ``z``.
    """
    k = nu.basis.rank
    letters = [x for x in range(-k, k + 1) if x]
    images = [nu.image_of(x) for x in letters]
    if not all(images):
        raise NotAnAutomorphism("a generator maps to the identity")
    label = [0] * len(letters)
    first = []
    for image in images:
        first.append(len(label))
        label.extend(image)
    n = len(label)
    out: list[dict[int, list[int]]] = [{} for _ in range(n)]
    into: list[list[int]] = [[] for _ in range(n)]
    for i, x in enumerate(letters):
        end = first[i] + len(images[i]) - 1
        edges = [(i, first[i])] + [(p, p + 1) for p in range(first[i], end)]
        for p, q in edges + [(end, first[j]) for j, y in enumerate(letters) if y != -x]:
            out[p].setdefault(label[q], []).append(q)
            into[q].append(p)

    # Add the ε-move p -> r whenever p -z-> q ~> q' -z^-1-> r, keeping the
    # ε-closure ``reach`` and its converse ``back`` transitive.
    reach = [{p} for p in range(n)]
    back = [{p} for p in range(n)]
    pending = [(p, p) for p in range(n)]
    while pending:
        q, q_end = pending.pop()
        for r in out[q_end].get(-label[q], ()):
            for p in into[q]:
                if r in reach[p]:
                    continue
                for s in list(back[p]):
                    for t in list(reach[r]):
                        if t not in reach[s]:
                            reach[s].add(t)
                            back[t].add(s)
                            pending.append((s, t))

    moves: list[dict[int, set[int]]] = [{} for _ in range(n)]
    for p in range(n):
        for p_eps in reach[p]:
            for z, targets in out[p_eps].items():
                moves[p].setdefault(z, set()).update(targets)
    return len(letters), label, moves


def bcc(nu: Automorphism) -> int:
    """Exact bounded cancellation constant of the basis change ``nu``.

    The minimal C with |nu(w)| + |nu(w')| - |nu(w w')| <= 2C over reduced
    concatenations w w'.  The cancellation there is the common prefix of
    nu(w^-1) and nu(w'), so C is the largest lcp(nu(u), nu(v)) over reduced
    u, v with different first letters.

    The prefixes of nu(u) over all u starting with a form the hull of the
    image of that cone in the Cayley tree: the union of the geodesics from
    1, which holds every vertex the unreduced path nu(x_1) nu(x_2) ...
    passes.  An automaton reads these paths: one state per letter of each
    nu(x) and a root per letter; root a reads into nu(a), the end of nu(x)
    into the start of nu(y) for every y != x^-1, and every state accepts.
    Saturating it with ε-moves p -> r whenever p -z-> q ~> q' -z^-1-> r
    makes the reduced words it reads exactly the free reductions of the
    words it read before (Benois 1969): from root a, the hull of cone a.

    So C is the longest reduced word read from two roots a != b at once, a
    longest path in the product automaton.  Its nodes are pairs of states;
    the last letter read, which keeps the word reduced, is the label both
    share.  With n = sum |nu(x)| + 2k states this takes polynomial time in
    n.  For an automorphism the hulls of distinct cones meet in a finite
    subtree (bounded cancellation; Cooper 1987), so a reachable cycle
    raises NotAnAutomorphism.
    """
    roots, label, moves = _saturated_hull_automaton(nu)

    def successors(node: tuple[int, int]):
        p, q = node
        moves_q = moves[q]
        for z, targets in moves[p].items():
            if z != -label[p] and z in moves_q:
                for r in targets:
                    for s in moves_q[z]:
                        yield (r, s) if r <= s else (s, r)

    # Longest path by iterative depth-first search; None marks a node on
    # the stack, so meeting one again closes a cycle.
    depth: dict[tuple[int, int], Optional[int]] = {}
    starts = [(p, q) for p in range(roots) for q in range(p + 1, roots)]
    for start in starts:
        depth[start] = None
        stack = [[start, successors(start), 0]]
        while stack:
            frame = stack[-1]
            for child in frame[1]:
                if child not in depth:
                    depth[child] = None
                    stack.append([child, successors(child), 0])
                    break
                if depth[child] is None:
                    raise NotAnAutomorphism("the image hulls of two cones share an infinite ray")
                frame[2] = max(frame[2], depth[child] + 1)
            else:
                stack.pop()
                depth[frame[0]] = frame[2]
                if stack:
                    stack[-1][2] = max(stack[-1][2], frame[2] + 1)
    return max((depth[start] for start in starts), default=0)


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

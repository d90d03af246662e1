"""Twisted volume growth: bounded cancellation, constants, and growth bounds.

Implements the machinery comparing the free volume of a subgroup before and
after powers of a Dehn twist: exact bounded cancellation constants between
the relative bases of two splittings, the constants they give, and the
resulting two-sided linear growth bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import HypothesisViolated, NotAnAutomorphism, TrivialSubgroup, UsageError
from .splittings import (
    AMALGAM,
    CyclicSplitting,
    dehn_twist,
    from_relative,
    relative_inverse,
    to_relative,
)
from .stallings import is_malnormal, rank, subgroup_graph
from .volume import free_volume, translation_length
from .words import (
    Automorphism,
    Word,
    apply,
    compose,
    concat,
    cyclically_reduce,
    invert_word,
    reduce_word,
)


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
# Growth certificates for cyclic subgroups


def _is_power_of(word: Word, root: Word) -> bool:
    """Whether the reduced ``word`` is ``root^j`` for some j, 0 included."""
    count, rest = divmod(len(word), len(root))
    return not rest and word in (root * count, invert_word(root) * count)


def _twist_blocks(splitting: CyclicSplitting, x: Word) -> Optional[list[tuple[int, Word]]]:
    """The twist powers of a cyclically reduced relative word, in block form.

    Returns ``[(k_1, w_1), ..., (k_m, w_m)]``, each k_i = +-1, such that
    ``relative_twist(splitting, n)`` maps ``x`` to a conjugate of the
    cyclic product ``c^(k_1 n) w_1 ... c^(k_m n) w_m`` for every n, with
    ``c`` the edge word; no w_i is a power of c.  A w_i that is a power of
    c between blocks of opposite signs is merged away, as
    ``c^(kn) w c^(-kn) = w``; between blocks of one sign it gives None.
    """
    c = splitting.edge_word
    amalgam = splitting.kind == AMALGAM
    blocks: list[list] = []  # [k, letters after the block]
    head: list[int] = []  # letters before the first block
    for letter in x:
        twisted = abs(letter) in splitting.b0_part if amalgam else abs(letter) == splitting.stable_index
        if twisted and (amalgam or letter > 0):
            blocks.append([1, []])
        (blocks[-1][1] if blocks else head).append(letter)
        if twisted and (amalgam or letter < 0):
            blocks.append([-1, []])
    if not blocks:
        return []
    blocks[-1][1] += head
    i = 0
    while i < len(blocks):
        k, w = blocks[i][0], reduce_word(blocks[i][1])
        blocks[i][1] = w
        if not _is_power_of(w, c):
            i += 1
            continue
        j = (i + 1) % len(blocks)
        if blocks[j][0] != -k:
            return None
        if len(blocks) == 2:
            return []
        blocks[i - 1][1] = (*blocks[i - 1][1], *w, *blocks[j][1])
        del blocks[max(i, j)], blocks[min(i, j)]
        i = 0
    return [(k, tuple(w)) for k, w in blocks]


def _junction(left: Word, z: Word, right: Word) -> Optional[tuple[int, int]]:
    """How many letters reducing ``left z right`` removes from ``left`` and from ``right``.

    All three words are reduced.  None if ``left`` or ``right`` is used up.
    """
    word = (*left, *z, *right)
    stack: list[int] = []  # positions in word of the letters kept so far
    for position, letter in enumerate(word):
        if stack and word[stack[-1]] == -letter:
            stack.pop()
        else:
            stack.append(position)
    removed_left = len(left) - sum(1 for p in stack if p < len(left))
    removed_right = len(right) - sum(1 for p in stack if p >= len(left) + len(z))
    if removed_left == len(left) or removed_right == len(right):
        return None
    return removed_left, removed_right


def _certificate(
    splitting1: CyclicSplitting, splitting2: CyclicSplitting, g: Word, length_c1: int
) -> Optional[dict]:
    """``growth_certificate`` with the edge word's length in splitting 2 given."""
    if length_c1 == 0:
        return None
    x, _ = cyclically_reduce(to_relative(splitting1, g))
    if not x:
        raise TrivialSubgroup("the generator is trivial")
    blocks = _twist_blocks(splitting1, x)
    if blocks is None:
        return None
    # Splitting-2 relative coordinates, through nu = basis_change(splitting1,
    # splitting2) without composing it.
    u, q = cyclically_reduce(to_relative(splitting2, splitting1.edge_word_ambient()))
    q_inverse = invert_word(q)
    zs = [concat(q_inverse, to_relative(splitting2, from_relative(splitting1, w)), q) for _, w in blocks]
    m = len(blocks)
    slope = m * length_c1
    certificate = {}
    for sign, key in ((1, "plus"), (-1, "minus")):
        periods = [u if sign * k > 0 else invert_word(u) for k, _ in blocks]
        # cuts[i]: letters removed from the end of block i and from the
        # start of block i + 1 at the junction through z_i.
        cuts = []
        for i, z in enumerate(zs):
            reps = len(z) // len(u) + 2
            cut = _junction(periods[i] * reps, z, periods[(i + 1) % m] * reps)
            if cut is None:
                return None
            cuts.append(cut)
        eaten = max((cuts[i - 1][1] + cuts[i][0] for i in range(m)), default=None)
        n0 = 1 if eaten is None else -(-eaten // len(u)) + 2
        at_n0 = free_volume(splitting2, [apply(dehn_twist(splitting1, sign * n0), g)])
        certificate[key] = {"slope": slope, "intercept": at_n0 - slope * n0, "n0": n0}
    return certificate


def growth_certificate(
    splitting1: CyclicSplitting, splitting2: CyclicSplitting, g: Word
) -> Optional[dict]:
    """Exact twisted volume of a cyclic subgroup for every large twist power.

    Returns ``{"plus": line, "minus": line}``, each ``line`` a dict
    ``{"slope", "intercept", "n0"}`` such that for every n >= n0

        free_volume(splitting2, [T1^(+-n)(g)]) == slope * n + intercept,

    T1 = ``dehn_twist(splitting1)``, with ``slope = l1(g) * l2(c1)`` (l the
    translation length, c1 the first edge word).  The intercept comes
    from one refold at +-n0.  Returns None, so that the caller refolds,
    when l2(c1) = 0; also if two blocks of one sign meet around a power
    of c1 or a junction cancels without end, which step 1 rules out.

    Proof of n0, in three steps.

    1. Block form.  Let x be the cyclic reduction of g in splitting-1
       relative coordinates.  The relative twist puts c^n before each B0
       letter and c^-n after it (amalgam), or c^n before t and c^-n after
       t^-1 (HNN), with c = c1 relative.  So T1^n(g) is conjugate to the
       cyclic word c^(k_1 n) w_1 ... c^(k_m n) w_m, k_i = +-1
       (``_twist_blocks``), once c^(kn) w c^(-kn) = w is merged wherever
       w is a power of c.  The merges fall exactly on the gaps that the
       count of step 3, read in splitting 1, does not count, so m = l1(g).
       With nu = ``basis_change(splitting1, splitting2)`` and
       nu(c) = q u q^-1, u cyclically reduced, the splitting-2 relative
       word is the cyclic product of u^(k_i n) z_i, z_i = q^-1 nu(w_i) q.
    2. Free pumping.  Reducing u^(k_i R) z_i u^(k_(i+1) R), for R periods
       longer than z_i and u together, removes a_i letters from the left
       block and b_i from the right one (``_junction``).  If neither block
       is used up, longer blocks change nothing: the cut depends only on
       z_i and on the periodic rays around it.  So once every block
       u^(k_i n) is longer than the b_(i-1) + a_i letters its two
       junctions remove, the cyclic reduction of the word is the product
       of the junction remainders and the surviving middles S_i(n) of the
       blocks, and S_i(n + 1) is S_i(n) with one period of u inserted.
    3. l2 is a local count.  Call the B0 letters (amalgam) or the stable
       letter t (HNN) of splitting 2 separators.  On a cyclically reduced
       relative word with a separator, l2 is a sum over the gaps between
       cyclically consecutive separators: an amalgam's gap adds 2 unless
       it is a power of c2, and for an HNN splitting l2 = #t minus 2 per
       gap t^-1 c2^j t, since such pinches cannot nest (the edge groups
       are malnormal in the vertex groups).  As l2(u) = l2(c1) > 0, u has
       a separator, so every |u| letters of S_i(n) hold one.  If
       S_i(n) has at least 2|u| letters, insert the new period right after
       a separator in its first period: the gaps of one period of u are
       added, l2(u) in all, and no other gap changes.

    Hence l2(T1^(n+1) g) = l2(T1^n g) + m l2(c1) for every n >= n0, the
    least n >= 1 with n |u| >= b_(i-1) + a_i + 2|u| for all i; for m = 0
    the word does not depend on n and n0 = 1.  The negative powers are
    the same argument with every k_i negated.
    """
    c1_ambient = splitting1.edge_word_ambient()
    return _certificate(splitting1, splitting2, g, translation_length(splitting2, c1_ambient))


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
    The twist power ``n`` must be a nonzero int, or UsageError is raised.

    A subgroup given by one generator also gets ``growth_certificate``
    under ``"certificate"``, with ``all_n_ok``: the two-sided bound for
    every |n| >= n0 at once.  Both bounds have slope vol1 * l2(c1), so
    this holds exactly when the certified slope equals it and
    |intercept| <= vol1 * C + M * vol2.  For |n| >= n0 the observed
    volume is read off the certificate; otherwise, and for every other
    subgroup, the generators are twisted and refolded.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n == 0:
        raise UsageError(f"the twist power must be a nonzero int, got {n!r}")
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
    nontrivial = [g for g in gens if g]
    certificate = None
    if len(nontrivial) == 1:
        certificate = _certificate(splitting1, splitting2, nontrivial[0], length_c1)
    results = {}
    all_ok = True
    for sign in (+1, -1):
        power = sign * n
        line = certificate and certificate["plus" if power > 0 else "minus"]
        if line and abs(n) >= line["n0"]:
            observed = line["slope"] * abs(n) + line["intercept"]
        else:
            phi = dehn_twist(splitting1, power)
            observed = free_volume(splitting2, [apply(phi, g) for g in gens])
        lower = vol1 * (abs(n) * length_c1 - bounds.C) - bounds.M * vol2
        upper = vol1 * (abs(n) * length_c1 + bounds.C) + bounds.M * vol2
        ok_low = lower <= observed
        ok_high = observed <= upper
        all_ok = all_ok and ok_low and ok_high
        results[f"twist_power_{power}"] = {
            "observed": observed,
            "lower": lower,
            "upper": upper,
            "lower_ok": ok_low,
            "upper_ok": ok_high,
        }
    if certificate is not None:
        slack = vol1 * bounds.C + bounds.M * vol2
        certificate["all_n_ok"] = all(
            line["slope"] == vol1 * length_c1 and abs(line["intercept"]) <= slack
            for line in (certificate["plus"], certificate["minus"])
        )
    return {
        "schema": "freevol/1",
        "vol1": vol1,
        "vol2": vol2,
        "edge_word_length": length_c1,
        "constants": {"B": bounds.B, "M": bounds.M, "C": bounds.C},
        "n": n,
        "all_ok": all_ok,
        "bounds": results,
        "certificate": certificate,
    }

"""Twisted volume growth: bounded cancellation, constants, and growth bounds.

Implements the machinery comparing the free volume of a subgroup before and
after powers of a Dehn twist: exact bounded cancellation constants between
the relative bases of two splittings, the constants they give, and the
resulting two-sided linear growth bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .errors import BudgetExceeded, HypothesisViolated, NotAnAutomorphism, TrivialSubgroup, UsageError
from .splittings import (
    AMALGAM,
    CyclicSplitting,
    dehn_twist,
    relative_inverse,
    require_valid,
    to_relative,
)
from .stallings import cycle_word, is_malnormal, rank, subgroup_graph
from .volume import cyclic_length, free_volume, relative_length
from .words import (
    LETTER_BUDGET,
    Automorphism,
    Word,
    apply,
    compose,
    concat,
    cyclically_reduce,
    invert_word,
    is_power_of,
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


@lru_cache(maxsize=256)
def basis_change(splitting1: CyclicSplitting, splitting2: CyclicSplitting) -> Automorphism:
    """Automorphism rewriting splitting-1 relative coordinates in splitting-2's; cached."""
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


@lru_cache(maxsize=256)
def _edge_word_image(
    splitting1: CyclicSplitting, splitting2: CyclicSplitting
) -> tuple[int, Word, Word, Word, Automorphism]:
    """``(l2(c1), u, q, q^-1, nu = basis_change)``, nu(c1) = q u q^-1; checks splitting 2, then 1."""
    require_valid(splitting2)
    require_valid(splitting1)
    nu = basis_change(splitting1, splitting2)
    u, q = cyclically_reduce(apply(nu, splitting1.edge_word))
    return cyclic_length(splitting2, u), u, q, invert_word(q), nu


def _twist_blocks(splitting: CyclicSplitting, x: Word) -> list[tuple[int, Word]]:
    """Step 1 of ``growth_certificate``: the pairs (k_i, w_i) for a cyclically reduced relative x."""
    amalgam = splitting.kind == AMALGAM
    separators = set(splitting.b0_part) if amalgam else {splitting.stable_index}
    cuts = [i for i, letter in enumerate(x) if abs(letter) in separators]
    if not cuts:
        return []
    x = x[cuts[0] :] + x[: cuts[0]]
    cuts = [i - cuts[0] for i in cuts]
    doubled = x + x
    marks = []  # (where a block goes, its k), in order along x
    for i, j in zip(cuts, [*cuts[1:], len(x)]):
        after, before = amalgam or x[i] < 0, amalgam or doubled[j] > 0
        if not (after and before and is_power_of(doubled[i + 1 : j], splitting.edge_word)):
            marks += [(i + 1, -1)] * after + [(j, 1)] * before
    ends = [p for p, _ in marks[1:]] + [marks[0][0] + len(x)] if marks else []
    return [(k, doubled[p:end]) for (p, k), end in zip(marks, ends)]


def _cut(left: Word, z: Word, right: Word) -> tuple[int, int, Word]:
    """Reduce z between the rays ``... left left`` and ``right right ...`` (step 2).

    Returns the letters it removes from each ray, and what is left of z.
    Past z the rays cancel fewer than ``len(left)`` letters (step 2).
    """
    r = len(left)
    a = 0
    while a < len(z) and z[a] == -left[~a % r]:
        a += 1
    b = 0
    while a + b < len(z) and z[~b] == -right[b % r]:
        b += 1
    k = 0
    while a + b == len(z) and k < r and left[~(a + k) % r] == -right[(b + k) % r]:
        k += 1
    return a + k, b + k, z[a : len(z) - b]


class _TwistedCycle:
    """T1^n(g) for every n, as the cyclic block word of step 1 in splitting-2 letters."""

    def __init__(self, splitting1: CyclicSplitting, splitting2: CyclicSplitting, g: Word) -> None:
        self.splitting2 = splitting2
        self.length_c1, self.u, q, q_inverse, nu = _edge_word_image(splitting1, splitting2)
        x, _ = cyclically_reduce(to_relative(splitting1, g))
        if not x:
            raise TrivialSubgroup("the generator is trivial")
        self.vol2 = relative_length(splitting2, apply(nu, x))
        blocks = _twist_blocks(splitting1, x)
        self.zs = [concat(q_inverse, apply(nu, w), q) for _, w in blocks]
        u, u_inverse = self.u, invert_word(self.u)
        self.periods = {sign: [u if k == sign else u_inverse for k, _ in blocks] for sign in (1, -1)}
        self.certificate = {"plus": self._line(1), "minus": self._line(-1)} if self.length_c1 else None

    def _line(self, sign: int) -> dict:
        """Steps 2 and 3 for the powers sign * n: the line, its intercept counted at n0."""
        periods, m = self.periods[sign], len(self.zs)
        if not m:
            return {"slope": 0, "intercept": self.vol2, "n0": 1}
        cuts = [_cut(periods[i], z, periods[(i + 1) % m]) for i, z in enumerate(self.zs)]
        n0 = -(-max(cuts[i - 1][1] + cuts[i][0] for i in range(m)) // len(self.u)) + 2
        word: list[int] = []  # the cyclic reduction at n0: middles and remainders
        for i, period in enumerate(periods):
            word += (period * n0)[cuts[i - 1][1] : n0 * len(self.u) - cuts[i][0]]
            word += cuts[i][2]
        slope = m * self.length_c1
        return {"slope": slope, "intercept": cyclic_length(self.splitting2, tuple(word)) - slope * n0, "n0": n0}

    def length(self, n: int) -> int:
        """l2(T1^n g), n != 0: off the line from n0 on, else ``count(n)``."""
        line = self.certificate and self.certificate["plus" if n > 0 else "minus"]
        if line and abs(n) >= line["n0"]:
            return line["slope"] * abs(n) + line["intercept"]
        return self.count(n)

    def count(self, n: int) -> int:
        """l2(T1^n g), n != 0, counted on the block word at n."""
        needed = sum(abs(n) * len(self.u) + len(z) for z in self.zs)
        if needed > LETTER_BUDGET:
            raise BudgetExceeded(f"the twisted word needs {needed} letters, over the budget of {LETTER_BUDGET}")
        word = concat(*(p * abs(n) + z for p, z in zip(self.periods[1 if n > 0 else -1], self.zs)))
        return relative_length(self.splitting2, word) if self.zs else self.vol2


def growth_certificate(
    splitting1: CyclicSplitting, splitting2: CyclicSplitting, g: Word
) -> Optional[dict]:
    """Exact twisted volume of a cyclic subgroup for every large twist power.

    Returns ``{"plus": line, "minus": line}``, each ``line`` a dict
    ``{"slope", "intercept", "n0"}`` such that for every n >= n0

        free_volume(splitting2, [T1^(+-n)(g)]) == slope * n + intercept,

    T1 = ``dehn_twist(splitting1)``, with ``slope = l1(g) * l2(c1)`` (l the
    translation length, c1 the first edge word); None when l2(c1) = 0.
    The intercept is l2 at +-n0, counted as in step 3 on the word that
    step 2 leaves at n0, which is cyclically reduced: nothing is twisted,
    folded or reduced again.

    Proof of n0, in three steps.

    1. Block form.  Let x be the cyclic reduction of g in splitting-1
       relative coordinates.  The relative twist puts c^n before each B0
       letter and c^-n after it (amalgam), or c^n before t and c^-n after
       t^-1 (HNN), with c = c1 relative.  The word between two of these
       blocks holds a B0 letter or t^+-1, unless it runs from a c^-n to a
       c^n: then it is a gap of step 3 read in splitting 1, and if it is
       a power w of c, c^-n w c^n = w merges both blocks away.  What a
       merge joins holds B0 letters or t^+-1, so merges never chain, and
       T1^n(g) is conjugate to the cyclic word c^(k_1 n) w_1 ... c^(k_m n)
       w_m, k_i = +-1, no w_i a power of c (``_twist_blocks``).  The
       merges fall exactly on the gaps that step 3 does not count, so
       m = l1(g).
    2. Free pumping.  With nu = ``basis_change(splitting1, splitting2)``
       and nu(c) = q u q^-1, u cyclically reduced, the splitting-2
       relative word is the cyclic product of u^(k_i n) z_i,
       z_i = q^-1 nu(w_i) q.  As c is not a proper power and w_i no power
       of c, u is not a proper power and z_i no power of u.  Reduce z_i
       between the periodic rays of its two blocks (``_cut``).  The rays
       meet only once z_i is used up, and then cancel fewer than |u|
       letters.  Else a rotation of u^(-k_i) equals one of u^(k_(i+1)):
       for equal signs u is conjugate to u^-1, which no element != 1 of a
       free group is; for opposite ones the rays, as the rotations of u
       differ, agree in phase and cancel until one ends, on a period
       boundary, so u^(kR) z_i u^(-kR), and so z_i, is a power of u.  So
       the reduction removes a_i letters from the left ray and b_i from
       the right one, and once every block u^(k_i n) is longer than the
       b_(i-1) + a_i letters its two junctions remove, the cyclic
       reduction of the word is the product of the junction remainders
       and the surviving middles S_i(n) of the blocks, and S_i(n + 1) is
       S_i(n) with one period of u inserted.
    3. l2 is a local count.  Call the B0 letters (amalgam) or the stable
       letter t (HNN) of splitting 2 separators.  On a cyclically reduced
       relative word with a separator, l2 is a sum over the gaps between
       cyclically consecutive separators: an amalgam's gap adds 2 unless
       it is a power of c2, and for an HNN splitting l2 = #t minus 2 per
       gap t^-1 c2^j t, since such pinches cannot nest
       (``volume.translation_length`` proves it).  As l2(u) = l2(c1) > 0,
       u has a separator, so every |u| letters of S_i(n) hold one.  If
       S_i(n) has at least 2|u| letters, insert the new period right after
       a separator in its first period: the gaps of one period of u are
       added, l2(u) in all, and no other gap changes.

    Hence l2(T1^(n+1) g) = l2(T1^n g) + m l2(c1) for every n >= n0, the
    least n >= 1 with n |u| >= b_(i-1) + a_i + 2|u| for all i; for m = 0
    the word does not depend on n and n0 = 1.  The negative powers are
    the same argument with every k_i negated.
    """
    return _TwistedCycle(splitting1, splitting2, g).certificate


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

    A cyclic subgroup also gets ``growth_certificate`` under
    ``"certificate"``, with ``all_n_ok``: the two-sided bound for every
    |n| >= n0 at once.  However many generators it is given by, its folded
    core is one cycle, and the certificate is for the word read around it,
    which generates a conjugate of the subgroup.  Nothing of it is twisted
    or folded: vol1 is its number of blocks (step 1), vol2 its length in
    splitting 2, and the observed volume is read off the certificate for
    |n| >= n0 and counted on the block word at n otherwise, also when
    l2(c1) = 0 and there is no certificate.  Both bounds have slope
    vol1 * l2(c1), so ``all_n_ok`` holds exactly when the certified slope
    equals it and |intercept| <= vol1 * C + M * vol2.  A subgroup of rank
    2 or more is twisted and refolded.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n == 0:
        raise UsageError(f"the twist power must be a nonzero int, got {n!r}")
    ambient_core = subgroup_graph(splitting1.ambient_basis, list(gens), keep_basepoint=False)
    subgroup_rank = rank(ambient_core)
    if subgroup_rank > 1 and not is_malnormal(ambient_core):
        raise HypothesisViolated("subgroup is neither cyclic nor malnormal")
    if rank_bound is not None and subgroup_rank > rank_bound:
        raise HypothesisViolated("subgroup rank exceeds the bound used for the constants")
    length_c1 = _edge_word_image(splitting1, splitting2)[0]
    cycle = subgroup_rank == 1 and _TwistedCycle(splitting1, splitting2, cycle_word(ambient_core))
    if cycle:
        vol1, vol2, certificate = len(cycle.zs), cycle.vol2, cycle.certificate
    else:
        vol1, vol2, certificate = free_volume(splitting1, gens), free_volume(splitting2, gens), None
    results = {}
    all_ok = True
    for power in (n, -n):
        if cycle:
            observed = cycle.length(power)
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

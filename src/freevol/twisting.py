"""Twisted volume growth: bounded cancellation, constants, and growth bounds.

Implements the machinery comparing the free volume of a subgroup before and
after powers of a Dehn twist: exact bounded cancellation constants between
the relative bases of two splittings, the constants they give, the
resulting two-sided linear growth bounds, and the exact lines that twisted
volume follows from a proven power on, for cyclic subgroups
(``growth_certificate``) and for malnormal ones of rank 2 or more
(``_TwistedCore``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .errors import BudgetExceeded, HypothesisViolated, NotAnAutomorphism, TrivialSubgroup, UsageError
from .splittings import (
    AMALGAM,
    CyclicSplitting,
    relative_inverse,
    require_valid,
    to_relative,
)
from .stallings import Links, cycle_word, fold_generators, is_malnormal, rank, subgroup_graph
from .volume import chains, cyclic_length, relative_length, relative_volume
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
    letters_needed,
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


class _Twisted:
    """T1^n(H) for every n != 0: v1 and v2 of H, the certified lines, and ``count`` at one n."""

    length_c1: int
    vol1: int
    vol2: int
    certificate: Optional[dict]

    def length(self, n: int) -> int:
        """v2(T1^n H), n != 0: off the line from n0 on, else ``count(n)``."""
        line = self.certificate and self.certificate["plus" if n > 0 else "minus"]
        if line and abs(n) >= line["n0"]:
            return line["slope"] * abs(n) + line["intercept"]
        return self.count(n)

    def count(self, n: int) -> int:
        raise NotImplementedError


class _TwistedCycle(_Twisted):
    """T1^n(g) for every n, as the cyclic block word of step 1 in splitting-2 letters."""

    def __init__(self, splitting1: CyclicSplitting, splitting2: CyclicSplitting, g: Word) -> None:
        self.splitting2 = splitting2
        self.length_c1, self.u, q, q_inverse, nu = _edge_word_image(splitting1, splitting2)
        x, _ = cyclically_reduce(to_relative(splitting1, g))
        if not x:
            raise TrivialSubgroup("the generator is trivial")
        self.vol2 = relative_length(splitting2, apply(nu, x))
        blocks = _twist_blocks(splitting1, x)
        self.vol1 = len(blocks)
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


def _twisted_words(
    splitting1: CyclicSplitting, splitting2: CyclicSplitting, xs: Sequence[Word], n: int
) -> list[Word]:
    """T1^n of the words with splitting-1 relative letters ``xs``, in splitting-2 relative letters.

    Step 1 of ``growth_certificate`` on based words: the relative twist
    puts c^n before each B0 letter and c^-n after it (amalgam), or c^n
    before t and c^-n after t^-1 (HNN).  Each letter then goes through
    nu = ``basis_change(splitting1, splitting2)``, and nu(c^n) is
    q u^n q^-1, so no automorphism is twisted or composed and no long word
    is rewritten.  Reduced words are unique, so the result is
    ``to_relative(splitting2, apply(dehn_twist(splitting1, n), g))`` for
    the ambient g of each x.  Its letters are bounded before anything is
    built, as in ``_TwistedCycle.count``; past ``LETTER_BUDGET``
    BudgetExceeded is raised.
    """
    _, u, q, q_inverse, nu = _edge_word_image(splitting1, splitting2)
    amalgam = splitting1.kind == AMALGAM
    separators = set(splitting1.b0_part) if amalgam else {splitting1.stable_index}
    blocks = sum(abs(letter) in separators for x in xs for letter in x) * (2 if amalgam else 1)
    needed = letters_needed(nu, xs) + blocks * (abs(n) * len(u) + 2 * len(q))
    if needed > LETTER_BUDGET:
        raise BudgetExceeded(f"the twisted words need {needed} letters, over the budget of {LETTER_BUDGET}")
    twist = q + (u if n > 0 else invert_word(u)) * abs(n) + q_inverse  # nu(c^n)
    untwist = invert_word(twist)
    words = []
    for x in xs:
        pieces = []
        for letter in x:
            image = nu.image_of(letter)
            if abs(letter) not in separators:
                pieces.append(image)
            elif amalgam:
                pieces += (twist, image, untwist)
            else:
                pieces += (twist, image) if letter > 0 else (image, untwist)
        words.append(concat(*pieces))
    return words


# ---------------------------------------------------------------------------
# Growth lines for subgroups of rank 2 or more


def _slides(splitting: CyclicSplitting, links: Links) -> tuple[int, int]:
    """Step 1 of ``_TwistedCore``: (e+, e-) on the folded core whose table is ``links``.

    e+ is 1 plus the most times c can be read from an end on a chain that
    is not cyclic, e- the same for c^-1; each is 0 when there is no such
    end.
    """
    if splitting.kind == AMALGAM:
        separators = {x for b in splitting.b0_part for x in (b, -b)}
        ends = {vertex for vertex, row in links.items() if not separators.isdisjoint(row)}
    else:
        ends = {vertex for vertex, row in links.items() if splitting.stable_index in row}
    plus = minus = 0
    for orbit in chains(links, splitting.edge_word):
        marks = [i for i, vertex in enumerate(orbit) if vertex in ends]
        if marks and not (len(orbit) > 1 and orbit[-1] == orbit[0]):
            plus, minus = max(plus, len(orbit) - marks[0]), max(minus, marks[-1] + 1)
    return plus, minus


@lru_cache(maxsize=256)
def _kept_periods(splitting1: CyclicSplitting, splitting2: CyclicSplitting) -> int:
    """Step 2 of ``_TwistedCore``: the least a >= 0 with |q| + a|u| >= D; cached per pair."""
    _, u, q, _, nu = _edge_word_image(splitting1, splitting2)
    reach = max(len(nu.image_of(x)) for x in range(1, splitting1.rank + 1)) // 2
    depth = bcc_between(splitting1, splitting2) + max(reach, len(q) + len(u) // 2)
    return max(0, -(-(depth - len(q)) // len(u)))


class _TwistedCore(_Twisted):
    """T1^n(H) for every n, H malnormal of rank >= 2, given by splitting-1 relative generators.

    ``certificate`` is None when l2(c1) = 0, and otherwise ``{"plus":
    line, "minus": line}`` as in ``growth_certificate``: for every n >= n0

        free_volume(splitting2, T1^(+-n) H) == slope * n + intercept,

    with slope = v1(H) l2(c1), v the free volume.  The intercept is
    ``count`` at +-n0, a fold of ``_twisted_words`` at +-n0; no larger
    power is built.  ``count(n)`` also serves |n| < n0 and l2(c1) = 0.

    Proof of n0, with c = c1 and Gamma the folded core of H over the
    relative rose of splitting 1.  Chains are the orbits of the lift map,
    which reads c from a vertex (``volume``).  The twist moves the ends
    of the separator edges: both ends of a B0 edge (amalgam), the tail of
    a t-edge (HNN).  Call those vertices ends.

    1. Slides.  T1^n writes a B0 edge v -b-> w as c^n b c^-n and a t-edge
       v -t-> w as c^n t.  The c^n read from an end at position p of a
       chain v_0, ..., v_L folds along the chain to position p + n, past
       v_L onto a hair that reads c on from v_L, and the ends of one chain
       share its hair.  So T1^n H has the folded graph Gamma with every end
       slid n places along its chain: two ends with one label that land on
       one vertex started on one, and the hair leaves Gamma where reading
       c from v_L stops.  A cyclic chain is one vertex with a loop c, as H
       is malnormal: if c^j, j > 1, lay in a conjugate H' of H, so would
       c, as c^j lies in H' and c H' c^-1.  So its ends stay.  Let e be 1
       plus the most times c can be read from an end on a chain that is
       not cyclic (e+ of ``_slides``).  For n >= e every such end lands on
       its hair, and the folded graph is the same for all such n but for
       one arc J per such chain, its connector: the hair from where it
       leaves Gamma to its first end, with inner vertices of valence 2 and
       the word c' c^N, c' a suffix of c, N >= n - e.  The core keeps J
       whole or not at all.
    2. Junctions.  Let T1, T2 be the Cayley trees of the two relative
       bases, and f: T1 -> T2 the identity on F that sends each edge to
       the geodesic reading its nu-image, nu = ``basis_change``.  With
       K = T1^n H and Min_i the minimal K-subtree of T_i, Min_1/K is the
       core of step 1, spelling it in nu-images and folding gives
       f(Min_1)/K, and the core of that is Min_2/K.  bcc(nu) = C says: if
       E lies on the T1-geodesic [z, P], f(E) lies within C of
       [f(z), f(P)].  Take a lift s of the part of J that reads c^N;
       f(s) reads q u^N q^-1, where nu(c) = q u q^-1, and f of each of its
       vertices g c^j ends a spike q^-1 off the u-line.  Let w be a vertex
       of the u-line or of a spike with d(w, f(E)) > D = C + max(|nu(x)|/2,
       |q| + |u|/2) for both ends E of s (halves rounded down, the max over
       the letters x too), and let w lie on f(e) for an edge e = [z, zx] of
       Min_1 not in s.  Then d(f(P), w) <= |q| + |u|/2 for a vertex P of
       s, and d(f(z), w) <= |nu(x)|/2 for the nearer end z of e.  The
       inner vertices of s have valence 2 in Min_1, so z is none of them,
       and the geodesic [z, P] enters s through an end E.  Then f(E) lies
       within C of [f(z), f(P)], which lies within D - C of w: so
       d(f(E), w) <= D, a contradiction.  So no edge of Min_1 outside s,
       in particular no other lift of a connector, meets w, and folding
       puts no other vertex onto w.  Let a be the least a >= 0 with
       |q| + a|u| >= D (``_kept_periods``), and cut f(s) into q u^a, a
       middle u^(N - 2a) and u^a q^-1: every inner vertex of the middle,
       and of its spikes, is such a w.  Fold in this order: each
       connector's path onto its image tree, by folds at its inner
       vertices; then all but the middles' inner vertices and spikes,
       which is one graph for every n > e + 2a, into a graph F.  No
       middle clashes with F at its ends, as that fold would move an inner
       vertex.  So the folded graph is F with the middles attached, and its
       core is the core of F with the bare middles: the spikes are hairs,
       and the middles stay, as s lies on the axis of some k in K and the
       part of f(s) farther than C from its ends on the axis of k in T2.
    3. Count.  As l2(u) = l2(c1) > 0, u holds a separator of splitting 2.
       Once every middle has two periods, for n >= n0 = e + 2a + 2,
       inserting a period right after a separator in its first one adds
       the gaps of one period of u and changes no other gap.  By the
       ``volume`` module's account of an arc's middle (amalgam: the ends
       of each gap that is no power of c2; HNN: the separators in no
       pinch), that adds l2(u) to v2.  The connectors the core keeps are
       as many as the chains of step 1 that are not cyclic and that some
       loop crosses, which number v1(T1^n H) = v1(H), as T1 acts on the
       tree of splitting 1 by an isometry.  A crossed chain holds an end
       where the crossing gap ends (amalgam: a gap that is no power of c;
       HNN: beside a t in no pinch).  Read back from there, the gap runs
       along the hair, where no vertex has another A-edge.  Had the loop
       left the hair at an end, the gap would be a power of c between two
       ends, or, all ends on the hair being tails, a pinch.  So the gap
       runs on through the connector, which lies on a loop.  Conversely,
       the gap that a loop through a connector runs on is no such power
       and no pinch, as the chain holds no end before the connector: so
       that chain is crossed.

    Hence v2(T1^(n+1) H) = v2(T1^n H) + v1(H) l2(c1) for every n >= n0,
    and n0 = 1 when no chain that is not cyclic holds an end, as then the
    folded graph does not depend on n.  The negative powers slide the
    ends backwards along the chains: the same argument with c^-1 and e-.
    """

    def __init__(self, splitting1: CyclicSplitting, splitting2: CyclicSplitting, xs: Sequence[Word]) -> None:
        self.splitting1, self.splitting2, self.xs = splitting1, splitting2, xs
        self.length_c1, _, _, _, nu = _edge_word_image(splitting1, splitting2)
        self.vol1 = relative_volume(splitting1, xs)
        self.vol2 = relative_volume(splitting2, [apply(nu, x) for x in xs])
        self.certificate = None
        if self.length_c1:
            kept = 2 * _kept_periods(splitting1, splitting2) + 2
            slides = _slides(splitting1, fold_generators(xs, keep_basepoint=False))
            n0s = [e + kept if e else 1 for e in slides]
            self.certificate = {"plus": self._line(1, n0s[0]), "minus": self._line(-1, n0s[1])}

    def _line(self, sign: int, n0: int) -> dict:
        """Step 3 for the powers sign * n: the line, its intercept counted at n0."""
        slope = self.vol1 * self.length_c1
        return {"slope": slope, "intercept": self.count(sign * n0) - slope * n0, "n0": n0}

    def count(self, n: int) -> int:
        """v2(T1^n H), n != 0, counted by folding the twisted generators."""
        return relative_volume(self.splitting2, _twisted_words(self.splitting1, self.splitting2, self.xs, n))


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
    equals it and |intercept| <= vol1 * C + M * vol2.

    A subgroup of rank 2 or more gets the same keys from ``_TwistedCore``,
    whose docstring proves its lines, with slope vol1 * l2(c1), so
    ``all_n_ok`` holds exactly when |intercept| <= vol1 * C + M * vol2.
    Its generators are rewritten once in splitting-1 relative letters, and
    ``_twisted_words`` writes T1^(+-n) of them straight in splitting-2
    letters, within ``LETTER_BUDGET``; nothing ambient is twisted.  They
    are folded only at +-n0, for the intercepts, and at +-n when
    |n| < n0; every larger power is read off the lines.  When
    l2(c1) = 0, ``certificate`` is None and they are folded at +-n.

    The rank the constants cover is read off them: M = piece_bound(R, B)
    for their rank bound R, and ``piece_bound`` grows with R, so a
    subgroup of rank r is covered exactly when piece_bound(r, B) <= M.
    ``rank_bound``, when given, is checked as well.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n == 0:
        raise UsageError(f"the twist power must be a nonzero int, got {n!r}")
    ambient_core = subgroup_graph(splitting1.ambient_basis, list(gens), keep_basepoint=False)
    subgroup_rank = rank(ambient_core)
    if subgroup_rank > 1 and not is_malnormal(ambient_core):
        raise HypothesisViolated("subgroup is neither cyclic nor malnormal")
    covered = piece_bound(subgroup_rank, bounds.B) <= bounds.M
    if not covered or (rank_bound is not None and subgroup_rank > rank_bound):
        raise HypothesisViolated("subgroup rank exceeds the bound used for the constants")
    if subgroup_rank == 1:
        twisted: _Twisted = _TwistedCycle(splitting1, splitting2, cycle_word(ambient_core))
    else:
        twisted = _TwistedCore(splitting1, splitting2, [to_relative(splitting1, g) for g in gens])
    length_c1, vol1, vol2, certificate = twisted.length_c1, twisted.vol1, twisted.vol2, twisted.certificate
    results = {}
    all_ok = True
    for power in (n, -n):
        observed = twisted.length(power)
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

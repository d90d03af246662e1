"""Free group words, bases, conjugacy classes, and automorphisms.

A letter is a nonzero integer: ``+i`` is the i-th positive generator
(1-based), ``-i`` its inverse.  A word is a tuple of letters, kept freely
reduced by construction.  Text I/O uses one character per letter with
uppercase meaning inverse, so ``"aB"`` is a * b^-1; the identity renders
as ``"1"``.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BasisMismatch, EmptyWord, NotAnAutomorphism

Word = tuple[int, ...]

#: Each letter's place in the order a < A < b < B < ..., from 0.  A dict
#: lookup, so that ``map`` and ``sorted`` call it without Python frames.
letter_rank = {x: 2 * (abs(x) - 1) + (x < 0) for x in range(-26, 27) if x}.__getitem__


def ranked_letters(rank: int) -> list[int]:
    """The letters of F_rank in ``letter_rank`` order, which ranks them 0 .. 2 rank - 1."""
    return sorted((x for x in range(-rank, rank + 1) if x), key=letter_rank)


@dataclass(frozen=True)
class Basis:
    """An ordered basis of F_k with printable single-character names."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("basis must have positive rank")
        if len(set(self.names)) != len(self.names):
            raise ValueError("basis names must be distinct")
        for name in self.names:
            if len(name) != 1 or not name.isalpha() or not name.islower():
                raise ValueError(f"basis name must be one lowercase letter: {name!r}")

    @property
    def rank(self) -> int:
        return len(self.names)

    @staticmethod
    def standard(rank: int) -> "Basis":
        if not 1 <= rank <= 26:
            raise ValueError("standard basis supports ranks 1..26")
        return Basis(tuple(string.ascii_lowercase[:rank]))


def reduce_word(raw: Iterable[int]) -> Word:
    """Freely reduce a letter sequence (stack-based, single pass)."""
    out: list[int] = []
    for letter in raw:
        if letter == 0:
            raise ValueError("letters are nonzero integers")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert_word(word: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(word))


def concat(*words: Sequence[int]) -> Word:
    merged: list[int] = []
    for word in words:
        merged.extend(word)
    return reduce_word(merged)


def conjugate(word: Sequence[int], conjugator: Sequence[int]) -> Word:
    """Return conjugator * word * conjugator^-1, reduced."""
    return concat(conjugator, word, invert_word(conjugator))


def parse_word(text: str, basis: Basis) -> Word:
    """Parse one-character-per-letter text; '1' or '' is the identity."""
    if text in ("", "1"):
        return ()
    letters: list[int] = []
    for ch in text:
        low = ch.lower()
        if low not in basis.names:
            raise ValueError(f"unknown letter {ch!r} for basis {''.join(basis.names)}")
        index = basis.names.index(low) + 1
        letters.append(index if ch.islower() else -index)
    return reduce_word(letters)


def render_word(word: Sequence[int], basis: Basis) -> str:
    if not word:
        return "1"
    chars = []
    for letter in word:
        name = basis.names[abs(letter) - 1]
        chars.append(name if letter > 0 else name.upper())
    return "".join(chars)


def cyclically_reduce(word: Sequence[int]) -> tuple[Word, Word]:
    """Split ``word = conjugator * core * conjugator^-1`` with core cyclically reduced."""
    w = reduce_word(word)
    start, stop = 0, len(w)
    while stop - start >= 2 and w[start] == -w[stop - 1]:
        start += 1
        stop -= 1
    return w[start:stop], w[:start]


def _least_rotation_index(ranks: Sequence[int]) -> int:
    # Booth's algorithm: index of the lexicographically least rotation, O(n).
    s = tuple(ranks) + tuple(ranks)
    k = 0
    f = [-1] * len(s)
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def canonical_rotation(word: Sequence[int]) -> Word:
    """Lexicographically least rotation under the a < A < b < B < ... order."""
    w = tuple(word)
    n = len(w)
    if n <= 1:
        return w
    best = _least_rotation_index([letter_rank(x) for x in w])
    return w[best:] + w[:best]


@dataclass(frozen=True)
class CyclicWord:
    """A conjugacy class, stored as the canonical rotation of its cyclic reduction."""

    letters: Word

    @staticmethod
    def of(word: Sequence[int]) -> "CyclicWord":
        core, _ = cyclically_reduce(word)
        return CyclicWord(canonical_rotation(core))

    def __len__(self) -> int:
        return len(self.letters)

    def render(self, basis: Basis) -> str:
        return render_word(self.letters, basis)


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def is_proper_power(cyclic: CyclicWord) -> tuple[bool, Word, int]:
    """Smallest period decomposition of a nonempty cyclic word.

    Returns ``(is_power, root, exponent)`` with ``letters == root * exponent``.
    """
    w = cyclic.letters
    n = len(w)
    if n == 0:
        raise EmptyWord("proper-power test needs a nonempty cyclic word")
    for period in _divisors(n):
        if w == w[:period] * (n // period):
            return (period < n, w[:period], n // period)
    raise AssertionError("unreachable: the full period always matches")


def is_power_of(word: Word, root: Word) -> bool:
    """Whether the reduced ``word`` is ``root^j`` for some j, 0 included.

    ``root`` must be cyclically reduced, so that ``root^j`` is spelled as
    ``root`` repeated |j| times and starts with ``root[0]`` exactly when
    j > 0.  Letter i of ``root^-j`` is ``-root[-1 - i % len(root)]``, so
    the letters are compared in place and nothing is built.
    """
    r = len(root)
    if len(word) % r:
        return False
    if word and word[0] != root[0]:
        for i, letter in enumerate(word):
            if letter != -root[~i % r]:
                return False
        return True
    for i, letter in enumerate(word):
        if letter != root[i % r]:
            return False
    return True


@dataclass(frozen=True)
class Automorphism:
    """An automorphism of F_k given by the images of the positive generators."""

    basis: Basis
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.basis.rank:
            raise ValueError("need one image per generator")
        object.__setattr__(self, "images", tuple(reduce_word(im) for im in self.images))

    @staticmethod
    def identity(basis: Basis) -> "Automorphism":
        return Automorphism(basis, tuple((i + 1,) for i in range(basis.rank)))

    def image_of(self, letter: int) -> Word:
        image = self.images[abs(letter) - 1]
        return image if letter > 0 else invert_word(image)

    def render(self) -> str:
        return ", ".join(
            f"{self.basis.names[i]} -> {render_word(im, self.basis)}"
            for i, im in enumerate(self.images)
        )


def apply(phi: Automorphism, word: Sequence[int]) -> Word:
    out: list[int] = []
    for letter in word:
        for image_letter in phi.image_of(letter):
            if out and out[-1] == -image_letter:
                out.pop()
            else:
                out.append(image_letter)
    return tuple(out)


def apply_cyclic(phi: Automorphism, cyclic: CyclicWord) -> CyclicWord:
    return CyclicWord.of(apply(phi, cyclic.letters))


def compose(phi: Automorphism, psi: Automorphism) -> Automorphism:
    """Composition acting as apply(compose(phi, psi), w) = apply(phi, apply(psi, w))."""
    if phi.basis != psi.basis:
        raise BasisMismatch("cannot compose automorphisms over different bases")
    return Automorphism(phi.basis, tuple(apply(phi, im) for im in psi.images))


#: No automorphism built by ``dehn_twist`` or ``pingpong.realize`` (all its images
#: together), and no word built by an exact orbit comparison, may exceed this many letters.
LETTER_BUDGET = 10_000_000


def letters_needed(phi: Automorphism, words: Sequence[Word]) -> int:
    """Upper bound on the letters of ``apply(phi, w)`` over all ``w`` in ``words``.

    The summed lengths of the letters' images: free reduction only
    shortens the result, so it can be checked before anything is built.
    """
    lengths = [len(image) for image in phi.images]
    return sum(lengths[abs(x) - 1] for word in words for x in word)


def power(phi: Automorphism, exponent: int) -> Automorphism:
    base = phi if exponent >= 0 else invert(phi)
    result = Automorphism.identity(phi.basis)
    for _ in range(abs(exponent)):
        result = compose(base, result)
    return result


def invert(phi: Automorphism) -> Automorphism:
    """Invert by one labelled Stallings fold of the images (Stallings 1983).

    The images are glued as loops at the basepoint 0, each edge carrying a
    word so that a closed path at 0 spelling ``w`` carries a ``u`` with
    ``phi(u) = w``.  Folding ``v -> w1`` and ``v -> w2``, which read one
    letter with labels ``l1`` and ``l2`` from ``v``, regauges ``w2`` (never
    0) by ``h = l2^-1 l1``, so its leaving edges take ``h^-1`` in front and
    its entering edges ``h`` behind, then merges it into ``w1``.  Parallel
    edges with different labels spell a ``u != 1`` with ``phi(u) = 1``, and
    a fold ending anywhere but the rose means the images do not generate:
    NotAnAutomorphism is raised exactly when they are not a basis.  The
    rose's loop reading ``x_j`` carries ``phi^-1(x_j)``.
    """
    if any(len(image) == 0 for image in phi.images):
        raise NotAnAutomorphism("an image is the empty word")
    # edges[e] = (tail, head, label) reads a positive letter from tail to
    # head; star[v][s] lists the edges leaving v by the signed letter s,
    # and work gets (v, s) each time that list grows past one edge.
    edges: list[tuple[int, int, Word]] = []
    star: dict[int, dict[int, list[int]]] = {0: {}}
    work: list[tuple[int, int]] = []

    def attach(v: int, s: int, e: int) -> None:
        out = star[v].setdefault(s, [])
        out.append(e)
        if len(out) > 1:
            work.append((v, s))

    def add(v: int, x: int, w: int, label: Word) -> int:
        star.setdefault(w, {})
        edges.append((v, w, label) if x > 0 else (w, v, invert_word(label)))
        attach(v, x, len(edges) - 1)
        attach(w, -x, len(edges) - 1)
        return w

    def read(s: int, e: int) -> tuple[int, Word]:
        # The far end of edge e and its label, leaving by the signed letter s.
        tail, head, label = edges[e]
        return (head, label) if s > 0 else (tail, invert_word(label) if label else label)

    for generator, image in enumerate(phi.images, start=1):
        # image = u c u^-1: follow or spell a stem reading u, then spell a
        # loop reading c at its end, whose last edge closes the label.
        core, stem = cyclically_reduce(image)
        v, along = 0, ()
        for x in stem:
            if star[v].get(x):
                v, label = read(x, star[v][x][0])
                along = concat(along, label)
            else:
                v = add(v, x, len(star), ())
        anchor = v
        for x in core[:-1]:
            v = add(v, x, len(star), ())
        add(v, core[-1], anchor, concat(invert_word(along), (generator,), along))

    while work:
        v, s = work.pop()
        out = star.get(v, {}).get(s, ())  # empty once v is merged away
        if len(out) < 2:
            continue
        e1, e2 = out[0], out[1]
        (w1, l1), (w2, l2) = read(s, e1), read(s, e2)
        if w2 == 0:  # the basepoint is never regauged
            e1, e2, w1, w2, l1, l2 = e2, e1, w2, w1, l2, l1
        if w1 == w2 and l1 != l2:
            raise NotAnAutomorphism("the images satisfy a relation")
        if w1 != w2:
            h = concat(invert_word(l2), l1)
            moved = star.pop(w2)
            for e in {e for out in moved.values() for e in out}:
                tail, head, label = edges[e]
                if tail == w2:
                    tail, label = w1, concat(invert_word(h), label)
                if head == w2:
                    head, label = w1, concat(label, h)
                edges[e] = (tail, head, label)
            for t, out in moved.items():
                for e in out:
                    attach(w1, t, e)
        tail, head, _ = edges[e2]  # now parallel to e1, with the same label
        star[tail][abs(s)].remove(e2)
        star[head][-abs(s)].remove(e2)
    petals = [star[0].get(x, ()) for x in range(1, phi.basis.rank + 1)]
    if len(star) > 1 or any(len(petal) != 1 for petal in petals):
        raise NotAnAutomorphism("the images do not generate the free group")
    return Automorphism(phi.basis, tuple(edges[petal[0]][2] for petal in petals))


#: A necklace constraint ``(steps, distance, accepted)``.  Each prefix has an
#: int key, the sum of ``steps[r]`` over its letter ranks ``r``.
#: ``distance[key]`` is a lower bound on the letters still needed to reach a
#: key of ``accepted``, and a prefix farther than its letters left is pruned.
#: A necklace is kept when ``accepted`` has its key, and comes with the value.
Constraint = tuple[Sequence[int], Mapping[int, int], Mapping[int, tuple[int, ...]]]
_UNCONSTRAINED: Constraint = ((0,) * 52, {0: 0}, {0: ()})


def _cyclic_necklaces(
    rank: int, length: int, constraint: Constraint, lyndon: bool = False
) -> Iterator[tuple[Word, tuple[int, ...]]]:
    """Cyclically reduced necklaces of the given length, in lexicographic order.

    The Fredricksen-Kessler-Maiorana tree (Ruskey, Savage and Wang 1992)
    over the letters' ``letter_rank``: each prenecklace ``a[1..t]`` whose
    longest Lyndon prefix has length ``p`` extends by ``a[t-p]`` (keeping
    ``p``) or by any larger rank (making ``p = t``), and a full-length
    prenecklace is a necklace exactly when ``p`` divides the length, and a
    Lyndon word, no proper power, exactly when ``p`` is the length.  Every
    prefix of a freely reduced word is freely reduced, so pruning a prefix
    that ends in ``x x^-1`` loses no necklace; the wrap-around pair is
    checked at the leaves.  Pruning by the ``constraint`` keeps the order of
    the necklaces it keeps.  With ``lyndon``, the tree starts only at
    generator letters, and only Lyndon words are yielded: the necklaces
    that are no proper power and whose least letter is a generator.  Each
    necklace comes as ``(letters, accepted[key])``.
    """
    steps, distance, accepted = constraint
    letter_of = ranked_letters(rank)
    inverse = [letter_rank(-x) for x in letter_of]
    first = range(0, 2 * rank, 2 if lyndon else 1)  # generators have even ranks
    a = [0] * (length + 1)  # 1-based; a[0] is the FKM sentinel

    def extend(t: int, p: int, prefix: Word, key: int) -> Iterator[tuple[Word, tuple[int, ...]]]:
        # Fills a[t] .. a[length] after the prefix a[1 .. t-1], spelled ``prefix``.
        repeat = a[t - p]
        choices = range(repeat, 2 * rank) if t > 1 else first
        banned = inverse[a[t - 1]] if t > 1 else -1
        if t == length:
            # Repeating a[t-p] keeps the period p, which closes a necklace
            # when it divides the length and a Lyndon word when it is the length.
            closes = p == length if lyndon else length % p == 0
            if not closes:
                choices = range(repeat + 1, 2 * rank)
            wrap = inverse[a[1]] if t > 1 else -1
            for c in choices:
                if c != banned and c != wrap:
                    tag = accepted.get(key + steps[c])
                    if tag is not None:
                        yield prefix + (letter_of[c],), tag
            return
        left = length - t
        for c in choices:
            if c != banned and distance[key + steps[c]] <= left:
                a[t] = c
                yield from extend(
                    t + 1, p if c == repeat else t, prefix + (letter_of[c],), key + steps[c]
                )

    yield from extend(1, 1, (), 0)


def enumerate_cyclic_classes(rank: int, max_len: int) -> Iterator[CyclicWord]:
    """All nontrivial conjugacy classes with cyclic length <= max_len, one per class.

    Classes come by length, and within one length in the order of their
    canonical rotations under a < A < b < B < ...; each is generated
    directly as a cyclically reduced necklace, so no rotation is tested.
    """
    for length in range(1, max_len + 1):
        for letters, _ in _cyclic_necklaces(rank, length, _UNCONSTRAINED):
            yield CyclicWord(letters)


def _form_tables(
    units: Sequence[int], forms: Sequence[Sequence[int]], radius: int
) -> tuple[dict[int, int], dict[int, tuple[int, ...]]]:
    """Where the ``forms`` vanish on the vectors of l1 norm at most ``radius``, and how far.

    Keys are the vectors packed by ``units``.  The second table maps each
    vector on which some form vanishes to the indices of those forms; the
    first gives each vector's l1 distance to the nearest such vector, or
    ``radius + 1`` past ``radius``.  One recursion over the coordinates
    carries the key and every form's value so far.  Along the last
    coordinate x, a form with coefficient c there and value v so far
    vanishes only at x = -v/c, or everywhere when c and v are both 0, so no
    vector is visited one at a time but those where a form vanishes.  The
    distances are a breadth-first search from those, since a shortest path
    between two vectors of the ball stays in it.
    """
    far = radius + 1
    last = len(units) - 1
    columns = [[form[i] for form in forms] for i in range(last + 1)]
    table: dict[int, int] = {}
    vanishing: dict[int, tuple[int, ...]] = {}

    def fill(i: int, left: int, key: int, values: list[int]) -> None:
        # The vectors whose coordinates before i are spelled by ``key``,
        # with ``left`` of the norm still free.
        unit, column = units[i], columns[i]
        if i < last:
            for x in range(-left, left + 1):
                moved = [v + x * c for v, c in zip(values, column)]
                fill(i + 1, left - abs(x), key + x * unit, moved)
            return
        table.update(dict.fromkeys(range(key - left * unit, key + (left + 1) * unit, unit), far))
        hits: dict[int, list[int]] = {}
        for f, (v, c) in enumerate(zip(values, column)):
            if c:
                x, r = divmod(-v, c)
                if not r and abs(x) <= left:
                    hits.setdefault(x, []).append(f)
            elif not v:
                for x in range(-left, left + 1):
                    hits.setdefault(x, []).append(f)
        for x, indices in hits.items():
            vanishing[key + x * unit] = tuple(indices)

    fill(0, radius, 0, [0] * len(forms))
    moves = [*units, *(-u for u in units)]
    frontier = set(vanishing)
    for distance in range(far):
        table.update(dict.fromkeys(frontier, distance))
        frontier = {k + m for k in frontier for m in moves if table.get(k + m) == far}
    return table, vanishing


def enumerate_cyclic_classes_with(
    rank: int, max_len: int, forms: Sequence[Sequence[int]]
) -> Iterator[tuple[CyclicWord, tuple[int, ...]]]:
    """Primitive classes led by a generator on whose abelianization some form vanishes.

    They are classes of ``enumerate_cyclic_classes`` and come in the same
    order, as ``(cyclic, vanishing)``: ``vanishing`` lists, in order, the
    indices of the ``forms`` that vanish on the class.  A primitive class
    is no proper power, and its canonical rotation is a Lyndon word.  A
    class whose least letter is x^-1 holds no x, so its inverse, which holds
    x, has the smaller least letter; the walk leaves out both the proper
    powers and these classes by never starting the necklace tree at an
    inverse letter and yielding only Lyndon words.  The
    abelianization of a class is its vector of exponent sums, one per
    generator, and a form is a sequence of ``rank`` integer coefficients.  A
    prefix's vector is packed into one int key, in balanced base ``2 max_len
    + 3`` so that vectors of norm up to ``max_len + 1`` get distinct keys,
    and each letter adds its step to the key.  The necklace tree skips a
    prefix whose distance to the vectors where a form vanishes exceeds its
    letters left: each letter moves the vector by one in l1.  Distances
    come from a table over the ball of some radius at least the length
    (``_form_tables``), whose radius doubles when the length passes it, so
    a walk that stops at a short class builds only small tables.
    """
    base = 2 * max_len + 3
    units = [base**i for i in range(rank)]
    steps = [units[x - 1] if x > 0 else -units[-x - 1] for x in ranked_letters(rank)]
    radius = 0
    for length in range(1, max_len + 1):
        if length > radius:
            radius = min(max(2 * radius, length), max_len)
            constraint = (steps, *_form_tables(units, forms, radius))
        for letters, vanishing in _cyclic_necklaces(rank, length, constraint, lyndon=True):
            yield CyclicWord(letters), vanishing


def count_cyclic_classes(rank: int, max_len: int) -> tuple[int, int]:
    """Conjugacy classes of cyclic length 1..max_len, and how many are primitive.

    A primitive class is no proper power.  The cyclically reduced words of
    length n number W(n) = (2k-1)^n + (k-1)(-1)^n + k, the trace of the
    n-th power of the letter-transition matrix.  Each is the power of a
    primitive word of some length d dividing n, and d rotations of it give
    the same class, so W(n) is the sum of d P(d) over those d; inverting
    this (Moebius inversion) gives the primitive classes P(n), and the
    classes of length n number the sum of P(d) over d dividing n (Burnside's
    lemma over rotations).
    """
    primitive: dict[int, int] = {}
    for n in range(1, max_len + 1):
        words = (2 * rank - 1) ** n + (rank - 1) * (-1) ** n + rank
        primitive[n] = (words - sum(d * primitive[d] for d in _divisors(n)[:-1])) // n
    classes = sum(primitive[d] for n in primitive for d in _divisors(n))
    return classes, sum(primitive.values())

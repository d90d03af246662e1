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
from typing import Iterable, Iterator, Sequence

from .errors import BasisMismatch, EmptyWord, NotAnAutomorphism

Word = tuple[int, ...]

#: Total order on letters used for canonical rotations: a < A < b < B < ...
def letter_sort_key(letter: int) -> tuple[int, int]:
    return (abs(letter), 0 if letter > 0 else 1)


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


def _letter_rank(letter: int) -> int:
    # Integer encoding of the a < A < b < B < ... order.
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


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
    best = _least_rotation_index([_letter_rank(x) for x in w])
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


def _cyclic_necklaces(rank: int, length: int) -> Iterator[Word]:
    """Cyclically reduced necklaces of the given length, in lexicographic order.

    The Fredricksen-Kessler-Maiorana tree (Ruskey, Savage and Wang 1992)
    over the letter ranks of a < A < b < B < ...: each prenecklace
    ``a[1..t]`` whose longest Lyndon prefix has length ``p`` extends by
    ``a[t-p]`` (keeping ``p``) or by any larger rank (making ``p = t``),
    and a full-length prenecklace is a necklace exactly when ``p`` divides
    the length.  Every prefix of a freely reduced word is freely reduced,
    so pruning a prefix that ends in ``x x^-1`` (ranks ``r, r ^ 1``) loses
    no necklace; the wrap-around pair is checked at the leaves.
    """
    letter_of = [i // 2 + 1 if i % 2 == 0 else -(i // 2 + 1) for i in range(2 * rank)]
    a = [0] * (length + 1)  # 1-based; a[0] is the FKM sentinel

    def extend(t: int, p: int, prefix: Word) -> Iterator[Word]:
        # Fills a[t] .. a[length] after the prefix a[1 .. t-1], spelled ``prefix``.
        repeat = a[t - p]
        banned = a[t - 1] ^ 1 if t > 1 else -1
        if t == length:
            wrap = a[1] ^ 1 if t > 1 else -1
            for c in range(repeat, 2 * rank):
                if c != banned and c != wrap and (c != repeat or length % p == 0):
                    yield prefix + (letter_of[c],)
            return
        for c in range(repeat, 2 * rank):
            if c != banned:
                a[t] = c
                yield from extend(t + 1, p if c == repeat else t, prefix + (letter_of[c],))

    yield from extend(1, 1, ())


def enumerate_cyclic_classes(rank: int, max_len: int) -> Iterator[CyclicWord]:
    """All nontrivial conjugacy classes with cyclic length <= max_len, one per class.

    Classes come by length, and within one length in the order of their
    canonical rotations under a < A < b < B < ...; each is generated
    directly as a cyclically reduced necklace, so no rotation is tested.
    """
    for length in range(1, max_len + 1):
        for letters in _cyclic_necklaces(rank, length):
            yield CyclicWord(letters)

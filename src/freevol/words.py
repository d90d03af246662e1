"""Free group words, bases, conjugacy classes, and automorphisms.

A letter is a nonzero integer: ``+i`` is the i-th positive generator
(1-based), ``-i`` its inverse.  A word is a tuple of letters, kept freely
reduced by construction.  Text I/O uses one character per letter with
uppercase meaning inverse, so ``"aB"`` is a * b^-1; the identity renders
as ``"1"``.
"""

from __future__ import annotations

import string
from collections import deque
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


def power(phi: Automorphism, exponent: int) -> Automorphism:
    base = phi if exponent >= 0 else invert(phi)
    result = Automorphism.identity(phi.basis)
    for _ in range(abs(exponent)):
        result = compose(base, result)
    return result


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


def invert(phi: Automorphism) -> Automorphism:
    """Invert by total-length-decreasing Nielsen reduction of the images.

    Each replacement of image i by its product with image j corresponds to
    precomposing with an elementary automorphism; accumulating those
    elementary automorphisms against the terminal signed permutation yields
    the inverse.  When no single move shortens the images, a breadth-first
    search through length-preserving moves finds a path off the plateau;
    the search is bounded, and exhausting the bound means the images do not
    reduce to a basis.
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


def validate_automorphism(phi: Automorphism) -> bool:
    """True iff the images form a basis (their folded rose is the full rose)."""
    from . import stallings  # local import to avoid a cycle

    if any(len(im) == 0 for im in phi.images):
        return False
    graph = stallings.from_generators(phi.basis, phi.images)
    folded, _ = stallings.fold_and_core(graph, keep_basepoint=True)
    return (
        len(folded.vertices) == 1
        and len(folded.edges) == phi.basis.rank
        and stallings.rank(folded) == phi.basis.rank
    )


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

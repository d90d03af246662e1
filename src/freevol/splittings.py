"""Cyclic splittings of a free group in relative normal form.

A splitting is stored through a *relative basis*: an ambient basis of the
free group whose letters split into an A-part and either a B0-part
(amalgam over a cyclic group) or a single stable letter (HNN extension
over a cyclic group).  The edge word lives in relative A-part letters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import BudgetExceeded, InvalidSplitting, NotAnAutomorphism
from .words import (
    LETTER_BUDGET,
    Automorphism,
    Basis,
    CyclicWord,
    Word,
    apply,
    compose,
    concat,
    conjugate,
    cyclically_reduce,
    invert,
    invert_word,
    is_proper_power,
    letters_needed,
    parse_word,
    reduce_word,
    render_word,
)

AMALGAM = "amalgam"
HNN = "hnn"


@dataclass(frozen=True)
class CyclicSplitting:
    """A two-vertex-or-loop cyclic splitting presented by a relative basis.

    ``a_part``/``b0_part`` are 1-based indices into ``relative_basis``; for
    an HNN splitting ``stable_index`` points at the stable letter and the
    remaining indices form the A-part.  ``edge_word`` is written in relative
    coordinates and uses only A-part letters.
    """

    kind: str
    ambient_basis: Basis
    relative_basis: tuple[Word, ...]
    a_part: tuple[int, ...]
    edge_word: Word
    b0_part: tuple[int, ...] = ()
    stable_index: Optional[int] = None

    @property
    def rank(self) -> int:
        return self.ambient_basis.rank

    def relative_automorphism(self) -> Automorphism:
        """Automorphism sending standard letters to the relative basis."""
        return Automorphism(self.ambient_basis, self.relative_basis)

    def edge_word_ambient(self) -> Word:
        """Edge word rewritten in ambient coordinates."""
        return apply(self.relative_automorphism(), self.edge_word)


@dataclass(frozen=True)
class MarkedPair:
    """Two cyclic splittings of the same free group, compared as a pair."""

    first: CyclicSplitting
    second: CyclicSplitting

    def __post_init__(self) -> None:
        if self.first.ambient_basis != self.second.ambient_basis:
            raise InvalidSplitting(
                ["paired splittings must share the same ambient basis"]
            )

    @property
    def ambient_basis(self) -> Basis:
        return self.first.ambient_basis


@lru_cache(maxsize=256)
def relative_inverse(splitting: CyclicSplitting) -> Automorphism:
    """Cached inverse of the relative-basis automorphism."""
    return invert(splitting.relative_automorphism())


def diagnostics(splitting: CyclicSplitting) -> list[str]:
    """All normal-form violations, empty iff the splitting is valid."""
    return list(_diagnostics(splitting))


@lru_cache(maxsize=256)
def _diagnostics(splitting: CyclicSplitting) -> tuple[str, ...]:
    problems: list[str] = []
    k = splitting.rank
    if splitting.kind not in (AMALGAM, HNN):
        return (f"unknown kind {splitting.kind!r}",)
    if len(splitting.relative_basis) != k:
        problems.append("relative basis size differs from ambient rank")
        return tuple(problems)
    try:
        relative_inverse(splitting)
    except NotAnAutomorphism:
        problems.append("relative basis is not a basis")
    if splitting.kind == AMALGAM:
        if splitting.stable_index is not None:
            problems.append("amalgam splitting carries a stable index")
        indices = sorted(splitting.a_part) + sorted(splitting.b0_part)
        if sorted(indices) != list(range(1, k + 1)):
            problems.append("A-part and B0-part must partition the relative letters")
        if not splitting.a_part or not splitting.b0_part:
            problems.append("A-part and B0-part must both be nonempty")
        if len(splitting.a_part) == 1:
            problems.append("A-part of size one makes the vertex group equal the edge group")
    else:
        if splitting.b0_part:
            problems.append("HNN splitting carries a B0-part")
        if splitting.stable_index is None:
            problems.append("HNN splitting needs a stable index")
        else:
            indices = sorted(splitting.a_part) + [splitting.stable_index]
            if sorted(indices) != list(range(1, k + 1)):
                problems.append("A-part and stable letter must partition the relative letters")
    allowed = set(splitting.a_part)
    if not splitting.edge_word:
        problems.append("edge word is empty")
        return tuple(problems)
    if any(abs(letter) not in allowed for letter in splitting.edge_word):
        problems.append("edge word uses letters outside the A-part")
    core, conjugator = cyclically_reduce(splitting.edge_word)
    if conjugator or core != splitting.edge_word:
        problems.append("edge word is not cyclically reduced")
    else:
        divisible, _, _ = is_proper_power(CyclicWord.of(splitting.edge_word))
        if divisible:
            problems.append("edge word is a proper power")
    return tuple(problems)


def validate(splitting: CyclicSplitting) -> bool:
    return not diagnostics(splitting)


def require_valid(splitting: CyclicSplitting) -> None:
    problems = diagnostics(splitting)
    if problems:
        raise InvalidSplitting(problems)


def relative_twist(splitting: CyclicSplitting, exponent: int = 1) -> Automorphism:
    """The ``exponent``-th power of the twist, in relative coordinates.

    Closed form, with ``c`` the edge word and ``n`` the exponent: amalgam,
    conjugate each B0 letter by ``c^n``; HNN, left-multiply the stable
    letter by ``c^n``.  A-part letters are fixed, and a negative ``n``
    uses ``c^-1``.
    """
    c = splitting.edge_word
    c_n = c * exponent if exponent >= 0 else invert_word(c) * -exponent
    images: list[Word] = []
    for index in range(1, splitting.rank + 1):
        letter: Word = (index,)
        if splitting.kind == AMALGAM and index in splitting.b0_part:
            images.append(conjugate(letter, c_n))
        elif splitting.kind == HNN and index == splitting.stable_index:
            images.append(concat(c_n, letter))
        else:
            images.append(letter)
    return Automorphism(splitting.ambient_basis, tuple(images))


def dehn_twist(splitting: CyclicSplitting, exponent: int = 1) -> Automorphism:
    """The ``exponent``-th power of the twist, in ambient coordinates.

    With ``sigma`` the relative-basis automorphism this is
    ``sigma * relative_twist(splitting, n) * sigma^-1``: two compositions
    for any ``n``, since the relative twist power is written directly.
    ``needed`` sums the unreduced lengths of ``sigma`` of the relative
    twist's images over the letters of ``sigma^-1``'s images, so it bounds
    every word built on the way, ``c^n`` included; past ``LETTER_BUDGET``
    BudgetExceeded is raised before anything is built.
    """
    require_valid(splitting)
    sigma = splitting.relative_automorphism()
    c_letters = abs(exponent) * letters_needed(sigma, [splitting.edge_word])
    spelled = [len(image) for image in sigma.images]
    for index in splitting.b0_part:
        spelled[index - 1] += 2 * c_letters
    if splitting.stable_index is not None:
        spelled[splitting.stable_index - 1] += c_letters
    inverse = relative_inverse(splitting)
    needed = sum(spelled[abs(x) - 1] for image in inverse.images for x in image)
    if needed > LETTER_BUDGET:
        raise BudgetExceeded(
            f"the twist to the power {exponent} needs up to {needed} letters, "
            f"over the budget of {LETTER_BUDGET}"
        )
    delta = relative_twist(splitting, exponent)
    return compose(sigma, compose(delta, inverse))


def transform(splitting: CyclicSplitting, phi: Automorphism) -> CyclicSplitting:
    """Pull the splitting back along ``phi``.

    With ``result = transform(s, phi)`` translation lengths satisfy
    ``length(result, g) == length(s, apply(phi, g))``; concretely the new
    relative basis is the inverse of ``phi`` applied to the old one.
    """
    require_valid(splitting)
    phi_inverse = invert(phi)
    new_basis = tuple(apply(phi_inverse, word) for word in splitting.relative_basis)
    return CyclicSplitting(
        kind=splitting.kind,
        ambient_basis=splitting.ambient_basis,
        relative_basis=new_basis,
        a_part=splitting.a_part,
        edge_word=splitting.edge_word,
        b0_part=splitting.b0_part,
        stable_index=splitting.stable_index,
    )


def to_relative(splitting: CyclicSplitting, word: Word) -> Word:
    """Rewrite an ambient word in relative coordinates."""
    return apply(relative_inverse(splitting), word)


def from_relative(splitting: CyclicSplitting, word: Word) -> Word:
    """Rewrite a relative-coordinate word in ambient coordinates."""
    return apply(splitting.relative_automorphism(), word)


def vertex_groups(splitting: CyclicSplitting) -> list[list[Word]]:
    """Generating sets of the vertex groups, in ambient coordinates.

    Amalgam: the A side and the B side (edge word together with the B0
    letters).  HNN: the single vertex group, free product of the A-part
    with the edge word conjugated through the stable letter.
    """
    require_valid(splitting)
    sigma = splitting.relative_automorphism()
    if splitting.kind == AMALGAM:
        a_gens = [apply(sigma, (index,)) for index in sorted(splitting.a_part)]
        b_gens = [apply(sigma, splitting.edge_word)] + [
            apply(sigma, (index,)) for index in sorted(splitting.b0_part)
        ]
        return [a_gens, b_gens]
    t = splitting.stable_index
    assert t is not None
    a_gens = [apply(sigma, (index,)) for index in sorted(splitting.a_part)]
    conjugated = reduce_word(invert_word((t,)) + splitting.edge_word + (t,))
    a_gens.append(apply(sigma, conjugated))
    return [a_gens]


def to_json(splitting: CyclicSplitting) -> dict:
    basis = splitting.ambient_basis
    payload: dict = {
        "schema": "freevol/1",
        "kind": splitting.kind,
        "ambient_rank": splitting.rank,
        "relative_basis": [render_word(w, basis) for w in splitting.relative_basis],
        "a_part": list(splitting.a_part),
        "edge_word": render_word(splitting.edge_word, basis),
    }
    if splitting.kind == AMALGAM:
        payload["b0_part"] = list(splitting.b0_part)
    else:
        payload["stable_index"] = splitting.stable_index
    return payload


def _typed(value: object, kind: type, field: str):
    """``value`` when it is a ``kind`` (never a bool), else a TypeError naming ``field``."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"{field} must be {kind.__name__}, got {value!r}")
    return value


def _int_list(value: object, field: str) -> tuple[int, ...]:
    return tuple(_typed(i, int, field) for i in _typed(value, list, field))


def from_json(payload: dict) -> CyclicSplitting:
    if not isinstance(payload, dict):
        raise InvalidSplitting([f"splitting payload must be an object, not {type(payload).__name__}"])
    if payload.get("schema") not in (None, "freevol/1"):
        raise InvalidSplitting([f"unsupported schema {payload.get('schema')!r}"])
    try:
        kind = payload["kind"]
        basis = Basis.standard(_typed(payload["ambient_rank"], int, "ambient_rank"))
        relative_basis = tuple(
            parse_word(_typed(s, str, "relative_basis"), basis)
            for s in _typed(payload["relative_basis"], list, "relative_basis")
        )
        a_part = _int_list(payload["a_part"], "a_part")
        edge_word = parse_word(_typed(payload["edge_word"], str, "edge_word"), basis)
        b0_part = _int_list(payload.get("b0_part", []), "b0_part")
        stable = payload.get("stable_index")
        stable_index = None if stable is None else _typed(stable, int, "stable_index")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSplitting([f"malformed splitting payload: {exc}"]) from exc
    if kind == AMALGAM:
        splitting = CyclicSplitting(kind, basis, relative_basis, a_part, edge_word, b0_part=b0_part)
    elif kind == HNN:
        splitting = CyclicSplitting(
            kind, basis, relative_basis, a_part, edge_word, stable_index=stable_index
        )
    else:
        raise InvalidSplitting([f"unknown kind {kind!r}"])
    require_valid(splitting)
    return splitting


def dumps(splitting: CyclicSplitting) -> str:
    return json.dumps(to_json(splitting), indent=2)


def loads(text: str) -> CyclicSplitting:
    return from_json(json.loads(text))

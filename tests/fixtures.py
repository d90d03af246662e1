"""Shared splittings, automorphisms, and pairs used across the test suite."""

import json
import random
from pathlib import Path

from freevol.splittings import (
    AMALGAM,
    HNN,
    CyclicSplitting,
    MarkedPair,
    transform,
)
from freevol.words import Automorphism, Basis, compose, invert, parse_word, power

B2 = Basis.standard(2)
B3 = Basis.standard(3)


def w2(text):
    return parse_word(text, B2)


def w3(text):
    return parse_word(text, B3)


def amalgam_over_c() -> CyclicSplitting:
    """F3 as an amalgam of <a, c> and <c, b> over the letter c."""
    return CyclicSplitting(
        kind=AMALGAM,
        ambient_basis=B3,
        relative_basis=(w3("a"), w3("c"), w3("b")),
        a_part=(1, 2),
        edge_word=(2,),
        b0_part=(3,),
    )


def amalgam_over_ab() -> CyclicSplitting:
    """F3 as an amalgam of <a, b> and <ab, c> over the product ab."""
    return CyclicSplitting(
        kind=AMALGAM,
        ambient_basis=B3,
        relative_basis=(w3("a"), w3("b"), w3("c")),
        a_part=(1, 2),
        edge_word=(1, 2),
        b0_part=(3,),
    )


def hnn_over_commutator() -> CyclicSplitting:
    """F3 as an HNN extension with stable letter c over the commutator [a, b]."""
    return CyclicSplitting(
        kind=HNN,
        ambient_basis=B3,
        relative_basis=(w3("a"), w3("b"), w3("c")),
        a_part=(1, 2),
        edge_word=(1, 2, -1, -2),
        stable_index=3,
    )


def cycling_automorphism() -> Automorphism:
    """The rank-3 automorphism a -> b -> c -> ab used by the worked examples."""
    return Automorphism(B3, (w3("b"), w3("c"), w3("ab")))


def pair_with_sixth_power() -> MarkedPair:
    """The amalgam over c marked against its pullback under the 6th power."""
    base = amalgam_over_c()
    phi6 = power(cycling_automorphism(), 6)
    return MarkedPair(base, transform(base, invert(phi6)))


def pair_with_single_step() -> MarkedPair:
    """The amalgam over c marked against its pullback under one application."""
    base = amalgam_over_c()
    return MarkedPair(base, transform(base, cycling_automorphism()))


def hnn_over_ab(relative_basis) -> CyclicSplitting:
    return CyclicSplitting(
        kind=HNN,
        ambient_basis=B3,
        relative_basis=relative_basis,
        a_part=(1, 2),
        edge_word=(1, 2),
        stable_index=3,
    )


def certified_filling_pair() -> MarkedPair:
    """Two HNN splittings over products of two letters that jointly fill F3."""
    first = hnn_over_ab((w3("a"), w3("b"), w3("c")))
    second = hnn_over_ab((w3("ac"), w3("bC"), w3("c")))
    return MarkedPair(first, second)


def mirror_filling_pair() -> MarkedPair:
    """A second filling HNN pair with the conjugators on the opposite sides."""
    first = hnn_over_ab((w3("a"), w3("b"), w3("c")))
    second = hnn_over_ab((w3("aC"), w3("bc"), w3("c")))
    return MarkedPair(first, second)


def fixture_splittings() -> dict[str, CyclicSplitting]:
    """The three base splittings and both sides of each pair, each once, by name."""
    named: dict[CyclicSplitting, str] = {}
    for make in (amalgam_over_c, amalgam_over_ab, hnn_over_commutator):
        named.setdefault(make(), make.__name__)
    for make in (certified_filling_pair, mirror_filling_pair, pair_with_sixth_power, pair_with_single_step):
        pair = make()
        named.setdefault(pair.first, f"{make.__name__}().first")
        named.setdefault(pair.second, f"{make.__name__}().second")
    return {name: splitting for splitting, name in named.items()}


def nielsen_products(seed: int = 5, count: int = 60) -> list[Automorphism]:
    """Random products of 1-4 elementary Nielsen moves at rank 2 or 3.

    Each move replaces one generator x_i by x_i x_j^(+-1) or x_j^(+-1) x_i.
    """
    rng = random.Random(seed)
    samples = []
    for _ in range(count):
        basis = Basis.standard(rng.choice((2, 3)))
        nu = Automorphism.identity(basis)
        for _ in range(rng.randint(1, 4)):
            i, j = rng.sample(range(1, basis.rank + 1), 2)
            sign = rng.choice((1, -1))
            images = [(g,) for g in range(1, basis.rank + 1)]
            images[i - 1] = (i, sign * j) if rng.random() < 0.5 else (sign * j, i)
            nu = compose(nu, Automorphism(basis, tuple(images)))
        samples.append(nu)
    return samples


# perfbench's rank-2 families, keyed by the index of their pair in its
# twist_pairs(): the amalgam over c against one cycling step, and the
# certified HNN filling pair.
FAMILY_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "twist_families.json"
FAMILY_PAIRS = {"0": pair_with_single_step, "1": certified_filling_pair}


def benchmark_families():
    """Each of perfbench's rank-2 generating sets, with its pair: (pair, ambient generators)."""
    stored = json.loads(FAMILY_POOL.read_text())
    assert sorted(stored) == sorted(FAMILY_PAIRS)
    for key, families in stored.items():
        pair = FAMILY_PAIRS[key]()
        for texts in families:
            yield pair, [parse_word(text, pair.first.ambient_basis) for text in texts]

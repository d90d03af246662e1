from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from freevol.errors import BudgetExceeded, NotAnAutomorphism
from freevol.pingpong import _inverse_precedes, empirical_no_periodic_orbit
from freevol.words import (
    Automorphism,
    Basis,
    CyclicWord,
    apply,
    apply_cyclic,
    canonical_rotation,
    compose,
    count_cyclic_classes,
    cyclically_reduce,
    enumerate_cyclic_classes,
    enumerate_cyclic_classes_with,
    invert,
    invert_word,
    is_proper_power,
    parse_word,
    power,
    reduce_word,
    render_word,
)

B2 = Basis.standard(2)
B3 = Basis.standard(3)

letters3 = st.sampled_from([1, -1, 2, -2, 3, -3])
words3 = st.lists(letters3, max_size=12).map(tuple)


def test_parse_render_roundtrip():
    assert parse_word("aB", B2) == (1, -2)
    assert render_word((1, -2), B2) == "aB"
    assert parse_word("1", B2) == ()
    assert render_word((), B2) == "1"


def test_parse_requires_known_letters():
    with pytest.raises(ValueError):
        parse_word("ad", B3)


def test_reduce_word():
    assert reduce_word((1, -1)) == ()
    assert reduce_word((1, 2, -2, -1, 3)) == (3,)


@given(words3)
def test_cyclically_reduce_decomposition(word):
    core, conjugator = cyclically_reduce(word)
    rebuilt = reduce_word(conjugator + core + invert_word(conjugator))
    assert rebuilt == reduce_word(word)
    if len(core) >= 2:
        assert core[0] != -core[-1]


@given(words3)
def test_canonical_rotation_is_least(word):
    from freevol.words import letter_rank

    w = tuple(word)
    got = canonical_rotation(w)
    rotations = {w[i:] + w[:i] for i in range(len(w))} or {w}
    assert got in rotations
    key = lambda rot: [letter_rank(x) for x in rot]
    assert key(got) == min(key(rot) for rot in rotations)


def test_letter_order_lowercase_before_uppercase():
    # a < A < b < B: an inverse letter sorts before the next plain letter.
    assert canonical_rotation((2, -1)) == (-1, 2)
    assert canonical_rotation((2, 1)) == (1, 2)


def test_proper_power():
    assert is_proper_power(CyclicWord.of((1, 2, 1, 2))) == (True, (1, 2), 2)
    flag, root, exponent = is_proper_power(CyclicWord.of((1, 2)))
    assert (flag, root, exponent) == (False, (1, 2), 1)


def test_apply_and_compose():
    phi = Automorphism(B2, (parse_word("ab", B2), parse_word("b", B2)))
    assert apply(phi, (1, 2)) == parse_word("abb", B2)
    both = compose(phi, phi)
    assert apply(both, (1,)) == apply(phi, apply(phi, (1,)))


def test_invert_regression():
    phi = Automorphism(
        B3, (parse_word("b", B3), parse_word("c", B3), parse_word("ab", B3))
    )
    inverse = invert(phi)
    assert [render_word(w, B3) for w in inverse.images] == ["cA", "a", "b"]
    assert compose(phi, inverse) == Automorphism.identity(B3)


def test_invert_rejects_endomorphism():
    not_auto = Automorphism(B2, (parse_word("a", B2), parse_word("a", B2)))
    with pytest.raises(NotAnAutomorphism):
        invert(not_auto)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_invert_random_nielsen_products(rng):
    images = [(1,), (2,), (3,)]
    for _ in range(rng.randint(1, 8)):
        i, j = rng.sample(range(3), 2)
        if rng.random() < 0.5:
            images[i] = reduce_word(images[i] + images[j])
        else:
            images[i] = invert_word(images[i])
    phi = Automorphism(B3, tuple(images))
    assert compose(phi, invert(phi)) == Automorphism.identity(B3)


@st.composite
def whitehead_products(draw):
    """A signed permutation times 1-12 Whitehead moves, at rank 2-6."""
    rank = draw(st.integers(2, 6))
    basis = Basis.standard(rank)
    order = draw(st.permutations(range(1, rank + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=rank, max_size=rank))
    phi = Automorphism(basis, tuple((sign * x,) for sign, x in zip(signs, order)))
    moves = oracles.whitehead_moves(rank)
    for index in draw(st.lists(st.integers(0, len(moves) - 1), min_size=1, max_size=12)):
        phi = compose(phi, moves[index][2])
    return phi


@settings(max_examples=100, deadline=None)
@given(whitehead_products())
def test_invert_equals_nielsen_oracle(phi):
    inverse = invert(phi)
    assert inverse == oracles.nielsen_invert(phi)
    assert compose(phi, inverse) == Automorphism.identity(phi.basis)


@pytest.mark.parametrize(
    "images",
    [("a", "a"), ("aab", "bab"), ("aa", "b", "c"), ("abAB", "bc", "ca"), ("1", "b"), ("aa",)],
)
@pytest.mark.parametrize("inverse_of", [invert, oracles.nielsen_invert])
def test_invert_refuses_non_bases(images, inverse_of):
    basis = Basis.standard(len(images))
    phi = Automorphism(basis, tuple(parse_word(w, basis) for w in images))
    with pytest.raises(NotAnAutomorphism):
        inverse_of(phi)


@pytest.mark.parametrize("inverse_of", [invert, oracles.nielsen_invert])
def test_invert_rank_one(inverse_of):
    basis = Basis.standard(1)
    for letter in (1, -1):
        assert inverse_of(Automorphism(basis, ((letter,),))).images == ((letter,),)


def test_power_includes_negative():
    phi = Automorphism(B2, (parse_word("ab", B2), parse_word("b", B2)))
    assert power(phi, 0) == Automorphism.identity(B2)
    assert compose(power(phi, 2), power(phi, -2)) == Automorphism.identity(B2)


@given(words3)
def test_apply_cyclic_is_conjugacy_invariant(word):
    phi = Automorphism(
        B3, (parse_word("b", B3), parse_word("c", B3), parse_word("ab", B3))
    )
    conjugated = reduce_word((2,) + tuple(word) + (-2,))
    assert apply_cyclic(phi, CyclicWord.of(word)) == apply_cyclic(
        phi, CyclicWord.of(conjugated)
    )


def test_enumerate_cyclic_classes_counts():
    classes = list(enumerate_cyclic_classes(2, 3))
    assert len(set(classes)) == len(classes)
    assert all(len(c.letters) <= 3 for c in classes)
    by_len = {}
    for c in classes:
        by_len[len(c.letters)] = by_len.get(len(c.letters), 0) + 1
    # rank 2: one class per necklace of cyclically reduced words.
    assert by_len == {1: 4, 2: 8, 3: 12}


@pytest.mark.parametrize("rank, max_len", [(1, 8), (2, 8), (3, 6), (4, 5)])
def test_enumerate_cyclic_classes_equals_oracle(rank, max_len):
    got = [c.letters for c in enumerate_cyclic_classes(rank, max_len)]
    assert got == [c.letters for c in oracles.enumerate_cyclic_classes(rank, max_len)]


def _abelianization(word, rank):
    return tuple(word.count(i) - word.count(-i) for i in range(1, rank + 1))


@st.composite
def ranked_forms(draw):
    """A rank, and up to five integer linear forms on Z^rank, the zero form often among them."""
    rank = draw(st.integers(1, 4))
    coefficients = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    zero = [0] * rank
    return rank, draw(st.lists(st.one_of(st.just(zero), coefficients), max_size=5))


@settings(deadline=None)
@given(ranked_forms(), st.data())
def test_classes_steered_by_abelianization_are_the_filtered_classes(rank_forms, data):
    """The walk yields the primitive classes led by a generator on which some form vanishes."""
    rank, forms = rank_forms
    max_len = data.draw(st.integers(1, 7 - rank))
    got = [(c.letters, tag) for c, tag in enumerate_cyclic_classes_with(rank, max_len, forms)]
    expected = []
    for c in enumerate_cyclic_classes(rank, max_len):
        if is_proper_power(c)[0] or c.letters[0] < 0:
            continue
        vector = _abelianization(c.letters, rank)
        vanishing = tuple(
            i for i, form in enumerate(forms) if sum(a * v for a, v in zip(form, vector)) == 0
        )
        if vanishing:
            expected.append((c.letters, vanishing))
    assert got == expected


@pytest.mark.parametrize("rank, max_len", [(1, 8), (2, 8), (3, 6), (4, 5)])
def test_walk_keeps_one_of_each_primitive_class_and_its_inverse(rank, max_len):
    """Under the zero form, the classes the orbit check keeps are half the primitive ones.

    No nontrivial class of a free group is conjugate to its inverse, and of
    each such pair the orbit check keeps the one whose least rotation
    precedes the other's.
    """
    kept = 0
    for c, vanishing in enumerate_cyclic_classes_with(rank, max_len, [[0] * rank]):
        assert vanishing == (0,)
        kept += not _inverse_precedes(c.letters)
    assert 2 * kept == count_cyclic_classes(rank, max_len)[1]


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _totient(n):
    return sum(1 for i in range(1, n + 1) if gcd(i, n) == 1)


def _moebius(n):
    value, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            value = -value
        p += 1
    return value


def _largest_orbit_len(rank):
    """The largest max_len the orbit check takes at power 1 within ORBIT_BUDGET."""
    identity = Automorphism.identity(Basis.standard(rank))
    max_len = 1
    while True:
        try:
            empirical_no_periodic_orbit(identity, max_len + 1, 1)
        except BudgetExceeded:
            return max_len
        max_len += 1


def _assert_class_counts_match_closed_form(rank, max_len):
    def cyclically_reduced(n):
        return (2 * rank - 1) ** n + (rank - 1) * (-1) ** n + rank

    by_length = {}
    for c in enumerate_cyclic_classes(rank, max_len):
        classes, primitive = by_length.get(len(c), (0, 0))
        by_length[len(c)] = (classes + 1, primitive + (not is_proper_power(c)[0]))
    total = (0, 0)
    for n in range(1, max_len + 1):
        classes = sum(_totient(n // d) * cyclically_reduced(d) for d in _divisors(n))
        primitive = sum(_moebius(n // d) * cyclically_reduced(d) for d in _divisors(n))
        assert by_length.get(n, (0, 0)) == (classes // n, primitive // n)
        assert classes % n == 0 and primitive % n == 0
        total = (total[0] + classes // n, total[1] + primitive // n)
        assert count_cyclic_classes(rank, n) == total


@pytest.mark.parametrize("rank, max_len", [(1, 8), (2, 8), (3, 7), (4, 5)])
def test_class_counts_match_closed_form(rank, max_len):
    """Cyclically reduced words of length n number (2k-1)^n + (k-1)(-1)^n + k.

    Rotation classes of them follow by Burnside's lemma, and primitive
    classes (Lyndon words) by Moebius inversion.
    """
    _assert_class_counts_match_closed_form(rank, max_len)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_class_counts_match_closed_form_at_orbit_lengths(rank):
    """``count_cyclic_classes`` agrees with enumeration at every max_len the orbit check takes."""
    _assert_class_counts_match_closed_form(rank, _largest_orbit_len(rank))

import re
import time
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures as fx
import oracles
from freevol import filling as fl
from freevol import pingpong as pp
from freevol.errors import (
    BasisMismatch,
    BudgetExceeded,
    NotFillingEvidence,
    NotProperSubgroup,
    UsageError,
)
from freevol import twisting as tw
from freevol.splittings import MarkedPair, dehn_twist, transform
from freevol.twisting import TwistConstants
from freevol.words import Automorphism, Basis, compose, invert, invert_word, power, reduce_word

B3 = fx.B3
P = fx.w3


@pytest.fixture(scope="module")
def config():
    return pp.configure(fx.certified_filling_pair())


def test_threshold_anchors():
    assert pp.threshold_exponent(TwistConstants(B=2, M=1, C=10), 2, 2) == 7
    assert pp.threshold_exponent(TwistConstants(B=0, M=0, C=0), 1, 1) == 2


def test_threshold_rejects_elliptic_edge_word():
    with pytest.raises(NotFillingEvidence):
        pp.threshold_exponent(TwistConstants(B=1, M=1, C=10), 0, 3)


def test_configure_rejects_elliptic_edge_word_before_bcc(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("bcc computed for a pair whose edge word is elliptic")

    monkeypatch.setattr(tw, "bcc", refuse)
    with pytest.raises(NotFillingEvidence, match="edge word is elliptic"):
        pp.configure(fx.pair_with_single_step())


def test_bcc_is_computed_once_per_ordered_pair(monkeypatch, cold_configure):
    calls = []
    bcc = tw.bcc
    monkeypatch.setattr(tw, "bcc", lambda nu: calls.append(nu) or bcc(nu))
    pair = fx.certified_filling_pair()
    first = pp.configure(pair)
    assert pp.configure(pair) == first
    report = tw.check_volume_growth_bounds(pair.first, pair.second, [P("BABCA"), P("abAbc")], 64, first.constants)
    assert report["all_ok"] and report["certificate"] is not None
    assert calls == [tw.basis_change(pair.first, pair.second), tw.basis_change(pair.second, pair.first)]


def test_configure_refuses_past_the_bcc_budget_before_filling(monkeypatch, cold_configure):
    def refuse(*args, **kwargs):
        raise AssertionError("filling checked for a pair over the bcc budget")

    monkeypatch.setattr(pp, "check_filling", refuse)
    monkeypatch.setattr(tw, "BCC_BUDGET", 10)
    with pytest.raises(BudgetExceeded, match="over BCC_BUDGET, the budget of 10 entries"):
        pp.configure(fx.certified_filling_pair())


def test_configured_filling_evidence_cannot_be_changed():
    pair = fx.pair_with_sixth_power()
    certificate = pp.configure(pair).filling
    with pytest.raises(AttributeError):
        certificate.f3_evidence.move_log[0].side = ()
    with pytest.raises(AttributeError):
        certificate.f2_evidence.pullbacks[0].component_ranks = (1,)
    with pytest.raises(AttributeError):
        certificate.f3_evidence.graph_edges.append(("a", "b"))
    with pytest.raises(FrozenInstanceError):
        certificate.f3_evidence = certificate.f3_evidence._replace(move_log=())
    assert pp.configure(pair).filling.to_json() == fl.check_filling(pair).to_json()


def test_configure_anchor(config):
    assert config.constants == TwistConstants(B=1, M=6, C=15)
    assert config.threshold == 15


def test_classify_edge_words(config):
    pair = config.pair
    assert pp.classify(config, [pair.first.edge_word_ambient()]) == pp.SIDE_FIRST
    assert pp.classify(config, [pair.second.edge_word_ambient()]) == pp.SIDE_SECOND


def test_classify_rejects_full_rank_subgroup(config):
    with pytest.raises(NotProperSubgroup):
        pp.classify(config, [P("a"), P("b"), P("c")])


def test_twist_word_validation():
    with pytest.raises(UsageError):
        pp.TwistWord(((1, 3), (1, 2)))  # ids must alternate
    with pytest.raises(UsageError):
        pp.TwistWord(((1, 0),))  # exponents nonzero
    with pytest.raises(UsageError):
        pp.TwistWord(((3, 1),))  # ids in {1, 2}


def test_twist_word_parse_render_inverse():
    word = pp.parse_twist_word("1:+7 2:-7", None)
    assert word.render() == "1:+7 2:-7"
    assert word.inverse().factors == ((2, 7), (1, -7))
    with_threshold = pp.parse_twist_word("1:+N 2:-N", 15)
    assert with_threshold.factors == ((1, 15), (2, -15))


def test_realize_single_factor_is_twist_power(config):
    realized = pp.realize(config, pp.parse_twist_word("1:+3", None))
    assert realized == power(dehn_twist(config.pair.first), 3)


def test_certify_alternating_word(config):
    word = pp.parse_twist_word("1:+N 2:+N", config.threshold)
    certificate = pp.certify(config, word)
    assert certificate.verdict == pp.VERDICT_IWIP
    assert certificate.failed_check is None
    payload = certificate.to_json()
    assert payload["schema"] == "freevol/1"
    assert payload["constants"] == {"B": 1, "M": 6, "C": 15}


def test_certify_single_factor(config):
    certificate = pp.certify(config, pp.parse_twist_word("1:+N", config.threshold))
    assert certificate.verdict == pp.VERDICT_TWIST_POWER


def test_certify_same_twist_at_both_ends(config):
    word = pp.parse_twist_word("1:+N 2:+N 1:+N", config.threshold)
    certificate = pp.certify(config, word)
    assert certificate.verdict == pp.VERDICT_NONTRIVIAL


def test_certify_small_exponent_fails(config):
    word = pp.parse_twist_word("1:+1 2:+N", config.threshold)
    certificate = pp.certify(config, word)
    assert certificate.verdict == pp.VERDICT_NOT_MET
    assert certificate.failed_check == "exponents_reach_threshold"


def test_orbit_check_reports_twist_fixed_class():
    twist = dehn_twist(fx.certified_filling_pair().first)
    report = pp.empirical_no_periodic_orbit(twist, 4, 3)
    assert not report["ok"]
    assert report["violation"] is not None


def test_orbit_check_reports_identity():
    report = pp.empirical_no_periodic_orbit(Automorphism.identity(B3), 3, 2)
    assert not report["ok"]
    assert report["violation"]["power"] == 1


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_orbit_check_reports_identity_at_its_first_class(rank):
    """The first class, a, is the violation, and the classes are counted up to it."""
    report = pp.empirical_no_periodic_orbit(Automorphism.identity(Basis.standard(rank)), 3, 2)
    assert report["violation"] == {"word": "a", "power": 1}
    assert (report["classes_checked"], report["classes_pruned"]) == (1, 0)


@pytest.mark.parametrize(
    "max_len, max_power, samples, match",
    [
        (0, 2, 4, "at least 1"),
        (3, 0, 4, "at least 1"),
        (-1, -1, 4, "at least 1"),
        (3, 2, -2, "at least 0"),
    ],
    ids=["0-2", "3-0", "-1--1", "negative-samples"],
)
def test_orbit_check_rejects_empty_samples(max_len, max_power, samples, match):
    with pytest.raises(UsageError, match=match):
        pp.empirical_no_periodic_orbit(
            Automorphism.identity(B3), max_len, max_power, quotient_samples=samples
        )


@pytest.mark.parametrize(
    "phi, factors", [(None, None), (None, []), (Automorphism.identity(B3), [])]
)
def test_orbit_check_without_a_map_is_a_usage_error(phi, factors):
    with pytest.raises(UsageError, match="needs phi or a nonempty list of its factors"):
        pp.empirical_no_periodic_orbit(phi, 3, 2, factors=factors)


def test_orbit_check_passes_certified_word_small(config):
    word = pp.parse_twist_word("1:+N 2:+N", config.threshold)
    forward, backward = pp.twist_factors(config, word)
    report = pp.empirical_no_periodic_orbit(
        pp.realize(config, word), 5, 3, factors=forward, inverse_factors=backward
    )
    assert report["ok"]
    assert report["classes_checked"] > 0


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("p", [1, -1, 2, -2])
@pytest.mark.parametrize("q", [1, -1, 2, -2])
def test_configure_multiplied_hnn_pairs(side, p, q):
    """(a c^p, b c^q, c) or (c^p a, c^q b, c) against the HNN splitting over ab."""
    cp = (3 if p > 0 else -3,) * abs(p)
    cq = (3 if q > 0 else -3,) * abs(q)
    if side == "right":
        relative_basis = ((1,) + cp, (2,) + cq, (3,))
    else:
        relative_basis = (cp + (1,), cq + (2,), (3,))
    pair = MarkedPair(fx.hnn_over_ab((P("a"), P("b"), P("c"))), fx.hnn_over_ab(relative_basis))
    # oracles.max_cancellation at length 4 gives the same B both ways.
    assert pp.configure(pair).constants.B == max(abs(p), abs(q))


def test_certify_requires_filling():
    base = fx.hnn_over_commutator()
    config = pp.configure(MarkedPair(base, transform(base, fx.cycling_automorphism())))
    assert config.filling.verdict == "not_filling"
    word = pp.parse_twist_word("1:+N 2:+N", config.threshold)
    certificate = pp.certify(config, word)
    assert certificate.verdict == pp.VERDICT_NOT_MET
    assert certificate.failed_check == "filling"
    assert certificate.checks["filling"] is config.filling
    assert certificate.to_json()["checks"]["filling"] == config.filling.to_json()


@pytest.mark.parametrize(
    "text, verdict, failed",
    [
        ("1:+N 2:+N", pp.VERDICT_IWIP, None),
        ("2:-N 1:+N 2:+N", pp.VERDICT_NONTRIVIAL, None),
        ("1:+N 2:-N 1:+N 2:+N 1:-N 2:+N", pp.VERDICT_IWIP, None),
        ("2:-N", pp.VERDICT_TWIST_POWER, None),
        ("1:+N 2:+1", pp.VERDICT_NOT_MET, "exponents_reach_threshold"),
    ],
)
def test_certify_never_realizes(config, no_realize, text, verdict, failed):
    certificate = pp.certify(config, pp.parse_twist_word(text, config.threshold))
    assert (certificate.verdict, certificate.failed_check) == (verdict, failed)
    assert "automorphism" not in certificate.to_json()


def test_certify_refused_filling_never_realizes(no_realize):
    config = pp.configure(fx.pair_with_sixth_power())
    certificate = pp.certify(config, pp.parse_twist_word("1:+111 2:+111"))
    assert certificate.verdict == pp.VERDICT_NOT_MET
    assert certificate.failed_check == "filling"
    assert "automorphism" not in certificate.to_json()


def test_orbit_check_takes_basis_from_factors(config):
    word = pp.parse_twist_word("2:+N 1:-N", config.threshold)
    forward, backward = pp.twist_factors(config, word)
    reports = [
        pp.empirical_no_periodic_orbit(
            phi, 4, 2, factors=forward, inverse_factors=backward, seed=3
        )
        for phi in (None, pp.realize(config, word))
    ]
    assert reports[0] == reports[1]
    # A bare twist has a fixed class, so the violation renders with the basis.
    twist = dehn_twist(config.pair.first)
    bare = pp.empirical_no_periodic_orbit(None, 2, 1, factors=[twist])
    assert bare == pp.empirical_no_periodic_orbit(twist, 2, 1)
    assert bare["violation"]["word"].isalpha()


REPORT_KEYS = ("classes_checked", "classes_pruned", "violation", "ok")


@pytest.mark.parametrize(
    "text, max_len, max_power, samples",
    [
        ("1:+N 2:+N", 6, 2, 1),
        ("1:+N 2:+N", 5, 2, 4),
        ("2:-N 1:+N", 5, 2, 1),
        ("1:+N 2:-N 1:+N", 4, 2, 2),
        ("1:+N", 4, 3, 4),
        # Opposite equal exponents: the classes whose abelianization can be
        # periodic form a 2-dimensional lattice.
        ("1:-N 2:+N", 6, 2, 2),
        # The same at the benchmark's sizes, where a class passes all four
        # powers' forms at once.
        ("1:-N 2:+N", 7, 4, 8),
        # Periodic, first at the class aabc, so the classes up to it are
        # counted by walking them.
        ("1:+1 2:+1 1:-1", 5, 2, 2),
        # No symmetric-group sample, so SL(2) is the first filter; and one.
        ("1:+N 2:+N", 5, 2, 0),
        ("1:-N 2:+N", 4, 2, 0),
        ("1:+1 2:+1 1:-1", 5, 2, 0),
        ("1:-N 2:+N", 6, 2, 1),
        ("1:+1 2:+1 1:-1", 5, 2, 1),
        # 41 tracked powers, more than one packed permutation holds.
        ("1:+N 2:+N", 3, 40, 2),
    ],
)
def test_orbit_check_agrees_with_oracle(config, text, max_len, max_power, samples):
    _assert_orbit_check_agrees_with_oracle(config, text, max_len, max_power, samples)


def test_orbit_check_agrees_with_oracle_on_the_mirror_pair():
    config = pp.configure(fx.mirror_filling_pair())
    _assert_orbit_check_agrees_with_oracle(config, "1:-N 2:+N", 7, 4, 8)


def _assert_orbit_check_agrees_with_oracle(config, text, max_len, max_power, samples):
    forward, backward = pp.twist_factors(config, pp.parse_twist_word(text, config.threshold))
    args = (None, max_len, max_power)
    kwargs = dict(factors=forward, inverse_factors=backward, quotient_samples=samples, seed=1)
    got = pp.empirical_no_periodic_orbit(*args, **kwargs)
    expected = oracles.empirical_no_periodic_orbit(*args, **kwargs)
    assert {k: got[k] for k in REPORT_KEYS} == {k: expected[k] for k in REPORT_KEYS}
    assert got["exact_comparisons"] <= expected["exact_comparisons"]
    assert got["undecided"] == []


@pytest.mark.parametrize("phi", ["identity", "twist"])
def test_orbit_check_agrees_with_oracle_on_periodic_maps(config, phi):
    phi = Automorphism.identity(B3) if phi == "identity" else dehn_twist(config.pair.second)
    got = pp.empirical_no_periodic_orbit(phi, 5, 3)
    expected = oracles.empirical_no_periodic_orbit(phi, 5, 3)
    assert {k: got[k] for k in REPORT_KEYS} == {k: expected[k] for k in REPORT_KEYS}
    assert got["exact_comparisons"] <= expected["exact_comparisons"]
    assert not got["ok"] and got["undecided"] == []


def test_orbit_check_trace_filter_decides_seed_405_class():
    """A non-periodic class that passes four symmetric-group samples.

    Before the trace filter its exact comparison took 16 s and 1.2 GB.
    """
    right_plus_one = fx.hnn_over_ab(((1, 3), (2, -3), (3,)))  # (a c, b C, c)
    pair = MarkedPair(fx.hnn_over_ab((P("a"), P("b"), P("c"))), right_plus_one)
    split = {1: pair.first, 2: pair.second}
    factors = [(1, -18), (2, -18)]
    forward = [dehn_twist(split[tid], exp) for tid, exp in factors]
    backward = [dehn_twist(split[tid], -exp) for tid, exp in reversed(factors)]
    started = time.perf_counter()
    report = pp.empirical_no_periodic_orbit(
        None, 7, 4, factors=forward, inverse_factors=backward, quotient_samples=4, seed=432951950
    )
    assert time.perf_counter() - started < 2
    assert report["ok"] and report["exact_comparisons"] == 0


def test_orbit_check_budget_trip_is_undecided(config, monkeypatch):
    monkeypatch.setattr(pp, "LETTER_BUDGET", 0)
    report = pp.empirical_no_periodic_orbit(dehn_twist(config.pair.first), 2, 1)
    assert report["violation"] is None
    assert report["undecided"][0] == {"word": "a", "power": 1}
    assert report["ok"] is False


@pytest.mark.parametrize("max_len, max_power", [(1, 100_000_000), (12, 1), (8, 18)])
def test_orbit_check_over_the_work_budget_names_it(max_len, max_power):
    # At rank 3 there are 6 * 5^(n-1) reduced words of length n, so (8, 4),
    # the largest size in use, needs 2 343 744 word powers and (8, 18) 10 546 848.
    with pytest.raises(BudgetExceeded, match=f"over the budget of {pp.ORBIT_BUDGET} word powers"):
        pp.empirical_no_periodic_orbit(Automorphism.identity(B3), max_len, max_power)


def test_orbit_check_over_the_sample_budget_names_it_before_drawing(config):
    forward, backward = pp.twist_factors(config, pp.parse_twist_word("1:+N 2:+N", config.threshold))
    started = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="QUOTIENT_SAMPLE_BUDGET"):
        pp.empirical_no_periodic_orbit(
            None, 2, 1, factors=forward, inverse_factors=backward, quotient_samples=10**12
        )
    assert time.perf_counter() - started < 1
    report = pp.empirical_no_periodic_orbit(
        None, 2, 1, factors=forward, inverse_factors=backward,
        quotient_samples=pp.QUOTIENT_SAMPLE_BUDGET,
    )
    assert report["ok"]


def test_orbit_report_always_lists_undecided(config):
    report = pp.empirical_no_periodic_orbit(Automorphism.identity(B3), 2, 1)
    assert report["undecided"] == []
    assert list(report) == [
        "schema", "max_len", "max_power", "classes_checked", "classes_pruned",
        "exact_comparisons", "violation", "undecided", "ok",
    ]


def test_orbit_check_refutes_wrong_inverse_on_abelianization(config):
    forward, _ = pp.twist_factors(config, pp.parse_twist_word("1:+N 2:+N", config.threshold))
    with pytest.raises(UsageError, match="abelianization"):
        pp.empirical_no_periodic_orbit(None, 3, 2, factors=forward, inverse_factors=forward)


@pytest.mark.parametrize(
    "samples, quotient", [(4, "permutation quotient"), (0, "SL(2)")], ids=["4-samples", "0-samples"]
)
def test_orbit_check_refutes_wrong_inverse_in_a_quotient(config, samples, quotient):
    """A twist over a commutator is invisible on the abelianization."""
    forward, backward = pp.twist_factors(config, pp.parse_twist_word("1:+N 2:+N", config.threshold))
    wrong = backward + [dehn_twist(fx.hnn_over_commutator())]
    with pytest.raises(UsageError, match=re.escape(quotient)):
        pp.empirical_no_periodic_orbit(
            None, 3, 2, factors=forward, inverse_factors=wrong, quotient_samples=samples
        )


@st.composite
def factor_lists(draw):
    """Whitehead moves and twists x -> x c^n or c^n x at ranks 2-4, the first one long."""
    rank = draw(st.integers(2, 4))
    factors = []
    exponents = draw(st.lists(st.sampled_from([1, 2, -3]), max_size=3))
    for n in [draw(st.integers(100, 300)), *exponents]:
        x = draw(st.integers(1, rank))
        others = [y for i in range(1, rank + 1) if i != x for y in (i, -i)]
        c = reduce_word(draw(st.lists(st.sampled_from(others), min_size=1, max_size=3)))
        twisted = (c or (others[0],)) * abs(n)
        if n < 0:
            twisted = invert_word(twisted)
        images = [(i,) for i in range(1, rank + 1)]
        images[x - 1] = twisted + (x,) if draw(st.booleans()) else (x,) + twisted
        factors.append(Automorphism(Basis.standard(rank), tuple(images)))
    return factors


@st.composite
def packed_samples(draw):
    """A sample in S16 tracked at up to 41 powers of a product of Nielsen moves, and a word."""
    rank = draw(st.integers(1, 4))
    basis = Basis.standard(rank)
    phi = Automorphism.identity(basis)
    for _ in range(draw(st.integers(0, 3))):
        images = [(x,) for x in range(1, rank + 1)]
        x = draw(st.integers(1, rank))
        if rank == 1 or draw(st.booleans()):
            images[x - 1] = (-x,)
        else:
            y = draw(st.sampled_from([y for i in range(1, rank + 1) if i != x for y in (i, -i)]))
            images[x - 1] = (x, y) if draw(st.booleans()) else (y, x)
        phi = compose(phi, Automorphism(basis, tuple(images)))
    base = [bytes(draw(st.permutations(range(16)))) for _ in range(rank)]
    powers = range(draw(st.integers(-20, 0)), draw(st.integers(0, 20)) + 1)
    quotient = pp._Quotient("", base, pp._perm_tables, pp._perm_of_word, [phi], [invert(phi)], powers)
    letters = [y for x in range(1, rank + 1) for y in (x, -x)]
    return quotient, reduce_word(draw(st.lists(st.sampled_from(letters), max_size=8)))


def _moved(perm):
    return sum(x != i for i, x in enumerate(perm))


@settings(deadline=None)
@given(packed_samples())
def test_packed_permutation_is_every_power_and_its_screen_keeps_equal_cycle_types(sample):
    """Each block of the packed product is the word at its power.

    The screen by points moved under sigma and sigma^2 never separates two
    blocks of one cycle type, and the pairs it keeps are those whose blocks
    have one cycle type.
    """
    quotient, word = sample
    screen = pp._PermScreen(quotient)
    perm, moved = screen.evaluate(word)
    powers = list(quotient.powers)
    blocks = len(powers)
    assert (len(perm), len(moved)) == (16 * blocks, 2 * blocks)
    types = {}
    for b, j in enumerate(powers):
        sigma = pp._perm_of_word(word, quotient.tables[j])
        # Points 16 b' .. 16 b' + 15 of a chunk hold its b'-th block.
        assert perm[16 * b : 16 * b + 16] == bytes(16 * (b % 16) + x for x in sigma)
        assert moved[b] == _moved(sigma)
        assert moved[blocks + b] == _moved(sigma.translate(sigma.ljust(256, b"\0")))
        types[j] = pp._cycle_type(sigma)
    pairs = [(0, hi, lo) for hi in powers for lo in powers]
    for _, hi, lo in pairs:
        if types[hi] == types[lo]:
            h, l = hi - powers[0], lo - powers[0]
            assert (moved[h], moved[blocks + h]) == (moved[l], moved[blocks + l])
    assert screen.survivors(word, pairs) == [p for p in pairs if types[p[1]] == types[p[2]]]


@settings(max_examples=50, deadline=None)
@given(factor_lists())
def test_tracked_abelianization_agrees_with_matrices(forward):
    backward = [invert(f) for f in reversed(forward)]
    rank = forward[0].basis.rank
    identity = [[int(i == j) for j in range(rank)] for i in range(rank)]
    units = [tuple(row) for row in identity]
    tracked = pp._Quotient("", units, list, pp._vector_of_word, forward, backward, range(-2, 3))
    tracked.check_inverse()
    expected = {0: identity}
    for sign, chain in ((1, forward), (-1, backward)):
        step = identity
        for factor in chain:
            step = oracles._mat_mul(step, oracles._abelianization_matrix(factor.images, rank))
        for j in (1, 2):
            expected[sign * j] = oracles._mat_mul(step, expected[sign * (j - 1)])
    for j, matrix in expected.items():
        assert tracked.values[j] == [tuple(column) for column in zip(*matrix)]


def test_orbit_check_rejects_mixed_bases(config):
    forward, backward = pp.twist_factors(config, pp.parse_twist_word("1:+N 2:+N", config.threshold))
    identity2 = Automorphism.identity(Basis.standard(2))
    with pytest.raises(BasisMismatch):
        pp.empirical_no_periodic_orbit(identity2, 3, 2, factors=forward)
    with pytest.raises(BasisMismatch):
        pp.empirical_no_periodic_orbit(None, 3, 2, factors=forward, inverse_factors=[identity2])


def test_trace_moduli_are_primes_near_2_to_the_61():
    sympy = pytest.importorskip("sympy")
    for prime in pp._TRACE_PRIMES:
        assert sympy.isprime(prime) and abs(prime - 2**61) < 2**32
    assert pp._TRACE_MODULUS == pp._TRACE_PRIMES[0] * pp._TRACE_PRIMES[1]


@settings(max_examples=50)
@given(
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1, max_size=10),
    st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=6),
)
def test_trace_is_a_conjugacy_invariant(word, conjugator):
    generators = [(2, 3, 5, 8), (1, 7, 0, 1), (4, 1, 3, 1)]  # determinant 1
    table = pp._matrix_table(generators)
    word = reduce_word(word)
    conjugate = reduce_word([*conjugator, *word, *(-x for x in reversed(conjugator))])
    traces = [pp._trace(pp._matrix_of_word(w, table)) for w in (conjugate, word)]
    assert traces[0] == traces[1]
    inverse = tuple(-x for x in reversed(word))
    assert pp._matrix_of_word(word + inverse, table) == (1, 0, 0, 1)

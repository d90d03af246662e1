import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fixtures as fx
import oracles
from freevol import splittings as sp
from freevol import stallings as st_mod
from freevol import twisting as tw
from freevol import volume as vol
from freevol.errors import NotAnAutomorphism, UsageError
from freevol.words import (
    Automorphism,
    apply,
    invert,
    parse_word,
    power,
    reduce_word,
    render_word,
)

B2 = fx.B2
B3 = fx.B3
P = fx.w3


def test_bcc_of_identity_is_zero():
    assert tw.bcc(Automorphism.identity(B3)) == 0


def test_bcc_of_signed_permutation_is_zero():
    sigma = Automorphism(B3, (P("B"), P("c"), P("a")))
    assert tw.bcc(sigma) == 0


def test_bcc_anchor_single_elementary_move():
    nu = invert(Automorphism(B3, (P("ab"), P("b"), P("c"))))
    assert tw.bcc(nu) == 1


@pytest.mark.parametrize(
    "images",
    [("ab", "b"), ("aba", "ab")],
)
def test_bcc_matches_brute_force_rank2(images):
    nu = Automorphism(B2, tuple(parse_word(t, B2) for t in images))
    assert tw.bcc(nu) == oracles.max_cancellation(nu, 6)


def test_bcc_matches_brute_force_rank3():
    phi = fx.cycling_automorphism()
    for nu in (phi, invert(phi)):
        assert tw.bcc(nu) == oracles.max_cancellation(nu, 4)


def test_cancellation_budget_is_enforced():
    nu = Automorphism(B3, (P("acBC"), P("bC"), P("ccB")))
    with pytest.raises(oracles.CancellationBudgetExceeded):
        oracles.suffix_window_bcc(nu, max_states=5_000)


# The suffix-window oracle's state count grows exponentially.  At this
# budget it finishes on 33 of the 60 samples (13 of them at rank 3) in
# about 20 s; at its default budget, on 40 in about 100 s.
ORACLE_BUDGET = 50_000
NIELSEN_SAMPLES = fx.nielsen_products()


def test_bcc_equals_suffix_window_oracle_where_it_finishes():
    finished = 0
    for nu in NIELSEN_SAMPLES:
        try:
            expected = oracles.suffix_window_bcc(nu, max_states=ORACLE_BUDGET)
        except oracles.CancellationBudgetExceeded:
            continue
        finished += 1
        assert tw.bcc(nu) == expected, nu.render()
    assert finished >= 30


def test_bcc_bounds_brute_force_on_nielsen_samples():
    for nu in NIELSEN_SAMPLES:
        assert tw.bcc(nu) >= oracles.max_cancellation(nu, 4), nu.render()


short_words2 = st.lists(st.sampled_from((-2, -1, 1, 2)), min_size=1, max_size=3).map(reduce_word)


@given(st.tuples(short_words2, short_words2))
@settings(max_examples=60, deadline=None)
def test_bcc_matches_brute_force_rank2_property(images):
    nu = Automorphism(B2, images)
    try:
        invert(nu)
    except NotAnAutomorphism:
        assume(False)
    assert tw.bcc(nu) == oracles.max_cancellation(nu, 6)


@pytest.mark.parametrize(
    "forward, u, v",
    [(True, "A", "cA"), (False, "BAB", "ACaBC")],
)
def test_bcc_attained_on_pair_with_sixth_power(forward, u, v):
    pair = fx.pair_with_sixth_power()
    nu = tw.basis_change(*((pair.first, pair.second) if forward else (pair.second, pair.first)))
    u, v = P(u), P(v)
    assert u[0] != v[0]
    image_u, image_v = apply(nu, u), apply(nu, v)
    common = 0
    while common < min(len(image_u), len(image_v)) and image_u[common] == image_v[common]:
        common += 1
    assert common == tw.bcc(nu) == (12 if forward else 13)


def test_bcc_rejects_a_collapsing_endomorphism():
    with pytest.raises(NotAnAutomorphism):
        tw.bcc(Automorphism(B2, (fx.w2("a"), fx.w2("a"))))


def test_constants_anchor():
    pair = fx.pair_with_single_step()
    consts = tw.constants(1, pair.first, pair.second)
    assert consts == tw.TwistConstants(B=1, M=1, C=10)


def test_piece_bound():
    assert tw.piece_bound(1, 7) == 1
    assert tw.piece_bound(3, 0) == 1
    assert tw.piece_bound(2, 1) == 6
    assert tw.piece_bound(3, 2) == 20


def test_basis_change_anchor():
    pair = fx.pair_with_single_step()
    nu = tw.basis_change(pair.first, pair.second)
    assert [render_word(w, B3) for w in nu.images] == ["c", "ac", "b"]
    assert tw.bcc(nu) == 1


def test_graph_composition_matches_recomputation():
    pair = fx.pair_with_single_step()
    word = P("aCCbc")
    circle = vol.lambda_graph(pair.first, [word])
    composed = oracles.graph_composition(circle, tw.basis_change(pair.first, pair.second))
    direct = vol.lambda_graph(pair.second, [word])
    assert st_mod.isomorphic(composed, direct)


@pytest.mark.parametrize("n", [0, 1, 2, 3, -1, -2])
def test_surgery_matches_direct_twist(n):
    splitting = fx.amalgam_over_c()
    twist = sp.dehn_twist(splitting)
    word = P("aCCbc")
    circle = vol.lambda_graph(splitting, [word])
    surgered = oracles.twisted_core(circle, splitting, n)
    direct = vol.lambda_graph(splitting, [apply(power(twist, n), word)])
    assert st_mod.isomorphic(surgered, direct)


def test_surgery_random_hnn():
    splitting = fx.hnn_over_commutator()
    twist = sp.dehn_twist(splitting)
    rng = random.Random(11)
    done = 0
    while done < 15:
        letters = []
        for _ in range(rng.randint(1, 6)):
            choices = [x for x in (-3, -2, -1, 1, 2, 3) if not letters or x != -letters[-1]]
            letters.append(rng.choice(choices))
        gens = [tuple(letters)]
        try:
            circle = vol.lambda_graph(splitting, gens)
        except Exception:
            continue
        n = rng.choice([-3, -2, -1, 1, 2, 3])
        surgered = oracles.twisted_core(circle, splitting, n)
        direct = vol.lambda_graph(
            splitting, [apply(power(twist, n), g) for g in gens]
        )
        assert st_mod.isomorphic(surgered, direct)
        done += 1


def test_volume_growth_bounds_cyclic_subgroup():
    pair = fx.pair_with_single_step()
    consts = tw.constants(1, pair.first, pair.second)
    for n in (1, 3, 5):
        report = tw.check_volume_growth_bounds(
            pair.first, pair.second, [P("aCCbc")], n, consts, rank_bound=1
        )
        assert report["all_ok"], report


def test_volume_growth_bounds_rejects_non_malnormal():
    pair = fx.pair_with_single_step()
    consts = tw.constants(2, pair.first, pair.second)
    from freevol.errors import HypothesisViolated

    with pytest.raises(HypothesisViolated):
        tw.check_volume_growth_bounds(
            pair.first, pair.second, [P("a"), P("baB")], 2, consts, rank_bound=2
        )


# Growth certificates of cyclic subgroups

CERTIFIED_PAIRS = [
    "certified_filling_pair",
    "mirror_filling_pair",
    "pair_with_sixth_power",
    "pair_with_single_step",
]


def _random_cyclic_words(seed, count, max_len=9):
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        letters = []
        for _ in range(rng.randint(1, max_len)):
            choices = [x for x in (-3, -2, -1, 1, 2, 3) if not letters or x != -letters[-1]]
            letters.append(rng.choice(choices))
        if len(letters) < 2 or letters[0] != -letters[-1]:
            words.append(tuple(letters))
    return words


def _refolded(pair, g, power):
    return oracles.translation_length(pair.second, apply(sp.dehn_twist(pair.first, power), g))


def _assert_certificate_matches_refolding(pair, g, certificate):
    for key, sign in (("plus", 1), ("minus", -1)):
        line = certificate[key]
        for n in [*range(line["n0"], line["n0"] + 9), 128]:
            assert line["slope"] * n + line["intercept"] == _refolded(pair, g, sign * n), (key, n)


@pytest.mark.parametrize("name", CERTIFIED_PAIRS)
def test_growth_certificate_equals_refolding(name):
    pair = getattr(fx, name)()
    length_c1 = oracles.translation_length(pair.second, pair.first.edge_word_ambient())
    for g in _random_cyclic_words(seed=len(name), count=16):
        certificate = tw.growth_certificate(pair.first, pair.second, g)
        assert certificate is not None, render_word(g, B3)
        slope = oracles.translation_length(pair.first, g) * length_c1
        assert certificate["plus"]["slope"] == certificate["minus"]["slope"] == slope
        _assert_certificate_matches_refolding(pair, g, certificate)


@pytest.mark.parametrize(
    "text, blocks",
    [
        ("a", 0),  # elliptic in the first splitting: nothing to twist
        ("abcc", 2),
        ("Cabca", 0),  # t^-1 c t a: the two blocks cancel
        ("aCabcac", 1),  # t^-1 c t inside: two of three blocks cancel
    ],
)
def test_growth_certificate_of_merged_and_elliptic_words(text, blocks):
    pair = fx.certified_filling_pair()
    g = P(text)
    length_c1 = oracles.translation_length(pair.second, pair.first.edge_word_ambient())
    certificate = tw.growth_certificate(pair.first, pair.second, g)
    assert certificate["plus"]["slope"] == blocks * length_c1
    assert oracles.translation_length(pair.first, g) == blocks
    _assert_certificate_matches_refolding(pair, g, certificate)


def test_no_certificate_when_the_edge_word_is_elliptic():
    # Swapped, the single-step pair's first edge word is elliptic in the second.
    pair = fx.pair_with_single_step()
    first, second = pair.second, pair.first
    assert vol.translation_length(second, first.edge_word_ambient()) == 0
    g = P("aCCbc")
    assert tw.growth_certificate(first, second, g) is None
    consts = tw.constants(1, first, second)
    report = tw.check_volume_growth_bounds(first, second, [g], 40, consts)
    assert report["certificate"] is None
    assert report["bounds"]["twist_power_40"]["observed"] == oracles.translation_length(
        second, apply(sp.dehn_twist(first, 40), g)
    )


def test_growth_report_reads_large_powers_off_the_certificate():
    pair = fx.certified_filling_pair()
    consts = tw.constants(1, pair.first, pair.second)
    g = P("abCacBBc")
    certificate = tw.growth_certificate(pair.first, pair.second, g)
    for n in (1, 2, 20, -20):
        report = tw.check_volume_growth_bounds(pair.first, pair.second, [g], n, consts)
        assert report["certificate"] == {**certificate, "all_n_ok": True}
        for power in (n, -n):
            assert report["bounds"][f"twist_power_{power}"]["observed"] == _refolded(pair, g, power)
        assert report["all_ok"]


def test_growth_check_cost_does_not_grow_with_n(monkeypatch):
    pair = fx.certified_filling_pair()
    consts = tw.constants(1, pair.first, pair.second)
    g = P("abCacBBc")
    assert max(line["n0"] for line in tw.growth_certificate(pair.first, pair.second, g).values()) <= 16
    fold = st_mod.fold_and_core
    largest = []

    def counting_fold(graph, keep_basepoint):
        largest[-1] = max(largest[-1], len(graph.edges))
        return fold(graph, keep_basepoint)

    monkeypatch.setattr(st_mod, "fold_and_core", counting_fold)
    for n in (16, 4096):
        largest.append(0)
        report = tw.check_volume_growth_bounds(pair.first, pair.second, [g], n, consts)
        assert report["all_ok"]
    assert largest[0] == largest[1] > 0


@pytest.mark.parametrize("n", [0, True, False])
def test_growth_check_refuses_a_zero_or_bool_power(n):
    pair = fx.pair_with_single_step()
    consts = tw.constants(1, pair.first, pair.second)
    with pytest.raises(UsageError):
        tw.check_volume_growth_bounds(pair.first, pair.second, [P("aCCbc")], n, consts)


@pytest.mark.parametrize("text", ["abCacb", "abCacBBc"])
def test_cyclic_subgroup_given_by_several_generators_is_certified(text):
    pair = fx.certified_filling_pair()
    consts = tw.constants(1, pair.first, pair.second)
    g = P(text)
    keys = ("vol1", "vol2", "bounds", "certificate")
    for n in (2048, -2048):
        reference = tw.check_volume_growth_bounds(pair.first, pair.second, [g], n, consts)
        assert reference["certificate"]["all_n_ok"]
        for gens in ([reduce_word(g * 2), reduce_word(g * 3)], [g, g]):
            report = tw.check_volume_growth_bounds(pair.first, pair.second, gens, n, consts)
            assert {key: report[key] for key in keys} == {key: reference[key] for key in keys}
    # At the larger n0 both powers are read off the certificate.
    n = max(reference["certificate"][key]["n0"] for key in ("plus", "minus"))
    report = tw.check_volume_growth_bounds(pair.first, pair.second, [g, g], n, consts)
    assert report["certificate"] == reference["certificate"]
    for power in (n, -n):
        assert report["bounds"][f"twist_power_{power}"]["observed"] == _refolded(pair, g, power)

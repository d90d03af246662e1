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
from freevol.errors import NotAnAutomorphism
from freevol.words import (
    Automorphism,
    apply,
    invert,
    parse_word,
    power,
    reduce_word,
    render_word,
    validate_automorphism,
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
    assume(all(images) and validate_automorphism(nu))
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

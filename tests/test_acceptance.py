"""End-to-end acceptance suite: ten exact, deterministic criteria."""

import random


import fixtures as fx
import oracles
from freevol import filling as fl
from freevol import pingpong as pp
from freevol import splittings as sp
from freevol import stallings as st_mod
from freevol import twisting as tw
from freevol import volume as vol
from freevol.errors import HypothesisViolated
from freevol.words import (
    Automorphism,
    CyclicWord,
    apply,
    apply_cyclic,
    enumerate_cyclic_classes,
    invert,
    power,
    reduce_word,
    render_word,
)

B3 = fx.B3
P = fx.w3


def R(word):
    return render_word(word, B3)


def random_reduced(rng, max_len, rank=3):
    length = rng.randint(1, max_len)
    letters = []
    while len(letters) < length:
        x = rng.choice([i for i in range(-rank, rank + 1) if i])
        if letters and x == -letters[-1]:
            continue
        letters.append(x)
    return tuple(letters)


# 1. Pulled-back amalgam pair: exact images, length, and filling checks.
def test_criterion_1_pulled_back_pair_regression():
    phi6 = power(fx.cycling_automorphism(), 6)
    assert [R(w) for w in phi6.images] == ["abbc", "bccab", "cababbc"]
    base = fx.amalgam_over_c()
    assert vol.translation_length(base, P("cababbc")) == 4
    pair = fx.pair_with_sixth_power()
    assert R(pair.second.edge_word_ambient()) == "cababbc"
    f2_ok, _ = fl.check_f2(pair)
    assert f2_ok is True
    f3_ok, evidence = fl.check_f3(pair)
    assert f3_ok is False
    certificate = fl.check_filling(pair)
    assert certificate.verdict == "unknown"
    # The two edge classes fed to the free-factor check.
    assert {R(pair.first.edge_word_ambient()), R(pair.second.edge_word_ambient())} == {
        "c",
        "cababbc",
    }
    assert evidence.minimized_classes == ("c", "b")


# 2. Single-step pair: twist growth is exactly linear with the computed constants.
def test_criterion_2_single_step_pair_regression():
    pair = fx.pair_with_single_step()
    first, second = pair.first, pair.second
    g = P("aCCbc")
    assert vol.translation_length(first, g) == 2
    assert vol.translation_length(second, g) == 4
    assert vol.translation_length(second, P("c")) == 2
    twist = sp.dehn_twist(first)
    assert apply_cyclic(power(twist, 2), CyclicWord.of(g)) == CyclicWord.of(P("abC"))
    assert vol.translation_length(second, apply(power(twist, 2), g)) == 2
    nu = invert(Automorphism(B3, (P("ab"), P("b"), P("c"))))
    assert tw.bcc(nu) == 1
    consts = tw.constants(1, first, second)
    assert consts == tw.TwistConstants(B=1, M=1, C=10)
    for n in range(2, 11):
        twisted = apply(power(twist, n), g)
        assert vol.translation_length(second, twisted) == 4 * n - 6


# 3. Free volume of a one-generator subgroup equals the normal-form oracle.
def test_criterion_3_product_generator_volume():
    splitting = fx.amalgam_over_ab()
    gens = [P("ac")]
    assert vol.free_volume(splitting, gens) == 2
    assert oracles.translation_length(splitting, gens[0]) == 2


# 4. Exhaustive oracle equivalence on short cyclic words.
def test_criterion_4_oracle_equivalence():
    splittings = [fx.amalgam_over_c(), fx.amalgam_over_ab(), fx.hnn_over_commutator()]
    cases = 0
    for splitting in splittings:
        # Rank-3 classes include every rank-2 class (letters a, b only).
        for cyclic in enumerate_cyclic_classes(3, 6):
            expected = oracles.translation_length(splitting, cyclic.letters)
            assert vol.free_volume(splitting, [cyclic.letters]) == expected
            cases += 1
    assert cases >= 500


# 5. Twist growth bounds hold on random cyclic-or-malnormal subgroups.
def test_criterion_5_growth_bound_property_suite():
    rng = random.Random(42)
    pairs = [fx.pair_with_single_step(), fx.certified_filling_pair()]
    for pair in pairs:
        consts = tw.constants(2, pair.first, pair.second)
        done = 0
        while done < 50:
            gens = [
                random_reduced(rng, 8)
                for _ in range(rng.randint(1, 2))
            ]
            n = rng.choice([i for i in range(-5, 6) if i])
            try:
                report = tw.check_volume_growth_bounds(
                    pair.first, pair.second, gens, abs(n), consts, rank_bound=2
                )
            except HypothesisViolated:
                continue
            assert report["all_ok"], (gens, n, report)
            done += 1


# 6. Surgery output is isomorphic to the directly twisted core.
def test_criterion_6_surgery_equivalence():
    rng = random.Random(6)
    splittings = [fx.amalgam_over_c(), fx.hnn_over_commutator()]
    done = 0
    while done < 100:
        splitting = splittings[done % 2]
        twist = sp.dehn_twist(splitting)
        gens = [random_reduced(rng, 6) for _ in range(rng.randint(1, 2))]
        try:
            graph = vol.lambda_graph(splitting, gens)
        except Exception:
            continue
        n = rng.choice([-3, -2, -1, 1, 2, 3])
        surgered = oracles.twisted_core(graph, splitting, n)
        direct = vol.lambda_graph(splitting, [apply(power(twist, n), g) for g in gens])
        assert st_mod.isomorphic(surgered, direct), (gens, n)
        done += 1


# 7. Cancellation in images never exceeds twice the computed constant,
#    and twice the constant is attained.
def test_criterion_7_bounded_cancellation():
    rng = random.Random(0)
    single = fx.pair_with_single_step()
    filling = fx.certified_filling_pair()
    changes = [
        tw.crossing(single.first, single.second).nu,
        tw.crossing(filling.first, filling.second).nu,
        tw.crossing(filling.second, filling.first).nu,
    ]
    for nu in changes:
        bound = tw.bcc(nu)
        observed_max = 0
        for _ in range(10_000):
            w = random_reduced(rng, 8)
            v = random_reduced(rng, 8)
            if w[-1] == -v[0]:
                continue
            iw, iv = apply(nu, w), apply(nu, v)
            cancelled = len(iw) + len(iv) - len(reduce_word(iw + iv))
            observed_max = max(observed_max, cancelled)
            assert cancelled <= 2 * bound
        assert observed_max == 2 * bound


# 8. High twist powers throw sampled subgroups across the partition and grow them.
#    With free volumes (v1, v2), side two is v1 > v2 and side one is
#    v1 <= v2 with v2 > 0; v1 = v2 = 0 is on neither side.
def test_criterion_8_side_swap_sampling():
    pair = fx.certified_filling_pair()
    config = pp.configure(pair)
    twist = sp.dehn_twist(pair.first)

    def volumes(word):
        return vol.free_volume(pair.first, [word]), vol.free_volume(pair.second, [word])

    rng = random.Random(3)
    samples = 0
    while samples < 50:
        w = random_reduced(rng, 8)
        if not CyclicWord.of(w).letters:
            continue
        v1, v2 = volumes(w)
        if not v1 > v2:
            continue
        samples += 1
        for sign in (1, -1):
            u1, u2 = volumes(apply(power(twist, sign * config.threshold), w))
            assert u1 <= u2 and u2 > 0
            assert u1 + u2 > v1 + v2


# 9. A certified word has no short periodic classes; a bare twist does.
def test_criterion_9_certificate_consistency():
    config = pp.configure(fx.certified_filling_pair())
    word = pp.parse_twist_word("1:+N 2:+N", config.threshold)
    certificate = pp.certify(config, word)
    assert certificate.verdict == pp.VERDICT_IWIP
    forward, backward = pp.twist_factors(config, word)
    report = pp.empirical_no_periodic_orbit(
        pp.realize(config, word),
        max_len=8,
        max_power=4,
        factors=forward,
        inverse_factors=backward,
    )
    assert report["ok"], report["violation"]
    twist = sp.dehn_twist(config.pair.first)
    twist_report = pp.empirical_no_periodic_orbit(twist, max_len=8, max_power=4)
    assert not twist_report["ok"]
    assert twist_report["violation"]["power"] == 1
    # In particular the twist fixes its own edge class.
    edge_class = CyclicWord.of(config.pair.first.edge_word_ambient())
    assert apply_cyclic(twist, edge_class) == edge_class


# 10. Summed volumes stay bilipschitz-comparable to rose length on samples.
def test_criterion_10_bilipschitz_sampling():
    pair = fx.pair_with_sixth_power()
    # The one proper free factor not separated by the pair is handled by
    # checking its volumes directly.
    ok, evidence = fl.check_f1_for(pair, [P("c"), P("cababbc")])
    assert ok and evidence == {"vol_1": 3, "vol_2": 2}
    report = oracles.bilipschitz_sample(pair.first, pair.second, 200, 12, seed=0)
    assert report["samples"] > 0
    assert report["min_ratio"] is not None and report["min_ratio"] > 0
    assert report["max_ratio"] is not None

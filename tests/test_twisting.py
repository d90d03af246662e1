import random
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fixtures as fx
import oracles
from freevol import pingpong as pp
from freevol import splittings as sp
from freevol import stallings as st_mod
from freevol import twisting as tw
from freevol import volume as vol
from freevol.errors import BudgetExceeded, NotAnAutomorphism, UsageError
from freevol.words import (
    Automorphism,
    CyclicWord,
    apply,
    cyclically_reduce,
    invert,
    invert_word,
    is_power_of,
    is_proper_power,
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


def _forbid_twisting_and_folding(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cyclic subgroup was twisted or refolded")

    for module, name in ((sp, "dehn_twist"), (vol, "free_volume"), (vol, "relative_volume"), (tw, "relative_volume")):
        monkeypatch.setattr(module, name, refuse)


def test_no_certificate_when_the_edge_word_is_elliptic(monkeypatch):
    # Swapped, the single-step pair's first edge word is elliptic in the second.
    pair = fx.pair_with_single_step()
    first, second = pair.second, pair.first
    assert vol.translation_length(second, first.edge_word_ambient()) == 0
    g = P("aCCbc")
    assert tw.growth_certificate(first, second, g) is None
    consts = tw.constants(1, first, second)
    powers = (1, 2, 40)
    expected = {
        power: oracles.translation_length(second, apply(sp.dehn_twist(first, power), g))
        for n in powers
        for power in (n, -n)
    }
    _forbid_twisting_and_folding(monkeypatch)
    for n in powers:
        report = tw.check_volume_growth_bounds(first, second, [g], n, consts)
        assert report["certificate"] is None
        for power in (n, -n):
            assert report["bounds"][f"twist_power_{power}"]["observed"] == expected[power]
    with pytest.raises(BudgetExceeded):
        tw.check_volume_growth_bounds(first, second, [g], 10**9, consts)


def test_cyclic_subgroup_below_n0_is_counted_without_twisting_or_folding(monkeypatch):
    pair = fx.certified_filling_pair()
    consts = tw.constants(1, pair.first, pair.second)
    g = P("abCacBBc")
    certificate = tw.growth_certificate(pair.first, pair.second, g)
    assert (certificate["plus"]["n0"], certificate["minus"]["n0"]) == (3, 2)
    expected = {power: _refolded(pair, g, power) for power in (1, -1, 2, -2)}
    _forbid_twisting_and_folding(monkeypatch)
    for n in (1, 2):
        report = tw.check_volume_growth_bounds(pair.first, pair.second, [g], n, consts)
        assert report["certificate"] == {**certificate, "all_n_ok": True}
        for power in (n, -n):
            assert report["bounds"][f"twist_power_{power}"]["observed"] == expected[power]


def _window_cut(left, z, right):
    """``twisting._cut`` by reducing z between windows of the rays that are longer than z."""
    reps = len(z) // len(left) + 2
    word = left * reps + z + right * reps
    kept = []  # positions in word of the letters left after reduction
    for position, letter in enumerate(word):
        if kept and word[kept[-1]] == -letter:
            kept.pop()
        else:
            kept.append(position)
    start, stop = len(left) * reps, len(left) * reps + len(z)
    assert kept[0] == 0 and kept[-1] == len(word) - 1, "a window was used up"
    return (
        start - sum(p < start for p in kept),
        len(word) - stop - sum(p >= stop for p in kept),
        tuple(word[p] for p in kept if start <= p < stop),
    )


short_words3 = st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), min_size=1, max_size=8).map(reduce_word)


@settings(max_examples=300, deadline=None)
@given(u=short_words3, z=short_words3, signs=st.tuples(st.booleans(), st.booleans()))
def test_cut_equals_reducing_windows(u, z, signs):
    u = cyclically_reduce(u)[0]
    assume(u and z and not is_proper_power(CyclicWord.of(u))[0] and not is_power_of(z, u))
    left, right = (u if sign else invert_word(u) for sign in signs)
    assert tw._cut(left, z, right) == _window_cut(left, z, right)


def test_cut_where_the_rays_meet_past_z():
    # ...abAc C abAc...: C cancels c, then A meets a.
    assert tw._cut(P("abAc"), P("C"), P("abAc")) == (2, 1, ())


DIRECTIONS = [(name, swapped) for name in CERTIFIED_PAIRS for swapped in (False, True)]


@pytest.mark.parametrize("name, swapped", DIRECTIONS)
@settings(max_examples=50, deadline=None)
@given(g=short_words3.filter(bool), n=st.integers(1, 64), sign=st.sampled_from((1, -1)))
def test_block_word_count_equals_the_fold_and_the_oracle(name, swapped, g, n, sign):
    """Both directions of every fixture pair; swapped, the single-step pair has l2(c1) = 0."""
    pair = getattr(fx, name)()
    first, second = (pair.second, pair.first) if swapped else (pair.first, pair.second)
    twisted = apply(sp.dehn_twist(first, sign * n), g)
    cycle = tw._TwistedCycle(first, second, g)
    expected = vol.free_volume(second, [twisted])
    assert cycle.count(sign * n) == cycle.length(sign * n) == expected
    assert expected == oracles.translation_length(second, twisted)


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
    fold = st_mod.fold_generators
    largest = []

    def counting_fold(gens, keep_basepoint):
        largest[-1] = max(largest[-1], sum(map(len, gens)))
        return fold(gens, keep_basepoint)

    # Every fold of generators, the ambient core's and any refold's, goes through it.
    for module in (st_mod, vol):
        monkeypatch.setattr(module, "fold_generators", counting_fold)
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


def test_constants_for_a_lower_rank_refuse_a_rank_two_subgroup():
    # Rank-1 constants have M = 1; a malnormal rank-2 subgroup needs M = 6.
    pair = fx.certified_filling_pair()
    consts = tw.constants(1, pair.first, pair.second)
    gens = [P("BABCA"), P("abAbc")]
    assert st_mod.is_malnormal(st_mod.subgroup_graph(B3, gens, keep_basepoint=False))
    from freevol.errors import HypothesisViolated

    with pytest.raises(HypothesisViolated, match="rank"):
        tw.check_volume_growth_bounds(pair.first, pair.second, gens, 64, consts)
    consts = tw.constants(2, pair.first, pair.second)
    assert tw.check_volume_growth_bounds(pair.first, pair.second, gens, 64, consts)["all_ok"]


# A malnormal rank-2 subgroup: on certified_filling_pair its lines start at n0 = 5.
RANK_TWO_GENS = [P("BABCA"), P("abAbc")]


def test_rank_two_growth_past_the_letter_budget_raises_before_twisting(monkeypatch):
    """With l2(c1) = 0 there is no line, and a rank-2 subgroup is counted at n itself."""

    def refuse(*args, **kwargs):
        raise AssertionError("an ambient twist was built")

    monkeypatch.setattr(sp, "dehn_twist", refuse)
    pair = fx.pair_with_single_step()
    first, second = pair.second, pair.first
    consts = tw.constants(2, first, second)
    started = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"need \d+ letters, over the budget of 10000000"):
        tw.check_volume_growth_bounds(first, second, RANK_TWO_GENS, 10**9, consts)
    assert time.perf_counter() - started < 1


def test_rank_two_growth_reads_any_power_off_the_line():
    pair = fx.certified_filling_pair()
    consts = tw.constants(2, pair.first, pair.second)
    xs = [sp.to_relative(pair.first, g) for g in RANK_TWO_GENS]
    small = tw.check_volume_growth_bounds(pair.first, pair.second, RANK_TWO_GENS, 16, consts)
    huge = tw.check_volume_growth_bounds(pair.first, pair.second, RANK_TWO_GENS, 10**9, consts)
    assert huge["certificate"] == small["certificate"]
    assert small["certificate"]["all_n_ok"] and huge["all_ok"]
    for key, sign in (("plus", 1), ("minus", -1)):
        line = small["certificate"][key]
        assert line["slope"] == small["vol1"] * small["edge_word_length"] == 4
        refolded = vol.relative_volume(pair.second, tw._twisted_words(pair.first, pair.second, xs, 16 * sign))
        assert small["bounds"][f"twist_power_{16 * sign}"]["observed"] == refolded
        assert huge["bounds"][f"twist_power_{10**9 * sign}"]["observed"] == line["slope"] * 10**9 + line["intercept"]


def test_rank_two_growth_check_cost_does_not_grow_with_n(monkeypatch):
    pair = fx.certified_filling_pair()
    consts = tw.constants(2, pair.first, pair.second)
    certificate = tw.check_volume_growth_bounds(pair.first, pair.second, RANK_TWO_GENS, 16, consts)["certificate"]
    assert max(certificate["plus"]["n0"], certificate["minus"]["n0"]) <= 16
    count = tw.relative_volume
    lengths: list[list[list[int]]] = []

    def recording(splitting, gens):
        lengths[-1].append(sorted(map(len, gens)))
        return count(splitting, gens)

    # Every volume the check counts, of H and of any twisted H, goes through it.
    monkeypatch.setattr(tw, "relative_volume", recording)
    best = []
    for n in (16, 8192):
        lengths.append([])
        times = []
        for _ in range(7):
            started = time.perf_counter()
            assert tw.check_volume_growth_bounds(pair.first, pair.second, RANK_TWO_GENS, n, consts)["all_ok"]
            times.append(time.perf_counter() - started)
        best.append(min(times))
    assert lengths[0] == lengths[1] and lengths[0]
    assert best[1] <= 1.5 * best[0], best


def test_non_malnormal_anchor_is_refused_in_both_directions():
    """<BcA, BCA> holds c^2 but not c: its twisted volume is no line, so no line may be read for it."""
    pair = fx.pair_with_sixth_power()
    gens = [P("BcA"), P("BCA")]
    assert not st_mod.is_malnormal(st_mod.subgroup_graph(B3, gens, keep_basepoint=False))
    xs = [sp.to_relative(pair.first, g) for g in gens]
    volumes = [vol.relative_volume(pair.second, tw._twisted_words(pair.first, pair.second, xs, n)) for n in range(1, 10)]
    assert [b - a for a, b in zip(volumes, volumes[1:])] == [6, -2] * 4
    from freevol.errors import HypothesisViolated

    for first, second in ((pair.first, pair.second), (pair.second, pair.first)):
        consts = tw.constants(2, first, second)
        for n in (1, 64):
            with pytest.raises(HypothesisViolated, match="neither cyclic nor malnormal"):
                tw.check_volume_growth_bounds(first, second, gens, n, consts)


def _assert_line_equals_refolding(first, second, gens, sign):
    """Both sides of the rank-2 line at every n0 <= n <= n0 + 64, for T1^(sign n)."""
    report = tw.check_volume_growth_bounds(first, second, gens, 1, tw.constants(2, first, second))
    if report["edge_word_length"] == 0:
        assert report["certificate"] is None
        return
    line = report["certificate"]["plus" if sign > 0 else "minus"]
    assert line["slope"] == report["vol1"] * report["edge_word_length"]
    xs = [sp.to_relative(first, g) for g in gens]
    for n in range(line["n0"], line["n0"] + 65):
        refolded = vol.relative_volume(second, tw._twisted_words(first, second, xs, sign * n))
        assert line["slope"] * n + line["intercept"] == refolded, n


BENCHMARK_FAMILIES = list(fx.benchmark_families())


@pytest.mark.parametrize(
    "pair, gens",
    BENCHMARK_FAMILIES,
    ids=[f"{pair.first.kind}-{','.join(render_word(g, B3) for g in gens)}" for pair, gens in BENCHMARK_FAMILIES],
)
def test_rank_two_line_equals_refolding_on_the_benchmark_families(pair, gens):
    """perfbench's 64 rank-2 generating sets, both directions, both signs: 256 cases.

    Swapped, the amalgam pair (``pair_with_single_step``) has l2(c1) = 0 and no line."""
    for first, second in ((pair.first, pair.second), (pair.second, pair.first)):
        for sign in (1, -1):
            _assert_line_equals_refolding(first, second, gens, sign)


@pytest.mark.parametrize("name, swapped", DIRECTIONS)
@settings(max_examples=40, deadline=None)
@given(
    gens=st.lists(short_words3.filter(bool), min_size=1, max_size=3),
    n=st.integers(1, 64),
    sign=st.sampled_from((1, -1)),
)
def test_twisted_words_equal_rewriting_the_ambient_twist(name, swapped, gens, n, sign):
    pair = getattr(fx, name)()
    first, second = (pair.second, pair.first) if swapped else (pair.first, pair.second)
    xs = [sp.to_relative(first, g) for g in gens]
    expected = [sp.to_relative(second, apply(sp.dehn_twist(first, sign * n), g)) for g in gens]
    assert tw._twisted_words(first, second, xs, sign * n) == expected


@st.composite
def rank_two_free_factors(draw):
    """Images of two basis letters of F3 under a product of 1-6 elementary Nielsen moves."""
    images = [(1,), (2,), (3,)]
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.permutations(range(3)))[:2]
        letter = images[j] if draw(st.booleans()) else invert_word(images[j])
        images[i] = reduce_word(images[i] + letter if draw(st.booleans()) else letter + images[i])
    kept = draw(st.permutations(range(3)))[:2]
    return [images[i] for i in kept]


@pytest.mark.parametrize("name", ["certified_filling_pair", "mirror_filling_pair"])
@settings(max_examples=40, deadline=None)
@given(gens=rank_two_free_factors(), double=st.booleans())
@example(gens=[P("ac"), P("b")], double=False)
def test_rank_two_free_factors_keep_the_growth_bounds_at_the_threshold(name, gens, double):
    """At |n| in {N, 2N} the lower bound is positive when vol1 > 0 and vol2 is small
    (``<ac, b>``: 9 at N), so it can fail; the observed volumes are those of
    twisting the generators by the ambient automorphism.  ``all_n_ok`` checks
    the bounds at every |n| >= n0 at once, off the certified lines."""
    config = pp.configure(getattr(fx, name)())
    first, second = config.pair.first, config.pair.second
    n = config.threshold * (2 if double else 1)
    report = tw.check_volume_growth_bounds(first, second, gens, n, config.constants, rank_bound=2)
    assert report["all_ok"], report
    assert report["certificate"]["all_n_ok"], report
    for power in (n, -n):
        old_route = vol.free_volume(second, [apply(sp.dehn_twist(first, power), g) for g in gens])
        assert report["bounds"][f"twist_power_{power}"]["observed"] == old_route


@st.composite
def malnormal_rank_two_subgroups(draw):
    """A Nielsen free factor of rank 2, or two short words whose subgroup is malnormal of rank 2."""
    gens = draw(st.one_of(rank_two_free_factors(), st.lists(short_words3.filter(bool), min_size=2, max_size=2)))
    core = st_mod.subgroup_graph(B3, gens, keep_basepoint=False)
    assume(st_mod.rank(core) == 2 and st_mod.is_malnormal(core))
    return gens


# Each example refolds 65 powers: 5 per direction, and ten times as many
# under the ``explore`` profile.
@pytest.mark.parametrize("name, swapped", DIRECTIONS)
@settings(max_examples=settings.default.max_examples // 20, deadline=None)
@given(gens=malnormal_rank_two_subgroups(), sign=st.sampled_from((1, -1)))
def test_rank_two_line_equals_refolding(name, swapped, gens, sign):
    """Both directions of every fixture pair; swapped, the single-step pair has l2(c1) = 0."""
    pair = getattr(fx, name)()
    first, second = (pair.second, pair.first) if swapped else (pair.first, pair.second)
    _assert_line_equals_refolding(first, second, gens, sign)

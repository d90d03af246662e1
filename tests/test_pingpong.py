from fractions import Fraction

import pytest

import fixtures as fx
from freevol import pingpong as pp
from freevol.errors import (
    NotFillingEvidence,
    NotProperSubgroup,
    UsageError,
)
from freevol import twisting as tw
from freevol.splittings import MarkedPair, dehn_twist, transform
from freevol.twisting import TwistConstants
from freevol.words import Automorphism, power

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


@pytest.mark.parametrize("max_len, max_power", [(0, 2), (3, 0), (-1, -1)])
def test_orbit_check_rejects_empty_samples(max_len, max_power):
    with pytest.raises(UsageError, match="at least 1"):
        pp.empirical_no_periodic_orbit(Automorphism.identity(B3), max_len, max_power)


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


def test_slack_guardrails():
    pair = fx.certified_filling_pair()
    with pytest.raises(UsageError):
        pp.configure(pair, slack=Fraction(3, 1))


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
    assert certificate.checks["filling"] == config.filling.to_json()


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

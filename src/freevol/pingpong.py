"""Ping-pong certification of hyperbolic fully irreducible automorphisms.

Given a filling pair of cyclic splittings with twist automorphisms
``delta_1`` and ``delta_2``, conjugacy classes of proper free factors and
cyclic subgroups split into two sides by comparing their two free volumes.
High powers of the twists swap the sides while strictly increasing the
summed volume, so sufficiently spaced alternating twist words act without
periodic orbits: they are fully irreducible and hyperbolic.  This module
computes the exponent threshold and checks a candidate twist word against the
hypotheses without building it; ``realize`` spells it out only on request.

The side comparison uses an exact rational slack factor close to 1 in
place of an irrational one; an exact tie is reported as an error rather
than silently broken.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import stallings
from . import volume as volume_mod
from .errors import (
    NotFillingEvidence,
    NotProperSubgroup,
    TieDetected,
    UsageError,
)
from .filling import FillingCertificate, check_filling
from .splittings import MarkedPair, dehn_twist, require_valid
from .twisting import TwistConstants, constants as twist_constants
from .words import (
    Automorphism,
    CyclicWord,
    Word,
    apply,
    compose,
    enumerate_cyclic_classes,
    invert,
    invert_word,
    is_proper_power,
    render_word,
    word_sort_key,
)

SIDE_FIRST = "side1"
SIDE_SECOND = "side2"

DEFAULT_SLACK = Fraction(2**40 + 1, 2**40)

VERDICT_IWIP = "fully_irreducible_hyperbolic"
VERDICT_NONTRIVIAL = "nontrivial"
VERDICT_TWIST_POWER = "conjugate_to_twist_power"
VERDICT_NOT_MET = "hypotheses_not_met"


@dataclass(frozen=True)
class PingPongConfig:
    """Everything needed to run the ping-pong argument on one pair.

    ``slack`` is the rational factor separating the two sides; it must
    stay within a factor of 2 of 1 in either direction.  ``threshold`` is
    the minimal twist exponent making both swap inequalities hold.
    ``filling`` is the pair's filling certificate; the argument needs its
    verdict to be ``fills``.
    """

    pair: MarkedPair
    constants: TwistConstants
    slack: Fraction
    threshold: int
    filling: FillingCertificate

    def __post_init__(self) -> None:
        if self.slack <= 0 or max(self.slack, 1 / self.slack) > 2:
            raise UsageError("slack factor must be positive and within [1/2, 2]")
        if self.threshold < 1:
            raise UsageError("threshold exponent must be at least 1")


def _edge_lengths(pair: MarkedPair) -> tuple[int, int]:
    """Translation length of each edge word in the *other* splitting."""
    c1 = pair.first.edge_word_ambient()
    c2 = pair.second.edge_word_ambient()
    ell12 = volume_mod.translation_length(pair.second, c1)
    ell21 = volume_mod.translation_length(pair.first, c2)
    _require_hyperbolic(ell12, ell21)
    return ell12, ell21


def _require_hyperbolic(ell12: int, ell21: int) -> None:
    if ell12 <= 0 or ell21 <= 0:
        raise NotFillingEvidence(
            "an edge word is elliptic in the other splitting; the pair cannot fill"
        )


def threshold_exponent(consts: TwistConstants, ell12: int, ell21: int) -> int:
    """Minimal N with N*ell - C >= 2(M+1) for both cross translation lengths."""
    _require_hyperbolic(ell12, ell21)
    need = consts.C + 2 * (consts.M + 1)
    n = max(-(-need // ell12), -(-need // ell21), 1)
    return n


def configure(pair: MarkedPair, slack: Fraction = DEFAULT_SLACK) -> PingPongConfig:
    """Filling certificate, constants and threshold of the pair.

    The edge words' cross translation lengths are tested first, so a pair
    with an elliptic edge word raises NotFillingEvidence without checking
    filling or computing the bounded cancellation constants.
    """
    require_valid(pair.first)
    require_valid(pair.second)
    ell12, ell21 = _edge_lengths(pair)
    filling = check_filling(pair)
    consts = twist_constants(pair.ambient_basis.rank - 1, pair.first, pair.second)
    return PingPongConfig(
        pair=pair,
        constants=consts,
        slack=slack,
        threshold=threshold_exponent(consts, ell12, ell21),
        filling=filling,
    )


def volumes(config: PingPongConfig, gens: Sequence[Word]) -> tuple[int, int]:
    gens = list(gens)
    return (
        volume_mod.free_volume(config.pair.first, gens),
        volume_mod.free_volume(config.pair.second, gens),
    )


def size(config: PingPongConfig, gens: Sequence[Word]) -> int:
    """The summed free volume used as the ping-pong height function."""
    v1, v2 = volumes(config, gens)
    return v1 + v2


def classify(config: PingPongConfig, gens: Sequence[Word]) -> str:
    """Which ping-pong side a proper free factor or cyclic subgroup is on.

    Side one collects subgroups whose first volume is below ``slack``
    times the second; side two the mirror image.  An exact tie raises.
    """
    gens = list(gens)
    core = stallings.subgroup_graph(config.pair.ambient_basis, gens)
    if stallings.rank(core) >= config.pair.ambient_basis.rank:
        raise NotProperSubgroup(
            "classification requires a proper free factor or cyclic subgroup"
        )
    v1, v2 = volumes(config, gens)
    lhs = Fraction(v1)
    rhs = config.slack * v2
    if lhs < rhs:
        return SIDE_FIRST
    if lhs > rhs:
        return SIDE_SECOND
    raise TieDetected(
        f"volumes ({v1}, {v2}) tie exactly at slack {config.slack}"
    )


@dataclass(frozen=True)
class TwistWord:
    """An alternating word in the two twist generators.

    ``factors`` is a sequence of ``(twist id, exponent)`` with ids in
    {1, 2}, nonzero exponents, and no two consecutive equal ids.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        previous = None
        for twist_id, exponent in self.factors:
            if twist_id not in (1, 2):
                raise UsageError(f"twist id must be 1 or 2, got {twist_id}")
            if exponent == 0:
                raise UsageError("twist exponents must be nonzero")
            if twist_id == previous:
                raise UsageError("twist ids must alternate")
            previous = twist_id

    def inverse(self) -> "TwistWord":
        return TwistWord(
            tuple((tid, -exp) for tid, exp in reversed(self.factors))
        )

    def render(self) -> str:
        return " ".join(f"{tid}:{exp:+d}" for tid, exp in self.factors)


def parse_twist_word(text: str, threshold: Optional[int] = None) -> TwistWord:
    """Parse ``"1:+7 2:-7"``; the letter ``N`` stands for the threshold."""
    factors = []
    for token in text.split():
        try:
            tid_text, exp_text = token.split(":")
            tid = int(tid_text)
            sign = 1
            body = exp_text
            if body and body[0] in "+-":
                sign = -1 if body[0] == "-" else 1
                body = body[1:]
            if body == "N":
                if threshold is None:
                    raise UsageError("no threshold available to substitute for N")
                exp = sign * threshold
            else:
                exp = sign * int(body)
        except ValueError as exc:
            raise UsageError(f"bad twist-word token {token!r}") from exc
        factors.append((tid, exp))
    return TwistWord(tuple(factors))


def realize(config: PingPongConfig, word: TwistWord) -> Automorphism:
    """Compose the twist powers named by the word, left factor outermost."""
    basis = config.pair.ambient_basis
    splittings = {1: config.pair.first, 2: config.pair.second}
    result = Automorphism(basis, tuple((i,) for i in range(1, basis.rank + 1)))
    for twist_id, exponent in word.factors:
        result = compose(result, dehn_twist(splittings[twist_id], exponent))
    return result


@dataclass(frozen=True)
class IwipCertificate:
    """Hypothesis-checking record for one twist word.

    ``verdict`` is one of ``fully_irreducible_hyperbolic`` (all checks
    passed on an alternating word with both ends compliant),
    ``nontrivial`` (exponent checks passed but the endpoint rule only
    yields nontriviality), ``conjugate_to_twist_power`` (single factor),
    or ``hypotheses_not_met``.  The checks dictionary names every
    hypothesis tested, the pair's filling certificate under ``filling``
    included, and ``failed_check`` points at the first failure.  The
    record holds no images: ``realize`` computes the automorphism.
    """

    word: TwistWord
    verdict: str
    threshold: int
    constants: TwistConstants
    checks: dict
    failed_check: Optional[str]

    def to_json(self) -> dict:
        return {
            "schema": "freevol/1",
            "word": self.word.render(),
            "verdict": self.verdict,
            "threshold": self.threshold,
            "constants": {
                "B": self.constants.B,
                "M": self.constants.M,
                "C": self.constants.C,
            },
            "checks": self.checks,
            "failed_check": self.failed_check,
        }


def certify(config: PingPongConfig, word: TwistWord) -> IwipCertificate:
    """Check a twist word against the filling, exponent and endpoint hypotheses.

    The pair must be certified to fill: a ``not_filling`` or ``unknown``
    filling verdict leaves the hypotheses unmet, whatever the word.  Every
    exponent must reach the threshold in absolute value.  A word
    using both twists is certified fully irreducible and hyperbolic when
    its first and last factors use different twists (so either both
    boundary slots are occupied by large exponents or both are empty);
    when they use the same twist only nontriviality is certified.  The
    word is never realized: the verdict depends on its factors alone.
    """
    n = config.threshold
    checks: dict = {"threshold": n, "filling": config.filling.to_json()}

    def result(verdict: str, failed: Optional[str] = None) -> IwipCertificate:
        return IwipCertificate(word, verdict, n, config.constants, checks, failed)

    if config.filling.verdict != "fills":
        return result(VERDICT_NOT_MET, "filling")

    checks["nonempty"] = bool(word.factors)
    if not word.factors:
        return result(VERDICT_NOT_MET, "nonempty")

    exponents_ok = all(abs(exp) >= n for _, exp in word.factors)
    checks["exponents_reach_threshold"] = exponents_ok
    if not exponents_ok:
        return result(VERDICT_NOT_MET, "exponents_reach_threshold")

    checks["uses_both_twists"] = len(word.factors) > 1
    if len(word.factors) == 1:
        return result(VERDICT_TWIST_POWER)

    endpoints_ok = word.factors[0][0] != word.factors[-1][0]
    checks["endpoint_rule"] = endpoints_ok
    return result(VERDICT_IWIP if endpoints_ok else VERDICT_NONTRIVIAL)


def twist_factors(
    config: PingPongConfig, word: TwistWord
) -> tuple[list[Automorphism], list[Automorphism]]:
    """The word's twist powers as factor lists for ``realize`` and its inverse.

    Applying the factors right to left equals applying the realized
    automorphism; same for the inverse list and the inverse automorphism.
    """
    splittings = {1: config.pair.first, 2: config.pair.second}
    forward = [dehn_twist(splittings[tid], exp) for tid, exp in word.factors]
    backward = [dehn_twist(splittings[tid], -exp) for tid, exp in reversed(word.factors)]
    return forward, backward


def _apply_factors(factors: Sequence[Automorphism], word: Word) -> Word:
    for factor in reversed(factors):
        word = apply(factor, word)
    return word


def _abelianization_matrix(images: Sequence[Word], rank: int) -> list[list[int]]:
    matrix = [[0] * rank for _ in range(rank)]
    for j, image in enumerate(images):
        for letter in image:
            matrix[abs(letter) - 1][j] += 1 if letter > 0 else -1
    return matrix


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [
        [sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
        for i in range(n)
    ]


_PERM_DEGREE = 16


def _perm_of_word(word: Word, gen_perms: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    perm = tuple(range(_PERM_DEGREE))
    for letter in word:
        base = gen_perms[abs(letter) - 1]
        if letter < 0:
            inv = [0] * _PERM_DEGREE
            for i, v in enumerate(base):
                inv[v] = i
            base = tuple(inv)
        perm = tuple(perm[base[i]] for i in range(_PERM_DEGREE))
    return perm


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * _PERM_DEGREE
    lengths = []
    for start in range(_PERM_DEGREE):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def empirical_no_periodic_orbit(
    phi: Optional[Automorphism],
    max_len: int,
    max_power: int,
    factors: Optional[Sequence[Automorphism]] = None,
    inverse_factors: Optional[Sequence[Automorphism]] = None,
    quotient_samples: int = 4,
    seed: int = 0,
) -> dict:
    """Sampled evidence that no short conjugacy class is periodic.

    Checks ``[phi^p(g)] != [g]`` for every cyclic class of length at most
    ``max_len`` and every ``1 <= p <= max_power``, in the balanced form
    ``[phi^i(g)] != [phi^(i-p)(g)]`` with ``i`` about ``p/2`` so word
    growth is split between both sides.  Evidence only: a clean report is
    sampling, not a proof.

    A matching pair must agree on every conjugacy invariant, so most
    classes are discarded by two cheap necessary conditions before any
    long word is built: equality of abelianization images, and equality
    of conjugacy classes (cycle types) in randomly sampled symmetric-group
    quotients, where the action of ``phi`` is tracked on generator images
    instead of on growing words.  ``factors`` optionally presents ``phi``
    as a right-to-left composition (for example individual twist powers),
    which keeps the exact word computations for surviving classes small
    by reducing after every factor; then ``phi`` may be ``None``, so that
    it need never be realized, and the basis is that of ``factors[0]``.
    An empty ``factors``, or neither ``phi`` nor ``factors``, names no map
    to check and raises UsageError.
    """
    import random as _random

    if max_power < 1 or max_len < 1:
        raise UsageError(
            f"orbit sample needs max_power and max_len of at least 1, got {max_power} and {max_len}"
        )
    if factors is None:
        factors = [] if phi is None else [phi]
    if not factors:
        raise UsageError("orbit sample needs phi or a nonempty list of its factors")
    basis = factors[0].basis if phi is None else phi.basis
    rank = basis.rank
    if inverse_factors is None:
        inverse_factors = [invert(f) for f in reversed(factors)]
    forward = list(factors)
    backward = list(inverse_factors)

    pairs = []  # (p, hi, lo) with hi - lo = p
    for p in range(1, max_power + 1):
        pairs.append((p, -(-p // 2), -(p // 2)))
    hi_max = max(hi for _, hi, _ in pairs)
    lo_min = min(lo for _, _, lo in pairs)

    # Generator images of phi and its inverse, each as one reduced word.
    letters = list(range(1, rank + 1))
    step_up = [_apply_factors(forward, (x,)) for x in letters]
    step_down = [_apply_factors(backward, (x,)) for x in letters]

    # Abelianization matrices of phi^j for every needed j.
    mat_up = _abelianization_matrix(step_up, rank)
    mat_down = _abelianization_matrix(step_down, rank)
    identity = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    ab: dict[int, list[list[int]]] = {0: identity}
    for j in range(1, hi_max + 1):
        ab[j] = _mat_mul(mat_up, ab[j - 1])
    for j in range(-1, lo_min - 1, -1):
        ab[j] = _mat_mul(mat_down, ab[j + 1])
    diff = {p: [
        [ab[hi][i][j] - ab[lo][i][j] for j in range(rank)] for i in range(rank)
    ] for p, hi, lo in pairs}

    # Homomorphisms rho_j = rho . phi^j into a symmetric group: rho_{j+1}
    # evaluates the generator images of phi under rho_j, so no long words
    # are ever needed.
    rng = _random.Random(seed)
    quotients = []  # per sample: {j: gen perms}
    for _ in range(quotient_samples):
        base = []
        for _ in range(rank):
            perm = list(range(_PERM_DEGREE))
            rng.shuffle(perm)
            base.append(tuple(perm))
        maps = {0: base}
        for j in range(1, hi_max + 1):
            maps[j] = [_perm_of_word(image, maps[j - 1]) for image in step_up]
        for j in range(-1, lo_min - 1, -1):
            maps[j] = [_perm_of_word(image, maps[j + 1]) for image in step_down]
        quotients.append(maps)

    def exact_image(cyc: CyclicWord, j: int) -> CyclicWord:
        word: Word = cyc.letters
        chain = forward if j > 0 else backward
        for _ in range(abs(j)):
            word = _apply_factors(chain, word)
        return CyclicWord.of(word)

    checked = 0
    pruned = 0
    filtered_exact = 0
    violation: Optional[dict] = None
    for cyc in enumerate_cyclic_classes(rank, max_len):
        checked += 1
        # A class is periodic exactly when its root is, and exactly when its
        # inverse is; checking one representative of each family suffices.
        power_flag, _, _ = is_proper_power(cyc)
        if power_flag:
            pruned += 1
            continue
        inverse_class = CyclicWord.of(invert_word(cyc.letters))
        if inverse_class.letters != cyc.letters and word_sort_key(
            inverse_class.letters
        ) < word_sort_key(cyc.letters):
            pruned += 1
            continue
        vector = [0] * rank
        for letter in cyc.letters:
            vector[abs(letter) - 1] += 1 if letter > 0 else -1
        exact_cache: dict[int, CyclicWord] = {}
        for p, hi, lo in pairs:
            d = diff[p]
            if any(
                sum(d[i][j] * vector[j] for j in range(rank)) != 0
                for i in range(rank)
            ):
                continue
            if any(
                _cycle_type(_perm_of_word(cyc.letters, maps[hi]))
                != _cycle_type(_perm_of_word(cyc.letters, maps[lo]))
                for maps in quotients
            ):
                continue
            filtered_exact += 1
            if hi not in exact_cache:
                exact_cache[hi] = exact_image(cyc, hi)
            if lo not in exact_cache:
                exact_cache[lo] = exact_image(cyc, lo)
            if exact_cache[hi] == exact_cache[lo]:
                violation = {
                    "word": render_word(cyc.letters, basis),
                    "power": p,
                }
                break
        if violation is not None:
            break
    return {
        "schema": "freevol/1",
        "max_len": max_len,
        "max_power": max_power,
        "classes_checked": checked,
        "classes_pruned": pruned,
        "exact_comparisons": filtered_exact,
        "violation": violation,
        "ok": violation is None,
    }

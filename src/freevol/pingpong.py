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
from operator import itemgetter, sub
from typing import Optional, Sequence

from . import stallings
from . import volume as volume_mod
from .errors import (
    BasisMismatch,
    BudgetExceeded,
    NotFillingEvidence,
    NotProperSubgroup,
    TieDetected,
    UsageError,
)
from .filling import FillingCertificate, check_filling
from .splittings import MarkedPair, dehn_twist, require_valid
from .twisting import TwistConstants, constants as twist_constants
from .words import (
    LETTER_BUDGET,
    Automorphism,
    Word,
    apply,
    compose,
    cyclically_reduce,
    enumerate_cyclic_classes,
    invert,
    is_proper_power,
    letters_needed,
    render_word,
)

SIDE_FIRST = "side1"
SIDE_SECOND = "side2"

SLACK = Fraction(2**40 + 1, 2**40)

VERDICT_IWIP = "fully_irreducible_hyperbolic"
VERDICT_NONTRIVIAL = "nontrivial"
VERDICT_TWIST_POWER = "conjugate_to_twist_power"
VERDICT_NOT_MET = "hypotheses_not_met"


@dataclass(frozen=True)
class PingPongConfig:
    """Everything needed to run the ping-pong argument on one pair.

    ``threshold`` is the minimal twist exponent making both swap
    inequalities hold.  ``filling`` is the pair's filling certificate; the
    argument needs its verdict to be ``fills``.
    """

    pair: MarkedPair
    constants: TwistConstants
    threshold: int
    filling: FillingCertificate

    def __post_init__(self) -> None:
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


def configure(pair: MarkedPair) -> PingPongConfig:
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

    Side one collects subgroups whose first volume is below ``SLACK``
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
    rhs = SLACK * v2
    if lhs < rhs:
        return SIDE_FIRST
    if lhs > rhs:
        return SIDE_SECOND
    raise TieDetected(
        f"volumes ({v1}, {v2}) tie exactly at slack {SLACK}"
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
    """Compose the twist powers named by the word, left factor outermost.

    Before each factor is composed, the images it would give are bounded
    by ``letters_needed``; past ``LETTER_BUDGET`` letters BudgetExceeded
    is raised, naming the budget and that bound, and nothing larger is
    built (``dehn_twist`` bounds each factor likewise).
    """
    basis = config.pair.ambient_basis
    splittings = {1: config.pair.first, 2: config.pair.second}
    result = Automorphism.identity(basis)
    for twist_id, exponent in word.factors:
        factor = dehn_twist(splittings[twist_id], exponent)
        needed = letters_needed(result, factor.images)
        if needed > LETTER_BUDGET:
            raise BudgetExceeded(
                f"realizing {word.render()!r} needs up to {needed} letters, "
                f"over the budget of {LETTER_BUDGET}"
            )
        result = compose(result, factor)
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
_IDENTITY_PERM = tuple(range(_PERM_DEGREE))

#: The trace filter works in SL(2, Z/p) for each of these primes at once,
#: as SL(2, Z/m) with m their product (Chinese remainder theorem).
_TRACE_PRIMES = (2**61 - 1, 2**61 - 31)
_TRACE_MODULUS = _TRACE_PRIMES[0] * _TRACE_PRIMES[1]


def _signed_table(values: Sequence, inverses: Sequence) -> list:
    """A list indexed by signed letters: ``table[i]`` and ``table[-i]``."""
    return [None, *values, *reversed(inverses)]


def _perm_getters(perms: Sequence[tuple[int, ...]]) -> list:
    """Per signed letter, the C-level map ``perm -> perm o rho(letter)``."""
    inverses = [sorted(range(_PERM_DEGREE), key=perm.__getitem__) for perm in perms]
    return _signed_table(
        [itemgetter(*perm) for perm in perms], [itemgetter(*inv) for inv in inverses]
    )


def _perm_of_word(word: Word, getters: list) -> tuple[int, ...]:
    perm = _IDENTITY_PERM
    for getter in map(getters.__getitem__, word):
        perm = getter(perm)
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


def _matrix_of_word(word: Word, matrices: list) -> tuple[int, int, int, int]:
    """The product of the letters' 2x2 matrices ``(a, b, c, d)`` mod the trace modulus."""
    m = _TRACE_MODULUS
    a, b, c, d = 1, 0, 0, 1
    for e, f, g, h in map(matrices.__getitem__, word):
        a, b, c, d = (
            (a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m
        )
    return a, b, c, d


def _matrix_table(matrices: Sequence[tuple[int, int, int, int]]) -> list:
    m = _TRACE_MODULUS
    return _signed_table(matrices, [(d, -b % m, -c % m, a) for a, b, c, d in matrices])


def _through(values: list, factors: Sequence[Automorphism], table, evaluate) -> list:
    """Generator values of ``rho . f_1 . ... . f_m``, given those of ``rho``.

    ``table`` turns generator values into a signed-letter table and
    ``evaluate(word, table)`` evaluates a word on it.  Each factor's
    generator images are evaluated under the map so far, so no image of
    the composition is ever built.
    """
    for factor in factors:
        current = table(values)
        values = [evaluate(image, current) for image in factor.images]
    return values


def _within_budget(factors: Sequence[Automorphism], word: Word) -> Optional[Word]:
    """The cyclic reduction of ``factors`` applied to ``word``, or None past the budget.

    Each factor's output is bounded by ``letters_needed`` before it is
    built, so no word over ``LETTER_BUDGET`` is built.
    """
    for factor in reversed(factors):
        if letters_needed(factor, [word]) > LETTER_BUDGET:
            return None
        word, _ = cyclically_reduce(apply(factor, word))
    return word


def _is_rotation(u: Word, v: Word) -> bool:
    """Whether two cyclically reduced words spell the same conjugacy class."""
    if len(u) != len(v):
        return False
    return bytes(x + 64 for x in v) in bytes(x + 64 for x in u) * 2  # letters -26..26


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

    A class is periodic exactly when its root is, and exactly when its
    inverse is, so proper powers and the larger of a class and its inverse
    are counted as pruned and not checked.  A matching pair must agree on
    every conjugacy invariant, so three cheap necessary conditions discard
    the other classes before any long word is built: equal abelianization
    images; equal cycle types in ``quotient_samples`` random quotients to
    the symmetric group on 16 points; and equal traces in SL(2, Z/p) for
    two primes p near 2^61.  Each map ``rho . phi^j`` is tracked through
    the generator images of phi's factors, never on growing words.  The
    trace is a conjugacy invariant and F_k embeds in SL(2, Z) (Sanov 1947),
    so random generator matrices tell apart almost every pair that is not
    conjugate; the trace maps are set up only once some class gets that
    far.  A pair
    that passes every filter is compared exactly, building no word longer
    than ``LETTER_BUDGET`` letters; a class whose comparison would
    exceed it is listed under ``undecided`` with the power reached, its
    higher powers go unchecked, and ``ok`` is false.

    ``factors`` optionally presents ``phi`` as a right-to-left composition
    (for example individual twist powers), which keeps the exact word
    computations for surviving classes small by reducing after every
    factor; then ``phi`` may be ``None``, so that it need never be
    realized.  An empty ``factors``, or neither ``phi`` nor ``factors``,
    names no map to check and raises UsageError; maps over different bases
    raise BasisMismatch.  ``inverse_factors`` presents ``phi^-1`` likewise.
    It must pass two necessary checks, or UsageError is raised: the
    abelianizations of ``phi`` and of it multiply to the identity, and
    ``rho . phi . phi^-1 = rho`` on the generators in the first quotient
    sample.  They refute a wrong inverse; they do not prove a right one.
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
    given = [*factors, *(inverse_factors or ()), *([phi] if phi is not None else [])]
    if len({f.basis for f in given}) > 1:
        raise BasisMismatch("phi, its factors and its inverse factors use different bases")
    basis = factors[0].basis
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
    powers = range(lo_min, hi_max + 1)

    # Abelianization matrices of phi^j for every needed j.
    letters = list(range(1, rank + 1))
    identity = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    mat_up, mat_down = identity, identity
    for factor in forward:
        mat_up = _mat_mul(mat_up, _abelianization_matrix(factor.images, rank))
    for factor in backward:
        mat_down = _mat_mul(mat_down, _abelianization_matrix(factor.images, rank))
    if _mat_mul(mat_up, mat_down) != identity:
        raise UsageError("inverse factors do not invert phi on the abelianization")
    ab: dict[int, list[list[int]]] = {0: identity}
    for j in range(1, hi_max + 1):
        ab[j] = _mat_mul(mat_up, ab[j - 1])
    for j in range(-1, lo_min - 1, -1):
        ab[j] = _mat_mul(mat_down, ab[j + 1])

    def track(base: Sequence, table, evaluate) -> dict:
        """Generator values of rho . phi^j, j in ``powers``, from those of rho."""
        values = {0: list(base)}
        for j in range(1, hi_max + 1):
            values[j] = _through(values[j - 1], forward, table, evaluate)
        for j in range(-1, lo_min - 1, -1):
            values[j] = _through(values[j + 1], backward, table, evaluate)
        return values

    rng = _random.Random(seed)
    quotients = []  # per sample: {j: perm getters of rho . phi^j}
    for sample in range(quotient_samples):
        base = []
        for _ in range(rank):
            perm = list(range(_PERM_DEGREE))
            rng.shuffle(perm)
            base.append(tuple(perm))
        values = track(base, _perm_getters, _perm_of_word)
        if sample == 0 and _through(values[1], backward, _perm_getters, _perm_of_word) != base:
            raise UsageError("inverse factors do not invert phi in a permutation quotient")
        quotients.append({j: _perm_getters(v) for j, v in values.items()})

    traces: list = []  # {j: matrix table of rho . phi^j}, built on first use

    def trace_maps() -> dict:
        if not traces:
            # Generic matrices [[1, s], [0, 1]] [[1, 0], [t, 1]] [[1, u], [0, 1]].
            base = []
            for _ in range(rank):
                s, t, u = (rng.randrange(_TRACE_MODULUS) for _ in range(3))
                entries = (1 + s * t, (1 + s * t) * u + s, t, t * u + 1)
                base.append(tuple(x % _TRACE_MODULUS for x in entries))
            values = track(base, _matrix_table, _matrix_of_word)
            traces.append({j: _matrix_table(v) for j, v in values.items()})
        return traces[0]

    # Per abelianization vector, the (p, hi, lo) whose images of it agree.
    ab_passes: dict[tuple[int, ...], list] = {}
    inverse_letters = [-x for x in letters]
    # Rank of each signed letter, and of its inverse, in a < A < b < B < ...
    rank_of = _signed_table(range(0, 2 * rank, 2), range(1, 2 * rank, 2))
    inverse_rank_of = _signed_table(range(1, 2 * rank, 2), range(0, 2 * rank, 2))

    checked = 0
    pruned = 0
    filtered_exact = 0
    violation: Optional[dict] = None
    undecided: list[dict] = []
    for cyc in enumerate_cyclic_classes(rank, max_len):
        checked += 1
        word = cyc.letters
        # Classes come as least rotations; prune a proper power, and a class
        # whose inverse has a smaller rotation (one starting at its least
        # letter, which must not be below the class's first letter).
        if is_proper_power(cyc)[0]:
            pruned += 1
            continue
        inverse = tuple(map(inverse_rank_of.__getitem__, reversed(word)))
        least, first = min(inverse), rank_of[word[0]]
        if least < first:
            pruned += 1
            continue
        if least == first:
            n = len(word)
            ranks = tuple(map(rank_of.__getitem__, word))
            doubled = inverse * 2
            if any(doubled[i : i + n] < ranks for i in range(n) if inverse[i] == least):
                pruned += 1
                continue
        vector = tuple(map(sub, map(word.count, letters), map(word.count, inverse_letters)))
        passes = ab_passes.get(vector)
        if passes is None:
            image = {
                j: [sum(row[i] * vector[i] for i in range(rank)) for row in ab[j]]
                for j in powers
            }
            passes = ab_passes[vector] = [
                (p, hi, lo) for p, hi, lo in pairs if image[hi] == image[lo]
            ]
        if not passes:
            continue
        cycle_types: dict = {}

        def cycle_type(sample: int, j: int) -> tuple[int, ...]:
            if (sample, j) not in cycle_types:
                cycle_types[sample, j] = _cycle_type(_perm_of_word(word, quotients[sample][j]))
            return cycle_types[sample, j]

        exact: dict[int, Optional[Word]] = {0: word}

        def exact_image(j: int) -> Optional[Word]:
            if j not in exact:
                step = 1 if j > 0 else -1
                previous = exact_image(j - step)
                chain = forward if j > 0 else backward
                exact[j] = None if previous is None else _within_budget(chain, previous)
            return exact[j]

        for p, hi, lo in passes:
            if any(
                cycle_type(sample, hi) != cycle_type(sample, lo)
                for sample in range(quotient_samples)
            ):
                continue
            maps = trace_maps()
            upper, lower = _matrix_of_word(word, maps[hi]), _matrix_of_word(word, maps[lo])
            if (upper[0] + upper[3] - lower[0] - lower[3]) % _TRACE_MODULUS:
                continue  # traces differ
            filtered_exact += 1
            upper, lower = exact_image(hi), exact_image(lo)
            if upper is None or lower is None:
                undecided.append({"word": render_word(word, basis), "power": p})
                break
            if _is_rotation(upper, lower):
                violation = {"word": render_word(word, basis), "power": p}
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
        "undecided": undecided,
        "ok": violation is None and not undecided,
    }

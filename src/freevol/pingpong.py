"""Ping-pong certification of hyperbolic fully irreducible automorphisms.

``configure`` prepares a pair of cyclic splittings, with Dehn twists T1
and T2: the cross translation lengths l12 = l2(c1) and l21 = l1(c2) of
the edge words must be positive (else NotFillingEvidence), the constants
B, M and C come from ``twisting.constants``, within ``BCC_BUDGET``, the
pair's filling certificate from ``check_filling``, and the threshold N is
the least N >= 1 with N l - C >= 2(M + 1) for both l12 and l21.
``certify`` decides a twist word from its factors alone, never building
it: the filling verdict must be ``fills``, the word nonempty, and every
exponent at least N in absolute value, or the hypotheses are not met.  A
word of one factor is conjugate to a twist power.  A word of both twists
is certified fully irreducible and hyperbolic when its first and last
factors use different twists, and only nontrivial otherwise (the endpoint
rule).  ``realize`` spells the automorphism out on request, within
``LETTER_BUDGET``, and ``empirical_no_periodic_orbit`` samples short
conjugacy classes for a periodic orbit, as evidence that no verdict rests
on.

``volumes``, ``size`` and ``classify`` compare a subgroup's two free
volumes, the last against the exact rational ``SLACK`` with an exact tie
raising TieDetected; ``certify`` uses none of them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul, sub
from typing import Callable, Optional, Sequence

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
    count_cyclic_classes,
    cyclically_reduce,
    enumerate_cyclic_classes,
    enumerate_cyclic_classes_with,
    invert,
    is_proper_power,
    letter_rank,
    letters_needed,
    render_word,
)

SIDE_FIRST = "side1"
SIDE_SECOND = "side2"

SLACK = Fraction(2**40 + 1, 2**40)

# Word powers one orbit sample may check: reduced words times powers.
ORBIT_BUDGET = 10_000_000
# Symmetric-group samples one orbit sample may draw and track.
QUOTIENT_SAMPLE_BUDGET = 1_000

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
    filling or computing the bounded cancellation constants.  The constants
    come next, before ``check_filling``, so a pair over ``BCC_BUDGET``
    raises BudgetExceeded before any filling work.  Each direction of
    bounded cancellation is computed once per ordered pair of splittings
    and process (``twisting.bcc_between``); the filling check is not cached.
    """
    require_valid(pair.first)
    require_valid(pair.second)
    ell12, ell21 = _edge_lengths(pair)
    consts = twist_constants(pair.ambient_basis.rank - 1, pair.first, pair.second)
    filling = check_filling(pair)
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


_PERM_DEGREE = 16
_IDENTITY_PERM = bytes(range(_PERM_DEGREE))
#: Points per ``bytes.translate`` table, and so powers per packed permutation.
_PACKED_POWERS = 256 // _PERM_DEGREE
# Reads each point of a packed permutation as its place in its block.
_IN_BLOCK = bytes(i % _PERM_DEGREE for i in range(256))
# Maps the byte 0 to 0 and every other byte to 1.
_NONZERO = bytes(1) + bytes([1]) * 255
# Multiplying by it sums each block's bytes into the block's last byte.
_BLOCK_SUM = int.from_bytes(bytes([1]) * _PERM_DEGREE, "little")

#: The trace filter works in SL(2, Z/p) for each of these primes at once,
#: as SL(2, Z/m) with m their product (Chinese remainder theorem).
_TRACE_PRIMES = (2**61 - 1, 2**61 - 31)
_TRACE_MODULUS = _TRACE_PRIMES[0] * _TRACE_PRIMES[1]


def _signed_table(values: Sequence, inverses: Sequence) -> list:
    """A list indexed by signed letters: ``table[i]`` and ``table[-i]``."""
    return [None, *values, *reversed(inverses)]


def _perm_tables(perms: Sequence[bytes]) -> list:
    """Per signed letter, the ``bytes.translate`` table of its permutation.

    A permutation of 0 .. n - 1, n <= 256, is the bytes of its images, and
    translating ``q`` by the table of ``r`` gives ``r o q``.
    """
    inverses = [bytes(sorted(range(len(perm)), key=perm.__getitem__)) for perm in perms]
    return _signed_table(
        [perm.ljust(256, b"\0") for perm in perms], [inv.ljust(256, b"\0") for inv in inverses]
    )


def _perm_of_word(word: Word, tables: list, perm: bytes = _IDENTITY_PERM) -> bytes:
    """The product of the letters' permutations, the first letter outermost.

    The letters are read from the last, each translating the product so
    far; ``perm``, the identity on as many points as the tables move,
    starts it.
    """
    for table in map(tables.__getitem__, reversed(word)):
        perm = perm.translate(table)
    return perm


def _cycle_type(perm: Sequence[int]) -> tuple[int, ...]:
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


def _trace(matrix: tuple[int, int, int, int]) -> int:
    return (matrix[0] + matrix[3]) % _TRACE_MODULUS


def _letter_bytes(word: Word) -> bytes:
    """One byte per letter, so that bytes methods scan words at C speed."""
    return array("b", word).tobytes()  # letters -26..26; -i is the byte 256 - i


#: Per letter byte, the letter's ``letter_rank``; per rank, its inverse's.
_RANK_OF_BYTE = bytes(
    letter_rank(b - 256 * (b > 26)) if 0 < b <= 26 or b >= 230 else 0 for b in range(256)
)
_INVERSE_RANK = bytes(r ^ 1 for r in range(256))


def _inverse_precedes(word: Word) -> bool:
    """Whether some rotation of the inverse of a necklace precedes it in ``letter_rank`` order.

    A necklace starts with its least letter x.  Unless it also holds x^-1,
    the inverse's least letter is x^-1, which precedes x exactly when x is
    an inverse letter; only otherwise are the rotations compared.
    """
    first = word[0]
    if first < 0 or -first not in word:
        return first < 0
    n = len(word)
    ranks = _letter_bytes(word).translate(_RANK_OF_BYTE)
    doubled = ranks[::-1].translate(_INVERSE_RANK) * 2
    return min(map(doubled.__getitem__, map(slice, range(n), range(n, 2 * n)))) < ranks


def _vector_of_word(word: Word, vectors: list) -> tuple[int, ...]:
    """The image of ``word`` in Z^k, given the generators' vectors."""
    letters = _letter_bytes(word)
    sums = [letters.count(i) - letters.count(256 - i) for i in range(1, len(vectors) + 1)]
    return tuple(sum(map(mul, sums, row)) for row in zip(*vectors))


def _through(values: list, factors: Sequence[Automorphism], table, evaluate) -> list:
    """Generator values of ``rho . f_1 . ... . f_m``, given those of ``rho``.

    ``table`` turns generator values into the table that
    ``evaluate(word, table)`` reads to evaluate a word.  Each factor's
    generator images are evaluated under the map so far, so no image of
    the composition is ever built.
    """
    for factor in factors:
        current = table(values)
        values = [evaluate(image, current) for image in factor.images]
    return values


@dataclass
class _Quotient:
    """A map ``rho`` from F_k to a group, tracked along the powers of phi.

    ``base`` holds the generators' values under ``rho``, and ``table`` and
    ``evaluate`` are as in ``_through``.  ``forward`` and ``backward`` are
    the factors of phi and of its inverse, and ``powers`` the range of
    exponents ``j`` to track.  ``name`` says where a wrong inverse showed.
    """

    name: str
    base: list
    table: Callable
    evaluate: Callable
    forward: Sequence[Automorphism]
    backward: Sequence[Automorphism]
    powers: range

    @cached_property
    def values(self) -> dict[int, list]:
        """Generator values of ``rho . phi^j`` for each ``j`` in ``powers``."""
        values = {0: self.base}
        for j in range(1, self.powers.stop):
            values[j] = _through(values[j - 1], self.forward, self.table, self.evaluate)
        for j in range(-1, self.powers.start - 1, -1):
            values[j] = _through(values[j + 1], self.backward, self.table, self.evaluate)
        return values

    @cached_property
    def tables(self) -> dict[int, list]:
        """The ``table`` of ``rho . phi^j`` for each ``j`` in ``powers``."""
        return {j: self.table(values) for j, values in self.values.items()}

    def check_inverse(self) -> None:
        """Raise UsageError unless ``rho . phi . phi^-1 = rho`` on the generators."""
        if _through(self.values[1], self.backward, self.table, self.evaluate) != self.base:
            raise UsageError(f"inverse factors do not invert phi {self.name}")


def _moved_points(perms: bytes, identity: int) -> bytes:
    """Per block of 16 bytes of packed permutations, how many points it moves.

    ``identity`` is the identity on the same blocks, read as one
    little-endian int.  Exclusive or with it zeroes exactly the fixed
    points' bytes, every other byte becomes 1, and one product sums each
    block's bytes into its last byte, with no carry past a byte since a
    block holds at most 16 ones.
    """
    moved = (int.from_bytes(perms, "little") ^ identity).to_bytes(len(perms), "little")
    sums = int.from_bytes(moved.translate(_NONZERO), "little") * _BLOCK_SUM
    return sums.to_bytes(len(perms) + _PERM_DEGREE - 1, "little")[_PERM_DEGREE - 1 :: _PERM_DEGREE]


@dataclass
class _PermScreen:
    """A symmetric-group sample at every tracked power, in one packed permutation.

    Block b of a chunk, its points 16 b .. 16 b + 15, carries ``rho .
    phi^j`` for the chunk's b-th power j.  A 256-byte table holds 16
    blocks, so the tracked powers come in chunks of up to 16, and one
    ``bytes.translate`` chain per chunk evaluates a word at all of them.  A
    pair of powers survives when its two blocks have the same cycle type.
    Equal cycle types fix, and so move, equally many points under sigma
    and under sigma^2; those counts, read off the packed bytes for every
    block at once, screen the pairs first, and the cycle type is computed
    only for the blocks of pairs whose counts agree.
    """

    quotient: _Quotient

    @cached_property
    def chunks(self) -> list[tuple[list, bytes]]:
        """Per chunk of up to 16 powers, its letters' ``_perm_tables`` and its identity."""
        values = self.quotient.values
        powers = list(self.quotient.powers)
        chunks = []
        for start in range(0, len(powers), _PACKED_POWERS):
            run = powers[start : start + _PACKED_POWERS]
            # Generator i acts on block b as it does at the b-th power of the run.
            packed = [
                bytes(_PERM_DEGREE * b + x for b, j in enumerate(run) for x in values[j][i])
                for i in range(len(values[0]))
            ]
            chunks.append((_perm_tables(packed), bytes(range(_PERM_DEGREE * len(run)))))
        return chunks

    @cached_property
    def identities(self) -> int:
        """The identity on every block, twice over, as ``_moved_points`` reads it."""
        return int.from_bytes(b"".join(identity for _, identity in self.chunks) * 2, "little")

    def evaluate(self, word: Word) -> tuple[bytes, bytes]:
        """``word`` at every power, chunk after chunk, and the points each block moves.

        The counts come per block for sigma, then per block for sigma^2.
        """
        perm = square = b""
        for tables, identity in self.chunks:
            chunk = _perm_of_word(word, tables, identity)
            perm += chunk
            square += chunk.translate(chunk.ljust(256, b"\0"))
        return perm, _moved_points(perm + square, self.identities)

    def survivors(self, word: Word, live: list) -> list:
        """The pairs ``(p, hi, lo)`` of ``live`` whose powers give ``word`` one cycle type."""
        perm, moved = self.evaluate(word)
        first, blocks = self.quotient.powers.start, len(perm) // _PERM_DEGREE
        types: dict[int, tuple[int, ...]] = {}
        survivors = []
        for pair in live:
            _, hi, lo = pair
            h, l = hi - first, lo - first
            if moved[h] != moved[l] or moved[blocks + h] != moved[blocks + l]:
                continue
            for b in (h, l):
                if b not in types:
                    block = perm[_PERM_DEGREE * b : _PERM_DEGREE * (b + 1)]
                    types[b] = _cycle_type(block.translate(_IN_BLOCK))
            if types[h] == types[l]:
                survivors.append(pair)
        return survivors


@dataclass
class _TraceScreen:
    """The SL(2) map at every tracked power: a pair survives on equal traces."""

    quotient: _Quotient

    def survivors(self, word: Word, live: list) -> list:
        """The pairs ``(p, hi, lo)`` of ``live`` whose powers give ``word`` one trace."""
        tables = self.quotient.tables
        traces: dict[int, int] = {}
        survivors = []
        for pair in live:
            _, hi, lo = pair
            for j in (hi, lo):
                if j not in traces:
                    traces[j] = _trace(_matrix_of_word(word, tables[j]))
            if traces[hi] == traces[lo]:
                survivors.append(pair)
        return survivors


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


def _exact_image(
    exact: dict[int, Optional[Word]],
    j: int,
    forward: Sequence[Automorphism],
    backward: Sequence[Automorphism],
) -> Optional[Word]:
    """The class of ``exact[0]`` under phi^j, or None past the budget.

    ``exact`` holds the images found so far, keyed by power, and gets every
    image on the way from 0 to ``j``, each by ``_within_budget``.
    """
    if j not in exact:
        step = 1 if j > 0 else -1
        previous = _exact_image(exact, j - step, forward, backward)
        chain = forward if j > 0 else backward
        exact[j] = None if previous is None else _within_budget(chain, previous)
    return exact[j]


def _is_rotation(u: Word, v: Word) -> bool:
    """Whether two cyclically reduced words spell the same conjugacy class."""
    return len(u) == len(v) and _letter_bytes(v) in _letter_bytes(u) * 2


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
    sampling, not a proof.  Before any work, ``quotient_samples`` is
    checked against ``QUOTIENT_SAMPLE_BUDGET`` and the number of reduced
    words of length at most ``max_len`` times ``max_power`` against
    ``ORBIT_BUDGET``; past either BudgetExceeded is raised, naming the
    budget, before any sample is drawn.  A negative ``quotient_samples``
    raises UsageError.

    A class is periodic exactly when its root is, and exactly when its
    inverse is, so proper powers and the larger of a class and its inverse
    are counted as pruned and not checked.  The walk never yields the proper
    powers, nor a class whose least letter is an inverse letter x^-1: such a
    class holds no x, so its inverse has the smaller least letter.  Only a
    class that holds both x and x^-1 has its rotations compared with its
    inverse's.  A matching pair must agree on every conjugacy
    invariant, and three quotients ``rho`` of F_k give cheap ones: Z^k,
    ``quotient_samples`` random maps to the symmetric group on 16 points,
    and one random map to SL(2, Z/p) for two primes p near 2^61 at once.
    Each map ``rho . phi^j`` is tracked the same way, through the generator
    images of phi's factors (``_Quotient``), never on growing words.  The
    first invariant, equal images in Z^k, steers the enumeration: with
    ``A_j`` the abelianization of phi^j, a class whose exponent-sum vector
    ``v`` has ``(A_hi - A_lo) v != 0`` cannot match at that power.  Each
    power's matrix is packed into one integer linear form that vanishes
    exactly where the matrix does, and ``words.enumerate_cyclic_classes_with``
    walks the necklace tree by those forms: it skips every prefix whose
    vector is farther in l1 from all vectors where a form vanishes than its
    letters left, so classes that fail every power are never generated, and
    it yields each class with the indices of its vanishing forms, which are
    its candidate powers.  The other two are filters, run on the candidate
    powers before any long word is built: filter by filter, each keeps the
    pairs still in play whose two powers agree, on cycle types in each
    symmetric-group sample, then on traces in SL(2).  A sample evaluates a
    class at every tracked power at once, in one packed permutation
    (``_PermScreen``), and computes cycle types only for pairs whose
    powers move equally many points under sigma and sigma^2.  The
    trace is a conjugacy invariant and F_k embeds in SL(2, Z) (Sanov
    1947), so random generator matrices tell apart almost every pair that
    is not conjugate.  Every random map is drawn at the start, the SL(2)
    one right after the samples, but each filter after the first is
    tracked only once some class gets that far.  A pair that passes every
    filter is compared exactly, in order of p, building no word longer
    than ``LETTER_BUDGET`` letters; a class whose comparison would exceed
    it is listed under ``undecided`` with the power reached, its higher
    powers go unchecked, and ``ok`` is false.

    ``classes_checked`` counts every class up to the first violation, all
    of them when there is none, and ``classes_pruned`` those among them
    pruned as above.  With no violation both come from closed forms
    (``words.count_cyclic_classes``): no nontrivial class of a free group
    is conjugate to its inverse, so half the primitive classes are pruned.
    With a violation the classes up to it are walked and counted.

    ``factors`` optionally presents ``phi`` as a right-to-left composition
    (for example individual twist powers), which keeps the exact word
    computations for surviving classes small by reducing after every
    factor; then ``phi`` may be ``None``, so that it need never be
    realized.  An empty ``factors``, or neither ``phi`` nor ``factors``,
    names no map to check and raises UsageError; maps over different bases
    raise BasisMismatch.  ``inverse_factors`` presents ``phi^-1`` likewise.
    It must pass two necessary checks, or UsageError is raised naming the
    quotient: ``rho . phi . phi^-1 = rho`` on the generators, for ``rho``
    the abelianization and for the first filter's map, which is the first
    symmetric-group sample, or the SL(2) map when ``quotient_samples`` is
    0.  They refute a wrong inverse; they do not prove a right one.
    """
    import random as _random

    if max_power < 1 or max_len < 1 or quotient_samples < 0:
        raise UsageError(
            "orbit sample needs max_power and max_len of at least 1 and quotient_samples of "
            f"at least 0, got {max_power}, {max_len} and {quotient_samples}"
        )
    if quotient_samples > QUOTIENT_SAMPLE_BUDGET:
        raise BudgetExceeded(
            f"{quotient_samples} quotient samples are over QUOTIENT_SAMPLE_BUDGET, "
            f"the budget of {QUOTIENT_SAMPLE_BUDGET} samples"
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
    reduced_words = 0
    for length in range(max_len):
        reduced_words += 2 * rank * (2 * rank - 1) ** length
        if reduced_words * max_power > ORBIT_BUDGET:
            raise BudgetExceeded(
                f"the orbit sample of powers up to {max_power} of the reduced words of length "
                f"at most {max_len} is over the budget of {ORBIT_BUDGET} word powers"
            )
    if inverse_factors is None:
        inverse_factors = [invert(f) for f in reversed(factors)]
    forward = list(factors)
    backward = list(inverse_factors)

    pairs = []  # (p, hi, lo) with hi - lo = p
    for p in range(1, max_power + 1):
        pairs.append((p, -(-p // 2), -(p // 2)))
    powers = range(min(lo for _, _, lo in pairs), max(hi for _, hi, _ in pairs) + 1)

    def tracked(name: str, base: list, table: Callable, evaluate: Callable) -> _Quotient:
        return _Quotient(name, base, table, evaluate, forward, backward, powers)

    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    abelianization = tracked("on the abelianization", units, list, _vector_of_word)
    abelianization.check_inverse()
    ab = abelianization.values  # ab[j][i] is the image of generator i under phi^j

    # Each filter screens pairs by a conjugacy invariant in a quotient: the
    # symmetric-group samples in order, then SL(2, Z/m).
    rng = _random.Random(seed)
    filters: list[_PermScreen | _TraceScreen] = []
    for _ in range(quotient_samples):
        base = []
        for _ in range(rank):
            perm = list(range(_PERM_DEGREE))
            rng.shuffle(perm)
            base.append(bytes(perm))
        quotient = tracked("in a permutation quotient", base, _perm_tables, _perm_of_word)
        filters.append(_PermScreen(quotient))
    # Generic matrices [[1, s], [0, 1]] [[1, 0], [t, 1]] [[1, u], [0, 1]].
    base = []
    for _ in range(rank):
        s, t, u = (rng.randrange(_TRACE_MODULUS) for _ in range(3))
        entries = (1 + s * t, (1 + s * t) * u + s, t, t * u + 1)
        base.append(tuple(x % _TRACE_MODULUS for x in entries))
    filters.append(_TraceScreen(tracked("in SL(2) over Z/m", base, _matrix_table, _matrix_of_word)))
    filters[0].quotient.check_inverse()  # before any class is enumerated

    # The images of a vector v under phi^hi and phi^lo agree exactly when
    # D v = 0 for D = ab[hi] - ab[lo].  Packing each column of D into one
    # int, in a base past twice any entry of D v, makes that one linear form
    # with one coefficient per generator, which vanishes exactly where D does.
    forms = []
    for _, hi, lo in pairs:
        difference = [list(map(sub, upper, lower)) for upper, lower in zip(ab[hi], ab[lo])]
        radix = 2 * max_len * max(abs(x) for column in difference for x in column) + 1
        forms.append([sum(x * radix**i for i, x in enumerate(column)) for column in difference])

    filtered_exact = 0
    violation: Optional[dict] = None
    undecided: list[dict] = []
    for cyc, vanishing in enumerate_cyclic_classes_with(rank, max_len, forms):
        word = cyc.letters
        # The walk yields only primitive classes led by a generator; prune a
        # class that some rotation of its inverse precedes.
        if _inverse_precedes(word):
            continue
        live = list(map(pairs.__getitem__, vanishing))
        for screen in filters:
            live = screen.survivors(word, live)
            if not live:
                break
        exact: dict[int, Optional[Word]] = {0: word}
        for p, hi, lo in live:
            filtered_exact += 1
            upper = _exact_image(exact, hi, forward, backward)
            lower = _exact_image(exact, lo, forward, backward)
            if upper is None or lower is None:
                undecided.append({"word": render_word(word, basis), "power": p})
                break
            if _is_rotation(upper, lower):
                violation = {"word": render_word(word, basis), "power": p}
                break
        if violation is not None:
            break
    if violation is None:
        # Every class was checked.  No nontrivial class of a free group is
        # conjugate to its inverse, so half the primitive ones are kept.
        checked, primitive = count_cyclic_classes(rank, max_len)
        pruned = checked - primitive // 2
    else:
        checked = pruned = 0
        for cyc in enumerate_cyclic_classes(rank, max_len):
            checked += 1
            pruned += is_proper_power(cyc)[0] or _inverse_precedes(cyc.letters)
            if cyc.letters == word:  # the violating class
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

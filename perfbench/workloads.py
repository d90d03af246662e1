"""The four workloads: seeded inputs, the timed ops, and their checks.

Each workload's ``build(seed, rounds, workdir)`` makes every input from the
seed (setup), and returns a ``Plan``: the ops to time, in order, and a
``check`` that turns the ops' compact records into one verdict per op.
Ops call only public entry points, looked up on their module at call time
so that the traced run sees them: library functions, and
``freevol.cli.main(argv)`` with standard output captured.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from freevol import cli, filling, pingpong, splittings, twisting
from freevol.splittings import AMALGAM, HNN, CyclicSplitting, MarkedPair
from freevol.words import (
    Automorphism,
    Basis,
    CyclicWord,
    apply,
    compose,
    invert,
    is_proper_power,
    parse_word,
    power,
    reduce_word,
)

import checks

B3 = Basis.standard(3)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    digest: Callable[[Any], dict]
    # The known fault this op exposes; it counts as failed until mended.
    fault: Optional[str] = None


@dataclass
class Plan:
    ops: list[Op]
    # records -> (one reason or None per op, run-level problems)
    check: Callable[[list[dict]], tuple[list[Optional[str]], list[str]]]


# ---------------------------------------------------------------------------
# Inputs shared by several workloads


def _word(rng: random.Random, letters: list[int], length: int, cyclic: bool = True) -> tuple:
    """A uniformly random reduced (and, if asked, cyclically reduced) word."""
    while True:
        out: list[int] = []
        while len(out) < length:
            x = rng.choice(letters)
            if not out or x != -out[-1]:
                out.append(x)
        if not cyclic or length < 2 or out[0] != -out[-1]:
            return tuple(out)


def _signed(indices) -> list[int]:
    return [x for i in indices for x in (i, -i)]


def _hnn_over_ab(relative_basis) -> CyclicSplitting:
    return CyclicSplitting(HNN, B3, tuple(relative_basis), (1, 2), (1, 2), stable_index=3)


def _cycling() -> Automorphism:
    """a -> b -> c -> ab."""
    return Automorphism(B3, ((2,), (3,), (1, 2)))


def amalgam_pair() -> MarkedPair:
    """F3 = <a, c> *_c <c, b>, against its pullback under the cycling map."""
    base = CyclicSplitting(AMALGAM, B3, ((1,), (3,), (2,)), (1, 2), (2,), b0_part=(3,))
    return MarkedPair(base, splittings.transform(base, _cycling()))


def filling_pairs() -> list[tuple[str, MarkedPair]]:
    """The HNN splitting over ab against (a c^p, b c^q, c), p = -q = +-1.

    Right multiplication by c^p, c^q and left multiplication both give a
    filling pair; these four are the ones whose bounded cancellation the
    library finishes.
    """
    first = _hnn_over_ab(((1,), (2,), (3,)))
    pairs = []
    for p in (1, -1):
        cp, cq = ((3,), (-3,)) if p > 0 else ((-3,), (3,))
        pairs.append((f"right{p:+d}", MarkedPair(first, _hnn_over_ab(((1,) + cp, (2,) + cq, (3,))))))
        pairs.append((f"left{p:+d}", MarkedPair(first, _hnn_over_ab((cp + (1,), cq + (2,), (3,))))))
    return pairs


def commutator_pair(exponent: int) -> MarkedPair:
    """HNN over [a, b] with stable letter c, against its pullback under cycling^exponent."""
    base = CyclicSplitting(HNN, B3, ((1,), (2,), (3,)), (1, 2), (1, 2, -1, -2), stable_index=3)
    return MarkedPair(base, splittings.transform(base, power(_cycling(), exponent)))


def cli_request(argv: list[str]) -> tuple[int, str]:
    """``freevol.cli.main(argv)`` in-process, with its stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_digest(result: tuple[int, str], drop: tuple[str, ...] = ()) -> dict:
    code, text = result
    try:
        payload = json.loads(text) if text else None
    except json.JSONDecodeError:
        payload = None
    for key in drop:
        if payload is not None:
            payload.pop(key, None)
    return {"exit_code": code, "payload": payload, "output_kb": len(text) / 1024.0}


def write_pair(path: Path, pair: MarkedPair) -> str:
    path.write_text(json.dumps(cli.pair_to_json(pair)))
    return str(path)


def oracle_length(splitting, word) -> int:
    import oracles  # test code: imported by the checks, never during setup

    return oracles.translation_length(splitting, word)


# ---------------------------------------------------------------------------
# twist_growth

TWIST_POWERS = (16, 32, 64, 128)
# Per round and pair: (cyclic subgroups, rank-2 families) at each power.  A
# rank-2 family is three ops: the generators, a simultaneous conjugate, and
# the Nielsen change (g1, g2) -> (g1, g1 g2).  Per round, 19 ops are cheaper
# than the twelve cyclic ops at n = 64 and 20 dearer, so the median op sits
# in the middle of that cluster.
TWIST_MIX = {16: (4, 1), 32: (2, 1), 64: (6, 1), 128: (1, 1)}
CYCLIC_LENGTH, CYCLIC_TWISTED = 8, 2
RANK2_LENGTH, RANK2_TWISTED = 5, 1
CONJUGATOR_LENGTH = 3
# Fold shapes, see fold_shape: the most common shape of each kind.  Holding
# the shape fixed makes an op's cost depend on its power, not on the seed.
CYCLIC_SHAPE = ((2, 0),)
FAMILY_SHAPE = ((2, 0), (2, 0), (3, 2))
SHAPE_POWER = 128
# The rank-2 generators, per pair, made by families.py.
FAMILY_POOL_PATH = Path(__file__).resolve().parent / "twist_families.json"


def twist_pairs() -> list[MarkedPair]:
    """The amalgam pair and the first HNN filling pair."""
    return [amalgam_pair(), filling_pairs()[0][1]]


def _twisted_letter(splitting: CyclicSplitting) -> int:
    return splitting.b0_part[0] if splitting.kind == AMALGAM else splitting.stable_index


def fixed_letters(splitting: CyclicSplitting) -> list[int]:
    """The relative letters, with inverses, that the splitting's twist fixes."""
    return _signed(i for i in range(1, splitting.rank + 1) if i != _twisted_letter(splitting))


def all_words_in(letters: list[int], length: int) -> list[tuple]:
    """Every reduced word of the given length in ``letters``."""
    words = [()]
    for _ in range(length):
        words = [w + (x,) for w in words for x in letters if not w or x != -w[-1]]
    return words


def relative_word(rng, splitting, length: int, twisted: int) -> tuple:
    """A cyclically reduced relative word with exactly ``twisted`` twisted letters."""
    t = _twisted_letter(splitting)
    letters = _signed(range(1, splitting.rank + 1))
    while True:
        word = _word(rng, letters, length)
        if sum(1 for x in word if abs(x) == t) == twisted:
            return word


def nielsen_change(gens: list) -> list:
    return [gens[0], reduce_word(gens[0] + gens[1])]


def _common_prefix(u: tuple, v: tuple) -> int:
    k = 0
    while k < len(u) and k < len(v) and u[k] == v[k]:
        k += 1
    return k


def fold_shape(pair: MarkedPair, to_second: Automorphism, gens: list) -> tuple:
    """How much folding the twisted generators need in the second splitting.

    Twists the generators by the closed form at SHAPE_POWER = n, rewrites
    them in the second splitting's coordinates, and returns their total
    length in units of 4n and the summed common prefixes of the words and
    their inverses (what folding at the basepoint merges) in units of 2n,
    both rounded.  The folding cost of an op follows these two numbers.
    """
    n = SHAPE_POWER
    words = [apply(to_second, checks.twist_closed_form(pair.first, n, g)) for g in gens]
    ends = [w for word in words for w in (word, tuple(-x for x in reversed(word)))]
    shared = sum(
        _common_prefix(ends[i], ends[j]) for i in range(len(ends)) for j in range(i + 1, len(ends))
    )
    return (round(sum(map(len, words)) / (4 * n)), round(shared / (2 * n)))


FAULT_VOLUME = "free_volume not invariant under the splitting's own twist"
# A malnormal subgroup of the HNN filling pair on which the fault shows:
# free volume 3 in the first splitting, 2 after one twist, and the lower
# growth bound fails from n = 64 on.
FAULT_VOLUME_GENS = ((-2, -1, -2, -3, -1), (1, 2, -1, 2, 3))
FAULT_VOLUME_POWER = 64


def build_twist_growth(seed: int, rounds: int, workdir: Path) -> Plan:
    pairs = twist_pairs()
    bounds = [twisting.constants(2, pair.first, pair.second) for pair in pairs]
    # Each pair's families in a seeded order; a run takes them one after
    # another, so no family repeats in a run of up to 60 s.
    stored = json.loads(FAMILY_POOL_PATH.read_text())
    order_rng = random.Random(f"twist_growth:{seed}:families")
    pools = []
    for index, pair in enumerate(pairs):
        pool = [[parse_word(text, pair.first.ambient_basis) for text in entry] for entry in stored[str(index)]]
        order_rng.shuffle(pool)
        pools.append(pool)
    # One entry per op: kind ("cyclic", "family" or "fault"), pair index,
    # generators, power, and for a family op the family's number.
    specs: list[dict] = []
    families = 0
    taken = [0] * len(pairs)
    for r in range(rounds):
        rng = random.Random(f"twist_growth:{seed}:{r}")
        round_specs: list[dict] = []
        for index, pair in enumerate(pairs):
            s1 = pair.first
            to_second = invert(pair.second.relative_automorphism())
            fixed = fixed_letters(s1)
            for n in TWIST_POWERS:
                cyclic_count, family_count = TWIST_MIX[n]
                for _ in range(cyclic_count):
                    while True:
                        g = splittings.from_relative(s1, relative_word(rng, s1, CYCLIC_LENGTH, CYCLIC_TWISTED))
                        if (fold_shape(pair, to_second, [g]),) == CYCLIC_SHAPE:
                            break
                    round_specs.append({"kind": "cyclic", "pair": index, "gens": [g], "n": n})
                for _ in range(family_count):
                    gens = pools[index][taken[index] % len(pools[index])]
                    taken[index] += 1
                    # Conjugating by fixed letters keeps the twisted length.
                    while True:
                        h = splittings.from_relative(s1, _word(rng, fixed, CONJUGATOR_LENGTH, cyclic=False))
                        h_inv = tuple(-x for x in reversed(h))
                        conjugate = [reduce_word(h + g + h_inv) for g in gens]
                        if fold_shape(pair, to_second, conjugate) == FAMILY_SHAPE[1]:
                            break
                    families += 1
                    for variant in (gens, conjugate, nielsen_change(gens)):
                        round_specs.append(
                            {"kind": "family", "pair": index, "gens": variant, "n": n, "family": families}
                        )
        round_specs.append(
            {"kind": "fault", "pair": 1, "gens": list(FAULT_VOLUME_GENS), "n": FAULT_VOLUME_POWER}
        )
        # Spread each kind of op over the run, so that a slow spell of the
        # machine does not land on all ops of one kind.
        rng.shuffle(round_specs)
        specs += round_specs

    def growth_op(spec: dict) -> Op:
        pair, bound, gens, n = pairs[spec["pair"]], bounds[spec["pair"]], spec["gens"], spec["n"]
        return Op(
            label=f"{spec['kind']} {pair.first.kind} n={n} rank={len(gens)}",
            run=lambda: twisting.check_volume_growth_bounds(
                pair.first, pair.second, gens, n, bound, rank_bound=2
            ),
            digest=lambda result: {
                "all_ok": result["all_ok"],
                "vol1": result["vol1"],
                "vol2": result["vol2"],
                "observed_plus": result["bounds"][f"twist_power_{n}"]["observed"],
                "observed_minus": result["bounds"][f"twist_power_{-n}"]["observed"],
            },
            fault=FAULT_VOLUME if spec["kind"] == "fault" else None,
        )

    ops = [growth_op(spec) for spec in specs]
    members: dict[int, list[int]] = {}
    for index, spec in enumerate(specs):
        if spec["kind"] == "family":
            members.setdefault(spec["family"], []).append(index)

    def check(records: list[dict]) -> tuple[list[Optional[str]], list[str]]:
        reasons: list[Optional[str]] = []
        for index, (spec, record) in enumerate(zip(specs, records)):
            pair, gens, n = pairs[spec["pair"]], spec["gens"], spec["n"]
            if record.get("raised"):
                reasons.append(f"raised {record['raised']}")
            elif spec["kind"] == "cyclic":
                (g,) = gens
                expected = {
                    "vol1": oracle_length(pair.first, g),
                    "vol2": oracle_length(pair.second, g),
                    "observed_plus": oracle_length(pair.second, checks.twist_closed_form(pair.first, n, g)),
                    "observed_minus": oracle_length(pair.second, checks.twist_closed_form(pair.first, -n, g)),
                }
                reasons.append(checks.check_cyclic_growth(record, expected))
            elif spec["kind"] == "fault":
                reasons.append(None if record["all_ok"] else "growth bounds violated")
            else:
                # Compare with another op of the same family.
                family = members[spec["family"]]
                other = records[family[1] if index == family[0] else family[0]]
                if other.get("raised"):
                    reasons.append("an op on an equal subgroup raised")
                else:
                    reasons.append(checks.check_sibling_growth(record, other))
        return reasons, []

    return Plan(ops, check)


# ---------------------------------------------------------------------------
# certify_cli

FAULT_NONFILLING = "certify of a non-filling pair (ROADMAP item 1)"
FAULT_BUDGET = "CancellationBudgetExceeded out of cli.main (ROADMAP item 2)"


def _twist_words(rng: random.Random) -> list[str]:
    """2-, 3- and 4-factor words at N, one single factor, one below threshold.

    The 4-factor word starts with the first twist: its realization is the
    largest output of the workload, and its size (and so peak memory)
    depends mostly on which twist comes first.
    """

    def alternating(count: int, exponent: Callable[[], str], start: Optional[int] = None) -> str:
        start = start or rng.choice((1, 2))
        ids = [start if i % 2 == 0 else 3 - start for i in range(count)]
        return " ".join(f"{tid}:{rng.choice('+-')}{exponent()}" for tid in ids)

    at_n = lambda: "N"  # noqa: E731
    return [
        alternating(2, at_n),
        alternating(3, at_n),
        alternating(4, at_n, start=1),
        alternating(1, at_n),
        alternating(2, lambda: str(rng.randint(1, 5))),
    ]


# Longest words in the exhaustive cancellation search (6 * 5^(L-1) words of
# length L in F3, every reduced pair of them).
CANCELLATION_MAX_LEN = 3


def _pair_facts(pair: MarkedPair) -> dict:
    """Filling status, oracle cross lengths and exhaustive cancellation of a pair."""
    import oracles  # test code: imported by the checks, never during setup

    c1 = pair.first.edge_word_ambient()
    c2 = pair.second.edge_word_ambient()
    ell12 = oracle_length(pair.second, c1)
    ell21 = oracle_length(pair.first, c2)
    # A class elliptic in both splittings rules out filling.
    letters = _signed(range(1, pair.ambient_basis.rank + 1))
    short = [w for n in (1, 2) for w in all_words_in(letters, n)]
    common_elliptic = [
        w for w in short if oracle_length(pair.first, w) == 0 and oracle_length(pair.second, w) == 0
    ]
    fills = (
        ell12 > 0
        and ell21 > 0
        and not common_elliptic
        and filling.check_filling(pair).verdict == "fills"
    )
    sigma1 = pair.first.relative_automorphism()
    sigma2 = pair.second.relative_automorphism()
    # |nu(w)| + |nu(v)| - |nu(wv)| is twice the one-sided cancellation.
    cancellation = 2 * max(
        oracles.max_cancellation(compose(invert(sigma2), sigma1), CANCELLATION_MAX_LEN),
        oracles.max_cancellation(compose(invert(sigma1), sigma2), CANCELLATION_MAX_LEN),
    )
    return {"ell12": ell12, "ell21": ell21, "fills": fills, "cancellation": cancellation}


def build_certify_cli(seed: int, rounds: int, workdir: Path) -> Plan:
    # (name, pair, named fault, whether it gets all five words per round):
    # the pairs that end in a refusal or a fault get only the 2-factor word.
    pairs = [(name, pair, None, True) for name, pair in filling_pairs()]
    pairs += [
        ("amalgam", amalgam_pair(), None, False),
        ("commutator1", commutator_pair(1), FAULT_NONFILLING, False),
        ("commutator4", commutator_pair(4), FAULT_BUDGET, False),
    ]
    files = {name: write_pair(workdir / f"pair-{name}.json", pair) for name, pair, _, _ in pairs}
    requests: list[tuple[str, MarkedPair, str, Optional[str]]] = []
    for r in range(rounds):
        rng = random.Random(f"certify_cli:{seed}:{r}")
        # Unlike the other workloads, the order stays fixed: the peak memory
        # depends on which large outputs and failures follow one another.
        for name, pair, fault, all_words in pairs:
            words = _twist_words(rng)
            for word in words if all_words else words[:1]:
                requests.append((name, pair, word, fault))
    ops = [
        Op(
            label=f"pingpong {name} {word!r}",
            run=lambda path=files[name], word=word: cli_request(["pingpong", "--pair", path, word, "--json"]),
            digest=lambda result: cli_digest(result, drop=("automorphism",)),
            fault=fault,
        )
        for name, pair, word, fault in requests
    ]

    def check(records: list[dict]) -> tuple[list[Optional[str]], list[str]]:
        facts = {name: _pair_facts(pair) for name, pair, _, _ in pairs}
        reasons = [
            checks.check_certify(record, facts[name], word)
            for (name, _, word, _), record in zip(requests, records)
        ]
        return reasons, []

    return Plan(ops, check)


# ---------------------------------------------------------------------------
# orbit_sample

ORBIT_MAX_LEN, ORBIT_MAX_POWER = 7, 4
# Twist exponents at or above the threshold configure reports on the four
# filling pairs (15), so setup needs no bounded-cancellation constant.
ORBIT_EXPONENTS = (15, 16, 17, 18)
ORBIT_WORDS_PER_PAIR = 2
# Symmetric-group quotients that must fail to tell phi^p(g) from g before
# the exact comparison builds the long words.  With the library's default
# of 4, about one op in 160 let a class through on some seeds, and its
# exact comparison took 16 s and 1.2 GB (see CHANGES.md).
ORBIT_QUOTIENT_SAMPLES = 8


def build_orbit_sample(seed: int, rounds: int, workdir: Path) -> Plan:
    pairs = filling_pairs()
    ops: list[Op] = []
    for r in range(rounds):
        rng = random.Random(f"orbit_sample:{seed}:{r}")
        for name, pair in pairs:
            for _ in range(ORBIT_WORDS_PER_PAIR):
                start = rng.choice((1, 2))
                factors = [
                    (tid, rng.choice((1, -1)) * rng.choice(ORBIT_EXPONENTS))
                    for tid in (start, 3 - start)
                ]
                split = {1: pair.first, 2: pair.second}
                forward = [splittings.dehn_twist(split[tid], exp) for tid, exp in factors]
                backward = [splittings.dehn_twist(split[tid], -exp) for tid, exp in reversed(factors)]
                phi = compose(forward[0], forward[1])
                quotient_seed = rng.randrange(1 << 30)
                ops.append(
                    Op(
                        label=f"orbit {name} {factors}",
                        run=lambda phi=phi, forward=forward, backward=backward, qs=quotient_seed: (
                            pingpong.empirical_no_periodic_orbit(
                                phi,
                                max_len=ORBIT_MAX_LEN,
                                max_power=ORBIT_MAX_POWER,
                                factors=forward,
                                inverse_factors=backward,
                                quotient_samples=ORBIT_QUOTIENT_SAMPLES,
                                seed=qs,
                            )
                        ),
                        digest=lambda result: dict(result),
                    )
                )

    def check(records: list[dict]) -> tuple[list[Optional[str]], list[str]]:
        reasons = [
            f"raised {record['raised']}" if record.get("raised") else checks.check_orbit(record, 3, ORBIT_MAX_LEN)
            for record in records
        ]
        # The sampler must see a periodic class when there is one: a bare
        # twist fixes its vertex-group letters at power 1.
        bare = pingpong.empirical_no_periodic_orbit(
            splittings.dehn_twist(pairs[0][1].first), max_len=2, max_power=1
        )
        problems = []
        if bare["ok"] or bare["violation"]["power"] != 1:
            problems.append(f"bare twist reported {bare['violation']}")
        return reasons, problems

    return Plan(ops, check)


# ---------------------------------------------------------------------------
# fill_whitehead

# Per round: op pairs (a pair, and the same pair moved by one automorphism)
# at each rank.  Rank 3 uses general random automorphisms, so the number of
# descent steps varies.  From RELABEL_FROM_RANK up, the edge word is
# Whitehead-minimal and the automorphisms are relabelings, so the edge
# classes stay minimal and each op costs exactly one sweep of
# 2k * 2^(2k-2) Whitehead moves whatever the seed.  As many ops are cheaper
# than rank 5 as dearer, so the median op is a rank-5 op from the middle of
# that cluster.
FILL_MIX = {3: 2, 4: 2, 5: 6, 6: 4}
RELABEL_FROM_RANK = 4


def _whitehead_automorphism(rng: random.Random, rank: int) -> Automorphism:
    """x -> a^-e x a^f for x on a random side, with a a random letter."""
    a = rng.choice(_signed(range(1, rank + 1)))
    images = []
    for x in range(1, rank + 1):
        if x == abs(a):
            images.append((x,))
            continue
        left = rng.random() < 0.5
        right = rng.random() < 0.5
        images.append(reduce_word(((-a,) if left else ()) + (x,) + ((a,) if right else ())))
    return Automorphism(Basis.standard(rank), tuple(images))


def _relabeling(rng: random.Random, rank: int) -> Automorphism:
    """A random signed permutation of the letters, followed by a conjugation."""
    perm = list(range(1, rank + 1))
    rng.shuffle(perm)
    h = _word(rng, _signed(range(1, rank + 1)), 2, cyclic=False)
    h_inv = tuple(-x for x in reversed(h))
    return Automorphism(
        Basis.standard(rank),
        tuple(reduce_word(h + (rng.choice((1, -1)) * p,) + h_inv) for p in perm),
    )


def _whitehead_minimal(word: tuple, letters: list[int]) -> bool:
    """Whether no Whitehead automorphism of <letters> shortens the cyclic word.

    The automorphism (a, Z), with a in Z and a^-1 outside, changes the
    length by cap(Z) - deg(a) on the Whitehead graph (Whitehead 1936), so
    the word is minimal when every such cut has capacity at least deg(a).
    Minimal in a free factor means minimal in the whole group.
    """
    edges = [(-x, word[(i + 1) % len(word)]) for i, x in enumerate(word)]
    vertices = _signed(letters)
    for a in vertices:
        degree = sum((u == a) + (v == a) for u, v in edges)
        others = [v for v in vertices if v not in (a, -a)]
        for mask in range(1 << len(others)):
            side = {a} | {v for i, v in enumerate(others) if mask >> i & 1}
            if sum((u in side) != (v in side) for u, v in edges) < degree:
                return False
    return True


def _hnn_splitting(rng: random.Random, rank: int) -> CyclicSplitting:
    basis = Basis.standard(rank)
    vertex_letters = list(range(1, rank))
    while True:
        edge = _word(rng, _signed(vertex_letters), 2 * rank)
        if is_proper_power(CyclicWord.of(edge))[0]:
            continue
        if rank < RELABEL_FROM_RANK or _whitehead_minimal(edge, vertex_letters):
            return CyclicSplitting(
                HNN, basis, tuple((i,) for i in range(1, rank + 1)), tuple(vertex_letters), edge, stable_index=rank
            )


def build_fill_whitehead(seed: int, rounds: int, workdir: Path) -> Plan:
    # One entry per op: rank, pair file, total cyclic length of the two edge
    # classes, and the index of the op pair it belongs to.
    specs: list[dict] = []
    for r in range(rounds):
        rng = random.Random(f"fill_whitehead:{seed}:{r}")
        round_specs: list[dict] = []
        for rank, count in FILL_MIX.items():
            move = _whitehead_move_pair if rank < RELABEL_FROM_RANK else _relabeling
            for i in range(count):
                base = _hnn_splitting(rng, rank)
                pair = MarkedPair(base, splittings.transform(base, move(rng, rank)))
                psi = move(rng, rank)
                moved = MarkedPair(splittings.transform(pair.first, psi), splittings.transform(pair.second, psi))
                for tag, p in (("a", pair), ("b", moved)):
                    round_specs.append(
                        {
                            "rank": rank,
                            "path": write_pair(workdir / f"fill-{r}-{rank}-{i}{tag}.json", p),
                            "length": sum(checks.cyclic_length(s.edge_word_ambient()) for s in (p.first, p.second)),
                            "group": f"{r}-{rank}-{i}",
                        }
                    )
        # Spread each rank over the run, so that a slow spell of the machine
        # does not land on all ops of one rank.
        rng.shuffle(round_specs)
        specs += round_specs
    ops = [
        Op(
            label=f"fill rank={spec['rank']}",
            run=lambda path=spec["path"]: cli_request(["fill", "--pair", path, "--json"]),
            digest=cli_digest,
        )
        for spec in specs
    ]
    members: dict[str, list[int]] = {}
    for index, spec in enumerate(specs):
        members.setdefault(spec["group"], []).append(index)

    def check(records: list[dict]) -> tuple[list[Optional[str]], list[str]]:
        reasons: list[Optional[str]] = []
        for index, (spec, record) in enumerate(zip(specs, records)):
            reason = checks.check_fill(record, spec["rank"], spec["length"])
            if reason is None:
                group = members[spec["group"]]
                partner = records[group[1] if index == group[0] else group[0]]
                reason = checks.check_fill_partner(record, partner)
            reasons.append(reason)
        return reasons, []

    return Plan(ops, check)


def _whitehead_move_pair(rng: random.Random, rank: int) -> Automorphism:
    return compose(_whitehead_automorphism(rng, rank), _whitehead_automorphism(rng, rank))


WORKLOADS = {
    "twist_growth": build_twist_growth,
    "certify_cli": build_certify_cli,
    "orbit_sample": build_orbit_sample,
    "fill_whitehead": build_fill_whitehead,
}

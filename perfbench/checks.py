"""Checks of each op's output against separate computations.

Every check takes the op's compact output record (and the facts it needs)
and returns ``None`` when the output is right, or a one-line reason.  None
of them compares against a stored copy of earlier output: each expected
value comes from a closed form, from the normal-form oracle in
``tests/oracles.py``, from a property the method must have, or from a
sibling op on an equivalent input.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence

from freevol.words import Automorphism, Basis, Word, apply, cyclically_reduce, invert, parse_word, reduce_word

EXIT_OK, EXIT_FALSE, EXIT_UNKNOWN, EXIT_HYPOTHESES = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# twist_growth


def twist_closed_form(splitting, exponent: int, word: Word) -> Word:
    """The image of ``word`` under the splitting's twist to the given power.

    In relative coordinates the twist power is a closed form: an amalgam
    conjugates each B0 letter by ``c^n``, an HNN extension left-multiplies
    the stable letter by ``c^n``; everything else is fixed.
    """
    sigma = Automorphism(splitting.ambient_basis, splitting.relative_basis)
    relative = apply(invert(sigma), word)
    c = tuple(splitting.edge_word)
    c_inv = tuple(-x for x in reversed(c))
    c_n = c * exponent if exponent >= 0 else c_inv * -exponent
    c_n_inv = tuple(-x for x in reversed(c_n))
    out: list[int] = []
    for letter in relative:
        x = abs(letter)
        if splitting.kind == "amalgam" and x in splitting.b0_part:
            image = c_n + (x,) + c_n_inv
        elif splitting.kind == "hnn" and x == splitting.stable_index:
            image = c_n + (x,)
        else:
            image = (x,)
        if letter < 0:
            image = tuple(-y for y in reversed(image))
        out.extend(image)
    return apply(sigma, reduce_word(out))


def check_cyclic_growth(record: dict, expected: dict) -> Optional[str]:
    """A cyclic subgroup: every volume equals the oracle's translation length."""
    if not record["all_ok"]:
        return "growth bounds violated"
    for key in ("vol1", "vol2", "observed_plus", "observed_minus"):
        if record[key] != expected[key]:
            return f"{key} = {record[key]}, oracle gives {expected[key]}"
    return None


def check_sibling_growth(record: dict, reference: dict) -> Optional[str]:
    """A rank-2 subgroup given by other generators: volumes must not change."""
    if not record["all_ok"]:
        return "growth bounds violated"
    for key in ("vol1", "vol2", "observed_plus", "observed_minus"):
        if record[key] != reference[key]:
            return f"{key} = {record[key]} differs from {reference[key]} on an equal subgroup"
    return None


# ---------------------------------------------------------------------------
# certify_cli


def threshold_from(constants: dict, ell12: int, ell21: int) -> int:
    """Least N >= 1 with N*ell - C >= 2(M+1) for both (positive) cross lengths."""
    n = 1
    while min(n * ell12, n * ell21) - constants["C"] < 2 * (constants["M"] + 1):
        n += 1
    return n


def expected_verdict(factors: Sequence[tuple[int, int]], threshold: int) -> tuple[str, int]:
    """Verdict and exit code of a filling pair's twist word, by the endpoint rule."""
    if not factors or any(abs(exp) < threshold for _, exp in factors):
        return "hypotheses_not_met", EXIT_HYPOTHESES
    if len(factors) == 1:
        return "conjugate_to_twist_power", EXIT_OK
    if factors[0][0] != factors[-1][0]:
        return "fully_irreducible_hyperbolic", EXIT_OK
    return "nontrivial", EXIT_OK


def substitute_threshold(text: str, threshold: int) -> list[tuple[int, int]]:
    factors = []
    for token in text.split():
        tid, exp = token.split(":")
        sign = -1 if exp[0] == "-" else 1
        body = exp.lstrip("+-")
        factors.append((int(tid), sign * (threshold if body == "N" else int(body))))
    return factors


def check_certify(record: dict, facts: dict, word: str) -> Optional[str]:
    """A ``pingpong --json`` request against the pair's independent facts.

    ``facts`` holds the oracle cross lengths ``ell12``/``ell21``, whether
    the pair fills (``fills``), and the largest cancellation
    ``|nu(w)| + |nu(v)| - |nu(wv)|`` over reduced products of short words
    under either basis change (``cancellation``), which must not exceed 2B.
    """
    if record.get("raised"):
        return f"raised {record['raised']}"
    code = record["exit_code"]
    payload = record["payload"]
    if not facts["fills"]:
        # A non-filling pair admits no certificate: either the threshold
        # computation refuses (exit 1) or the hypotheses are reported unmet.
        if code == EXIT_FALSE and payload is None:
            return None
        if code == EXIT_HYPOTHESES and payload and payload["verdict"] == "hypotheses_not_met":
            return None
        verdict = payload["verdict"] if payload else None
        return f"non-filling pair gave exit {code}, verdict {verdict}"
    if payload is None:
        return f"exit {code} without a certificate"
    threshold = threshold_from(payload["constants"], facts["ell12"], facts["ell21"])
    if payload["threshold"] != threshold:
        return f"threshold {payload['threshold']}, expected {threshold}"
    if facts["cancellation"] > 2 * payload["constants"]["B"]:
        return f"cancellation {facts['cancellation']} exceeds 2B = {2 * payload['constants']['B']}"
    verdict, exit_code = expected_verdict(substitute_threshold(word, threshold), threshold)
    if payload["verdict"] != verdict or code != exit_code:
        return f"verdict {payload['verdict']} exit {code}, expected {verdict} exit {exit_code}"
    return None


# ---------------------------------------------------------------------------
# orbit_sample


def _mobius(n: int) -> int:
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def _phi(n: int) -> int:
    return sum(1 for i in range(1, n + 1) if gcd(i, n) == 1)


def class_counts(rank: int, max_len: int) -> tuple[int, int]:
    """Conjugacy classes, and primitive (non-power) ones, of length 1..max_len.

    The number of cyclically reduced words of length n in F_k is the trace
    of the n-th power of the letter-transition matrix,
    (2k-1)^n + (k-1)(-1)^n + k.  Burnside over rotations counts classes;
    Moebius inversion counts the primitive ones.
    """

    def cyclic_words(n: int) -> int:
        return (2 * rank - 1) ** n + (rank - 1) * (-1) ** n + rank

    classes = primitive = 0
    for n in range(1, max_len + 1):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        classes += sum(_phi(n // d) * cyclic_words(d) for d in divisors) // n
        primitive += sum(_mobius(n // d) * cyclic_words(d) for d in divisors) // n
    return classes, primitive


def check_orbit(record: dict, rank: int, max_len: int) -> Optional[str]:
    classes, primitive = class_counts(rank, max_len)
    if record["classes_checked"] != classes:
        return f"classes_checked {record['classes_checked']}, closed form {classes}"
    if record["classes_pruned"] != classes - primitive // 2:
        return f"classes_pruned {record['classes_pruned']}, closed form {classes - primitive // 2}"
    if not record["ok"]:
        return f"periodic class reported: {record['violation']}"
    return None


# ---------------------------------------------------------------------------
# fill_whitehead


def whitehead_graph_facts(classes: Sequence[str], rank: int) -> tuple[bool, set]:
    """Connectivity and articulation points of the Whitehead graph, by networkx."""
    import networkx as nx

    basis = Basis.standard(rank)
    graph = nx.Graph()
    graph.add_nodes_from(x for i in range(1, rank + 1) for x in (i, -i))
    for text in classes:
        word = parse_word(text, basis)
        for i, x in enumerate(word):
            y = word[(i + 1) % len(word)]
            graph.add_edge(-x, y)
    connected = nx.is_connected(graph)
    return connected, set(nx.articulation_points(graph)) if connected else set()


def cyclic_length(word: Word) -> int:
    return len(cyclically_reduce(word)[0])


def check_fill(record: dict, rank: int, input_length: int) -> Optional[str]:
    """A ``fill --json`` request: exit code, verdict and Whitehead evidence."""
    if record.get("raised"):
        return f"raised {record['raised']}"
    code = record["exit_code"]
    payload = record["payload"]
    if payload is None:
        return f"exit {code} without a certificate"
    expected_code = {"fills": EXIT_OK, "not_filling": EXIT_FALSE, "unknown": EXIT_UNKNOWN}
    if expected_code.get(payload["verdict"]) != code:
        return f"exit {code} for verdict {payload['verdict']}"
    f2, f3 = payload["f2"], payload["f3"]
    verdict = "fills" if f2 and f3 else ("not_filling" if not f2 else "unknown")
    if payload["verdict"] != verdict:
        return f"verdict {payload['verdict']} for f2={f2}, f3={f3}"
    evidence = payload["f3_evidence"]
    if evidence["total_length"] > input_length:
        return f"minimized length {evidence['total_length']} exceeds input length {input_length}"
    basis = Basis.standard(rank)
    if evidence["total_length"] != sum(len(parse_word(c, basis)) for c in evidence["minimized_classes"]):
        return "total_length disagrees with the minimized classes"
    connected, articulation = whitehead_graph_facts(evidence["minimized_classes"], rank)
    if evidence["connected"] != connected:
        return f"connected={evidence['connected']}, networkx says {connected}"
    cut = evidence["cut_vertex"]
    if connected and (cut is None) != (not articulation):
        return f"cut_vertex={cut}, networkx articulation points {sorted(articulation)}"
    if cut is not None and parse_word(cut, basis)[0] not in articulation:
        return f"cut_vertex {cut} is not an articulation point"
    if f3 != (connected and not articulation):
        return f"f3={f3} for connected={connected}, articulation points {sorted(articulation)}"
    return None


def check_fill_partner(record: dict, partner: dict) -> Optional[str]:
    """Transforming both splittings by one automorphism keeps the verdict."""
    mine = record["payload"]["verdict"] if record["payload"] else None
    theirs = partner["payload"]["verdict"] if partner["payload"] else None
    if mine != theirs:
        return f"verdict {mine} changes to {theirs} under a common automorphism"
    return None

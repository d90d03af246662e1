"""Tests of the benchmark's checks: a wrong output must make its op fail.

Run from the checkout root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import time  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from freevol import filling, splittings, twisting  # noqa: E402
from freevol.words import apply, enumerate_cyclic_classes, is_proper_power, power  # noqa: E402


def growth_record(pair, gens, n):
    bound = twisting.constants(2, pair.first, pair.second)
    result = twisting.check_volume_growth_bounds(pair.first, pair.second, gens, n, bound, rank_bound=2)
    return {
        "all_ok": result["all_ok"],
        "vol1": result["vol1"],
        "vol2": result["vol2"],
        "observed_plus": result["bounds"][f"twist_power_{n}"]["observed"],
        "observed_minus": result["bounds"][f"twist_power_{-n}"]["observed"],
    }


def test_twist_closed_form_matches_the_twist_automorphism():
    for _, pair in (("amalgam", workloads.amalgam_pair()), workloads.filling_pairs()[0]):
        g = (1, 3, -2, 3, 1)
        for n in (3, -2):
            expected = apply(power(splittings.dehn_twist(pair.first), n), g)
            assert checks.twist_closed_form(pair.first, n, g) == expected


def test_cyclic_volume_off_by_one_fails():
    pair = workloads.filling_pairs()[0][1]
    g, n = (1, 3, 2, 3), 4
    record = growth_record(pair, [g], n)
    expected = {
        "vol1": workloads.oracle_length(pair.first, g),
        "vol2": workloads.oracle_length(pair.second, g),
        "observed_plus": workloads.oracle_length(pair.second, checks.twist_closed_form(pair.first, n, g)),
        "observed_minus": workloads.oracle_length(pair.second, checks.twist_closed_form(pair.first, -n, g)),
    }
    assert checks.check_cyclic_growth(record, expected) is None
    for key in expected:
        wrong = dict(record, **{key: record[key] + 1})
        assert checks.check_cyclic_growth(wrong, expected) is not None
    assert checks.check_cyclic_growth(dict(record, all_ok=False), expected) is not None


def test_rank2_volume_off_by_one_fails():
    record = {"all_ok": True, "vol1": 3, "vol2": 5, "observed_plus": 98, "observed_minus": 95}
    assert checks.check_sibling_growth(dict(record), record) is None
    assert checks.check_sibling_growth(dict(record, observed_plus=99), record) is not None
    assert checks.check_sibling_growth(dict(record, vol2=4), record) is not None


CERTIFY_FACTS = {"ell12": 2, "ell21": 2, "fills": True, "cancellation": 2}


def certify_record(verdict, code, threshold=15):
    payload = {
        "verdict": verdict,
        "threshold": threshold,
        "constants": {"B": 1, "M": 6, "C": 15},
    }
    return {"exit_code": code, "payload": payload}


def test_certify_flipped_verdict_or_exit_code_fails():
    word = "1:+N 2:-N"
    good = certify_record("fully_irreducible_hyperbolic", 0)
    assert checks.check_certify(good, CERTIFY_FACTS, word) is None
    assert checks.check_certify(certify_record("nontrivial", 0), CERTIFY_FACTS, word) is not None
    assert checks.check_certify(certify_record("fully_irreducible_hyperbolic", 3), CERTIFY_FACTS, word) is not None
    assert checks.check_certify(certify_record("fully_irreducible_hyperbolic", 0, 14), CERTIFY_FACTS, word) is not None
    low = certify_record("hypotheses_not_met", 3)
    assert checks.check_certify(low, CERTIFY_FACTS, "1:+3 2:-2") is None
    assert checks.check_certify(low, CERTIFY_FACTS, "1:+N 2:-N 1:+N") is not None


def test_certify_of_non_filling_pair_fails():
    facts = dict(CERTIFY_FACTS, fills=False)
    assert checks.check_certify({"exit_code": 1, "payload": None}, facts, "1:+N 2:-N") is None
    assert checks.check_certify(certify_record("fully_irreducible_hyperbolic", 0), facts, "1:+N 2:-N") is not None


def test_certify_cancellation_beyond_2B_fails():
    facts = dict(CERTIFY_FACTS, cancellation=3)
    good = certify_record("fully_irreducible_hyperbolic", 0)
    assert checks.check_certify(good, facts, "1:+N 2:-N") is not None


def test_threshold_is_least_exponent():
    assert checks.threshold_from({"B": 1, "M": 6, "C": 15}, 2, 2) == 15
    assert checks.threshold_from({"B": 1, "M": 6, "C": 15}, 2, 3) == 15
    assert checks.threshold_from({"B": 1, "M": 6, "C": 15}, 3, 3) == 10


def test_class_counts_match_enumeration():
    for rank, max_len in ((2, 6), (3, 4)):
        classes = list(enumerate_cyclic_classes(rank, max_len))
        primitive = sum(1 for c in classes if not is_proper_power(c)[0])
        assert checks.class_counts(rank, max_len) == (len(classes), primitive)
    assert checks.class_counts(3, 7)[0] == 14672


def test_orbit_class_count_off_by_one_fails():
    classes, primitive = checks.class_counts(3, 7)
    record = {
        "classes_checked": classes,
        "classes_pruned": classes - primitive // 2,
        "ok": True,
        "violation": None,
    }
    assert checks.check_orbit(record, 3, 7) is None
    assert checks.check_orbit(dict(record, classes_checked=classes - 1), 3, 7) is not None
    assert checks.check_orbit(dict(record, classes_pruned=record["classes_pruned"] + 1), 3, 7) is not None
    assert checks.check_orbit(dict(record, ok=False), 3, 7) is not None


def fill_record(classes, connected, cut, code=2, f2=True):
    articulated = connected and cut is not None
    f3 = connected and not articulated
    verdict = "fills" if f2 and f3 else ("not_filling" if not f2 else "unknown")
    evidence = {
        "minimized_classes": classes,
        "total_length": sum(len(c) for c in classes),
        "connected": connected,
        "cut_vertex": cut,
    }
    return {"exit_code": code, "payload": {"verdict": verdict, "f2": f2, "f3": f3, "f3_evidence": evidence}}


def test_fill_dropped_cut_vertex_fails():
    # The Whitehead graph of aab is the path b - A - a - B.
    good = fill_record(["aab"], connected=True, cut="A")
    assert checks.check_fill(good, 2, 3) is None
    dropped = fill_record(["aab"], connected=True, cut=None, code=0)
    assert checks.check_fill(dropped, 2, 3) is not None
    wrong = fill_record(["aab"], connected=True, cut="b")
    assert checks.check_fill(wrong, 2, 3) is not None


def test_fill_flipped_exit_code_or_longer_minimum_fails():
    good = fill_record(["aab"], connected=True, cut="A")
    assert checks.check_fill(dict(good, exit_code=0), 2, 3) is not None
    assert checks.check_fill(good, 2, 2) is not None


def test_fill_check_accepts_the_library_on_a_real_pair():
    pair = workloads.filling_pairs()[0][1]
    certificate = filling.check_filling(pair)
    record = {"exit_code": 0 if certificate.fills else 1, "payload": certificate.to_json()}
    length = sum(checks.cyclic_length(s.edge_word_ambient()) for s in (pair.first, pair.second))
    assert checks.check_fill(record, 3, length) is None
    flipped = dict(record["payload"], verdict="not_filling")
    assert checks.check_fill(dict(record, payload=flipped), 3, length) is not None


def test_fill_verdict_change_under_automorphism_fails():
    a = fill_record(["aab"], connected=True, cut="A")
    b = fill_record(["aab"], connected=True, cut="A", code=1, f2=False)
    assert checks.check_fill_partner(a, a) is None
    assert checks.check_fill_partner(a, b) is not None


def test_failed_check_counts_the_op_as_failed():
    ok = {"failed": False, "fault": None}
    wrong = {"failed": True, "fault": None}
    known = {"failed": True, "fault": workloads.FAULT_BUDGET}
    assert run.counts({"ops": [ok, known], "problems": []}) == (True, 2, 1)
    assert run.counts({"ops": [ok, wrong, known], "problems": []}) == (False, 3, 2)
    assert run.counts({"ops": [ok], "problems": ["bare twist"]}) == (False, 1, 0)


def traced_ops(tracer_class=tracing.Tracer):
    """Run two ops through a tracer as the worker does: (summary, latencies).

    Each op calls a traced function that sleeps and calls another, and
    consumes a traced generator that another traced function created.
    """
    tracer = tracer_class()

    def inner():
        time.sleep(0.004)

    def items():
        time.sleep(0.003)
        yield 1

    t_inner = tracer.wrap("inner", inner)
    t_items = tracer.wrap("items", items)
    t_make = tracer.wrap("make", lambda: t_items())

    def outer():
        time.sleep(0.002)
        t_inner()
        return sum(t_make())

    t_outer = tracer.wrap("outer", outer)
    latencies = []
    for op_id in range(2):
        started = time.perf_counter()
        tracer.run_op(op_id, t_outer)
        latencies.append(time.perf_counter() - started)
    return tracer.summary([0, 1]), latencies


def test_self_times_sum_to_the_op_wall_time():
    summary, latencies = traced_ops()
    assert tracing.self_time_gap_ms(summary["self_sum_ms"], latencies) <= tracing.SELF_SUM_TOLERANCE_MS
    for b in summary["ops"].values():
        # The generator's time is charged to outer, which consumed it, not to make.
        assert abs(b["make.self_ms"] - b["make.busy_ms"]) < 1e-6
        children = b["inner.busy_ms"] + b["make.busy_ms"] + b["items.busy_ms"]
        assert abs(b["outer.self_ms"] - (b["outer.busy_ms"] - children)) < 1e-6
        assert b["items.self_ms"] >= 3.0


class DroppingTracer(tracing.Tracer):
    """Charges every child span twice, so its time drops out of the sum."""

    def _close(self, span, started, charged):
        super()._close(span, started, charged)
        if charged is not None:
            charged.child_busy += span.end - started


class DoubleCountingTracer(tracing.Tracer):
    """Never charges a child span to its parent, so its time counts twice."""

    def _close(self, span, started, charged):
        super()._close(span, started, None)


def test_dropped_or_double_counted_span_time_fails():
    for tracer_class in (DroppingTracer, DoubleCountingTracer):
        summary, latencies = traced_ops(tracer_class)
        assert tracing.self_time_gap_ms(summary["self_sum_ms"], latencies) > tracing.SELF_SUM_TOLERANCE_MS

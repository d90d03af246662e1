"""One workload in one fresh interpreter: set up, time the ops, check them.

Started by ``run.py``, one worker at a time; not meant to be run by hand.
``--mode setup`` stops once the inputs are ready, ``run`` times the ops,
``trace`` times them with every public layer function wrapped in spans.
The result goes to ``--out`` as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _hooks() -> dict:
    """Counters recorded from the results of traced calls."""

    def fold(tracer, args, kwargs, result):
        graph = args[0] if args else kwargs["graph"]
        tracer.count("stallings.fold_in_edges", len(graph.edges))
        tracer.count("stallings.fold_out_edges", len(result[0].edges))

    def realize(tracer, args, kwargs, result):
        tracer.count("pingpong.realized_letters", sum(len(image) for image in result.images))

    def orbit(tracer, args, kwargs, result):
        tracer.count("pingpong.orbit.classes_checked", result["classes_checked"])
        tracer.count("pingpong.orbit.classes_kept", result["classes_checked"] - result["classes_pruned"])
        tracer.count("pingpong.orbit.exact_comparisons", result["exact_comparisons"])

    def minimize(tracer, args, kwargs, result):
        tracer.count("filling.whitehead_steps", len(result[2]))

    return {
        "stallings.fold_and_core": fold,
        "pingpong.realize": realize,
        "pingpong.orbit": orbit,
        "filling.whitehead_minimize": minimize,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(_hooks())

    import workloads

    plan = workloads.WORKLOADS[args.workload](args.seed, args.rounds, Path(args.workdir))
    setup_s = time.monotonic() - args.t0
    result: dict = {"setup_s": setup_s}
    if args.mode != "setup":
        result.update(_run(plan, tracer, Path(args.out).with_suffix(".spans.jsonl")))
    Path(args.out).write_text(json.dumps(result))
    return 0


def speed_probe() -> float:
    """Seconds this interpreter takes for a fixed piece of pure-Python work.

    The work (free reduction of a fixed word, then counting its letters)
    uses no library code, so its time follows only the machine's speed.
    """
    word = [((i * 7919) % 6 + 1) * (1 if (i * 104729) % 5 < 3 else -1) for i in range(2000)]
    started = time.perf_counter()
    for _ in range(6):
        out: list[int] = []
        for x in word:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        counts: dict[int, int] = {}
        for x in out:
            counts[x] = counts.get(x, 0) + 1
    return time.perf_counter() - started


def _attempt(run) -> tuple:
    """(output, None), or (None, reason) if the op raises.

    The exception is dropped here, so that freeing its traceback, and the
    frames it holds, counts in the op's time and, when traced, in its root
    span.  An op that raises is a failed op, not a failed run.
    """
    try:
        return run(), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _run(plan, tracer, spans_path: Path) -> dict:
    latencies: list[float] = []
    records: list[dict] = []
    probes: list[float] = []
    for index, op in enumerate(plan.ops):
        probes.append(speed_probe())
        call = lambda run=op.run: _attempt(run)  # noqa: E731
        started = time.perf_counter()
        output, raised = call() if tracer is None else tracer.run_op(index, call)
        latencies.append(time.perf_counter() - started)
        records.append({"raised": raised} if raised else op.digest(output))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.op = "check"
    reasons, problems = plan.check(records)
    ops = []
    for op, latency, record, reason in zip(plan.ops, latencies, records, reasons):
        ops.append(
            {
                "label": op.label,
                "latency_s": latency,
                "failed": reason is not None,
                "reason": reason,
                "fault": op.fault,
                "output_kb": record.get("output_kb"),
            }
        )
    result = {"ops": ops, "problems": problems, "peak_rss_mb": peak_rss_mb, "probe_s": sum(probes) / len(probes)}
    if tracer is not None:
        from tracing import SELF_SUM_TOLERANCE_MS, self_time_gap_ms

        tracer.dump(spans_path)
        op_ids = list(range(len(plan.ops)))
        summary = tracer.summary(op_ids)
        for op_id, entry in zip(op_ids, ops):
            if entry["output_kb"] is not None:
                summary["ops"][op_id]["cli.output_kb"] = entry["output_kb"]
        summary["max_gap_ms"] = self_time_gap_ms(summary.pop("self_sum_ms"), latencies)
        if summary["max_gap_ms"] > SELF_SUM_TOLERANCE_MS:
            problems.append(
                f"span self times differ from an op's wall time by {summary['max_gap_ms']:.3f} ms"
            )
        result["trace"] = summary
    return result


if __name__ == "__main__":
    sys.exit(main())

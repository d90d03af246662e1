"""Benchmark runner for freevol: one workload per call, from a checkout's root.

    python3 perfbench/run.py --workload twist_growth --seed 1 --seconds 10 --trace 0

Each workload runs in fresh interpreters started one after another (no
threads, no pool).  With ``--trace 0`` the runner prints the end-to-end
metrics; with ``--trace 1`` it runs the workload untraced and then traced
and prints the per-layer metrics with the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Raw worker results go to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Nominal length of one round of ops, in seconds, on a 2-core x86 machine
# with Python 3.11.  A run makes max(1, round(seconds / ROUND_SECONDS))
# whole rounds, so the op count depends only on --seconds, never on timing.
ROUND_SECONDS = {
    "twist_growth": 7.5,
    "certify_cli": 30.0,
    "orbit_sample": 10.0,
    "fill_whitehead": 7.0,
}
# The speed probe's time (worker.speed_probe) on the reference machine, a
# 2-core x86 host with Python 3.11.  Op latencies are scaled by this over the
# probe's mean time in the run, see end_to_end.
NOMINAL_PROBE_S = 0.0025
# Interpreters that set up a workload; setup_s is their median.  The timed
# worker is one of them; half of the others start before it and half after,
# so that the samples fall in different spells of the machine's speed.  A
# run takes as many as fit in SETUP_BUDGET_S at the first one's time, within
# these limits: a set-up of 0.15 s is mostly interpreter start-up, whose
# time jitters far more than that of a set-up of seconds.
SETUP_SAMPLES = (5, 15)
SETUP_BUDGET_S = 3.0
WORKER_TIMEOUT_S = 170

# Per-layer metrics: name -> (unit, better).  Values are per timed op
# unless the name starts with "setup." (time inside the function, children
# included, during setup) or "trace." (the whole run).
LAYER_METRICS = {
    "stallings.fold_and_core.self_ms": ("ms", "lower"),
    "stallings.fold_and_core.calls": ("count", "lower"),
    "stallings.fold_in_edges": ("count", "lower"),
    "stallings.fold_out_edges": ("count", "lower"),
    "stallings.is_malnormal.self_ms": ("ms", "lower"),
    "stallings.pullback.self_ms": ("ms", "lower"),
    "volume.free_volume.self_ms": ("ms", "lower"),
    "volume.lambda_graph.self_ms": ("ms", "lower"),
    "volume.translation_length.calls": ("count", "lower"),
    "splittings.dehn_twist.self_ms": ("ms", "lower"),
    "splittings.transform.self_ms": ("ms", "lower"),
    "words.power.self_ms": ("ms", "lower"),
    "words.compose.self_ms": ("ms", "lower"),
    "words.compose.calls": ("count", "lower"),
    "words.invert.self_ms": ("ms", "lower"),
    "words.enumerate_cyclic_classes.self_ms": ("ms", "lower"),
    "twisting.check_volume_growth_bounds.self_ms": ("ms", "lower"),
    "twisting.bcc.self_ms": ("ms", "lower"),
    "twisting.bcc.calls": ("count", "lower"),
    "twisting.bcc.failed": ("count", "lower"),
    "twisting.constants.self_ms": ("ms", "lower"),
    "pingpong.configure.self_ms": ("ms", "lower"),
    "pingpong.certify.self_ms": ("ms", "lower"),
    "pingpong.realize.self_ms": ("ms", "lower"),
    "pingpong.realized_letters": ("count", "lower"),
    "pingpong.orbit.self_ms": ("ms", "lower"),
    "pingpong.orbit.classes_checked": ("count", "lower"),
    "pingpong.orbit.kept_share": ("ratio", "lower"),
    "pingpong.orbit.exact_comparisons": ("count", "lower"),
    "filling.check_filling.self_ms": ("ms", "lower"),
    "filling.check_f2.self_ms": ("ms", "lower"),
    "filling.check_f3.self_ms": ("ms", "lower"),
    "filling.whitehead_minimize.self_ms": ("ms", "lower"),
    "filling.whitehead_steps": ("count", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "cli.output_kb": ("KB", "lower"),
    "op.self_ms": ("ms", "lower"),
    "setup.twisting.constants.ms": ("ms", "lower"),
    "setup.splittings.transform.ms": ("ms", "lower"),
    "setup.words.invert.ms": ("ms", "lower"),
    "trace.op_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.self_sum_gap_ms": ("ms", "lower"),
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_info(label: str) -> dict:
    return {f"load1_{label}": os.getloadavg()[0]}


def run_worker(workload: str, seed: int, rounds: int, mode: str, tag: str) -> dict:
    workdir = OUT / f"{workload}-s{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    out = OUT / f"{workload}-s{seed}-{tag}.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--rounds", str(rounds),
        "--mode", mode, "--workdir", str(workdir), "--out", str(out),
    ]
    t0 = time.monotonic()
    completed = subprocess.run(
        argv + ["--t0", repr(t0)], cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if completed.returncode != 0 or not out.exists():
        sys.stderr.write(completed.stderr[-4000:])
        raise RuntimeError(f"{mode} worker for {workload} exited with {completed.returncode}")
    return json.loads(out.read_text())


def counts(result: dict) -> tuple[bool, int, int]:
    """(correct, attempted, failed): only named faults may fail."""
    ops = result["ops"]
    failed = sum(1 for op in ops if op["failed"])
    unexpected = [op for op in ops if op["failed"] and not op["fault"]]
    return not unexpected and not result["problems"], len(ops), failed


def wall(result: dict) -> tuple[float, float]:
    """(ops per second, median op latency in ms) from the measured wall times."""
    latencies = [op["latency_s"] for op in result["ops"]]
    return len(latencies) / sum(latencies), statistics.median(latencies) * 1000.0


def end_to_end(setups: list[float], result: dict) -> dict:
    """The end-to-end metrics, with op times at the reference machine's speed.

    The speed of this machine drifts by up to a factor of two between runs,
    and the speed probe's mean time over a run follows that drift (README,
    "Steadiness").  So op latencies are scaled by NOMINAL_PROBE_S over that
    mean.
    """
    ops_per_s, op_p50_ms = wall(result)
    speed = NOMINAL_PROBE_S / result["probe_s"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s / speed, "1/s"),
        "op_p50_ms": (op_p50_ms * speed, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    trace = traced["trace"]
    per_op = list(trace["ops"].values())
    n = len(per_op)
    totals: dict = {}
    for bucket in per_op:
        for key, value in bucket.items():
            totals[key] = totals.get(key, 0.0) + value
    values = {}
    for name in LAYER_METRICS:
        if name.startswith(("setup.", "trace.")) or name == "pingpong.orbit.kept_share":
            continue
        values[name] = totals.get(name, 0.0) / n
    checked = totals.get("pingpong.orbit.classes_checked", 0.0)
    values["pingpong.orbit.kept_share"] = (
        totals.get("pingpong.orbit.classes_kept", 0.0) / checked if checked else 0.0
    )
    for name in ("twisting.constants", "splittings.transform", "words.invert"):
        values[f"setup.{name}.ms"] = trace["setup"].get(f"{name}.busy_ms", 0.0)
    plain_s = sum(op["latency_s"] for op in plain["ops"])
    traced_s = sum(op["latency_s"] for op in traced["ops"])
    values["trace.op_ms"] = traced_s / n * 1000.0
    # Both runs in probe units, so that a drift in machine speed between
    # them does not show as overhead.
    values["trace.overhead_pct"] = (
        (traced_s / traced["probe_s"]) / (plain_s / plain["probe_s"]) - 1.0
    ) * 100.0
    values["trace.self_sum_gap_ms"] = trace["max_gap_ms"]
    return {name: (values[name], LAYER_METRICS[name][0]) for name in LAYER_METRICS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/freevol/__init__.py", "src/freevol/cli.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            return fail(f"{needed} not found under {ROOT}: run from a freevol checkout")

    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": rounds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        **load_info("start"),
    }
    try:
        if args.trace:
            plain = run_worker(args.workload, args.seed, rounds, "run", "plain")
            traced = run_worker(args.workload, args.seed, rounds, "trace", "trace")
            metrics = per_layer(plain, traced)
            verdicts = [counts(plain), counts(traced)]
            raw = {"plain": plain, "traced": traced}
        else:
            def setup(i: int) -> float:
                return run_worker(args.workload, args.seed, rounds, "setup", f"setup{i}")["setup_s"]

            setups = [setup(0)]
            low, high = SETUP_SAMPLES
            samples = max(low, min(high, int(SETUP_BUDGET_S / setups[0])))
            setups += [setup(i) for i in range(1, samples // 2)]
            plain = run_worker(args.workload, args.seed, rounds, "run", "plain")
            setups += [plain["setup_s"]] + [setup(i) for i in range(samples // 2, samples - 1)]
            metrics = end_to_end(setups, plain)
            info.update(probe_ms=plain["probe_s"] * 1000.0)
            verdicts = [counts(plain)]
            raw = {"plain": plain, "setup_s": setups}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    info.update(load_info("end"))

    correct = all(v[0] for v in verdicts)
    attempted, failed = verdicts[-1][1], verdicts[-1][2]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-s{args.seed}-trace{args.trace}-raw.json").write_text(
        json.dumps({"info": info, **raw}, indent=1)
    )

    print(" ".join(f"{key}={value}" for key, value in info.items()))
    last = raw.get("traced", raw["plain"])
    for op in last["ops"]:
        if op["failed"]:
            kind = "known fault" if op["fault"] else "FAILED"
            print(f"{kind}: {op['label']}: {op['reason']}")
    for problem in last["problems"]:
        print(f"FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate ``twist_families.json``, the fixed pool of rank-2 families.

    python3 perfbench/families.py

The ``twist_growth`` workload draws its rank-2 subgroups from this pool
(README, "twist_growth").  The pool is fixed, so a change to the library
cannot change which subgroups a seed measures.  It is drawn from a fixed
seed and keeps a pair of generators when their subgroup has rank 2 and is
malnormal, the generators and their Nielsen change have the workload's fold
shapes, at least a third of the conjugators the workload draws keep the
conjugate's fold shape, and ``free_volume`` in the first splitting is
unchanged by that splitting's own twist.  The last condition leaves out the
subgroups that show the FAULT_VOLUME fault (README, "Named faults"): they
would fail on some seeds and not on others.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from freevol import splittings, stallings, volume  # noqa: E402
from freevol.words import invert, reduce_word, render_word  # noqa: E402

# Families per pair: four per round, enough for runs of up to 60 s.
POOL_SIZE = 32
MIN_CONJUGATOR_SHARE = 1 / 3


def _conjugates(pair, gens: list) -> list[list]:
    """The family's conjugate variant for every conjugator the workload may draw."""
    s1 = pair.first
    fixed = workloads.fixed_letters(s1)
    out = []
    for word in workloads.all_words_in(fixed, workloads.CONJUGATOR_LENGTH):
        h = splittings.from_relative(s1, word)
        h_inv = tuple(-x for x in reversed(h))
        out.append([reduce_word(h + g + h_inv) for g in gens])
    return out


def draw(index: int) -> list[list[str]]:
    pair = workloads.twist_pairs()[index]
    s1 = pair.first
    to_second = invert(pair.second.relative_automorphism())
    rng = random.Random(f"twist_growth:families:{index}")
    shape_gens, shape_conjugate, shape_nielsen = workloads.FAMILY_SHAPE
    pool: list[list[str]] = []
    while len(pool) < POOL_SIZE:
        gens = [
            splittings.from_relative(
                s1, workloads.relative_word(rng, s1, workloads.RANK2_LENGTH, workloads.RANK2_TWISTED)
            )
            for _ in range(2)
        ]
        core = stallings.subgroup_graph(s1.ambient_basis, gens, keep_basepoint=False)
        if stallings.rank(core) != 2 or not stallings.is_malnormal(core):
            continue
        if workloads.fold_shape(pair, to_second, gens) != shape_gens:
            continue
        if workloads.fold_shape(pair, to_second, workloads.nielsen_change(gens)) != shape_nielsen:
            continue
        conjugates = _conjugates(pair, gens)
        kept = sum(workloads.fold_shape(pair, to_second, c) == shape_conjugate for c in conjugates)
        if kept < MIN_CONJUGATOR_SHARE * len(conjugates):
            continue
        twisted = [checks.twist_closed_form(s1, 1, g) for g in gens]
        if volume.free_volume(s1, gens) != volume.free_volume(s1, twisted):
            continue
        entry = [render_word(g, s1.ambient_basis) for g in gens]
        if entry not in pool:
            pool.append(entry)
    return pool


def main() -> int:
    pools = {str(index): draw(index) for index in range(len(workloads.twist_pairs()))}
    # One family per line.
    blocks = [
        f"  {json.dumps(key)}: [\n" + ",\n".join(f"    {json.dumps(entry)}" for entry in pool) + "\n  ]"
        for key, pool in pools.items()
    ]
    workloads.FAMILY_POOL_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {workloads.FAMILY_POOL_PATH}: {', '.join(f'{k}: {len(v)}' for k, v in pools.items())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Measure false-zero rates of the randomized identity test, as a gate.

For power circuits x^d the formal false-zero chance of a single trial is
exactly (number of roots in the box)/|box| = 1/|box| scaled by d only when
roots are counted with multiplicity at distinct points; the classical bound
is d/|S|.  The sweep draws fresh single-trial tests on x - c circuits with
c planted inside the box, where the miss rate is genuinely d/|S|-shaped,
and prints measured rate vs bound per cell.  The bound is the one pit
itself computes from the circuit's formal degree, which each cell first
checks equals the planted degree.

A cell's false-zero count is binomial with mean b = d/|S| per trial, so
the script exits 1 when any measured rate passes b + 4 * sqrt(b(1-b)/trials)
(four standard deviations of a rate that meets the bound), and 0 otherwise.

    PYTHONPATH=src python scripts/sz_rejection_sweep.py --trials 2000
"""

from __future__ import annotations

import argparse
import math
import random

from flipcert.circuits import formal_degree, lower, parse_circuit
from flipcert.pit import pit_error_bound, pit_random
from flipcert.util import derive_seed


def planted_circuit(degree: int, roots: list[int]):
    """(x - r1)(x - r2)...: nonzero, with exactly the planted roots."""
    lines = ["ninputs 1", "g1 = input 0"]
    gid = 1
    factors = []
    for root in roots:
        lines.append(f"g{gid + 1} = const {root}")
        lines.append(f"g{gid + 2} = sub g1 g{gid + 1}")
        factors.append(gid + 2)
        gid += 2
    acc = factors[0]
    for f in factors[1:]:
        lines.append(f"g{gid + 1} = mul g{acc} g{f}")
        acc = gid + 1
        gid += 1
    lines.append(f"output g{acc}")
    return parse_circuit("\n".join(lines) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.trials < 1:
        parser.error("--trials must be at least 1")

    print(f"{'degree':>6} {'box':>6} {'measured':>10} {'bound d/|S|':>12} {'limit':>8}")
    over = 0
    for degree in (2, 4, 8):
        for width in (4, 8):
            size = 1 << width
            rng = random.Random(derive_seed("sweep", degree, width, args.seed))
            roots = rng.sample(range(1, size + 1), degree)
            c = planted_circuit(degree, roots)
            formal = formal_degree(lower(c))
            if formal != degree:
                raise SystemExit(f"formal degree {formal}, planted degree {degree}")
            false_zero = 0
            for t in range(args.trials):
                res = pit_random(
                    c,
                    trials=1,
                    seed=derive_seed("trial", degree, width, t, args.seed),
                    box=(1, size),
                )
                if res.verdict == "zero":
                    false_zero += 1
            rate = false_zero / args.trials
            bound = pit_error_bound(formal, (1, size), 1)
            limit = bound + 4 * math.sqrt(bound * (1 - bound) / args.trials)
            over += rate > limit
            flag = "  OVER" if rate > limit else ""
            print(f"{degree:>6} {size:>6} {rate:>10.4f} {bound:>12.4f} {limit:>8.4f}{flag}")
    if over:
        print(f"{over} cell(s) over the 4-sigma limit")
    return 1 if over else 0


if __name__ == "__main__":
    raise SystemExit(main())

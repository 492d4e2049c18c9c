#!/usr/bin/env python3
"""End-to-end walk through the obstruction pipeline at toy scale.

Builds a design, commits a truth table, derives a certificate against
perm(2), runs the F-property harness over the size-bounded class, and
prints the compression contrast against the trivial obstruction table.
"""

from __future__ import annotations

import argparse

from flipcert.designs import DesignParams, build_design_greedy
from flipcert.obstruction import (
    CertConfig,
    derive_certificate,
    harness_F,
    random_truth_table,
    trivial_obstruction_table,
)
from flipcert.pit import EnumeratedClass, class_size
from flipcert.util import Stopwatch


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bound", type=int, default=3)
    parser.add_argument("--seed-bits", type=int, default=4, dest="seed_bits")
    parser.add_argument("--f2-samples", type=int, default=32, dest="f2_samples")
    args = parser.parse_args()

    params = DesignParams(m_prime=4, l=6, r=3, k_cap=1)
    design = build_design_greedy(params, seed=args.seed)
    print("design rows:", [sorted(s) for s in design.row_sets()])

    config = CertConfig(
        target="perm",
        n=2,
        bound=args.bound,
        seed_bits=args.seed_bits,
        truth_table=random_truth_table(params.r, args.seed),
    )
    with Stopwatch() as sw:
        cert = derive_certificate(design, config)
    print(
        f"certificate: {len(cert.queries)} queries, {len(cert.points)} points, "
        f"label {cert.label_bits()} bits, derived in {sw.seconds:.3f}s"
    )

    cls = EnumeratedClass(num_inputs=4, bound=args.bound, alphabet=(-1, 0, 1))
    print(f"class size: {class_size(cls)}")
    report = harness_F(cert, cls, f2_samples=args.f2_samples, seed=args.seed)
    print(report.text())

    rows = trivial_obstruction_table(cls, config, lambda row: None)
    print(f"trivial table: {rows} rows vs {len(cert.points)} certificate points")
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Regenerate the shipped reference circuits and matrices under circuits/.

Files are byte-stable: builders are deterministic and the serializer is
canonical, so a rerun must leave the tree unchanged.
"""

from __future__ import annotations

import argparse
import pathlib

from flipcert.builders import det_circuit, efun_circuit, perm_circuit, scale_circuit
from flipcert.circuits import serialize_circuit
from flipcert.matrices import BLOCK, SQUARE, matrix_text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--outdir",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "circuits"),
    )
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    files = {
        "perm2.ac": perm_circuit(2),
        "perm3.ac": perm_circuit(3),
        "perm4.ac": perm_circuit(4),
        "det2.ac": det_circuit(2),
        "det3.ac": det_circuit(3),
        "efun_1_2.ac": efun_circuit(1, 2),
        "efun_2_2.ac": efun_circuit(2, 2),
        "efun_1_3.ac": efun_circuit(1, 3),
        "perm2_scaled2.ac": scale_circuit(perm_circuit(2), 2),
    }
    for name, circuit in files.items():
        (outdir / name).write_text(serialize_circuit(circuit))
        print(f"wrote {name} ({circuit.size} nodes)")

    samples = {
        "sample_square2.mat": ((SQUARE, 2), (1, 2, 3, 4)),
        "sample_block_2_2.mat": ((BLOCK, 2, 2), (1, 2, 3, 4, 5, 6, 7, 8)),
    }
    for name, (shape, flat) in samples.items():
        (outdir / name).write_text(matrix_text(shape, flat))
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

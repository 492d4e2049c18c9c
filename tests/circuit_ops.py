"""Test circuits from op tuples, built through the text format.

A test that needs a circuit only to use it spells it as ops and lets
parse_circuit build it, so it depends on the file format, not on how
Circuit stores its nodes.  An op is ("input", i), ("const", v), or
("add" | "sub" | "mul", a, b) with a and b indices of earlier ops.
"""

from __future__ import annotations

from typing import Sequence

from flipcert.circuits import Circuit, parse_circuit


def circuit_from_ops(
    num_inputs: int, ops: Sequence[tuple], output: int | None = None
) -> Circuit:
    """The circuit whose node t is ops[t]; its output is the last op unless
    `output` names another."""
    lines = [f"ninputs {num_inputs}"]
    for t, (op, *args) in enumerate(ops):
        refs = [f"g{a}" for a in args] if op in ("add", "sub", "mul") else args
        lines.append(f"g{t} = {op} {' '.join(map(str, refs))}")
    lines.append(f"output g{len(ops) - 1 if output is None else output}")
    return parse_circuit("\n".join(lines) + "\n")

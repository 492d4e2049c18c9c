"""Test circuits from op tuples, built through the text format.

A test that needs a circuit only to use it spells it as ops and lets
parse_circuit build it, so it depends on the file format, not on how
Circuit stores its nodes.  An op is ("input", i), ("const", v), or
("add" | "sub" | "mul", a, b) with a and b indices of earlier ops.

step_bits is the per-step bit bound that circuits once walked for every
width, kept as the reference its one cached walk (walk_bits) is held to.
"""

from __future__ import annotations

from typing import Sequence

from flipcert.circuits import OP_CONST, OP_INPUT, OP_MUL, Circuit, _walk, parse_circuit


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


def step_bits(prog, width: int) -> int:
    """The largest of a program's per-step bit bounds at `width`-bit inputs,
    walked step by step: an input has `width` bits, a constant its bit
    length, a product the sum of its operands' bounds and a sum or
    difference the larger bound plus one.  The reference the one-walk bound
    D * width + H (circuits._walk) is held to."""
    bits: list[int] = []
    for op, a, b in prog:
        if op == OP_MUL:
            bits.append(bits[a] + bits[b])
        elif op == OP_INPUT:
            bits.append(width)
        elif op == OP_CONST:
            bits.append(a.bit_length())
        else:
            bits.append(max(bits[a], bits[b]) + 1)
    return max(bits)


def walk_bits(prog, width: int) -> int:
    """circuits._walk's bound on every step of prog at `width`-bit inputs."""
    _, top, offset = _walk(prog)
    return top * width + offset

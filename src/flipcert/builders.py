"""Constructors for the reference circuits used throughout the tests.

All builders share input nodes (each matrix entry appears as one input node)
and number matrix entries row-major, as a flat matrix of `matrices` holds
them: entry (r, c) is input r * row_width + c.
"""

from __future__ import annotations

import itertools

from .circuits import OP_ADD, OP_CONST, OP_INPUT, OP_MUL, OP_SUB, Circuit
from .errors import UsageError


class _Builder:
    def __init__(self, num_inputs: int):
        self.num_inputs = num_inputs
        self.nodes: list[tuple[int, int, int]] = []
        self._input_at: dict[int, int] = {}

    def input(self, idx: int) -> int:
        if idx not in self._input_at:
            self.nodes.append((OP_INPUT, idx, 0))
            self._input_at[idx] = len(self.nodes) - 1
        return self._input_at[idx]

    def op(self, op: int, a: int, b: int) -> int:
        self.nodes.append((op, a, b))
        return len(self.nodes) - 1

    def chain(self, op: int, terms: list[int]) -> int:
        acc = terms[0]
        for t in terms[1:]:
            acc = self.op(op, acc, t)
        return acc

    def finish(self, output: int) -> Circuit:
        return Circuit(self.num_inputs, tuple(self.nodes), output)


def _product_term(b: _Builder, entries: list[int]) -> int:
    return b.chain(OP_MUL, [b.input(e) for e in entries])


def _leibniz(b: _Builder, n: int, entry, signed: bool = True) -> int:
    """Leibniz sum over an n x n matrix whose (r, c) entry is input entry(r, c):

    product terms in permutation order, each added to evens (every term
    when unsigned) or odds by its inversion parity; then the evens summed,
    minus the odds summed."""
    evens, odds = [], []
    for sigma in itertools.permutations(range(n)):
        term = _product_term(b, [entry(i, s) for i, s in enumerate(sigma)])
        odd = signed and sum(a > c for a, c in itertools.combinations(sigma, 2)) % 2
        (odds if odd else evens).append(term)
    pos = b.chain(OP_ADD, evens)
    if not odds:
        return pos
    return b.op(OP_SUB, pos, b.chain(OP_ADD, odds))


def perm_circuit(n: int) -> Circuit:
    """Permanent of an n x n matrix: the unsigned Leibniz sum."""
    if n < 1:
        raise UsageError("n must be >= 1")
    b = _Builder(n * n)
    return b.finish(_leibniz(b, n, lambda r, c: r * n + c, signed=False))


def det_circuit(n: int) -> Circuit:
    """Determinant via the signed Leibniz sum: evens minus odds."""
    if n < 1:
        raise UsageError("n must be >= 1")
    b = _Builder(n * n)
    return b.finish(_leibniz(b, n, lambda r, c: r * n + c))


def _det_of_selection(b: _Builder, m: int, k: int, sigma: tuple[int, ...]) -> int:
    # determinant of the m x m submatrix picking choice sigma[i] at position i
    cols = [i * k + sigma[i] for i in range(m)]
    return _leibniz(b, m, lambda r, c: r * (k * m) + cols[c])


def efun_circuit(m: int, k: int) -> Circuit:
    """Product of all k^m selected-submatrix determinants of an m x (k*m)

    block matrix.  Inputs are the block entries, row-major."""
    if m < 1 or k < 1:
        raise UsageError("need m >= 1 and k >= 1")
    b = _Builder(m * k * m)
    factors = [
        _det_of_selection(b, m, k, sigma)
        for sigma in itertools.product(range(k), repeat=m)
    ]
    return b.finish(b.chain(OP_MUL, factors))


def scale_circuit(c: Circuit, lam: int) -> Circuit:
    """lam * c, two extra nodes."""
    t = len(c.nodes)
    nodes = c.nodes + ((OP_CONST, lam, 0), (OP_MUL, c.output, t))
    return Circuit(c.num_inputs, nodes, t + 1)

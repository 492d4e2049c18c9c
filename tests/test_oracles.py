"""Reference oracles: permanent, determinant, E(X), and group actions.

The permanent runs Ryser and naive expansion side by side for small n at
runtime; the tests here pin concrete values computed by hand.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest

from flipcert.errors import BudgetExceeded, ShapeMismatch, SizeLimit, UsageError
from flipcert.matrices import BLOCK, SQUARE
from flipcert.oracles import (
    ColCycle,
    ColSwap,
    Diagonal,
    ElementaryAdd,
    PermSwap,
    PosThreeCycle,
    RowCycle,
    act,
    add_pairs,
    column_permutation,
    determinant,
    efun,
    k_generators,
    permanent,
    var_map,
)


def test_permanent_hand_values():
    assert permanent([[5]]) == 5
    assert permanent([[1, 2], [3, 4]]) == 10  # 1*4 + 2*3
    assert permanent([[1, 1, 1], [1, 1, 1], [1, 1, 1]]) == 6  # 3!
    assert permanent([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_permanent_fractions():
    M = [[Fraction(1, 2), 1], [1, Fraction(1, 3)]]
    assert permanent(M) == Fraction(1, 6) + 1


def test_permanent_size_limit():
    with pytest.raises(SizeLimit):
        permanent([[1] * 13 for _ in range(13)])


def test_determinant_hand_values():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    # Bareiss path: 7x7 identity
    n = 7
    I = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert determinant(I) == 1


def _leibniz_det(M):
    """The determinant by its definition: signed sum over permutations."""
    n = len(M)
    acc = 0
    for p in itertools.permutations(range(n)):
        term = -1 if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 else 1
        for i in range(n):
            term = term * M[i][p[i]]
        acc = acc + term
    return acc


@pytest.mark.parametrize("n", range(1, 8))
def test_determinant_matches_the_leibniz_sum(n):
    rng = random.Random(n)
    ints = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
    fracs = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(n)]
             for _ in range(n)]
    mixed = [[v if (i + j) % 2 else Fraction(v, 3) for j, v in enumerate(row)]
             for i, row in enumerate(ints)]
    cases = [ints, fracs, mixed]
    if n >= 2:
        pivot0 = [row[:] for row in ints]
        pivot0[0][0] = 0  # elimination must swap rows before its first step
        twice = [row[:] for row in ints]
        twice[-1] = [2 * v for v in ints[0]]  # singular: the last row is 2 x row 0
        no_pivot = [[0] + row[1:] for row in ints]  # singular: no pivot in column 0
        cases += [pivot0, twice, no_pivot]
    for M in cases:
        assert determinant(M) == _leibniz_det(M)
    if n >= 2:
        assert determinant(cases[-2]) == determinant(cases[-1]) == 0


def test_determinant_refuses_other_entries():
    # elimination's floor division is exact on int and Fraction entries only,
    # so complex numbers and floats are refused at every order
    with pytest.raises(UsageError, match="int or Fraction"):
        determinant([[1j, 2j], [3j, 4j]])
    with pytest.raises(UsageError, match="int or Fraction"):
        determinant([[1.0, 2], [3, 4]])


def test_efun_values_and_degree():
    # m=1, k=2: E(X) = x11 * x12 (two 1x1 determinants)
    assert efun((BLOCK, 1, 2), (3, 5)) == 15
    # zero primary minor forces E = 0
    assert efun((BLOCK, 1, 2), (0, 5)) == 0


def test_efun_reads_each_selected_submatrix():
    # X = [[1, 2, 3, 4], [5, 6, 7, 8]]: X_sigma takes column sigma[0] of
    # position 1 (columns 0, 1) and 2 + sigma[1] of position 2 (columns 2, 3)
    X = (1, 2, 3, 4, 5, 6, 7, 8)
    factors = {(0, 0): determinant([[1, 3], [5, 7]]), (0, 1): determinant([[1, 4], [5, 8]]),
               (1, 0): determinant([[2, 3], [6, 7]]), (1, 1): determinant([[2, 4], [6, 8]])}
    assert list(factors.values()) == [-8, -12, -4, -8]
    assert efun((BLOCK, 2, 2), X) == -8 * -12 * -4 * -8 == 3072
    # m = 1, k = 3: the three 1 x 1 selections are the three entries
    assert efun((BLOCK, 1, 3), (2, 3, 7)) == 42


def test_efun_budget():
    with pytest.raises(BudgetExceeded):
        efun((BLOCK, 3, 4), (1,) * 36, budget=10)


SQ2, BL22 = (SQUARE, 2), (BLOCK, 2, 2)


def apply(g, shape, flat, side):
    """The matrix g X, flat like X."""
    return act(var_map(g, shape, side), flat)


def test_apply_permswap_left_swaps_rows():
    assert apply(PermSwap(1), SQ2, (1, 2, 3, 4), "left") == (3, 4, 1, 2)


def test_apply_diagonal_right_scales_columns():
    assert apply(Diagonal((2, 5)), SQ2, (1, 2, 3, 4), "right") == (2, 10, 6, 20)


def test_apply_elementary_right_on_square():
    # col_2 += 3 * col_1
    assert apply(ElementaryAdd(1, 2, 3), SQ2, (1, 10, 2, 20), "right") == (1, 13, 2, 26)


def test_right_gl_action_refused_on_block():
    with pytest.raises(ShapeMismatch):
        var_map(ElementaryAdd(1, 2, 3), (BLOCK, 1, 2), "right")


def test_block_only_actions_refuse_square():
    with pytest.raises(ShapeMismatch):
        var_map(ColSwap(1), SQ2, "right")


def test_k_generator_group_orders():
    # BFS over column permutations: |S_k wr A_m| on km columns
    def order(m, k):
        gens = [column_permutation(g, m, k) for g in k_generators(m, k)]
        start = tuple(range(m * k))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = tuple(g[p[i]] for i in range(len(p)))
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        return len(seen)

    assert order(2, 2) == 4  # 2^2 * |A_2| = 4
    assert order(3, 2) == 24  # 2^3 * |A_3| = 8 * 3
    assert order(2, 3) == 36  # 6^2 * |A_2| = 36


def test_efun_invariant_under_k_generators():
    rng = random.Random(5)
    for m, k in ((2, 2), (3, 2), (2, 3)):
        shape = (BLOCK, m, k)
        X = tuple(rng.randrange(1, 50) for _ in range(m * k * m))
        base = efun(shape, X)
        for g in k_generators(m, k):
            assert efun(shape, apply(g, shape, X, "right")) == base


def test_efun_diagonal_and_swap_laws():
    rng = random.Random(6)
    m, k = 2, 2
    e = k**m
    shape = (BLOCK, m, k)
    X = tuple(rng.randrange(1, 30) for _ in range(m * k * m))
    D = Diagonal((3, 5))
    assert efun(shape, apply(D, shape, X, "left")) == (3 * 5) ** e * efun(shape, X)
    P = PermSwap(1)
    assert efun(shape, apply(P, shape, X, "left")) == (-1) ** e * efun(shape, X)


def test_elementary_left_preserves_efun():
    rng = random.Random(7)
    shape = (BLOCK, 2, 2)
    X = tuple(rng.randrange(1, 30) for _ in range(8))
    g = ElementaryAdd(1, 2, 4)
    assert efun(shape, apply(g, shape, X, "left")) == efun(shape, X)


def test_perm_symmetry_laws_oracle_level():
    rng = random.Random(8)
    n = 3
    shape = (SQUARE, n)
    M = tuple(rng.randrange(1, 40) for _ in range(n * n))

    def perm(flat):
        return permanent(zip(*[iter(flat)] * n))  # the rows of flat

    base = perm(M)
    assert perm(apply(PermSwap(2), shape, M, "left")) == base
    assert perm(apply(Diagonal((2, 3, 4)), shape, M, "right")) == 24 * base


# every guard of the oracles and the group maps: its call, error and message
ORACLE_GUARDS = {
    "permanent-empty": (lambda: permanent([]), UsageError, "nonempty square"),
    "permanent-ragged": (lambda: permanent([[1, 2]]), UsageError, "nonempty square"),
    "efun-square": (lambda: efun((SQUARE, 1), (1,)), UsageError, "block assignment"),
    "efun-length": (lambda: efun(BL22, (1, 2, 3)), ShapeMismatch,
                    "block 2 x 4 needs 8 entries, got 3"),
    "colswap-k-1": (lambda: column_permutation(ColSwap(1), 2, 1), ShapeMismatch,
                    "k >= 2"),
    "colswap-position": (lambda: column_permutation(ColSwap(3), 2, 2), ShapeMismatch,
                         "position 3 outside 1..2"),
    "colcycle-position": (lambda: column_permutation(ColCycle(0), 2, 3), ShapeMismatch,
                          "position 0 outside 1..2"),
    "posthreecycle-repeat": (lambda: column_permutation(PosThreeCycle(1, 1, 2), 3, 2),
                             ShapeMismatch, "invalid for m=3"),
    "posthreecycle-range": (lambda: column_permutation(PosThreeCycle(1, 2, 4), 3, 2),
                            ShapeMismatch, "invalid for m=3"),
    "column-not-wreath": (lambda: column_permutation(PermSwap(1), 2, 2), ShapeMismatch,
                          "PermSwap is not a block column action"),
    "side": (lambda: var_map(PermSwap(1), SQ2, "up"), UsageError, "side must be"),
    "permswap-range": (lambda: var_map(PermSwap(2), SQ2, "left"), ShapeMismatch,
                       "PermSwap(2) needs adjacent pair within 2"),
    "rowcycle-repeat": (lambda: var_map(RowCycle(1, 2, 2), ("square", 3), "left"),
                        ShapeMismatch, "invalid for size 3"),
    "rowcycle-range": (lambda: var_map(RowCycle(1, 2, 3), SQ2, "right"), ShapeMismatch,
                       "invalid for size 2"),
    "diagonal-length": (lambda: var_map(Diagonal((1, 2, 3)), BL22, "left"), ShapeMismatch,
                        "diagonal of length 3 against dimension 2"),
    "not-an-element": (lambda: var_map(None, SQ2, "left"), ShapeMismatch,
                       "unsupported action NoneType"),
    "add-same-row": (lambda: add_pairs(1, 1, SQ2, "left"), ShapeMismatch,
                     "ElementaryAdd(1,1) against dimension 2"),
    "add-range": (lambda: add_pairs(1, 5, BL22, "right"), ShapeMismatch,
                  "ElementaryAdd(1,5) against dimension 4"),
    "k-generators": (lambda: k_generators(0, 2), UsageError, "m >= 1 and k >= 1"),
}


@pytest.mark.parametrize("call, error, message", ORACLE_GUARDS.values(),
                         ids=ORACLE_GUARDS.keys())
def test_oracle_guards(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()

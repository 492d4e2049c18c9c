"""Reference oracles and group actions.

The permanent is computed two independent ways (Ryser and, for n <= 6, the
naive permutation expansion) and the two routes are compared at runtime; a
disagreement is an internal error worth crashing on.  The E-function oracle
multiplies the Bareiss determinants of all selected m x m submatrices of a
block matrix, one per choice vector sigma in [k]^m.

Group elements are small frozen descriptors.  Left action means row
operations (square or block, acting by an nrows-sized matrix); right action
means column operations on squares, and the wreath-style column permutations
(choice swaps/cycles per position, even position 3-cycles) on blocks.
`var_map` is the one place that says how an element moves the row-major
variables of a matrix: a destination permutation, a per-variable scale,
or row-add pairs with their multiplier.  `act` applies that map to a matrix
given as a flat row-major tuple, the one matrix format (see `matrices`).
The exhaustive checks and the symmetry nullspace in `symtests` apply the
same map to polynomials.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import BudgetExceeded, ShapeMismatch, SizeLimit, UsageError
from .matrices import BLOCK, row_width

_NAIVE_CAP = 6
ORDER_CAP = 12  # largest matrix order permanent and determinant accept


def _rows_of(M, what: str) -> tuple[tuple, ...]:
    """M's rows, a sequence of rows, once it is known square and within
    ORDER_CAP for `what`."""
    rows = tuple(tuple(r) for r in M)
    if not rows or any(len(r) != len(rows) for r in rows):
        raise UsageError("need a nonempty square matrix")
    if len(rows) > ORDER_CAP:
        raise SizeLimit(f"{what} of order {len(rows)} exceeds the cap {ORDER_CAP}")
    return rows


def _leibniz_permanent(rows):
    """Sum over permutations p of prod_i rows[i][p[i]]: the permanent by its
    definition, the cross-check of Ryser's route up to order 6."""
    n = len(rows)
    acc = None
    for perm in itertools.permutations(range(n)):
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        acc = term if acc is None else acc + term
    return acc


def _ryser_permanent(rows):
    # (-1)^n * sum over nonempty S of (-1)^|S| prod_i sum_{j in S} a_ij
    n = len(rows)
    acc = None
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        term = None
        for i in range(n):
            s = rows[i][cols[0]]
            for j in cols[1:]:
                s = s + rows[i][j]
            term = s if term is None else term * s
        if len(cols) % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    if n % 2 == 1:
        acc = -acc
    return acc


def permanent(M):
    """Exact permanent; Ryser route, cross-checked naively for n <= 6."""
    rows = _rows_of(M, "permanent")
    val = _ryser_permanent(rows)
    if len(rows) <= _NAIVE_CAP:
        ref = _leibniz_permanent(rows)
        if ref != val:
            raise AssertionError("permanent routes disagree; arithmetic bug")  # unreachable: both are perm(rows)
    return val


def _bareiss_determinant(rows):
    # fraction-free; entries must be Python ints (or Fractions)
    n = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0 * prev
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num // prev if isinstance(num, int) else num / prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def determinant(M):
    """Exact determinant by fraction-free (Bareiss 1968) elimination at every

    order; entries must be int or Fraction, others raise UsageError."""
    rows = _rows_of(M, "determinant")
    if not all(isinstance(v, (int, Fraction)) for row in rows for v in row):
        raise UsageError("determinant needs int or Fraction entries")
    return _bareiss_determinant(rows)


def efun(shape: tuple, flat: Sequence, budget: int = 4096):
    """Product of det(X_sigma) over all choice vectors sigma in [k]^m, X the
    block matrix `flat` of `shape` and X_sigma's column i X's column
    i*k + sigma[i].  Early-exits on the first zero factor; refuses to run
    when k^m exceeds the factor budget."""
    if shape[0] != BLOCK:
        raise UsageError("efun needs a block assignment")
    if budget < 1:
        raise UsageError(f"budget must be at least 1, got {budget}")
    _, m, k = shape
    width = k * m
    if len(flat) != m * width:
        raise ShapeMismatch(f"block {m} x {width} needs {m * width} entries, got {len(flat)}")
    if k**m > budget:
        raise BudgetExceeded(f"{k}^{m} determinant factors exceed budget {budget}")
    acc = None
    for sigma in itertools.product(range(k), repeat=m):
        d = determinant([flat[r * width + i * k + s] for i, s in enumerate(sigma)]
                        for r in range(m))
        if not d:
            return d
        acc = d if acc is None else acc * d
    return acc


# ---------------------------------------------------------------------------
# Group element descriptors.  Row/position indices in descriptors are
# 1-indexed to match the written notation; storage stays 0-indexed.


class ElementaryAdd(NamedTuple):
    """Row (or column, on the right) i += y * row j; i != j, 1-indexed."""

    i: int
    j: int
    y: int


class Diagonal(NamedTuple):
    entries: tuple[int, ...]


class PermSwap(NamedTuple):
    """Transposition of adjacent rows/columns i, i+1 (1-indexed)."""

    i: int


class RowCycle(NamedTuple):
    """3-cycle a -> b -> c -> a on rows/columns; an even permutation."""

    a: int
    b: int
    c: int


class ColSwap(NamedTuple):
    """Swap choice columns 1 and 2 at position i (block right action)."""

    i: int


class ColCycle(NamedTuple):
    """Cycle all k choice columns at position i (block right action)."""

    i: int


class PosThreeCycle(NamedTuple):
    """3-cycle a -> b -> c -> a on positions, moving whole k-column groups."""

    a: int
    b: int
    c: int


GroupElement = (
    ElementaryAdd | Diagonal | PermSwap | RowCycle | ColSwap | ColCycle | PosThreeCycle
)
_K_KINDS = (ColSwap, ColCycle, PosThreeCycle)


def column_permutation(g: GroupElement, m: int, k: int) -> tuple[int, ...]:
    """The permutation of the k*m block columns induced by a wreath element.

    Returned as dest with dest[c] = new index of old column c.
    """
    if isinstance(g, ColSwap):
        if k < 2:
            raise ShapeMismatch("ColSwap needs k >= 2")
        if not 1 <= g.i <= m:
            raise ShapeMismatch(f"ColSwap position {g.i} outside 1..{m}")
        base = (g.i - 1) * k
        dest = list(range(m * k))
        dest[base], dest[base + 1] = base + 1, base
        return tuple(dest)
    if isinstance(g, ColCycle):
        if not 1 <= g.i <= m:
            raise ShapeMismatch(f"ColCycle position {g.i} outside 1..{m}")
        base = (g.i - 1) * k
        dest = list(range(m * k))
        for j in range(k):
            dest[base + j] = base + (j + 1) % k
        return tuple(dest)
    if isinstance(g, PosThreeCycle):
        a, b, c = g.a, g.b, g.c
        if len({a, b, c}) != 3 or not all(1 <= v <= m for v in (a, b, c)):
            raise ShapeMismatch(f"PosThreeCycle{(a, b, c)} invalid for m={m}")
        posdest = list(range(m + 1))
        posdest[a], posdest[b], posdest[c] = b, c, a
        dest = list(range(m * k))
        for pos in range(1, m + 1):
            for j in range(k):
                dest[(pos - 1) * k + j] = (posdest[pos] - 1) * k + j
        return tuple(dest)
    raise ShapeMismatch(f"{type(g).__name__} is not a block column action")


def var_map(g: GroupElement, shape: tuple, side: str) -> tuple:
    """How g moves the row-major variables x_v of a matrix of `shape`.

    Returns (dest, scale, add), exactly one of them set: the part g uses,
    the others None.  A permutation moves x_v to index dest[v]; a diagonal
    multiplies each x_v by scale[v]; a row addition does x_d += y * x_s for
    every (d, s) in pairs, where add = (pairs, y).  'left' acts on rows,
    'right' on columns.

    No map is cached here.  A permutation's dest is built once per shape by
    the suites' cached laws (symtests._perm_swaps and _efun_fixed_laws) and
    read through mover's cache, by act or a suite template; Diagonal and
    ElementaryAdd carry drawn entries, so their maps are built per call
    from cached per-shape parts, scale_reader's index and add_pairs.
    """
    if side not in ("left", "right"):
        raise UsageError(f"side must be 'left' or 'right', got {side!r}")
    block = shape[0] == BLOCK
    nrows, ncols = shape[1], row_width(shape)

    if isinstance(g, _K_KINDS):
        if side != "right" or not block:
            raise ShapeMismatch(
                f"{type(g).__name__} acts on block columns from the right"
            )
        cols = column_permutation(g, *shape[1:])
        return tuple([r * ncols + c for r in range(nrows) for c in cols]), None, None

    if side == "right" and block:
        raise ShapeMismatch("right action on a block uses the wreath generators")

    dim = nrows if side == "left" else ncols
    if isinstance(g, (PermSwap, RowCycle)):
        line = list(range(dim))  # line[r] = new index of old row (column) r
        if isinstance(g, PermSwap):
            if not 1 <= g.i < dim:
                raise ShapeMismatch(f"PermSwap({g.i}) needs adjacent pair within {dim}")
            line[g.i - 1], line[g.i] = g.i, g.i - 1
        else:
            a, b, c = g.a - 1, g.b - 1, g.c - 1
            if len({a, b, c}) != 3 or not all(0 <= v < dim for v in (a, b, c)):
                raise ShapeMismatch(f"RowCycle{(g.a, g.b, g.c)} invalid for size {dim}")
            line[a], line[b], line[c] = b, c, a
        rows, cols = (line, range(ncols)) if side == "left" else (range(nrows), line)
        return tuple([r * ncols + c for r in rows for c in cols]), None, None

    if isinstance(g, Diagonal):
        if len(g.entries) != dim:
            raise ShapeMismatch(
                f"diagonal of length {len(g.entries)} against dimension {dim}"
            )
        return None, scale_reader(shape, side)(g.entries), None

    if isinstance(g, ElementaryAdd):
        return None, None, (add_pairs(g.i, g.j, shape, side), g.y)

    raise ShapeMismatch(f"unsupported action {type(g).__name__} on side {side!r}")


def reader(index: Sequence[int]):
    """A function returning a sequence's entries at `index`, as a tuple even for one."""
    get = itemgetter(*index)
    return get if len(index) > 1 else lambda seq: (get(seq),)


@lru_cache(maxsize=1024)
def mover(dest: tuple):
    """The reader that moves entry v of a point to index dest[v]."""
    return reader(sorted(range(len(dest)), key=dest.__getitem__))


@lru_cache(maxsize=64)
def scale_reader(shape: tuple, side: str):
    """The reader taking a diagonal's entries, as many as the side needs, to
    its scale: each variable's row entry on the left, column entry on the
    right.  It and add_pairs are the parts of a drawn element's map that do
    not depend on its draws; the sampled suites build their laws on them."""
    ncols = row_width(shape)
    return reader([v // ncols if side == "left" else v % ncols for v in range(shape[1] * ncols)])


@lru_cache(maxsize=256)
def add_pairs(i: int, j: int, shape: tuple, side: str) -> tuple:
    """The (d, s) pairs of ElementaryAdd(i, j, y)'s map, for every y."""
    nrows, ncols = shape[1], row_width(shape)
    dim = nrows if side == "left" else ncols
    if i == j or not (1 <= i <= dim and 1 <= j <= dim):
        raise ShapeMismatch(f"ElementaryAdd({i},{j}) against dimension {dim}")
    if side == "left":  # row i += y * row j
        return tuple([((i - 1) * ncols + c, (j - 1) * ncols + c) for c in range(ncols)])
    # column j += y * column i
    return tuple([(r * ncols + j - 1, r * ncols + i - 1) for r in range(nrows)])


def act(vmap: tuple, flat: Sequence) -> tuple:
    """The point g X, flat row-major like X, for vmap = var_map(g, shape, side).

    var_map gives every element exactly one part, so each part has its own
    direct path."""
    dest, scale, add = vmap
    if dest is not None:  # x_v moves to dest[v]
        return mover(dest)(flat)
    if scale is not None:  # x_v times scale[v]
        # through a list: tuple(map(...)) grows its tuple by resizing, and
        # that raised a sampled suite run's peak RSS by 1 MB
        return tuple([f * v for f, v in zip(scale, flat)])
    pairs, y = add  # x_d += y * x_s
    vals = list(flat)
    for d, s in pairs:
        vals[d] += y * vals[s]
    return tuple(vals)


def k_generators(m: int, k: int) -> tuple[GroupElement, ...]:
    """Generators of the column symmetry group: per-position choice swaps and

    k-cycles (generating each S_k factor) plus position 3-cycles (1,2,j)
    generating the even position permutations for m >= 3."""
    if m < 1 or k < 1:
        raise UsageError("need m >= 1 and k >= 1")
    gens: list[GroupElement] = []
    for i in range(1, m + 1):
        if k >= 2:
            gens.append(ColSwap(i))
        if k >= 3:
            gens.append(ColCycle(i))
    for j in range(3, m + 1):
        gens.append(PosThreeCycle(1, 2, j))
    return tuple(gens)

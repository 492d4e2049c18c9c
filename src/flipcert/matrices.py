"""Matrix shapes, and the matrix form of evaluation points.

Two shapes exist: a plain n x n square, and the m x (k*m) block shape whose
columns come in m choice-groups of k.  Block column (j, i) means choice j at
position i (both 1-indexed in the notation; storage is a flat 0-indexed
grid, column index (i-1)*k + (j-1)).  Flattening is row-major and matches
circuit input numbering.  Query suites and certificates keep their points
flat, as row-major int tuples with the suite's shape held once beside them;
`MatrixAssignment`, rows plus shape, is the form of `.mat` files and of the
oracles' inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ParseError, ShapeMismatch, UsageError

SQUARE = "square"
BLOCK = "block"


@dataclass(frozen=True)
class MatrixAssignment:
    shape: tuple
    entries: tuple[tuple, ...]

    @staticmethod
    def square(rows: Sequence[Sequence]) -> "MatrixAssignment":
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ShapeMismatch("square assignment needs n rows of length n")
        return MatrixAssignment((SQUARE, n), tuple(tuple(r) for r in rows))

    @staticmethod
    def block(m: int, k: int, rows: Sequence[Sequence]) -> "MatrixAssignment":
        if m < 1 or k < 1:
            raise UsageError("block shape needs m >= 1 and k >= 1")
        if len(rows) != m or any(len(r) != k * m for r in rows):
            raise ShapeMismatch(f"block assignment needs {m} rows of length {k * m}")
        return MatrixAssignment((BLOCK, m, k), tuple(tuple(r) for r in rows))

    @staticmethod
    def from_flat(shape: tuple, values: Sequence) -> "MatrixAssignment":
        """Inverse of flatten(): row-major values back into rows of `shape`."""
        w = row_width(shape)
        return MatrixAssignment(shape, tuple(zip(*[iter(values)] * w)))  # runs of w

    def column(self, c: int) -> tuple:
        return tuple(row[c] for row in self.entries)

    def selected_submatrix(self, sigma: Sequence[int]) -> tuple[tuple, ...]:
        """m x m matrix whose i-th column is choice sigma[i] at position i+1.

        sigma is 0-indexed (entries in range(k))."""
        _, m, k = self.shape
        cols = [self.column(i * k + sigma[i]) for i in range(m)]
        return tuple(tuple(cols[c][r] for c in range(m)) for r in range(m))

    def flatten(self) -> tuple:
        out = []
        for row in self.entries:
            out.extend(row)
        return tuple(out)

    def to_text(self) -> str:
        if self.shape[0] == SQUARE:
            head = f"square {self.shape[1]}"
        else:
            head = f"block {self.shape[1]} {self.shape[2]}"
        lines = [head]
        for row in self.entries:
            lines.append(" ".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def row_width(shape: tuple) -> int:
    """Entries per row: n for (SQUARE, n), k * m for (BLOCK, m, k)."""
    return shape[1] * (shape[2] if shape[0] == BLOCK else 1)


def matrix_from_text(text: str) -> MatrixAssignment:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty matrix text")
    head = lines[0].split()
    try:
        if head[0] == SQUARE and len(head) == 2:
            n = int(head[1])
            rows = _int_rows(lines[1:], n, n)
            return MatrixAssignment.square(rows)
        if head[0] == BLOCK and len(head) == 3:
            m, k = int(head[1]), int(head[2])
            rows = _int_rows(lines[1:], m, k * m)
            return MatrixAssignment.block(m, k, rows)
    except (ValueError, UsageError) as e:
        raise ParseError(f"bad matrix body: {e}") from None
    raise ParseError(f"unrecognized matrix header: {lines[0]!r}")


def _int_rows(lines: Sequence[str], nrows: int, ncols: int) -> list[list[int]]:
    if len(lines) != nrows:
        raise ValueError(f"expected {nrows} rows, got {len(lines)}")
    rows = []
    for ln in lines:
        row = [int(tok) for tok in ln.split()]
        if len(row) != ncols:
            raise ValueError(f"expected {ncols} entries per row, got {len(row)}")
        rows.append(row)
    return rows

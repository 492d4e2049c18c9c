"""Matrix shapes, and the `.mat` text form of a matrix.

Two shapes exist: a plain n x n square, and the m x (k*m) block shape whose
columns come in m choice-groups of k.  Block column (j, i) means choice j at
position i (both 1-indexed in the notation; storage is a flat 0-indexed
grid, column index (i-1)*k + (j-1)).  Every matrix, a `.mat` file's, an
oracle's input or a query or certificate point, is its shape plus a flat
row-major tuple of its entries, numbered as circuit inputs are.
"""

from __future__ import annotations

from .errors import ParseError

SQUARE = "square"
BLOCK = "block"


def row_width(shape: tuple) -> int:
    """Entries per row: n for (SQUARE, n), k * m for (BLOCK, m, k)."""
    return shape[1] * (shape[2] if shape[0] == BLOCK else 1)


def matrix_text(shape: tuple, flat: tuple[int, ...]) -> str:
    """The `.mat` form: a `square n` or `block m k` header, then one line per row."""
    rows = zip(*[iter(flat)] * row_width(shape))  # runs of a row's width
    return "".join(" ".join(map(str, line)) + "\n" for line in (shape, *rows))


def matrix_from_text(text: str) -> tuple[tuple, tuple[int, ...]]:
    """The (shape, flat) of a `.mat` text; a malformed one is a ParseError."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty matrix text")
    head = lines[0].split()
    if (head[0], len(head)) not in ((SQUARE, 2), (BLOCK, 3)):
        raise ParseError(f"unrecognized matrix header: {lines[0]!r}")
    try:
        shape = (head[0], *map(int, head[1:]))
        if min(shape[1:]) < 1:
            raise ValueError(f"{head[0]} shape needs dimensions >= 1")
        nrows, width = shape[1], row_width(shape)
        if len(lines) - 1 != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(lines) - 1}")
        flat: list[int] = []
        for ln in lines[1:]:
            row = [int(tok) for tok in ln.split()]
            if len(row) != width:
                raise ValueError(f"expected {width} entries per row, got {len(row)}")
            flat.extend(row)
    except ValueError as e:
        raise ParseError(f"bad matrix body: {e}") from None
    return shape, tuple(flat)

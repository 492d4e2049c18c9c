"""Matrix shapes and the `.mat` text form: a matrix is a shape plus a flat
row-major tuple."""

from __future__ import annotations

import pytest

from flipcert.errors import ParseError
from flipcert.matrices import BLOCK, SQUARE, matrix_from_text, matrix_text, row_width


def test_square_basics():
    assert matrix_from_text("square 2\n1 2\n3 4\n") == ((SQUARE, 2), (1, 2, 3, 4))
    assert matrix_text((SQUARE, 2), (1, 2, 3, 4)) == "square 2\n1 2\n3 4\n"


# every malformed shape or body: the text and its error
BAD_TEXTS = {
    "header-arity": ("block 2\n1 2\n3 4\n", "unrecognized matrix header"),
    "dimension": ("square x\n", "bad matrix body: invalid literal"),
    "square-0": ("square 0\n", "bad matrix body: square shape needs dimensions >= 1"),
    "block-m-0": ("block 0 2\n", "bad matrix body: block shape needs dimensions >= 1"),
    "block-k-0": ("block 1 0\n1\n", "bad matrix body: block shape needs dimensions >= 1"),
    "ragged": ("square 2\n1 2\n3\n", "bad matrix body: expected 2 entries per row, got 1"),
    "row-width": ("block 2 2\n1 2 3\n4 5 6\n",
                  "bad matrix body: expected 4 entries per row, got 3"),
    "entry": ("square 1\n1.5\n", "bad matrix body: invalid literal"),
}


def test_shape_validation():
    for text, message in BAD_TEXTS.values():
        with pytest.raises(ParseError, match=message):
            matrix_from_text(text)


@pytest.mark.parametrize("shape, width", (((SQUARE, 3), 3), ((BLOCK, 2, 3), 6),
                                          ((BLOCK, 3, 1), 3)))
def test_row_width(shape, width):
    assert row_width(shape) == width
    flat = tuple(range(shape[1] * width))
    # one text line per row of `width` entries
    assert matrix_text(shape, flat).splitlines()[1] == " ".join(map(str, flat[:width]))
    assert matrix_from_text(matrix_text(shape, flat)) == (shape, flat)


def test_text_roundtrip_square():
    text = "square 2\n1 -2\n30 4\n"
    assert matrix_from_text(text) == ((SQUARE, 2), (1, -2, 30, 4))
    assert matrix_text(*matrix_from_text(text)) == text


def test_text_roundtrip_block():
    flat = (1, 2, 3, 4, 5, 6, 7, 8)
    text = matrix_text((BLOCK, 2, 2), flat)
    assert text == "block 2 2\n1 2 3 4\n5 6 7 8\n"
    assert matrix_from_text(text) == ((BLOCK, 2, 2), flat)


def test_text_comments_and_errors():
    text = "# sample\nsquare 2\n\n1 2\n  3 4  \n"
    assert matrix_from_text(text) == ((SQUARE, 2), (1, 2, 3, 4))
    with pytest.raises(ParseError, match="empty matrix text"):
        matrix_from_text("# only a comment\n")
    with pytest.raises(ParseError, match="expected 2 rows, got 1"):
        matrix_from_text("square 2\n1 2\n")
    with pytest.raises(ParseError, match="unrecognized matrix header: 'triangle 2'"):
        matrix_from_text("triangle 2\n1 2\n3 4\n")

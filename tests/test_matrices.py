"""Matrix assignments: square and block shapes, column addressing, text io."""

from __future__ import annotations

import pytest

from flipcert.errors import ParseError, ShapeMismatch, UsageError
from flipcert.matrices import MatrixAssignment, matrix_from_text, row_width


def test_square_basics():
    X = MatrixAssignment.square([[1, 2], [3, 4]])
    assert X.shape == ("square", 2)
    assert X.flatten() == (1, 2, 3, 4)


def test_selected_submatrix():
    X = MatrixAssignment.block(2, 2, [[1, 2, 3, 4], [5, 6, 7, 8]])
    # sigma = (0, 0): first choice from both vectors
    assert X.selected_submatrix((0, 0)) == ((1, 3), (5, 7))
    assert X.selected_submatrix((1, 0)) == ((2, 3), (6, 7))


def test_shape_validation():
    with pytest.raises(ShapeMismatch):
        MatrixAssignment.square([[1, 2], [3]])
    with pytest.raises(ShapeMismatch):
        MatrixAssignment.block(2, 2, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(UsageError, match="m >= 1 and k >= 1"):
        MatrixAssignment.block(0, 2, [])


@pytest.mark.parametrize("shape, width", ((("square", 3), 3), (("block", 2, 3), 6),
                                          (("block", 3, 1), 3)))
def test_row_width(shape, width):
    assert row_width(shape) == width
    values = tuple(range(shape[1] * width))
    assert MatrixAssignment.from_flat(shape, values).entries[0] == values[:width]


def test_text_roundtrip_square():
    X = MatrixAssignment.square([[1, -2], [30, 4]])
    text = X.to_text()
    assert matrix_from_text(text) == X


def test_text_roundtrip_block():
    X = MatrixAssignment.block(2, 2, [[1, 2, 3, 4], [5, 6, 7, 8]])
    assert matrix_from_text(X.to_text()) == X


def test_text_comments_and_errors():
    text = "# sample\nsquare 2\n1 2\n3 4\n"
    assert matrix_from_text(text).flatten() == (1, 2, 3, 4)
    with pytest.raises(ParseError):
        matrix_from_text("square 2\n1 2\n")
    with pytest.raises(ParseError):
        matrix_from_text("triangle 2\n1 2\n3 4\n")

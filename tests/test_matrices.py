"""Matrix assignments: square and block shapes, column addressing, text io."""

from __future__ import annotations

import pytest

from flipcert.errors import IndexOutOfRange, ParseError, ShapeMismatch
from flipcert.matrices import MatrixAssignment, matrix_from_text


def test_square_basics():
    X = MatrixAssignment.square([[1, 2], [3, 4]])
    assert X.shape == ("square", 2)
    assert X.nrows == 2 and X.ncols == 2
    assert X.flatten() == (1, 2, 3, 4)


def test_block_column_addressing():
    # m=2, k=3: storage column of choice j for vector i is (i-1)*k + (j-1)
    X = MatrixAssignment.block(2, 3, [[1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]])
    assert X.shape == ("block", 2, 3)
    assert X.block_column(1, 1) == (1, 7)
    assert X.block_column(3, 2) == (6, 12)
    with pytest.raises(IndexOutOfRange):
        X.block_column(4, 1)


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

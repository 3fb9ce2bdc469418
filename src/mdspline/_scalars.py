"""Scalar-field helpers.

Every numerical kernel in this package is written against a generic scalar
field so the same code runs in float64 (production) and in exact rational
arithmetic (the built-in oracle). A field is identified by the callable used
to convert plain Python numbers: ``float`` or ``fractions.Fraction``, no other
(`int` would truncate the breakpoints, `np.float32` round them). Only the
functions that make scalars from a space or from plain numbers take a field;
the rest read it from the arrays (`field_of`) or bundles they are given.
Fraction(float) is exact, so converting the stored double-precision
breakpoints loses nothing.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

FLOAT = float
EXACT = Fraction


def is_exact(field) -> bool:
    return field is Fraction


def dtype_of(field):
    if field is FLOAT:
        return np.float64
    if field is Fraction:
        return object
    raise ValueError(f"field must be FLOAT or EXACT, not {field!r}")


def field_of(array: np.ndarray):
    """The field whose scalars `array` holds: the inverse of `dtype_of`."""
    return Fraction if array.dtype == object else FLOAT


def zeros(shape, field) -> np.ndarray:
    if field is Fraction:
        arr = np.empty(shape, dtype=object)
        arr[...] = Fraction(0)
        return arr
    return np.zeros(shape, dtype=np.float64)


def eye(n: int, field, cols: int | None = None) -> np.ndarray:
    """The n x cols identity, n x n by default, as `np.eye` makes it."""
    if field is Fraction:
        arr = zeros((n, n if cols is None else cols), Fraction)
        arr[np.eye(*arr.shape, dtype=bool)] = Fraction(1)
        return arr
    return np.eye(n, cols, dtype=np.float64)


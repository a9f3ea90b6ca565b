"""Small exact integer-matrix helpers.

Matrices are tuples (or lists) of rows of Python ints, so every operation
here is arbitrary precision and exact.  Rational vectors enter integer
arithmetic through :func:`scaled`, which puts them over one common
denominator; :func:`frac_matvec` multiplies that way, so it builds one
``Fraction`` per output entry rather than one per product and sum.  Nothing
in this module knows about tori; it is shared plumbing for the lattice and
geometry layers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

Matrix = tuple[tuple[int, ...], ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(mat: Sequence[Sequence[int]]) -> Matrix:
    return tuple(zip(*[tuple(row) for row in mat]))


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def matvec(mat: Sequence[Sequence[int]], vec: Sequence) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, vec)) for row in mat)


def columns(mat: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The columns of a row-major matrix, as vectors."""
    return tuple(zip(*[tuple(row) for row in mat]))


def from_columns(cols: Sequence[Sequence[int]]) -> Matrix:
    """Row-major matrix whose j-th column is cols[j]."""
    return tuple(zip(*[tuple(c) for c in cols]))


def det(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("square matrix required")
    if n == 0:
        return 1
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: the division is exact by construction.
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _minor(mat: Sequence[Sequence[int]], i: int, j: int) -> list[list[int]]:
    return [
        [x for c, x in enumerate(row) if c != j]
        for r, row in enumerate(mat)
        if r != i
    ]


def adjugate(mat: Sequence[Sequence[int]]) -> Matrix:
    n = len(mat)
    if n == 1:
        return ((1,),)
    cof = [
        [(-1) ** (i + j) * det(_minor(mat, i, j)) for j in range(n)]
        for i in range(n)
    ]
    return transpose(cof)


def inverse_unimodular(mat: Sequence[Sequence[int]]) -> Matrix:
    """Exact integer inverse of a matrix with determinant +-1."""
    d = det(mat)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    adj = adjugate(mat)
    if d == 1:
        return adj
    return tuple(tuple(-x for x in row) for row in adj)


def scaled(vec: Sequence) -> tuple[int, tuple[int, ...]]:
    """A vector of Fractions (or ints) as (den, ints) with vec = ints / den,
    where den is the least common denominator of the entries."""
    den = lcm(*(x.denominator for x in vec))
    return den, tuple(x.numerator * (den // x.denominator) for x in vec)


def frac_matvec(mat: Sequence[Sequence[int]], vec: Sequence) -> tuple[Fraction, ...]:
    """Integer matrix times a vector of Fractions (or ints)."""
    den, ints = scaled(vec)
    return tuple(Fraction(sum(map(mul, row, ints)), den) for row in mat)

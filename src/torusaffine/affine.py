"""Affine torus automorphisms x -> Ax + b, integral or modulo m."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .geometry import RatPoint, origin
from .intmat import Matrix, det, frac_matvec, identity as identity_matrix
from .lattice import matrix_inverse


def balanced_residue(x: int, m: int) -> int:
    """Reduce x mod m into the balanced range (-m/2, m/2]."""
    r = x % m
    return r - m if r > m // 2 else r


@dataclass(frozen=True)
class AffineTorusAuto:
    """An invertible affine self-map of the torus (or of a grid on it).

    With ``modulus=None`` the matrix must be unimodular and the map is an
    automorphism of the whole torus.  With ``modulus=m`` the matrix lives in
    balanced residues mod m, its determinant must be a unit mod m, and the
    translation must be a grid-m point; such a map is only pinned down on
    that grid.
    """

    matrix: Matrix
    translation: RatPoint
    modulus: int | None = None

    def __post_init__(self):
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("matrix must be square")
        if self.translation.dim != n:
            raise ValueError("translation dimension mismatch")
        if self.modulus is None:
            if det(self.matrix) not in (1, -1):
                raise ValueError("matrix is not unimodular")
            return
        m = self.modulus
        if m < 2:
            raise ValueError("modulus must be at least 2")
        reduced = tuple(
            tuple(balanced_residue(a, m) for a in row) for row in self.matrix
        )
        object.__setattr__(self, "matrix", reduced)
        if gcd(det(reduced), m) != 1:
            raise ValueError("determinant is not a unit for this modulus")
        if any(m % c.denominator for c in self.translation.coords):
            raise ValueError("translation is not a grid point for this modulus")

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @classmethod
    def identity(cls, n: int, modulus: int | None = None) -> AffineTorusAuto:
        return cls(identity_matrix(n), origin(n), modulus)

    def apply(self, p: RatPoint) -> RatPoint:
        image = frac_matvec(self.matrix, p.coords)
        return RatPoint(tuple(x + b for x, b in zip(image, self.translation.coords)))

    def inverse(self) -> AffineTorusAuto:
        inv = matrix_inverse(self.matrix, self.modulus)
        shift = frac_matvec(inv, self.translation.coords)
        back = RatPoint(tuple(-x for x in shift))
        return AffineTorusAuto(inv, back, self.modulus)

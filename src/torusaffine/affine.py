"""Affine torus automorphisms x -> Ax + b, integral or modulo m."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import mul

from .geometry import RatPoint, origin
from .intmat import Matrix, adjugate, det, frac_matvec, identity as identity_matrix
from .intmat import inverse_unimodular


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
    # The translation in integer residues mod m, read once for apply_residues.
    _shift: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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
        shift = tuple(c.numerator * (m // c.denominator) for c in self.translation.coords)
        object.__setattr__(self, "_shift", shift)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @classmethod
    def identity(cls, n: int, modulus: int | None = None) -> AffineTorusAuto:
        return cls(identity_matrix(n), origin(n), modulus)

    def apply(self, p: RatPoint) -> RatPoint:
        image = frac_matvec(self.matrix, p.coords)
        return RatPoint(tuple(x + b for x, b in zip(image, self.translation.coords)))

    def apply_residues(self, x: tuple[int, ...]) -> tuple[int, ...]:
        """Apply the map to a grid point given by integer residues mod m."""
        m = self.modulus
        if m is None:
            raise ValueError("residue application needs a modulus")
        return tuple(
            (sum(map(mul, row, x)) + s) % m for row, s in zip(self.matrix, self._shift)
        )

    def inverse(self) -> AffineTorusAuto:
        if self.modulus is None:
            inv = inverse_unimodular(self.matrix)
        else:
            d_inv = pow(det(self.matrix), -1, self.modulus)
            inv = tuple(
                tuple(a * d_inv for a in row) for row in adjugate(self.matrix)
            )
        shift = frac_matvec(inv, self.translation.coords)
        back = RatPoint(tuple(-x for x in shift))
        return AffineTorusAuto(inv, back, self.modulus)

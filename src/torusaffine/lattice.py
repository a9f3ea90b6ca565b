"""Exact sublattice arithmetic in Z^n.

Vectors are tuples of Python ints.  A lattice is described by a
:class:`LatticeBasis`, a tuple of independent basis vectors stored in the
canonical column-style Hermite form used throughout the package:  stacking
the basis vectors as matrix columns, the topmost nonzero entry of each
column (its pivot) sits in a strictly later row than the pivot of the
previous column, pivots are positive, and within each pivot row the entries
left of the pivot are reduced into ``[0, pivot)``.  Any fixed convention
would do; this one makes equal lattices compare equal structurally.

All arithmetic is arbitrary precision, so there is no overflow regime to
guard against; results are exact for any input size.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

from .common import Frozen
from .intmat import Matrix, det, from_columns, matmul

IntVec = tuple[int, ...]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with g = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _integer(x) -> int:
    """x as an int; ValueError when x has a fractional part."""
    i = int(x)
    if i != x:
        raise ValueError("direction entries must be integers")
    return i


def primitive_part(v: Sequence[int]) -> tuple[IntVec, int]:
    """Split v into (prim, content) with prim primitive and sign-canonical.

    ``prim`` has coprime entries and a positive first nonzero entry;
    ``content`` is the positive gcd of the entries of v.  Consequently
    ``content * prim`` equals ``v`` up to the overall sign that the
    canonicalization may flip: it is ``+v`` exactly when the first nonzero
    entry of v is positive and ``-v`` otherwise.  A fractional entry raises
    ValueError.
    """
    vec = tuple(map(_integer, v))
    g = gcd(*vec)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    prim = tuple(x // g for x in vec)
    for x in prim:
        if x != 0:
            if x < 0:
                prim = tuple(-y for y in prim)
            break
    return prim, g


def is_primitive(v: Sequence[int]) -> bool:
    return gcd(*v) == 1


class LatticeBasis(Frozen):
    """Canonical basis of a sublattice of Z^n.

    ``vectors`` are the basis vectors in Hermite order (see module
    docstring); ``saturated`` records whether the lattice equals the
    intersection of its rational span with Z^n.  Instances are built by
    :func:`hnf` and :func:`saturate`; constructing one by hand with
    non-canonical data is unsupported.
    """

    __slots__ = ("vectors", "saturated")

    @property
    def rank(self) -> int:
        return len(self.vectors)

    @property
    def dim(self) -> int:
        if not self.vectors:
            raise ValueError("rank-0 basis has no stored ambient dimension")
        return len(self.vectors[0])

    def matrix(self) -> Matrix:
        """Row-major n-by-k matrix whose columns are the basis vectors."""
        return from_columns(self.vectors)


def _row_hnf(rows: list[list[int]]) -> list[list[int]]:
    """In-place row Hermite form: pivots positive, entries above a pivot
    reduced into [0, pivot).  Returns the nonzero rows.  Each entry below
    a pivot is cleared by one :func:`_clear` step, written out on the two
    rows: one new row when the pivot divides the entry, else two."""
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                x, y, z, w = _clear(rows[r][c], rows[i][c])
                top, row = rows[r], rows[i]
                if y:
                    rows[r] = [x * s + y * t for s, t in zip(top, row)]
                rows[i] = [z * s + w * t for s, t in zip(top, row)]
        if r == len(rows) or not rows[r][c]:
            continue
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows[:r]


def hnf(vectors: Iterable[Sequence[int]]) -> LatticeBasis:
    """Canonical Hermite basis of the lattice generated by ``vectors``.

    Dependent or repeated generators are fine; they are absorbed into the
    reduction.  An all-zero generating set yields the rank-0 basis; a
    fractional entry raises ValueError.
    """
    vecs = [list(map(_integer, v)) for v in vectors]
    if not vecs:
        raise ValueError("empty generating set")
    n = len(vecs[0])
    if any(len(v) != n for v in vecs):
        raise ValueError("generators of mixed dimension")
    reduced = _row_hnf(vecs)
    basis = tuple(tuple(row) for row in reduced)
    if not basis:
        return LatticeBasis((), True)
    return LatticeBasis(basis, _minors_gcd(basis) == 1)


def _minors_gcd(basis: Sequence[Sequence[int]]) -> int:
    """The gcd of the k-by-k minors of k independent vectors, which is the
    product of their Smith invariants: the entries' gcd at rank 1, |det|
    at full rank.  Stops early once the gcd reaches 1."""
    k = len(basis)
    if k == 1:
        return gcd(*basis[0])
    if k == 2:
        a, b = basis
        pairs = combinations(range(len(a)), 2)
        return gcd(*(a[i] * b[j] - a[j] * b[i] for i, j in pairs))
    g = 0
    for cols in combinations(range(len(basis[0])), k):
        g = gcd(g, det([[v[c] for c in cols] for v in basis]))
        if g == 1:
            break
    return g


def is_unimodular(mat: Sequence[Sequence[int]]) -> bool:
    """True when the square integer matrix has determinant +1 or -1.

    Rows versus columns does not matter: the determinant is transpose
    invariant, so a tuple of basis vectors can be passed directly.
    """
    return det(mat) in (1, -1)


def _eye(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _step(mats, i, j, x, y, z, w) -> None:
    """Set rows i, j of each of mats to x*row_i + y*row_j, z*row_i + w*row_j."""
    for rows in mats:
        ri, rj = rows[i], rows[j]
        if x != 1 or y:
            rows[i] = [x * p + y * q for p, q in zip(ri, rj)]
        if z or w != 1:
            rows[j] = [z * p + w * q for p, q in zip(ri, rj)]


def _clear(p: int, b: int) -> tuple[int, int, int, int]:
    """A determinant-1 step (x, y, z, w) taking (p, b) to (+-gcd(p, b), 0):
    a plain subtraction when p divides b, else the extended-gcd step, which
    at p = 0 is a signed swap."""
    if p and b % p == 0:
        return 1, 0, -(b // p), 1
    g, x, y = xgcd(p, b)
    return x, y, -(b // g), p // g


def _smith(mat: Sequence[Sequence[int]], track_inverse: bool):
    """The Smith reduction of :func:`snf_decomposition` as lists of rows
    (a, u, vt, ut): vt is v transposed, and ut is u^-1 transposed, kept by
    the inverse of each row operation on u, when ``track_inverse``.  Each
    entry is cleared by one :func:`_clear` step (Cohen, GTM 138, 2.4)."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    a = [list(map(int, row)) for row in mat]
    u = _eye(nrows)
    vt = _eye(ncols)
    ut = _eye(nrows) if track_inverse else None
    # Row swaps and sign flips are their own inverses, so they act on ut
    # alike; a step (x, y, z, w) acts on ut as its inverse transposed.
    alike, inverse = ((a, u), ()) if ut is None else ((a, u, ut), (ut,))
    for t in range(min(nrows, ncols)):
        # the pivot: the first nonzero entry of the block, column by column
        cells = ((i, j) for j in range(t, ncols) for i in range(t, nrows) if a[i][j])
        i, j = next(cells, (None, None))
        if i is None:
            break
        if i != t:
            for rows in alike:
                rows[t], rows[i] = rows[i], rows[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
            vt[t], vt[j] = vt[j], vt[t]
        while True:
            for i in range(t + 1, nrows):
                if a[i][t]:
                    x, y, z, w = _clear(a[t][t], a[i][t])
                    _step((a, u), t, i, x, y, z, w)
                    _step(inverse, t, i, w, -z, -y, x)
            for j in range(t + 1, ncols):
                if a[t][j]:
                    x, y, z, w = _clear(a[t][t], a[t][j])
                    for row in a:
                        row[t], row[j] = x * row[t] + y * row[j], z * row[t] + w * row[j]
                    _step((vt,), t, j, x, y, z, w)
            if any(a[i][t] for i in range(t + 1, nrows)):
                continue  # a gcd step on the columns refilled column t
            # enforce the divisor chain before moving on
            pivot, rest = a[t][t], range(t + 1, nrows)
            chain = (i for i in rest if any(x % pivot for x in a[i][t + 1 :]))
            offender = next(chain, None)
            if offender is None:
                break
            _step((a, u), t, offender, 1, 1, 0, 1)
            _step(inverse, t, offender, 1, 0, -1, 1)
        if a[t][t] < 0:
            for rows in alike:
                rows[t] = [-x for x in rows[t]]
    return a, u, vt, ut


def snf_decomposition(
    mat: Sequence[Sequence[int]],
) -> tuple[Matrix, Matrix, Matrix]:
    """Smith decomposition with transforms.

    Returns (d, u, v) where d = u * mat * v is diagonal with a positive
    divisor chain and u, v are unimodular.  The pivot strategy is fixed so
    the decomposition is deterministic.
    """
    a, u, vt, _ = _smith(mat, False)
    return tuple(map(tuple, a)), tuple(map(tuple, u)), tuple(zip(*vt))


def smith_invariants(mat: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The nonzero Smith invariants d1 | d2 | ... of an integer matrix.

    For a square nonsingular matrix their product is |det|.
    """
    d, *_ = snf_decomposition(mat)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i] != 0:
            out.append(d[i][i])
    return tuple(out)


def matrix_inverse(
    mat: Sequence[Sequence[int]], modulus: int | None = None
) -> Matrix:
    """Exact inverse of a square integer matrix: over Z when ``modulus`` is
    None, else mod ``modulus`` with entries in [0, modulus).

    One Smith reduction d = u . A . v gives A^-1 = v . d^-1 . u.  ValueError
    for a non-square matrix, and when an invariant is not 1 over Z or not a
    unit mod m (det A is their product up to sign).
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    d, u, vt, _ = _smith(mat, False)
    v = tuple(zip(*vt))
    if modulus is None:
        if any(d[i][i] != 1 for i in range(n)):
            raise ValueError("matrix is not unimodular")
        return matmul(v, u)
    # pow raises ValueError for an invariant that is not a unit mod m
    scaled = [[pow(d[i][i], -1, modulus) * x for x in u[i]] for i in range(n)]
    return tuple(tuple(x % modulus for x in row) for row in matmul(v, scaled))


def basis_frames(basis: LatticeBasis) -> tuple[Matrix, Matrix]:
    """A unimodular completion of a saturated basis, with its inverse.

    The completion U has the basis vectors as its first ``rank`` columns;
    only saturated bases extend, and for those the Smith invariants are all
    1 and the construction always succeeds.  It is a fixed deterministic
    function of the basis, which is what the canonical-form machinery built
    on top of it needs.  Both come from one Smith reduction u . B . v =
    [I ; 0] of the basis matrix B, with u^-1 tracked alongside u:
    U^-1 = diag(v, I) . u = [v . u[:k] ; u[k:]] sends B to [I ; 0], and
    U = u^-1 . diag(v^-1, I) = [B | u^-1[:, k:]].
    """
    if not basis.saturated:
        raise ValueError("saturated basis required")
    k = basis.rank
    if k == 0:
        raise ValueError("rank-0 basis has no stored ambient dimension")
    d, u, vt, ut = _smith(from_columns(basis.vectors), True)
    if any(d[i][i] != 1 for i in range(k)):
        raise ValueError("columns do not form a saturated basis")
    inverse = matmul(tuple(zip(*vt)), u[:k]) + tuple(map(tuple, u[k:]))
    return tuple(zip(*basis.vectors, *ut[k:])), inverse


def saturate(basis: LatticeBasis) -> LatticeBasis:
    """The saturation (rational span intersected with Z^n) of a lattice,
    read off one Smith reduction of its basis."""
    if basis.saturated:
        return basis
    k = basis.rank
    d, _, _, ut = _smith(from_columns(basis.vectors), True)
    if sum(1 for i in range(min(len(d), k)) if d[i][i] != 0) != k:
        raise ValueError("basis vectors are dependent")
    # d = u . B . v gives B . v = u^-1 . d, so the first k columns of the
    # unimodular u^-1 span B's rational span, and their lattice is saturated.
    out = hnf(ut[:k])
    assert out.saturated
    return out

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

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Iterable, Sequence

from .intmat import Matrix, det, from_columns, matmul, matvec

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


def primitive_part(v: Sequence[int]) -> tuple[IntVec, int]:
    """Split v into (prim, content) with prim primitive and sign-canonical.

    ``prim`` has coprime entries and a positive first nonzero entry;
    ``content`` is the positive gcd of the entries of v.  Consequently
    ``content * prim`` equals ``v`` up to the overall sign that the
    canonicalization may flip: it is ``+v`` exactly when the first nonzero
    entry of v is positive and ``-v`` otherwise.
    """
    vec = tuple(int(x) for x in v)
    g = 0
    for x in vec:
        g = gcd(g, x)
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
    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1


@dataclass(frozen=True)
class LatticeBasis:
    """Canonical basis of a sublattice of Z^n.

    ``vectors`` are the basis vectors in Hermite order (see module
    docstring); ``saturated`` records whether the lattice equals the
    intersection of its rational span with Z^n.  Instances are built by
    :func:`hnf` and :func:`saturate`; constructing one by hand with
    non-canonical data is unsupported.
    """

    vectors: tuple[IntVec, ...]
    saturated: bool

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
    reduced into [0, pivot).  Returns the nonzero rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        # gather a nonzero pivot in column c at row r
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        while True:
            done = True
            for i in range(r + 1, len(rows)):
                if rows[i][c] != 0:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if rows[i][c] != 0:
                        rows[r], rows[i] = rows[i], rows[r]
                        done = False
            if done:
                break
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return [row for row in rows[:r]]


def hnf(vectors: Iterable[Sequence[int]]) -> LatticeBasis:
    """Canonical Hermite basis of the lattice generated by ``vectors``.

    Dependent or repeated generators are fine; they are absorbed into the
    reduction.  An all-zero generating set yields the rank-0 basis.
    """
    vecs = [list(int(x) for x in v) for v in vectors]
    if not vecs:
        raise ValueError("empty generating set")
    n = len(vecs[0])
    if any(len(v) != n for v in vecs):
        raise ValueError("generators of mixed dimension")
    reduced = _row_hnf(vecs)
    basis = tuple(tuple(row) for row in reduced)
    if not basis:
        return LatticeBasis(vectors=(), saturated=True)
    return LatticeBasis(vectors=basis, saturated=_minors_gcd(basis) == 1)


def _minors_gcd(basis: Sequence[Sequence[int]]) -> int:
    """The gcd of the k-by-k minors of k independent vectors, which is the
    product of their Smith invariants: the entries' gcd at rank 1, |det|
    at full rank.  Stops early once the gcd reaches 1."""
    k = len(basis)
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
    return [[int(i == j) for j in range(n)] for i in range(n)]


def snf_decomposition(
    mat: Sequence[Sequence[int]],
) -> tuple[Matrix, Matrix, Matrix, Matrix, Matrix]:
    """Smith decomposition with transforms.

    Returns (d, u, u_inv, v, v_inv) where d = u * mat * v is diagonal with
    a positive divisor chain, u and v are unimodular, and u_inv, v_inv are
    their exact integer inverses.  The pivot strategy is fixed so the
    decomposition is deterministic.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    a = [list(int(x) for x in row) for row in mat]
    u, u_inv = _eye(nrows), _eye(nrows)
    v, v_inv = _eye(ncols), _eye(ncols)

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in range(nrows):
            u_inv[r][i], u_inv[r][j] = u_inv[r][j], u_inv[r][i]

    def row_addmul(i: int, j: int, q: int) -> None:
        # row i += q * row j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        for r in range(nrows):
            u_inv[r][j] -= q * u_inv[r][i]

    def row_negate(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in range(nrows):
            u_inv[r][i] = -u_inv[r][i]

    def col_swap(i: int, j: int) -> None:
        for r in range(nrows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(ncols):
            v[r][i], v[r][j] = v[r][j], v[r][i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def col_addmul(i: int, j: int, q: int) -> None:
        # column i += q * column j
        for r in range(nrows):
            a[r][i] += q * a[r][j]
        for r in range(ncols):
            v[r][i] += q * v[r][j]
        v_inv[j] = [x - q * y for x, y in zip(v_inv[j], v_inv[i])]

    t = 0
    while t < min(nrows, ncols):
        # deterministic pivot: least |value|, ties broken by position
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        while True:
            stable = True
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_addmul(i, t, -q)
                    if a[i][t]:
                        row_swap(t, i)
                        stable = False
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_addmul(j, t, -q)
                    if a[t][j]:
                        col_swap(t, j)
                        stable = False
            if stable and all(a[i][t] == 0 for i in range(t + 1, nrows)) and all(
                a[t][j] == 0 for j in range(t + 1, ncols)
            ):
                # enforce the divisor chain before moving on
                offender = None
                for i in range(t + 1, nrows):
                    for j in range(t + 1, ncols):
                        if a[i][j] % a[t][t] != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                row_addmul(t, offender, 1)
        if a[t][t] < 0:
            row_negate(t)
        t += 1

    freeze = lambda m_: tuple(tuple(row) for row in m_)
    return freeze(a), freeze(u), freeze(u_inv), freeze(v), freeze(v_inv)


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


def basis_frames(basis: LatticeBasis) -> tuple[Matrix, Matrix]:
    """A unimodular completion of a saturated basis, with its inverse.

    The completion U has the basis vectors as its first ``rank`` columns;
    only saturated bases extend, and for those the Smith invariants are all
    1 and the construction always succeeds.  It is a fixed deterministic
    function of the basis, which is what the canonical-form machinery built
    on top of it needs.  Both matrices come from one Smith decomposition
    d = u . B . v of the basis matrix B: B = u_inv . [v_inv ; 0], so
    U = u_inv . W with W = diag(v_inv, I), and U^-1 = diag(v, I) . u.
    """
    if not basis.saturated:
        raise ValueError("saturated basis required")
    cols = basis.vectors
    k = basis.rank
    if k == 0:
        raise ValueError("rank-0 basis has no stored ambient dimension")
    d, u, u_inv, v, _ = snf_decomposition(from_columns(cols))
    if any(d[i][i] != 1 for i in range(k)):
        raise ValueError("columns do not form a saturated basis")
    # U's first k columns are u_inv[:, :k] . v_inv = B, the rest u_inv's;
    # U^-1's first k rows are v . u[:k], the rest u's.
    frame = from_columns(cols + tuple(zip(*u_inv))[k:])
    inverse = matmul(v, u[:k]) + u[k:]
    return frame, inverse


def basis_extension(basis: LatticeBasis) -> Matrix:
    """Unimodular matrix whose first ``rank`` columns are the basis vectors
    (the completion of :func:`basis_frames`)."""
    return basis_frames(basis)[0]


def saturate(basis: LatticeBasis | Iterable[Sequence[int]]) -> LatticeBasis:
    """The saturation (rational span intersected with Z^n) of a lattice."""
    if isinstance(basis, LatticeBasis):
        vecs = basis.vectors
        if basis.saturated:
            return basis
    else:
        reduced = hnf(basis)
        if reduced.saturated:
            return reduced
        vecs = reduced.vectors
    if not vecs:
        return LatticeBasis(vectors=(), saturated=True)
    n = len(vecs[0])
    k = len(vecs)
    d, u, u_inv, v, v_inv = snf_decomposition(from_columns(vecs))
    r = sum(1 for i in range(min(n, k)) if d[i][i] != 0)
    if r != k:
        raise ValueError("basis vectors are dependent")
    sat_vecs = [tuple(u_inv[i][j] for i in range(n)) for j in range(r)]
    out = hnf(sat_vecs)
    assert out.saturated
    return out


def coordinates_in(basis: LatticeBasis, v: Sequence[int]) -> IntVec | None:
    """Integer coordinates of v in the given basis, or None if v is not in
    the lattice."""
    vecs = basis.vectors
    if not vecs:
        return () if all(x == 0 for x in v) else None
    n = len(vecs[0])
    k = len(vecs)
    d, u, u_inv, vv, v_inv = snf_decomposition(from_columns(vecs))
    y = matvec(u, tuple(int(x) for x in v))
    z = []
    for i in range(k):
        di = d[i][i]
        if di == 0:
            return None
        if y[i] % di != 0:
            return None
        z.append(y[i] // di)
    for i in range(k, n):
        if y[i] != 0:
            return None
    return matvec(vv, tuple(z))

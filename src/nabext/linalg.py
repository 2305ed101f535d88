"""Dense exact linear algebra at tiny sizes.

Vectors are tuples of scalars, matrices are tuples of row tuples.  Everything
is done by Gaussian elimination with exact field division; dimensions here
never exceed a handful, so no pivoting strategy beyond "first nonzero" is
needed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .fields import Field, Scalar

Vector = Tuple[Scalar, ...]
Matrix = Tuple[Vector, ...]


def zero_vector(field: Field, n: int) -> Vector:
    return (field.zero,) * n

def basis_vector(field: Field, n: int, i: int) -> Vector:
    return tuple(field.one if j == i else field.zero for j in range(n))

def vec_add(field: Field, x: Vector, y: Vector) -> Vector:
    return tuple(field.add(a, b) for a, b in zip(x, y, strict=True))

def vec_sub(field: Field, x: Vector, y: Vector) -> Vector:
    return tuple(field.sub(a, b) for a, b in zip(x, y, strict=True))

def vec_neg(field: Field, x: Vector) -> Vector:
    return tuple(field.neg(a) for a in x)

def vec_scale(field: Field, c: Scalar, x: Vector) -> Vector:
    return tuple(field.mul(c, a) for a in x)

def is_zero_vector(x: Sequence[Scalar]) -> bool:
    """Whether every entry is zero, by its truth value: ``not any(x)``, the
    test of :meth:`~nabext.cochains.MultilinearMap.is_zero`, run in C."""
    return not any(x)


def identity_matrix(field: Field, n: int) -> Matrix:
    return tuple(basis_vector(field, n, i) for i in range(n))

def mat_vec(field: Field, m: Matrix, x: Vector) -> Vector:
    out = []
    for row in m:
        acc = field.zero
        for a, b in zip(row, x, strict=True):
            if a != 0 and b != 0:
                acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return tuple(out)

def mat_mul(field: Field, m: Matrix, n: Matrix) -> Matrix:
    cols = list(zip(*n)) if n else []
    return tuple(
        tuple(
            _dot(field, row, col) for col in cols
        )
        for row in m
    )

def _dot(field: Field, x: Sequence[Scalar], y: Sequence[Scalar]) -> Scalar:
    acc = field.zero
    for a, b in zip(x, y, strict=True):
        if a != 0 and b != 0:
            acc = field.add(acc, field.mul(a, b))
    return acc


def _eliminate(field: Field, rows: List[List[Scalar]]) -> List[int]:
    """Reduce ``rows`` in place to row echelon form; return pivot columns.

    The pivot row is scaled at its nonzeros only, and the other rows are
    updated on its support only: elsewhere the update would subtract 0."""
    if not rows:
        return []
    n_cols = len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        row = rows[r]
        inv = field.inv(row[c])
        support = [j for j in range(c, n_cols) if row[j] != 0]
        for j in support:
            row[j] = field.mul(inv, row[j])
        for i, other in enumerate(rows):
            factor = other[c]
            if i != r and factor != 0:
                for j in support:
                    other[j] = field.sub(other[j], field.mul(factor, row[j]))
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(field: Field, m: Matrix) -> int:
    rows = [list(r) for r in m]
    return len(_eliminate(field, rows))


def solution_space(
    field: Field, m: Matrix, b: Vector
) -> Optional[Tuple[Vector, Tuple[Vector, ...]]]:
    """Every solution of ``m x = b`` from one elimination of the augmented
    matrix: one solution and a basis of the solutions of ``m x = 0``, or
    None when the system is inconsistent.

    The solution sets the free variables to zero.  The basis has one
    vector per free column ``f``: 1 at ``f``, 0 at the other free columns,
    and the pivot values that the reduced row echelon form forces.  Both
    are deterministic, and every solution is the one solution plus exactly
    one combination of the basis.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    if len(b) != n_rows:
        raise ValueError("right-hand side length does not match matrix")
    aug = [list(r) + [v] for r, v in zip(m, b)]
    pivots = _eliminate(field, aug)
    if n_cols in pivots:
        return None  # pivot in the augmented column: inconsistent
    x = [field.zero] * n_cols
    for r, c in enumerate(pivots):
        x[c] = aug[r][n_cols]
    basis = []
    for free in (c for c in range(n_cols) if c not in pivots):
        v = [field.zero] * n_cols
        v[free] = field.one
        for r, c in enumerate(pivots):
            v[c] = field.neg(aug[r][free])
        basis.append(tuple(v))
    return tuple(x), tuple(basis)


def solve(field: Field, m: Matrix, b: Vector) -> Optional[Vector]:
    """One exact solution of ``m x = b`` (free variables zero), or None when
    inconsistent: the first part of :func:`solution_space`."""
    space = solution_space(field, m, b)
    return None if space is None else space[0]


"""Finite-dimensional algebras presented by structure constants.

An :class:`Algebra` is a vector space with a fixed basis and a bilinear
product ``e_i * e_j = sum_k c[i][j][k] e_k``.  Associativity is a checkable
predicate, not an invariant: candidate products produced during enumeration
are allowed to be non-associative and are filtered afterwards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping, Optional, Sequence, Tuple

from .fields import Field, FieldError, Scalar
from .linalg import Vector, basis_vector, is_zero_vector, vec_sub, zero_vector


@dataclass(frozen=True)
class SplitSpace:
    """A direct-sum decomposition: the first ``a_dim`` basis indices form the
    A block, the remaining ``b_dim`` the B block."""

    a_dim: int
    b_dim: int

    def __post_init__(self):
        if self.a_dim < 0 or self.b_dim < 0 or self.a_dim + self.b_dim == 0:
            raise ValueError("split blocks must have nonnegative, nonzero total dimension")

    @property
    def dim(self) -> int:
        return self.a_dim + self.b_dim

    @property
    def a_indices(self) -> range:
        return range(self.a_dim)

    @property
    def b_indices(self) -> range:
        return range(self.a_dim, self.dim)

    def block_indices(self, block: str) -> range:
        if block == "A":
            return self.a_indices
        if block == "B":
            return self.b_indices
        raise ValueError(f"unknown block {block!r}")


@dataclass(frozen=True)
class Algebra:
    """Algebra with basis labels and a dense structure-constant table.

    ``table`` is flat with layout ``c[i][j][k] = table[(i*dim + j)*dim + k]``,
    the coefficient of ``e_k`` in ``e_i * e_j``.
    """

    field: Field
    dim: int
    basis: Tuple[str, ...]
    table: Tuple[Scalar, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("algebra dimension must be positive")
        if len(self.basis) != self.dim:
            raise ValueError("basis label count does not match dimension")
        if len(set(self.basis)) != self.dim:
            raise ValueError("basis labels must be distinct")
        if len(self.table) != self.dim ** 3:
            raise ValueError("structure-constant table has wrong size")

    @classmethod
    def from_products(
        cls,
        field: Field,
        basis: Sequence[str],
        products: Mapping[Tuple[int, int], Mapping[int, object]],
    ) -> "Algebra":
        """Build from a sparse product description; absent entries are zero."""
        dim = len(basis)
        table = [field.zero] * dim ** 3
        for (i, j), row in products.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"product index ({i},{j}) out of range")
            for k, coeff in row.items():
                if not 0 <= k < dim:
                    raise ValueError(f"output index {k} out of range")
                table[(i * dim + j) * dim + k] = field.coerce(coeff)
        return cls(field, dim, tuple(basis), tuple(table))

    @classmethod
    def zero_product(cls, field: Field, basis: Sequence[str]) -> "Algebra":
        return cls.from_products(field, basis, {})

    def product_row(self, i: int, j: int) -> Vector:
        """The vector ``e_i * e_j``."""
        base = (i * self.dim + j) * self.dim
        return self.table[base : base + self.dim]

    @cached_property
    def product_entries(self) -> Tuple[Tuple[int, int, int, Scalar], ...]:
        """The nonzero structure constants as ``(i, j, k, c[i][j][k])``, in
        table order; built on first use and kept."""
        dim = self.dim
        return tuple(
            (pos // (dim * dim), pos // dim % dim, pos % dim, c)
            for pos, c in enumerate(self.table)
            if c
        )

    def basis_vector(self, i: int) -> Vector:
        return basis_vector(self.field, self.dim, i)

    def zero_vector(self) -> Vector:
        return zero_vector(self.field, self.dim)

    def multiply(self, x: Vector, y: Vector) -> Vector:
        """Bilinear extension of the structure constants to vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length does not match algebra dimension")
        f = self.field
        out = [f.zero] * self.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                coeff = f.mul(xi, yj)
                row = self.product_row(i, j)
                for k, ck in enumerate(row):
                    if ck != 0:
                        out[k] = f.add(out[k], f.mul(coeff, ck))
        return tuple(out)

    def transported(
        self, cols: Sequence[Vector], back: Callable[[Vector], Optional[Vector]]
    ) -> Tuple[Optional["Algebra"], Optional[Tuple[int, int]]]:
        """This product read in the basis ``cols`` (vectors of this algebra):
        ``e_i e_j = back(cols[i] * cols[j])``, where ``back`` expresses a
        vector in that basis, or returns None when it cannot.  Returns the
        algebra (basis ``e0, e1, ...``) and None, or None and the first
        basis pair, in ``itertools.product`` order, that ``back`` cannot
        express.  Every change of basis of a product goes through here."""
        table = []
        for i, j in itertools.product(range(len(cols)), repeat=2):
            row = back(self.multiply(cols[i], cols[j]))
            if row is None:
                return None, (i, j)
            table.extend(row)
        names = tuple(f"e{i}" for i in range(len(cols)))
        return Algebra(self.field, len(cols), names, tuple(table)), None

    def associator(self, x: Vector, y: Vector, z: Vector) -> Vector:
        """``(x*y)*z - x*(y*z)``."""
        return vec_sub(
            self.field,
            self.multiply(self.multiply(x, y), z),
            self.multiply(x, self.multiply(y, z)),
        )

    def associativity_witness(self) -> Optional[Tuple[int, int, int]]:
        """First basis triple, in ``itertools.product`` order, with nonzero
        associator, or None (see :func:`associativity_witness`).
        :meth:`associator` on basis vectors is the independent vector route."""
        return associativity_witness(self.field, self.dim, self.table)

    def is_associative(self) -> bool:
        # Vanishing on all basis triples suffices by multilinearity.
        return self.associativity_witness() is None

    def has_zero_product(self) -> bool:
        return all(v == 0 for v in self.table)


def basis_associators(
    field: Field, dim: int, table: Sequence[Scalar]
) -> Iterator[Tuple[Tuple[int, int, int], Vector]]:
    """Every basis triple ``(i, j, k)``, in ``itertools.product`` order,
    with its associator ``(e_i e_j) e_k - e_i (e_j e_k)``, read straight
    off a flat structure-constant table (the :class:`Algebra` layout):
    ``sum_m c_ij^m row(m, k) - sum_m c_jk^m row(i, m)``.  The nonzero
    ``(t, c_ij^t)`` of each basis product are listed once, so each triple
    walks only those."""
    rows = [[(t, c) for t, c in enumerate(table[q : q + dim]) if c != 0] for q in range(0, dim ** 3, dim)]
    add, sub, mul, zero = field.add, field.sub, field.mul, field.zero
    for i, j, k in itertools.product(range(dim), repeat=3):
        out = [zero] * dim
        for m, c in rows[i * dim + j]:
            for t, v in rows[m * dim + k]:
                out[t] = add(out[t], mul(c, v))
        for m, c in rows[j * dim + k]:
            for t, v in rows[i * dim + m]:
                out[t] = sub(out[t], mul(c, v))
        yield (i, j, k), tuple(out)


def associativity_witness(
    field: Field, dim: int, table: Sequence[Scalar]
) -> Optional[Tuple[int, int, int]]:
    """First basis triple, in ``itertools.product`` order, whose associator
    (:func:`basis_associators`) is nonzero, or None: the table is
    associative exactly when it returns None, by multilinearity."""
    for triple, value in basis_associators(field, dim, table):
        if not is_zero_vector(value):
            return triple
    return None


def _disambiguate(names_a: Sequence[str], names_b: Sequence[str]) -> Tuple[str, ...]:
    if set(names_a) & set(names_b):
        return tuple(f"{n}.A" for n in names_a) + tuple(f"{n}.B" for n in names_b)
    return tuple(names_a) + tuple(names_b)


def direct_sum_space(a: Algebra, b: Algebra) -> Tuple[Algebra, SplitSpace]:
    """The algebra on A (+) B with blockwise product and zero cross terms.

    Returns the algebra together with the split bookkeeping (A block first).
    """
    if a.field != b.field:
        raise FieldError("direct sum requires a common coefficient field")
    split = SplitSpace(a.dim, b.dim)
    dim = split.dim
    field = a.field
    table = [field.zero] * dim ** 3
    for alg, off in ((a, 0), (b, a.dim)):
        for i, j in itertools.product(range(alg.dim), repeat=2):
            start = ((i + off) * dim + j + off) * dim + off
            table[start : start + alg.dim] = alg.product_row(i, j)
    return (
        Algebra(field, dim, _disambiguate(a.basis, b.basis), tuple(table)),
        split,
    )

"""Cocycle triples for twisted products on a direct sum, the Maurer-Cartan
residual, gauge transformations, and the abelian specialization.

A cocycle is a triple of bilinear maps ``phi: B (x) A -> A`` (left twist),
``psi: A (x) B -> A`` (right twist) and ``chi: B (x) B -> A`` (curvature).
Valid triples are exactly the ones whose twisted product on ``A (+) B``

    (a1 + b1)(a2 + b2) = a1 a2 + phi(b1, a2) + psi(a1, b2) + chi(b1, b2) + b1 b2

is associative; invalid candidates stay representable so enumeration can
filter them.

The twisted product is ``base + x``, the blockwise product of
:func:`~nabext.algebra.direct_sum_space` plus the twist.  Its layout on
``A (+) B`` is stated once, by :func:`twist_slots`: the table slot of each
coefficient of phi, psi and chi.  :func:`build_extension` writes the twist
there, and the census scatters index digits through the same slots; the
block projections of :mod:`~nabext.splitspace` read the twist back without
them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Optional, Tuple

from .algebra import Algebra, SplitSpace, direct_sum_space
from .cochains import (
    MultilinearMap,
    circ,
    gerstenhaber_bracket,
    hochschild_delta,
    hochschild_delta_module,
    multiplication_map,
)
from .fields import Field, FieldError, Scalar
from .linalg import Vector, identity_matrix, is_zero_vector, vec_add, vec_neg, vec_sub
from .splitspace import embed_block_map, project_block_map, require_in_L


class CrossCheckError(RuntimeError):
    """An internal consistency identity failed; this indicates a bug, not
    bad input, and is never raised for any input the test suite covers."""


class ViolationKind(Enum):
    EQ1_LEFT_TWIST = "eq1_left_twist"
    EQ2_RIGHT_TWIST = "eq2_right_twist"
    EQ3_COMMUTE = "eq3_commute"
    EQ4_DERIVATION = "eq4_derivation"
    EQ5_CHI_COCYCLE = "eq5_chi_cocycle"


@dataclass(frozen=True)
class CocycleViolation:
    which: ViolationKind
    witness: Tuple[int, ...]
    discrepancy: Tuple[Scalar, ...]
    detail: str = ""

    def __post_init__(self):
        if is_zero_vector(self.discrepancy):
            raise ValueError("a violation must carry a nonzero discrepancy")


@dataclass(frozen=True)
class NabCocycle:
    """Candidate cocycle triple; validity is a predicate, not an invariant."""

    A: Algebra
    B: Algebra
    phi: MultilinearMap  # (b_dim, a_dim) -> a_dim
    psi: MultilinearMap  # (a_dim, b_dim) -> a_dim
    chi: MultilinearMap  # (b_dim, b_dim) -> a_dim

    def __post_init__(self):
        a, b = self.A.dim, self.B.dim
        if self.A.field != self.B.field:
            raise FieldError("cocycle requires one common field")
        for part, dims, name in (
            (self.phi, (b, a), "phi"),
            (self.psi, (a, b), "psi"),
            (self.chi, (b, b), "chi"),
        ):
            if part.field != self.A.field:
                raise FieldError(f"{name} has a mismatched field")
            if part.source_dims != dims or part.target_dim != a:
                raise ValueError(f"{name} has shape {part.source_dims}->{part.target_dim}, expected {dims}->{a}")

    @classmethod
    def zero(cls, a: Algebra, b: Algebra) -> "NabCocycle":
        f = a.field
        return cls(
            a,
            b,
            MultilinearMap.zero(f, (b.dim, a.dim), a.dim),
            MultilinearMap.zero(f, (a.dim, b.dim), a.dim),
            MultilinearMap.zero(f, (b.dim, b.dim), a.dim),
        )


@dataclass(frozen=True)
class GaugeParam:
    """A linear map B -> A: ``matrix[i][j]`` is the ``a_i`` coefficient of
    the image of ``b_j``."""

    matrix: Tuple[Tuple[Scalar, ...], ...]

    @classmethod
    def zero(cls, field: Field, a_dim: int, b_dim: int) -> "GaugeParam":
        return cls(tuple((field.zero,) * b_dim for _ in range(a_dim)))

    @property
    def a_dim(self) -> int:
        return len(self.matrix)

    @property
    def b_dim(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def column(self, j: int) -> Vector:
        """The image of the j-th B basis vector, as an A vector."""
        return tuple(row[j] for row in self.matrix)

    def as_map(self, field: Field) -> MultilinearMap:
        """The parameter as an arity-1 cochain B -> A: with the target index
        outermost, its coefficients are the matrix rows in order."""
        coeffs = tuple(v for row in self.matrix for v in row)
        return MultilinearMap(field, (self.b_dim,), self.a_dim, coeffs)

    def negate(self, field: Field) -> "GaugeParam":
        return GaugeParam(tuple(tuple(field.neg(v) for v in row) for row in self.matrix))


def all_gauge_params(field: Field, a_dim: int, b_dim: int) -> Iterator[GaugeParam]:
    """Every linear map B -> A over a finite field: the matrix entries row by
    row as base-p digits, the last one varying fastest."""
    for combo in itertools.product(list(field.elements()), repeat=a_dim * b_dim):
        yield GaugeParam(tuple(combo[i * b_dim : (i + 1) * b_dim] for i in range(a_dim)))


# ---------------------------------------------------------------------------
# cocycle equations
# ---------------------------------------------------------------------------

# The five equations are the associator components of the twisted product:
# the census checks it once per space, as the route identity of
# ``classify.CandidateSpace.check_route_identity``, which compares the rows
# it solves with the symbolic associators, up to sign.  One lazy generator,
# :func:`cocycle_residuals`, yields every equation's discrepancy in a fixed
# order, zeros included: :func:`check_cocycle` and :func:`is_valid_cocycle`
# keep the nonzero ones, and the census solver runs it once per space on
# symbolic digits to read off its affine systems, so every equation is
# written out once.  Each discrepancy is a signed sum of terms ``vec[t] * cols[t]``, a
# map applied to a vector through its columns, and :func:`_signed_columns`
# accumulates all of them into one output vector, with no vector of a
# single side built on the way.


#: One equation at one basis triple and its discrepancy, zero or not:
#: ``(which, witness, discrepancy, detail)``, the fields of
#: :class:`CocycleViolation` in order.  A plain tuple: :func:`check_cocycle`
#: and :func:`is_valid_cocycle` make one per equation they evaluate, and a
#: named tuple costs a Python-level constructor call each.
Residual = Tuple[ViolationKind, Tuple[int, ...], Vector, str]


def _signed_columns(field: Field, width: int, added, subtracted=()) -> Vector:
    """``sum vec[t] * cols[t]`` over the ``(vec, cols)`` of ``added``, minus
    the same over ``subtracted``, as one vector of length ``width``: every
    nonzero product is reduced into the output once, by one field sum or
    difference, and a zero coefficient on either side costs no arithmetic."""
    mul = field.mul
    out = [field.zero] * width
    for op, parts in ((field.add, added), (field.sub, subtracted)):
        for vec, cols in parts:
            for v, col in zip(vec, cols):
                if v:
                    for k, c in enumerate(col):
                        if c:
                            out[k] = op(out[k], mul(v, c))
    return tuple(out)


def _from_columns(field: Field, vec: Vector, cols) -> Vector:
    """``sum_t vec[t] * cols[t]``: the linear map whose value on the t-th
    basis vector is ``cols[t]``, applied to ``vec``; the one-part
    :func:`_signed_columns`."""
    return _signed_columns(field, len(cols[0]), ((vec, cols),))


def _columns(read, n1: int, n2: int):
    """``[[read(x, y) for y] for x]`` and its transpose: the values of a
    bilinear map on basis pairs, as rows over either slot."""
    rows = [[read(x, y) for y in range(n2)] for x in range(n1)]
    return rows, list(zip(*rows))


def cocycle_residuals(c: NabCocycle) -> Iterator[Residual]:
    """Every equation's residual, lazily: EQ3 (the twists commute) on every
    ``(j1, j2, i)``, EQ4 on every ``(i1, i2, j)``, then EQ1 and EQ2 (the
    twists are actions up to chi) on every ``(j1, j2, i)`` and EQ5 (chi is
    a cocycle) on every ``(j1, j2, j3)``.

    The derivation condition is checked through the three Leibniz-type
    identities (the form associativity consumes), tagged ``psi_leibniz``,
    ``phi_leibniz`` and ``cross_compat``; the weaker "difference is a
    derivation" reading is available separately via
    :func:`derivation_condition_defect`.  The right-twist equation composes
    in the order forced by associativity of the twisted product:
    ``psi_{b1}(psi_{b2}(a)) = psi_{b2 b1}(a) + a chi(b2, b1)``.

    Reads the columns of ``phi`` and ``psi`` and the product rows of ``A``
    once, and those of ``chi`` and ``B`` once the last EQ4 residual is
    taken, as EQ3 and EQ4 never read them; applies no map to a basis
    vector.
    """
    A, B = c.A, c.B
    f, a = A.field, A.dim
    # phi_b[j][i] = phi_a[i][j] = phi(b_j, a_i), psi_a[i][j] = psi_b[j][i] = psi(a_i, b_j)
    phi_b, phi_a = _columns(lambda j, i: c.phi.column((j, i)), B.dim, a)
    psi_a, psi_b = _columns(lambda i, j: c.psi.column((i, j)), a, B.dim)
    # left[i][t] = right[t][i] = a_i a_t
    left, right = _columns(A.product_row, a, a)
    bba = list(itertools.product(range(B.dim), range(B.dim), range(a)))

    for j1, j2, i in bba:
        disc = _signed_columns(f, a, ((psi_a[i][j2], phi_b[j1]),), ((phi_b[j1][i], psi_b[j2]),))
        yield (ViolationKind.EQ3_COMMUTE, (j1, j2, i), disc, "")

    for i1, i2, j in itertools.product(range(a), range(a), range(B.dim)):
        row = left[i1][i2]
        # each identity as (detail, left side, right side), a side one term
        checks = (
            ("psi_leibniz", (row, psi_b[j]), (psi_a[i2][j], left[i1])),
            ("phi_leibniz", (row, phi_b[j]), (phi_b[j][i1], right[i2])),
            ("cross_compat", (psi_a[i1][j], right[i2]), (phi_b[j][i2], left[i1])),
        )
        for detail, lhs, rhs in checks:
            yield (ViolationKind.EQ4_DERIVATION, (i1, i2, j), _signed_columns(f, a, (lhs,), (rhs,)), detail)

    # chi_1[j1][j2] = chi(b_j1, b_j2) = chi_2[j2][j1]
    chi_1, chi_2 = _columns(lambda j1, j2: c.chi.column((j1, j2)), B.dim, B.dim)
    b_rows, _ = _columns(B.product_row, B.dim, B.dim)

    for j1, j2, i in bba:
        # phi_{b1}(phi_{b2}(a)) - phi_{b1 b2}(a) - chi(b1, b2) a
        disc = _signed_columns(
            f, a, ((phi_b[j2][i], phi_b[j1]),), ((b_rows[j1][j2], phi_a[i]), (chi_1[j1][j2], right[i]))
        )
        yield (ViolationKind.EQ1_LEFT_TWIST, (j1, j2, i), disc, "")

    for j1, j2, i in bba:
        # psi_{b1}(psi_{b2}(a)) - psi_{b2 b1}(a) - a chi(b2, b1)
        disc = _signed_columns(
            f, a, ((psi_a[i][j2], psi_b[j1]),), ((b_rows[j2][j1], psi_a[i]), (chi_1[j2][j1], left[i]))
        )
        yield (ViolationKind.EQ2_RIGHT_TWIST, (j1, j2, i), disc, "")

    for j1, j2, j3 in itertools.product(range(B.dim), repeat=3):
        # chi(b1 b2, b3) + psi(chi(b1, b2), b3) - phi(b1, chi(b2, b3)) - chi(b1, b2 b3)
        added = ((b_rows[j1][j2], chi_2[j3]), (chi_1[j1][j2], psi_b[j3]))
        subtracted = ((chi_1[j2][j3], phi_b[j1]), (b_rows[j2][j3], chi_1[j1]))
        yield (ViolationKind.EQ5_CHI_COCYCLE, (j1, j2, j3), _signed_columns(f, a, added, subtracted), "")


_KIND_ORDER = {kind: pos for pos, kind in enumerate(ViolationKind)}


def check_cocycle(c: NabCocycle) -> List[CocycleViolation]:
    """All violations of the five cocycle equations; empty means valid.

    The nonzero residuals of :func:`cocycle_residuals` in full, stably
    sorted by :class:`ViolationKind` order: equation by equation, each in
    basis-triple order.
    """
    if not c.A.is_associative():
        raise ValueError("kernel algebra is not associative")
    if not c.B.is_associative():
        raise ValueError("quotient algebra is not associative")
    found = [CocycleViolation(*r) for r in cocycle_residuals(c) if not is_zero_vector(r[2])]
    return sorted(found, key=lambda v: _KIND_ORDER[v.which])


def is_valid_cocycle(c: NabCocycle) -> bool:
    """Whether the five cocycle equations hold, stopping at the first
    nonzero residual of :func:`cocycle_residuals`: chi and the product of B
    are read only when EQ3 and EQ4 hold (ambient associativity is the
    caller's job).  Equal to ``check_cocycle(c) == []``."""
    return all(is_zero_vector(r[2]) for r in cocycle_residuals(c))


def derivation_condition_defect(c: NabCocycle) -> Optional[CocycleViolation]:
    """First failure of the literal reading "psi - phi maps into derivations",
    or None.  Informational: validity is gated on the three Leibniz-type
    identities, which imply this condition but not conversely.

    ``D_j = psi(., b_j) - phi(b_j, .)`` is a derivation of A exactly when
    its :func:`hochschild_delta` vanishes; the discrepancy at ``(i1, i2, j)``
    is ``D_j(a1 a2) - D_j(a1) a2 - a1 D_j(a2) = -delta D_j(a1, a2)``.
    """
    A, B, phi, psi = c.A, c.B, c.phi, c.psi
    f = A.field

    def derivation_part(j: int) -> MultilinearMap:
        # the value on a_i is column i; the target index is outermost
        cols = [vec_sub(f, psi.column((i, j)), phi.column((j, i))) for i in range(A.dim)]
        return MultilinearMap(f, (A.dim,), A.dim, tuple(itertools.chain.from_iterable(zip(*cols))))

    deltas = [hochschild_delta(derivation_part(j), A) for j in range(B.dim)]
    for i1, i2, j in itertools.product(range(A.dim), range(A.dim), range(B.dim)):
        disc = vec_neg(f, deltas[j].column((i1, i2)))
        if not is_zero_vector(disc):
            return CocycleViolation(
                ViolationKind.EQ4_DERIVATION, (i1, i2, j), disc, "derivation"
            )
    return None


# ---------------------------------------------------------------------------
# the twisted product
# ---------------------------------------------------------------------------

def twist_slots(split: SplitSpace) -> Tuple[int, ...]:
    """The table slot of every coefficient of phi, psi and chi, in that
    order and as each map stores them, the target index outermost: the
    A-valued BA, AB and BB slots of a product on ``split``, and the only
    code that names them."""
    dim, a, b = split.dim, split.a_indices, split.b_indices
    return tuple(
        (i * dim + j) * dim + k
        for first, second in ((b, a), (a, b), (b, b))
        for k in a
        for i, j in itertools.product(first, second)
    )


def build_extension(c: NabCocycle) -> Tuple[Algebra, SplitSpace]:
    """The twisted product ``base + x`` on the split space A (+) B: the
    :func:`direct_sum_space` table with the coefficients of phi, psi and chi
    written at their :func:`twist_slots`.  No validity requirement:
    associativity of the result is a theorem to test, not a precondition."""
    base, split = direct_sum_space(c.A, c.B)
    table = list(base.table)
    for slot, v in zip(twist_slots(split), c.phi.coeffs + c.psi.coeffs + c.chi.coeffs):
        table[slot] = v
    return Algebra(base.field, split.dim, base.basis, tuple(table)), split


# ---------------------------------------------------------------------------
# Maurer-Cartan side
# ---------------------------------------------------------------------------

def cocycle_to_mc(c: NabCocycle) -> MultilinearMap:
    """The assembled element ``x = chi + phi + psi``, an A-valued arity-2
    cochain on the split space: the product of :func:`build_extension` minus
    the base product.  It places no block itself, so :func:`cocycle_from_mc`
    (block projections) and the census section round trip check that layout."""
    return multiplication_map(build_extension(c)[0]) - multiplication_map(direct_sum_space(c.A, c.B)[0])


def cocycle_from_mc(x: MultilinearMap, a: Algebra, b: Algebra) -> NabCocycle:
    """Recover the triple from an assembled element (inverse of
    :func:`cocycle_to_mc`); requires the AA component to vanish."""
    split = SplitSpace(a.dim, b.dim)
    require_in_L(x, split, "assembled element")
    if not project_block_map(x, split, "AA", "A").is_zero():
        raise ValueError("element has a nonzero AA component; not a cocycle assembly")
    return NabCocycle(
        a,
        b,
        project_block_map(x, split, "BA", "A"),
        project_block_map(x, split, "AB", "A"),
        project_block_map(x, split, "BB", "A"),
    )


def mc_context(c: NabCocycle) -> Tuple[MultilinearMap, Algebra, SplitSpace]:
    """(assembled element, base algebra, split) for one cocycle."""
    base, split = direct_sum_space(c.A, c.B)
    return cocycle_to_mc(c), base, split


def mc_residual(x: MultilinearMap, base: Algebra, split: SplitSpace) -> MultilinearMap:
    """``delta x + x o x`` for a degree-1 element.

    For degree-1 ``x`` the self-insertion ``x o x`` equals ``[x, x] / 2``
    whenever 2 is invertible, and is the characteristic-free form, so this
    residual is meaningful over F_2 as well.
    """
    if x.arity != 2:
        raise ValueError("Maurer-Cartan residual is defined for arity-2 elements")
    require_in_L(x, split, "Maurer-Cartan candidate")
    return hochschild_delta(x, base) + circ(x, x)


def associator_residual(x: MultilinearMap, base: Algebra, split: SplitSpace) -> MultilinearMap:
    """``x o x - delta x``: the associator of the twisted product
    ``base + x`` when ``base`` is associative.

    Over F_2 this coincides with :func:`mc_residual`; in odd or zero
    characteristic it is the residual whose vanishing is equivalent to
    associativity of the twisted product (the two residuals are exchanged
    by ``x -> -x``).
    """
    if x.arity != 2:
        raise ValueError("associator residual is defined for arity-2 elements")
    require_in_L(x, split, "twist candidate")
    return circ(x, x) - hochschild_delta(x, base)


def is_mc(x: MultilinearMap, base: Algebra, split: SplitSpace) -> bool:
    """Whether :func:`mc_residual` vanishes; the benchmark traces it as the
    Maurer-Cartan test of a cocycle."""
    return mc_residual(x, base, split).is_zero()


# ---------------------------------------------------------------------------
# gauge action
# ---------------------------------------------------------------------------

def beta_element(beta: GaugeParam, split: SplitSpace, field: Field) -> MultilinearMap:
    """The gauge parameter as a degree-0 element: an arity-1 A-valued map on
    the split space vanishing on the A block, i.e. :meth:`GaugeParam.as_map`
    through :func:`embed_block_map` at pattern ``"B"``."""
    return embed_block_map(beta.as_map(field), split, "B", "A")


def _require_twist_shape(x: MultilinearMap, split: SplitSpace):
    if x.arity != 2:
        raise ValueError("gauge transforms act on arity-2 elements")
    require_in_L(x, split, "gauge transform input")
    if not project_block_map(x, split, "AA", "A").is_zero():
        raise ValueError(
            "gauge transform input must have zero AA component (twist shape)"
        )


def gauge_closed_form(
    x: MultilinearMap, beta: GaugeParam, base: Algebra, split: SplitSpace
) -> MultilinearMap:
    """The division-free gauge transform, valid in every characteristic:
    the twisted product ``base + x`` read through ``1 - beta`` (back map
    ``1 + beta``, the matrix of
    :func:`~nabext.exact_sequences.theta_from_gauge`), minus the base, with
    ``beta`` extended by zero on the A block.  Since ``beta^2 = 0``, ``x``
    has no AA component and ``beta`` kills A-values, expanding
    ``(1 + beta)((e1 - beta e1)(e2 - beta e2))`` gives

        x'(e1, e2) = x(e1, e2) - x(e1, beta e2) - x(beta e1, e2)
                     - (delta beta)(e1, e2) + (beta e1)(beta e2)
        (delta beta)(e1, e2) = e1 (beta e2) - beta(e1 e2) + (beta e1) e2

    with the base's products.  It uses no bracket and no block of ``x``, so
    both the series form and the per-component transform of
    :func:`apply_equivalence` are cross-checked against it.
    """
    _require_twist_shape(x, split)
    if beta.a_dim != split.a_dim or beta.b_dim != split.b_dim:
        raise ValueError("gauge parameter shape does not match the split")
    f, dim = base.field, split.dim
    # bcol[t] = beta(e_t) on the split space: zero on the A block
    pad = (f.zero,) * split.b_dim
    bcol = [(f.zero,) * dim] * split.a_dim + [beta.column(j) + pad for j in range(split.b_dim)]
    # base + x: x is stored target-outermost, the table target-innermost
    n2 = dim * dim
    twisted = vec_add(f, base.table, tuple(v for flat in range(n2) for v in x.coeffs[flat::n2]))
    read, _ = Algebra(f, dim, base.basis, twisted).transported(
        [vec_sub(f, e, b) for e, b in zip(identity_matrix(f, dim), bcol)],
        lambda w: vec_add(f, w, _from_columns(f, w, bcol)),
    )
    return multiplication_map(read) - multiplication_map(base)


#: Iteration bound for the gauge series; the parameter is nilpotent of order
#: 2 on twist-shaped elements, so anything past arity + 2 signals a bug.
_SERIES_CAP = 6


def gauge_series(
    x: MultilinearMap, beta: GaugeParam, base: Algebra, split: SplitSpace
) -> MultilinearMap:
    """The exponential form ``exp(ad_beta) x + g_beta`` with
    ``g_beta = - sum_{n>=0} (ad_beta)^n (delta beta) / (n+1)!``.

    The series is summed until the iterated brackets vanish (verified, not
    assumed); in characteristic 2 the 1/2! coefficient does not exist and
    callers must use :func:`gauge_closed_form` instead.
    """
    if base.field.characteristic == 2:
        raise FieldError(
            "gauge series needs 1/2; use gauge_closed_form in characteristic 2"
        )
    _require_twist_shape(x, split)
    f = base.field
    b_elt = beta_element(beta, split, f)

    def summed(first_term: MultilinearMap, coeff_den) -> MultilinearMap:
        # sum of (ad_beta)^n term / den(n), stopping at the verified
        # nilpotency order
        total = None
        term = first_term
        n = 0
        while not term.is_zero():
            if n > _SERIES_CAP:
                raise CrossCheckError("gauge parameter failed to be ad-nilpotent")
            scaled = term.scale(f.inv(f.from_int(coeff_den(n))))
            total = scaled if total is None else total + scaled
            term = gerstenhaber_bracket(b_elt, term)
            n += 1
        if total is None:
            total = MultilinearMap.zero(f, first_term.source_dims, first_term.target_dim)
        return total

    exp_part = summed(x, lambda n: math.factorial(n))
    g_part = summed(hochschild_delta(b_elt, base), lambda n: math.factorial(n + 1))
    return exp_part - g_part


def apply_equivalence(c: NabCocycle, beta: GaugeParam) -> NabCocycle:
    """The equivalence transform on triples:

        phi'(b, a)   = phi(b, a) - beta(b) a
        psi'(a, b)   = psi(a, b) - a beta(b)
        chi'(b1, b2) = chi(b1, b2) - phi(b1, beta(b2)) - psi(beta(b1), b2)
                       + beta(b1 b2) + beta(b1) beta(b2)

    This is the transform realized by changing the section ``s`` of an
    extension to ``s - beta``; it matches the gauge transform of the
    assembled element component by component (a tested identity) and is
    inverted by ``-beta``.

    Every correction term is read off the stored coefficients of phi and
    psi, the nonzero structure constants of A and B and the nonzero entries
    of beta, summed by :meth:`~nabext.cochains.MultilinearMap.from_terms`
    and added to the old map.
    """
    A, B = c.A, c.B
    f = A.field
    if beta.a_dim != A.dim or beta.b_dim != B.dim:
        raise ValueError("gauge parameter shape does not match the cocycle")
    a, b = A.dim, B.dim
    # row m of beta: the nonzero (j, beta[m][j]), i.e. where a_m occurs in
    # the beta(b_j); minus: the same with the values negated
    rows = [[(j, v) for j, v in enumerate(row) if v] for row in beta.matrix]
    minus = [[(j, f.neg(v)) for j, v in row] for row in rows]
    # beta(b_j) a_i = sum_m beta[m][j] a_m a_i, at phi's (k, j, i)
    phi_terms = (
        (k * b * a + j * a + i, v, w)
        for m, i, k, w in A.product_entries
        for j, v in minus[m]
    )
    # a_i beta(b_j) = sum_m beta[m][j] a_i a_m, at psi's (k, i, j)
    psi_terms = (
        (k * a * b + i * b + j, v, w)
        for i, m, k, w in A.product_entries
        for j, v in minus[m]
    )

    def chi_terms():
        bb = b * b
        # phi(b1, beta(b2)) = sum_m beta[m][j2] phi(b1, a_m)
        for pos, v in enumerate(c.phi.coeffs):
            if v:
                k, j1, m = pos // (b * a), pos // a % b, pos % a
                for j2, w in minus[m]:
                    yield k * bb + j1 * b + j2, v, w
        # psi(beta(b1), b2) = sum_m beta[m][j1] psi(a_m, b2)
        for pos, v in enumerate(c.psi.coeffs):
            if v:
                k, m, j2 = pos // (a * b), pos // b % a, pos % b
                for j1, w in minus[m]:
                    yield k * bb + j1 * b + j2, v, w
        # beta(b1 b2) = sum_l (b1 b2)_l beta(b_l)
        for j1, j2, l, w in B.product_entries:
            for k, row in enumerate(beta.matrix):
                if row[l]:
                    yield k * bb + j1 * b + j2, w, row[l]
        # beta(b1) beta(b2) = sum_{m,n} beta[m][j1] beta[n][j2] a_m a_n
        for m, n, k, w in A.product_entries:
            for j1, v1 in rows[m]:
                for j2, v2 in rows[n]:
                    yield k * bb + j1 * b + j2, f.mul(v1, v2), w

    return NabCocycle(
        A,
        B,
        c.phi + MultilinearMap.from_terms(f, (b, a), a, phi_terms),
        c.psi + MultilinearMap.from_terms(f, (a, b), a, psi_terms),
        c.chi + MultilinearMap.from_terms(f, (b, b), a, chi_terms()),
    )


# ---------------------------------------------------------------------------
# abelian specialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbelianStructure:
    """A valid cocycle with zero kernel product, repackaged: the twists are
    an honest bimodule action and the curvature a module-valued 2-cocycle."""

    left_action: MultilinearMap   # B (x) M -> M
    right_action: MultilinearMap  # M (x) B -> M
    cocycle: MultilinearMap       # B (x) B -> M


def abelian_specialize(c: NabCocycle) -> AbelianStructure:
    """Specialize a valid cocycle with ``m_A = 0``.

    With the kernel product zero, the twist equations collapse to exact
    bimodule axioms and the curvature equation says the curvature is a
    2-cocycle for the module-valued Hochschild differential; the latter is
    re-verified here against :func:`hochschild_delta_module` and a failure
    raises :class:`CrossCheckError` (it cannot happen for valid input).
    """
    if not c.A.has_zero_product():
        raise ValueError("abelian specialization requires a zero kernel product")
    violations = check_cocycle(c)
    if violations:
        raise ValueError(
            f"not a valid cocycle ({len(violations)} violation(s); first: {violations[0].which.value})"
        )
    dchi = hochschild_delta_module(c.chi, c.B, c.phi, c.psi)
    if not dchi.is_zero():
        raise CrossCheckError(
            "curvature of a valid abelian cocycle is not a module cocycle"
        )
    return AbelianStructure(left_action=c.phi, right_action=c.psi, cocycle=c.chi)


def module_coboundary(beta: GaugeParam, c: NabCocycle) -> MultilinearMap:
    """``delta beta`` for the bimodule structure carried by ``c``:
    ``(b1, b2) -> phi(b1, beta(b2)) - beta(b1 b2) + psi(beta(b1), b2)``,
    computed by :func:`hochschild_delta_module` on :meth:`GaugeParam.as_map`
    with ``phi``/``psi`` as the actions of B on A.  With the kernel product
    zero, a gauge move changes the curvature by exactly ``-delta beta``: the
    independent side of that law in the abelian specialization tests."""
    return hochschild_delta_module(beta.as_map(c.A.field), c.B, c.phi, c.psi)

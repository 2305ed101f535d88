"""Extensions as first-class objects: short exact sequences of algebras,
sections, cocycle extraction, and equivalence of extensions.

A presentation is a middle algebra E together with an injection matrix
``iota`` (columns are images of the kernel basis) and a surjection matrix
``proj`` (rows express the quotient coordinates).  The kernel and quotient
algebras can be supplied or derived; :func:`verify_extension` reports every
failure explicitly instead of raising.

Every change of basis is :meth:`~nabext.algebra.Algebra.transported`: the
derived kernel is E read through the columns of ``iota``, the derived
quotient is E read through one right inverse of ``proj`` and pushed forward
by ``proj``.  An extension with a section ``s`` is the twisted product
``base + x`` on A (+) B read through ``theta = (iota | s)``, so the cocycle
of ``s`` is E read through ``theta`` minus the direct-sum product; moving
the section by ``beta`` is the gauge action
(:func:`~nabext.nonabelian.gauge_closed_form`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field, replace
from typing import Iterable, List, Optional, Tuple

from .algebra import Algebra, SplitSpace, direct_sum_space
from .cochains import multiplication_map
from .fields import Field, FieldError
from .linalg import (
    Matrix,
    Vector,
    basis_vector,
    identity_matrix,
    is_zero_vector,
    mat_mul,
    mat_vec,
    rank,
    solve,
    vec_sub,
)
from .nonabelian import (
    GaugeParam,
    NabCocycle,
    all_gauge_params,
    beta_element,
    cocycle_from_mc,
)


class BrokenExtensionError(ValueError):
    """A structural operation needed a property the presentation lacks."""


@dataclass(frozen=True)
class ExtensionPresentation:
    E: Algebra
    iota: Matrix  # dim E rows, dim A columns
    proj: Matrix  # dim B rows, dim E columns
    A: Optional[Algebra] = None
    B: Optional[Algebra] = None

    def __post_init__(self):
        for name, alg in (("kernel", self.A), ("quotient", self.B)):
            if alg is not None and alg.field != self.E.field:
                raise FieldError(f"the {name} algebra lives over a different field than E")
        if len(self.iota) != self.E.dim:
            raise ValueError("iota must have one row per E basis vector")
        if self.proj and len(self.proj[0]) != self.E.dim:
            raise ValueError("proj must have one column per E basis vector")
        if self.A is not None and self.iota and len(self.iota[0]) != self.A.dim:
            raise ValueError("iota column count does not match the kernel dimension")
        if self.B is not None and len(self.proj) != self.B.dim:
            raise ValueError("proj row count does not match the quotient dimension")

    @property
    def a_dim(self) -> int:
        return self.A.dim if self.A is not None else (len(self.iota[0]) if self.iota else 0)

    @property
    def b_dim(self) -> int:
        return self.B.dim if self.B is not None else len(self.proj)

    def include(self, avec: Vector) -> Vector:
        return mat_vec(self.E.field, self.iota, avec)

    def project(self, evec: Vector) -> Vector:
        return mat_vec(self.E.field, self.proj, evec)

    def pull_back(self, evec: Vector) -> Vector:
        """Solve ``iota x = evec``; raises when the vector is off the kernel."""
        x = solve(self.E.field, self.iota, evec)
        if x is None:
            raise BrokenExtensionError("vector is not in the image of iota")
        return x


@dataclass(frozen=True)
class Section:
    """A linear right inverse of the projection, as a dim E x dim B matrix."""

    matrix: Matrix

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.matrix)


@dataclass
class ExtensionDiagnostics:
    ok: bool
    failures: List[str] = dc_field(default_factory=list)


def _right_inverse(ext: ExtensionPresentation) -> List[Optional[Vector]]:
    """``solve(proj, e_j)`` for every quotient basis vector: the columns of
    one right inverse of the projection (free choices set to zero), None
    where the projection misses ``e_j``."""
    field, b_dim = ext.E.field, ext.b_dim
    return [solve(field, ext.proj, basis_vector(field, b_dim, j)) for j in range(b_dim)]


def _end_algebras(
    ext: ExtensionPresentation, failures: List[str]
) -> Tuple[Optional[Algebra], Optional[Algebra]]:
    """The kernel and quotient algebras, supplied or derived; records why a
    derivation failed.  The kernel is E read through the columns of iota and
    pulled back by ``solve``; the quotient is E read through
    :func:`_right_inverse` and pushed forward by ``proj``."""
    field = ext.E.field
    a, b = ext.A, ext.B
    if a is None and ext.a_dim == 0:
        failures.append("kernel dimension is zero")
    elif a is None:
        a, missed = ext.E.transported(list(zip(*ext.iota)), lambda w: solve(field, ext.iota, w))
        if missed:
            failures.append(f"image of iota is not closed under the product at ({missed[0]},{missed[1]})")
        else:
            a = replace(a, basis=tuple(f"a{i}" for i in range(a.dim)))
    if b is None and ext.b_dim == 0:
        failures.append("quotient dimension is zero")
    elif b is None:
        cols = _right_inverse(ext)
        if None in cols:
            failures.append(f"projection misses quotient basis vector {cols.index(None)}")
        else:
            b, _ = ext.E.transported(cols, ext.project)
            b = replace(b, basis=tuple(f"b{j}" for j in range(b.dim)))
    return a, b


def _non_morphism(src: Algebra, dst: Algebra, matrix: Matrix) -> Optional[Tuple[int, int]]:
    """The first basis pair of ``src``, in ``itertools.product`` order, whose
    product ``matrix`` does not carry to the product of the images in
    ``dst``, or None when ``matrix`` is an algebra morphism."""
    cols = list(zip(*matrix))
    for i, j in itertools.product(range(src.dim), repeat=2):
        if mat_vec(src.field, matrix, src.product_row(i, j)) != dst.multiply(cols[i], cols[j]):
            return i, j
    return None


def resolved(ext: ExtensionPresentation) -> ExtensionPresentation:
    """A presentation with kernel and quotient algebras filled in."""
    if ext.A is not None and ext.B is not None:
        return ext
    failures: List[str] = []
    a, b = _end_algebras(ext, failures)
    if failures or a is None or b is None:
        raise BrokenExtensionError("; ".join(failures) or "cannot derive end algebras")
    return ExtensionPresentation(ext.E, ext.iota, ext.proj, a, b)


def verify_extension(ext: ExtensionPresentation) -> ExtensionDiagnostics:
    """Exactness and morphism checks, all by exact evaluation on bases."""
    field = ext.E.field
    failures: List[str] = []
    a_dim, b_dim, e_dim = ext.a_dim, ext.b_dim, ext.E.dim

    if rank(field, ext.iota) != a_dim:
        failures.append("iota is not injective")
    if rank(field, ext.proj) != b_dim:
        failures.append("proj is not surjective")
    composed = mat_mul(field, ext.proj, ext.iota)
    if any(not is_zero_vector(row) for row in composed):
        failures.append("proj o iota is nonzero")
    if a_dim + b_dim != e_dim:
        failures.append(
            f"dimension count fails: {a_dim} + {b_dim} != {e_dim}"
        )
    # With proj o iota = 0, image(iota) sits inside kernel(proj); the rank
    # conditions above then force equality exactly when dims add up, which
    # is the exactness at E.

    a, b = _end_algebras(ext, failures)
    for name, src, dst, matrix in (("iota", a, ext.E, ext.iota), ("proj", ext.E, b, ext.proj)):
        missed = None if src is None or dst is None else _non_morphism(src, dst, matrix)
        if missed:
            failures.append(f"{name} is not an algebra morphism at ({missed[0]},{missed[1]})")
    return ExtensionDiagnostics(ok=not failures, failures=failures)


# ---------------------------------------------------------------------------
# canonical presentations and sections
# ---------------------------------------------------------------------------

def block_presentation(E: Algebra, A: Algebra, B: Algebra) -> ExtensionPresentation:
    """``E`` on the split space ``A (+) B`` with block inclusion and projection."""
    eye = identity_matrix(E.field, A.dim + B.dim)
    return ExtensionPresentation(E, tuple(row[: A.dim] for row in eye), eye[A.dim :], A, B)


def canonical_section(ext: ExtensionPresentation) -> Section:
    """The right inverse of the projection that the derived quotient is read
    through (free choices set to zero); for block presentations this is the
    B-block embedding."""
    cols = _right_inverse(ext)
    if None in cols:
        raise BrokenExtensionError("projection admits no section")
    return Section(tuple(tuple(col[i] for col in cols) for i in range(ext.E.dim)))


def is_section(ext: ExtensionPresentation, s: Section) -> bool:
    field = ext.E.field
    return mat_mul(field, ext.proj, s.matrix) == identity_matrix(field, ext.b_dim)


def enumerate_sections(ext: ExtensionPresentation) -> Iterable[Section]:
    """All sections over a finite field: one base section plus
    ``iota . beta`` for every ``beta`` in Hom(B, A), in
    :func:`all_gauge_params` order, ``p^(dim A * dim B)`` in total.  With
    :func:`section_difference` it is the section side of the law that moving
    the section is the gauge action."""
    field = ext.E.field
    if not hasattr(field, "elements"):
        raise ValueError("section enumeration needs a finite field")
    base = canonical_section(ext)
    for beta in all_gauge_params(field, ext.a_dim, ext.b_dim):
        # shift[j] = iota(beta(b_j)), the offset of column j
        shift = [ext.include(beta.column(j)) for j in range(ext.b_dim)]
        yield Section(
            tuple(
                tuple(field.add(v, shift[j][r]) for j, v in enumerate(row))
                for r, row in enumerate(base.matrix)
            )
        )


# ---------------------------------------------------------------------------
# cocycles from sections
# ---------------------------------------------------------------------------

def cocycle_from_section(ext: ExtensionPresentation, s: Section) -> NabCocycle:
    """The twist triple of a section (:func:`section_cocycle`), after
    :func:`resolved` and :func:`verify_extension`: a failed verification
    raises :class:`BrokenExtensionError`."""
    ext = resolved(ext)
    diag = verify_extension(ext)
    if not diag.ok:
        raise BrokenExtensionError("; ".join(diag.failures))
    return section_cocycle(ext, s)


def section_cocycle(ext: ExtensionPresentation, s: Section) -> NabCocycle:
    """The twist triple of a section of a presentation that :func:`resolved`
    filled in and :func:`verify_extension` passed; neither is run again.  E
    read through ``theta = (iota | s)`` is the twisted product ``base + x``
    on A (+) B, so ``x`` is that product minus the :func:`direct_sum_space`
    one, and its blocks are

        phi(b, a)   = s(b) a     (pulled back through iota)
        psi(a, b)   = a s(b)
        chi(b1, b2) = s(b1) s(b2) - s(b1 b2)

    ``theta`` is invertible for a verified extension and a section, so the
    read always succeeds: it is inverted once, one solve per basis vector of
    E, and each product is read back through the inverse.  Raises
    ValueError when ``s`` is not a section.
    """
    if not is_section(ext, s):
        raise ValueError("the supplied map is not a section of the projection")
    field = ext.E.field
    theta = tuple(i_row + s_row for i_row, s_row in zip(ext.iota, s.matrix))
    inverse_cols = [solve(field, theta, e) for e in identity_matrix(field, ext.E.dim)]
    inverse = tuple(zip(*inverse_cols))
    read, _ = ext.E.transported(list(zip(*theta)), lambda w: mat_vec(field, inverse, w))
    base, _ = direct_sum_space(ext.A, ext.B)
    return cocycle_from_mc(multiplication_map(read) - multiplication_map(base), ext.A, ext.B)


def section_difference(
    s: Section, s_prime: Section, ext: ExtensionPresentation
) -> GaugeParam:
    """The kernel-valued map with ``iota(beta(b)) = s(b) - s'(b)``: the
    gauge parameter of a move of the section (see :func:`enumerate_sections`)."""
    ext = resolved(ext)
    field = ext.E.field
    cols = [ext.pull_back(vec_sub(field, s.column(j), s_prime.column(j))) for j in range(ext.b_dim)]
    return GaugeParam(tuple(tuple(col[i] for col in cols) for i in range(ext.a_dim)))


# ---------------------------------------------------------------------------
# equivalence of extensions
# ---------------------------------------------------------------------------

def check_extension_equivalence(
    ext: ExtensionPresentation,
    ext_prime: ExtensionPresentation,
    theta: Matrix,
) -> Tuple[bool, List[str]]:
    """Check that ``theta: E -> E'`` is an algebra morphism commuting with
    both structure maps (``theta o iota = iota'`` and ``proj' o theta =
    proj``).  Returns a verdict with diagnostics."""
    field = ext.E.field
    if field != ext_prime.E.field:
        return False, ["the two extensions live over different fields"]
    failures: List[str] = []
    if len(theta) != ext_prime.E.dim or (theta and len(theta[0]) != ext.E.dim):
        return False, ["theta has the wrong shape"]
    if mat_mul(field, theta, ext.iota) != ext_prime.iota:
        failures.append("theta o iota differs from iota'")
    if mat_mul(field, ext_prime.proj, theta) != ext.proj:
        failures.append("proj' o theta differs from proj")
    missed = _non_morphism(ext.E, ext_prime.E, theta)
    if missed:
        failures.append(f"theta is not an algebra morphism at ({missed[0]},{missed[1]})")
    return (not failures), failures


def theta_from_gauge(beta: GaugeParam, split: SplitSpace, field: Field) -> Matrix:
    """The map ``a + b -> a + beta(b) + b`` realizing an equivalence between
    a twisted product and its gauge transform: the identity plus the matrix
    of :func:`beta_element`.  The independent side of the law that a gauge
    transform is an equivalent extension."""
    dim = split.dim
    shift = beta_element(beta, split, field).coeffs
    return tuple(
        tuple(field.add(u, v) for u, v in zip(row, shift[k * dim : (k + 1) * dim]))
        for k, row in enumerate(identity_matrix(field, dim))
    )

"""Extensions as first-class objects: short exact sequences of algebras,
sections, cocycle extraction, and equivalence of extensions.

A presentation is a middle algebra E together with an injection matrix
``iota`` (columns are images of the kernel basis) and a surjection matrix
``proj`` (rows express the quotient coordinates).  The kernel and quotient
algebras can be supplied or derived: the derived kernel product pulls the
E product back through ``iota`` and the derived quotient product pushes it
forward through any right inverse of ``proj``; both derivations are only
possible for honest extensions, and :func:`verify_extension` reports every
failure explicitly instead of raising.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Iterable, List, Optional, Tuple

from .algebra import Algebra, SplitSpace
from .fields import Field
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
from .nonabelian import GaugeParam, NabCocycle, all_gauge_params, beta_element, build_extension
from .cochains import MultilinearMap


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

    def apply(self, field: Field, bvec: Vector) -> Vector:
        return mat_vec(field, self.matrix, bvec)

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.matrix)


@dataclass
class ExtensionDiagnostics:
    ok: bool
    failures: List[str] = dc_field(default_factory=list)


def _derive_kernel(ext: ExtensionPresentation, failures: List[str]) -> Optional[Algebra]:
    """Pull the E product back through iota; records failures."""
    field = ext.E.field
    a_dim = ext.a_dim
    if a_dim == 0:
        failures.append("kernel dimension is zero")
        return None
    products = {}
    for i, j in itertools.product(range(a_dim), repeat=2):
        u = ext.include(basis_vector(field, a_dim, i))
        v = ext.include(basis_vector(field, a_dim, j))
        w = ext.E.multiply(u, v)
        x = solve(field, ext.iota, w)
        if x is None:
            failures.append(f"image of iota is not closed under the product at ({i},{j})")
            return None
        products[(i, j)] = {k: v2 for k, v2 in enumerate(x) if v2 != 0}
    names = tuple(f"a{i}" for i in range(a_dim))
    return Algebra.from_products(field, names, products)


def _derive_quotient(ext: ExtensionPresentation, failures: List[str]) -> Optional[Algebra]:
    """Push the E product forward through proj along one section."""
    field = ext.E.field
    b_dim = ext.b_dim
    if b_dim == 0:
        failures.append("quotient dimension is zero")
        return None
    cols = []
    for j in range(b_dim):
        col = solve(field, ext.proj, basis_vector(field, b_dim, j))
        if col is None:
            failures.append(f"projection misses quotient basis vector {j}")
            return None
        cols.append(col)
    products = {}
    for i, j in itertools.product(range(b_dim), repeat=2):
        w = ext.project(ext.E.multiply(cols[i], cols[j]))
        products[(i, j)] = {k: v for k, v in enumerate(w) if v != 0}
    names = tuple(f"b{j}" for j in range(b_dim))
    return Algebra.from_products(field, names, products)


def resolved(ext: ExtensionPresentation) -> ExtensionPresentation:
    """A presentation with kernel and quotient algebras filled in."""
    if ext.A is not None and ext.B is not None:
        return ext
    failures: List[str] = []
    a = ext.A if ext.A is not None else _derive_kernel(ext, failures)
    b = ext.B if ext.B is not None else _derive_quotient(ext, failures)
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

    a = ext.A
    b = ext.B
    derive_failures: List[str] = []
    if a is None:
        a = _derive_kernel(ext, derive_failures)
    if b is None:
        b = _derive_quotient(ext, derive_failures)
    failures.extend(derive_failures)

    if a is not None:
        for i, j in itertools.product(range(a_dim), repeat=2):
            lhs = ext.E.multiply(ext.include(a.basis_vector(i)), ext.include(a.basis_vector(j)))
            rhs = ext.include(a.product_row(i, j))
            if lhs != rhs:
                failures.append(f"iota is not an algebra morphism at ({i},{j})")
                break
    if b is not None:
        for i, j in itertools.product(range(e_dim), repeat=2):
            lhs = ext.project(ext.E.multiply(ext.E.basis_vector(i), ext.E.basis_vector(j)))
            rhs = b.multiply(ext.project(ext.E.basis_vector(i)), ext.project(ext.E.basis_vector(j)))
            if lhs != rhs:
                failures.append(f"proj is not an algebra morphism at ({i},{j})")
                break
    return ExtensionDiagnostics(ok=not failures, failures=failures)


# ---------------------------------------------------------------------------
# canonical presentations and sections
# ---------------------------------------------------------------------------

def block_presentation(E: Algebra, A: Algebra, B: Algebra) -> ExtensionPresentation:
    """``E`` on the split space ``A (+) B`` with block inclusion and projection."""
    eye = identity_matrix(E.field, A.dim + B.dim)
    return ExtensionPresentation(E, tuple(row[: A.dim] for row in eye), eye[A.dim :], A, B)


def canonical_presentation(c: NabCocycle) -> ExtensionPresentation:
    """The twisted product of ``c`` with block inclusion and projection."""
    return block_presentation(build_extension(c)[0], c.A, c.B)


def canonical_section(ext: ExtensionPresentation) -> Section:
    """Any exact right inverse of the projection (free choices set to zero);
    for block presentations this is the B-block embedding."""
    field = ext.E.field
    b_dim = ext.b_dim
    cols = []
    for j in range(b_dim):
        col = solve(field, ext.proj, basis_vector(field, b_dim, j))
        if col is None:
            raise BrokenExtensionError("projection admits no section")
        cols.append(col)
    return Section(tuple(tuple(col[i] for col in cols) for i in range(ext.E.dim)))


def is_section(ext: ExtensionPresentation, s: Section) -> bool:
    field = ext.E.field
    return mat_mul(field, ext.proj, s.matrix) == identity_matrix(field, ext.b_dim)


def enumerate_sections(ext: ExtensionPresentation) -> Iterable[Section]:
    """All sections over a finite field: one base section plus
    ``iota . beta`` for every ``beta`` in Hom(B, A), in
    :func:`all_gauge_params` order, ``p^(dim A * dim B)`` in total."""
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
    """Extract the twist triple of a section:

        phi(b, a)   = s(b) a     (pulled back through iota)
        psi(a, b)   = a s(b)
        chi(b1, b2) = s(b1) s(b2) - s(b1 b2)

    All three land in the kernel by exactness; a failed pull-back signals a
    broken extension.
    """
    ext = resolved(ext)
    diag = verify_extension(ext)
    if not diag.ok:
        raise BrokenExtensionError("; ".join(diag.failures))
    if not is_section(ext, s):
        raise ValueError("the supplied map is not a section of the projection")
    A, B = ext.A, ext.B
    field = ext.E.field

    def phi_fn(idxs):
        j, i = idxs
        prod = ext.E.multiply(s.column(j), ext.include(A.basis_vector(i)))
        return ext.pull_back(prod)

    def psi_fn(idxs):
        i, j = idxs
        prod = ext.E.multiply(ext.include(A.basis_vector(i)), s.column(j))
        return ext.pull_back(prod)

    def chi_fn(idxs):
        j1, j2 = idxs
        prod = ext.E.multiply(s.column(j1), s.column(j2))
        curved = vec_sub(field, prod, s.apply(field, B.product_row(j1, j2)))
        return ext.pull_back(curved)

    return NabCocycle(
        A,
        B,
        MultilinearMap.from_function(field, (B.dim, A.dim), A.dim, phi_fn),
        MultilinearMap.from_function(field, (A.dim, B.dim), A.dim, psi_fn),
        MultilinearMap.from_function(field, (B.dim, B.dim), A.dim, chi_fn),
    )


def section_difference(
    s: Section, s_prime: Section, ext: ExtensionPresentation
) -> GaugeParam:
    """The kernel-valued map with ``iota(beta(b)) = s(b) - s'(b)``."""
    ext = resolved(ext)
    field = ext.E.field
    cols = []
    for j in range(ext.b_dim):
        diff = vec_sub(field, s.column(j), s_prime.column(j))
        x = solve(field, ext.iota, diff)
        if x is None:
            raise BrokenExtensionError(
                "difference of sections is not in the image of iota"
            )
        cols.append(x)
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
    failures: List[str] = []
    if len(theta) != ext_prime.E.dim or (theta and len(theta[0]) != ext.E.dim):
        return False, ["theta has the wrong shape"]
    if mat_mul(field, theta, ext.iota) != ext_prime.iota:
        failures.append("theta o iota differs from iota'")
    if mat_mul(field, ext_prime.proj, theta) != ext.proj:
        failures.append("proj' o theta differs from proj")
    for i, j in itertools.product(range(ext.E.dim), repeat=2):
        u, v = ext.E.basis_vector(i), ext.E.basis_vector(j)
        lhs = mat_vec(field, theta, ext.E.multiply(u, v))
        rhs = ext_prime.E.multiply(mat_vec(field, theta, u), mat_vec(field, theta, v))
        if lhs != rhs:
            failures.append(f"theta is not an algebra morphism at ({i},{j})")
            break
    return (not failures), failures


def theta_from_gauge(beta: GaugeParam, split: SplitSpace, field: Field) -> Matrix:
    """The map ``a + b -> a + beta(b) + b`` realizing an equivalence between
    a twisted product and its gauge transform: the identity plus the matrix
    of :func:`beta_element`."""
    dim = split.dim
    shift = beta_element(beta, split, field).coeffs
    return tuple(
        tuple(field.add(u, v) for u, v in zip(row, shift[k * dim : (k + 1) * dim]))
        for k, row in enumerate(identity_matrix(field, dim))
    )

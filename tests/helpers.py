"""Shared builders for the test suite."""

from __future__ import annotations

import io
import itertools
import random
from contextlib import redirect_stderr, redirect_stdout

from nabext import (
    Algebra,
    GaugeParam,
    MultilinearMap,
    NabCocycle,
    Orbit,
    ViolationKind,
    apply_equivalence,
    build_extension,
    circ_i,
    cli,
)
from nabext.exact_sequences import ExtensionPresentation, block_presentation
from nabext.fields import Field
from nabext.linalg import basis_vector, solve, vec_add, vec_sub


def line_algebra(field: Field, square: str, name: str = "e") -> Algebra:
    """One-dimensional algebra with e*e = 0 ('zero') or e*e = e ('idem')."""
    if square == "zero":
        return Algebra.zero_product(field, [name])
    if square == "idem":
        return Algebra.from_products(field, [name], {(0, 0): {0: 1}})
    raise ValueError(square)


def trunc_poly2(field: Field) -> Algebra:
    """The 2-dimensional algebra k[t]/t^2 with basis (1, t)."""
    return Algebra.from_products(
        field,
        ["u", "t"],
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
    )


def trunc_poly3(field: Field) -> Algebra:
    """The 3-dimensional algebra k[t]/t^3 with basis (1, t, t^2)."""
    return Algebra.from_products(
        field,
        ["u", "t", "t2"],
        {
            (0, 0): {0: 1},
            (0, 1): {1: 1},
            (1, 0): {1: 1},
            (0, 2): {2: 1},
            (2, 0): {2: 1},
            (1, 1): {2: 1},
        },
    )


def left_unit2(field: Field) -> Algebra:
    """A non-commutative 2-dimensional algebra: e e = e, e n = n, n e = 0."""
    return Algebra.from_products(field, ["e", "n"], {(0, 0): {0: 1}, (0, 1): {1: 1}})


def upper_triangular2(field: Field) -> Algebra:
    """The upper triangular 2x2 matrices, basis (e11, e12, e22)."""
    return Algebra.from_products(
        field,
        ["e11", "e12", "e22"],
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}},
    )


def zero_algebra(field: Field, dim: int, prefix: str = "a") -> Algebra:
    return Algebra.zero_product(field, [f"{prefix}{i}" for i in range(dim)])


def associative_samples(field: Field) -> list[Algebra]:
    """Associative algebras of dimensions 1 through 3."""
    return [
        line_algebra(field, "idem"),
        line_algebra(field, "zero"),
        trunc_poly2(field),
        zero_algebra(field, 2),
        trunc_poly3(field),
    ]


def rand_vector(rng: random.Random, field: Field, dim: int):
    return tuple(field.random(rng) for _ in range(dim))


def rand_map(
    rng: random.Random, field: Field, dims, target: int
) -> MultilinearMap:
    return MultilinearMap.from_function(
        field, dims, target, lambda idxs: rand_vector(rng, field, target)
    )


def rand_cochain(rng: random.Random, alg: Algebra, arity: int) -> MultilinearMap:
    return rand_map(rng, alg.field, (alg.dim,) * arity, alg.dim)


def rand_cocycle(rng: random.Random, a: Algebra, b: Algebra) -> NabCocycle:
    field = a.field
    return NabCocycle(
        a,
        b,
        rand_map(rng, field, (b.dim, a.dim), a.dim),
        rand_map(rng, field, (a.dim, b.dim), a.dim),
        rand_map(rng, field, (b.dim, b.dim), a.dim),
    )


def rand_gauge(rng: random.Random, a: Algebra, b: Algebra) -> GaugeParam:
    field = a.field
    return GaugeParam(
        tuple(tuple(field.random(rng) for _ in range(b.dim)) for _ in range(a.dim))
    )


def line_cocycle(a: Algebra, b: Algebra, f, g, x) -> NabCocycle:
    """The (1,1)-dimensional candidate triple phi=f, psi=g, chi=x."""
    field = a.field
    return NabCocycle(
        a,
        b,
        MultilinearMap.from_entries(field, (1, 1), 1, [(0, 0, 0, f)]),
        MultilinearMap.from_entries(field, (1, 1), 1, [(0, 0, 0, g)]),
        MultilinearMap.from_entries(field, (1, 1), 1, [(0, 0, 0, x)]),
    )


def rand_invertible(rng: random.Random, field: Field, n: int):
    """A random invertible n x n matrix and its inverse, as row tuples."""
    while True:
        p = tuple(tuple(field.random(rng) for _ in range(n)) for _ in range(n))
        cols = [solve(field, p, basis_vector(field, n, k)) for k in range(n)]
        if all(col is not None for col in cols):
            return p, tuple(zip(*cols))


def read_through(alg: Algebra, p, p_inv) -> Algebra:
    """The product ``u . v = p_inv (p u * p v)`` of ``alg`` in the basis of
    the columns of ``p``, summed entry by entry from the structure
    constants: ``c'_ij^k = sum p[r][i] p[s][j] c_rs^t p_inv[k][t]``."""
    f, n = alg.field, alg.dim
    table = [f.zero] * n ** 3
    for i, j, r, s, t, k in itertools.product(range(n), repeat=6):
        term = f.mul(f.mul(p[r][i], p[s][j]), f.mul(alg.product_row(r, s)[t], p_inv[k][t]))
        table[(i * n + j) * n + k] = f.add(table[(i * n + j) * n + k], term)
    return Algebra(f, n, alg.basis, tuple(table))


def canonical_presentation(c: NabCocycle) -> ExtensionPresentation:
    """The twisted product of ``c`` with block inclusion and projection."""
    return block_presentation(build_extension(c)[0], c.A, c.B)


def associator_map(m: Algebra) -> MultilinearMap:
    """The associator of ``m`` as an arity-3 map, tabulated from
    :meth:`Algebra.associator` on basis vectors.  No cochain kernel takes
    part, so its blocks are an independent oracle for the Maurer-Cartan
    residual."""
    return MultilinearMap.from_function(
        m.field,
        (m.dim,) * 3,
        m.dim,
        lambda idxs: m.associator(*(m.basis_vector(i) for i in idxs)),
    )


def circ_by_slots(f: MultilinearMap, g: MultilinearMap) -> MultilinearMap:
    """``f o g`` as the signed sum of the :func:`circ_i` maps, one dense map
    per insertion, negated and summed as maps: the oracle of the one-pass
    :func:`~nabext.cochains.circ`.  For arity-0 ``f`` the empty sum is the
    zero map."""
    dims = (g.target_dim,) * (f.arity + g.arity - 1)
    total = MultilinearMap.zero(f.field, dims, f.target_dim)
    for i in range(1, f.arity + 1):
        term = circ_i(f, g, i)
        total = total - term if g.degree * (i + 1) % 2 else total + term
    return total


def bracket_by_circ(f: MultilinearMap, g: MultilinearMap) -> MultilinearMap:
    """``[f, g] = f o g - (-1)^{deg f deg g} g o f`` from the two
    :func:`circ_by_slots` maps: the oracle of the one-pass
    :func:`~nabext.cochains.gerstenhaber_bracket`."""
    left, right = circ_by_slots(f, g), circ_by_slots(g, f)
    return left + right if f.degree * g.degree % 2 else left - right


def residuals_by_sides(A: Algebra, B: Algebra, phi, psi, chi) -> list:
    """Every residual of :func:`~nabext.cocycle_residuals`, in its order,
    each discrepancy the left side minus the right side of its equation,
    every side a sum of maps applied to vectors by a dense loop and joined
    by ``vec_add`` and ``vec_sub``: the oracle of the one-pass residual
    kernel."""
    f, ra, rb = A.field, range(A.dim), range(B.dim)

    def apply(vec, cols):
        # sum_t vec[t] cols[t]
        out = [f.zero] * A.dim
        for v, col in zip(vec, cols):
            for k, c in enumerate(col):
                if v != 0 and c != 0:
                    out[k] = f.add(out[k], f.mul(v, c))
        return tuple(out)

    def side(*terms):
        total = apply(*terms[0])
        for term in terms[1:]:
            total = vec_add(f, total, apply(*term))
        return total

    ph = lambda j, i: phi.column((j, i))
    ps = lambda i, j: psi.column((i, j))
    ch = lambda j1, j2: chi.column((j1, j2))
    a, b = A.product_row, B.product_row
    # the maps in one slot as columns: phi(b_j, a_t), psi(a_t, b_j) over t,
    # and a_i times each a_t on either side
    phi_at = lambda j: [ph(j, t) for t in ra]
    psi_at = lambda j: [ps(t, j) for t in ra]
    times_left = lambda i: [a(i, t) for t in ra]
    times_right = lambda i: [a(t, i) for t in ra]
    out = []
    for j1, j2, i in itertools.product(rb, rb, ra):
        disc = vec_sub(f, side((ps(i, j2), phi_at(j1))), side((ph(j1, i), psi_at(j2))))
        out.append((ViolationKind.EQ3_COMMUTE, (j1, j2, i), disc, ""))
    for i1, i2, j in itertools.product(ra, ra, rb):
        for detail, lhs, rhs in (
            ("psi_leibniz", (a(i1, i2), psi_at(j)), (ps(i2, j), times_left(i1))),
            ("phi_leibniz", (a(i1, i2), phi_at(j)), (ph(j, i1), times_right(i2))),
            ("cross_compat", (ps(i1, j), times_right(i2)), (ph(j, i2), times_left(i1))),
        ):
            out.append((ViolationKind.EQ4_DERIVATION, (i1, i2, j), vec_sub(f, side(lhs), side(rhs)), detail))
    for j1, j2, i in itertools.product(rb, rb, ra):
        lhs = side((ph(j2, i), phi_at(j1)))
        rhs = side((b(j1, j2), [ph(l, i) for l in rb]), (ch(j1, j2), times_right(i)))
        out.append((ViolationKind.EQ1_LEFT_TWIST, (j1, j2, i), vec_sub(f, lhs, rhs), ""))
    for j1, j2, i in itertools.product(rb, rb, ra):
        lhs = side((ps(i, j2), psi_at(j1)))
        rhs = side((b(j2, j1), [ps(i, l) for l in rb]), (ch(j2, j1), times_left(i)))
        out.append((ViolationKind.EQ2_RIGHT_TWIST, (j1, j2, i), vec_sub(f, lhs, rhs), ""))
    for j1, j2, j3 in itertools.product(rb, repeat=3):
        lhs = side((b(j1, j2), [ch(l, j3) for l in rb]), (ch(j1, j2), psi_at(j3)))
        rhs = side((ch(j2, j3), phi_at(j1)), (b(j2, j3), [ch(j1, l) for l in rb]))
        out.append((ViolationKind.EQ5_CHI_COCYCLE, (j1, j2, j3), vec_sub(f, lhs, rhs), ""))
    return out


def sweep_orbits(space, cocycles) -> list[Orbit]:
    """The gauge orbits of an equivalence-closed ``(index, cocycle)`` list
    as :func:`~nabext.classify.orbit_partition` reports them, by the numeric
    sweep: one :func:`apply_equivalence` per orbit and gauge parameter, each
    member's witness the first parameter of ``space.gauge_params()`` that
    reaches it.  An image outside the list raises :class:`KeyError`."""
    key = lambda c: (c.phi.coeffs, c.psi.coeffs, c.chi.coeffs)
    index_of = {key(c): i for i, c in cocycles}
    placed, orbits = set(), []
    for i, c in sorted(cocycles, key=lambda item: item[0]):
        if i not in placed:
            witnesses = {i: ()}
            for beta in space.gauge_params():
                witnesses.setdefault(index_of[key(apply_equivalence(c, beta))], (beta,))
            members = sorted(witnesses)
            placed.update(members)
            orbits.append(Orbit(members[0], tuple(members), tuple((m, witnesses[m]) for m in members)))
    return orbits


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

"""Shared builders for the test suite."""

from __future__ import annotations

import io
import itertools
import random
from contextlib import redirect_stderr, redirect_stdout

from nabext import Algebra, GaugeParam, MultilinearMap, NabCocycle, build_extension, cli
from nabext.exact_sequences import ExtensionPresentation, block_presentation
from nabext.fields import Field
from nabext.linalg import basis_vector, solve


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


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

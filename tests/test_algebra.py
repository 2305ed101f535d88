import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import associative_samples, line_algebra, rand_vector, trunc_poly2
from nabext import Algebra, direct_sum_space
from nabext.algebra import associativity_witness, basis_associators
from nabext.classify import _symbolic_digits
from nabext.fields import GF2, GF3, FieldError, PrimeField, QQ
from nabext.linalg import is_zero_vector, vec_add, vec_scale


def test_multiply_idempotent_generator():
    alg = line_algebra(QQ, "idem")
    e = alg.basis_vector(0)
    assert alg.multiply(e, e) == e


def test_multiply_zero_vector_kills_product():
    alg = trunc_poly2(GF3)
    z = alg.zero_vector()
    y = rand_vector(random.Random(1), GF3, alg.dim)
    assert alg.multiply(z, y) == z
    assert alg.multiply(y, z) == z


def test_multiply_expands_bilinearly_over_f2():
    # e0*e0 = e1, all other products zero:
    # (e0 + e1) * e0 = e0 e0 + e1 e0 = e1 + 0 = e1
    alg = Algebra.from_products(GF2, ["e0", "e1"], {(0, 0): {1: 1}})
    x = vec_add(GF2, alg.basis_vector(0), alg.basis_vector(1))
    assert alg.multiply(x, alg.basis_vector(0)) == alg.basis_vector(1)


def test_multiply_dimension_mismatch():
    alg = line_algebra(QQ, "idem")
    with pytest.raises(ValueError):
        alg.multiply((QQ.one, QQ.zero), (QQ.one,))


def test_multiply_is_bilinear_random():
    rng = random.Random(23)
    for alg in associative_samples(QQ):
        for _ in range(20):
            x = rand_vector(rng, QQ, alg.dim)
            x2 = rand_vector(rng, QQ, alg.dim)
            y = rand_vector(rng, QQ, alg.dim)
            s = QQ.random(rng)
            lhs = alg.multiply(vec_add(QQ, vec_scale(QQ, s, x), x2), y)
            rhs = vec_add(
                QQ, vec_scale(QQ, s, alg.multiply(x, y)), alg.multiply(x2, y)
            )
            assert lhs == rhs
            lhs = alg.multiply(y, vec_add(QQ, vec_scale(QQ, s, x), x2))
            rhs = vec_add(
                QQ, vec_scale(QQ, s, alg.multiply(y, x)), alg.multiply(y, x2)
            )
            assert lhs == rhs


def test_associator_vanishes_on_idempotent_line():
    alg = line_algebra(QQ, "idem")
    e = alg.basis_vector(0)
    assert is_zero_vector(alg.associator(e, e, e))


def test_associator_witness_over_f2():
    # e0 e0 = e1 and e1 e0 = e0: ((e0 e0) e0) - (e0 (e0 e0)) = e1 e0 - 0 = e0
    alg = Algebra.from_products(GF2, ["e0", "e1"], {(0, 0): {1: 1}, (1, 0): {0: 1}})
    e0 = alg.basis_vector(0)
    assert alg.associator(e0, e0, e0) == e0
    assert not alg.is_associative()
    assert alg.associativity_witness() == (0, 0, 0)


def test_associator_multilinear_in_first_slot():
    alg = trunc_poly2(QQ)
    z = alg.zero_vector()
    y = alg.basis_vector(0)
    w = alg.basis_vector(1)
    assert is_zero_vector(alg.associator(z, y, w))


@pytest.mark.parametrize("square,expected", [("idem", True), ("zero", True)])
def test_is_associative_lines(square, expected):
    assert line_algebra(GF2, square).is_associative() is expected


def test_is_associative_matches_random_triples():
    # exhaustive basis check agrees with evaluation on random vectors
    rng = random.Random(77)
    algebras = associative_samples(QQ) + [
        Algebra.from_products(QQ, ["e0", "e1"], {(0, 0): {1: 1}, (1, 0): {0: 1}})
    ]
    for alg in algebras:
        verdict = alg.is_associative()
        found_nonzero = False
        for _ in range(100):
            x, y, z = (rand_vector(rng, QQ, alg.dim) for _ in range(3))
            if not is_zero_vector(alg.associator(x, y, z)):
                found_nonzero = True
                break
        assert verdict == (not found_nonzero)


def test_is_associative_exhaustive_matches_over_f2_dim2():
    # all 2^(2*2*2) = 256 products on a 2-dim F2 space: basis-triple
    # associativity must agree with full vector-triple associativity
    vectors = list(itertools.product((0, 1), repeat=2))
    for bits in range(256):
        table = [GF2.coerce((bits >> k) & 1) for k in range(8)]
        alg = Algebra(GF2, 2, ("x", "y"), tuple(table))
        by_basis = alg.is_associative()
        by_vectors = all(
            is_zero_vector(alg.associator(u, v, w))
            for u in vectors
            for v in vectors
            for w in vectors
        )
        assert by_basis == by_vectors


_SCALARS = {
    GF2: (0, 1),
    GF3: (0, 1, 2),
    QQ: (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3)),
}


@st.composite
def _algebras(draw):
    """Structure-constant tables of dims 1-4 over F2, F3 and Q: either
    random and mostly sparse (rarely associative), or an associative
    algebra or direct sum with at most one entry redrawn."""
    field = draw(st.sampled_from([GF2, GF3, QQ]))
    scalars = _SCALARS[field]
    if draw(st.booleans()):
        dim = draw(st.integers(1, 4))
        entry = st.sampled_from((field.zero,) * len(scalars) + scalars)
        table = draw(st.lists(entry, min_size=dim ** 3, max_size=dim ** 3))
        return Algebra(field, dim, tuple(f"e{i}" for i in range(dim)), tuple(table))
    samples = associative_samples(field)
    alg = draw(st.sampled_from(samples))
    other = draw(st.sampled_from([None] + [b for b in samples if alg.dim + b.dim <= 4]))
    if other is not None:
        alg, _ = direct_sum_space(alg, other)
    table = list(alg.table)
    if draw(st.booleans()):
        table[draw(st.integers(0, len(table) - 1))] = draw(st.sampled_from(scalars))
    return Algebra(field, alg.dim, alg.basis, tuple(table))


@settings(deadline=None, max_examples=300)
@given(_algebras())
def test_associativity_witness_matches_the_vector_route(alg):
    # the sparse-table kernel against the first basis triple, in product
    # order, where the dense associator of basis vectors is nonzero
    expected = next(
        (
            idxs
            for idxs in itertools.product(range(alg.dim), repeat=3)
            if not is_zero_vector(alg.associator(*(alg.basis_vector(i) for i in idxs)))
        ),
        None,
    )
    assert alg.associativity_witness() == expected
    assert alg.is_associative() == (expected is None)


_GF5 = PrimeField(5)


@st.composite
def _symbolic_algebras(draw):
    """Mostly sparse structure-constant tables of dims 1-3 over F5 whose
    entries are polynomials of degree at most 1 in three variables, the
    symbolic scalars of the census, so that every associator has degree at
    most 2."""
    x0, x1, x2 = _symbolic_digits(3, 5)
    entries = (0, 0, 0, 0, 1, 3, x0, 4 * x1, x0 + 2, x1 + 3 * x2)
    dim = draw(st.integers(1, 3))
    table = draw(st.lists(st.sampled_from(entries), min_size=dim ** 3, max_size=dim ** 3))
    return Algebra(_GF5, dim, tuple(f"e{i}" for i in range(dim)), tuple(table))


@settings(deadline=None, max_examples=300)
@given(st.one_of(_algebras(), _symbolic_algebras()))
def test_table_associator_kernel(alg):
    # the flat-table kernel, over F2, F3, Q and polynomials over F5,
    # against the dense associator of basis vectors at every triple, in
    # product order; the witness is the first triple where that is nonzero
    f, dim, table = alg.field, alg.dim, alg.table
    expected = [
        (idxs, alg.associator(*(alg.basis_vector(i) for i in idxs)))
        for idxs in itertools.product(range(dim), repeat=3)
    ]
    assert list(basis_associators(f, dim, table)) == expected
    witness = associativity_witness(f, dim, table)
    assert witness == alg.associativity_witness()
    assert witness == next((idxs for idxs, value in expected if not is_zero_vector(value)), None)


def test_zero_multiplication_is_associative():
    assert Algebra.zero_product(GF3, ["x", "y", "z"]).is_associative()


def test_direct_sum_blocks_and_split():
    a = line_algebra(QQ, "idem", "ea")
    b = line_algebra(QQ, "idem", "eb")
    total, split = direct_sum_space(a, b)
    assert total.dim == 2 and (split.a_dim, split.b_dim) == (1, 1)
    ea, eb = total.basis_vector(0), total.basis_vector(1)
    assert total.multiply(ea, ea) == ea
    assert total.multiply(eb, eb) == eb
    assert is_zero_vector(total.multiply(ea, eb))
    assert is_zero_vector(total.multiply(eb, ea))
    assert list(split.a_indices) == [0] and list(split.b_indices) == [1]


def test_direct_sum_requires_common_field():
    with pytest.raises(FieldError):
        direct_sum_space(line_algebra(QQ, "idem"), line_algebra(GF2, "idem"))


def test_direct_sum_of_associatives_is_associative():
    samples = associative_samples(GF2)
    for a, b in itertools.product(samples[:3], samples[:3]):
        total, _ = direct_sum_space(a, b)
        assert total.is_associative()
        assert total.dim == a.dim + b.dim


def test_direct_sum_disambiguates_colliding_names():
    a = line_algebra(QQ, "idem", "e")
    b = line_algebra(QQ, "zero", "e")
    total, _ = direct_sum_space(a, b)
    assert total.basis == ("e.A", "e.B")


def test_algebra_validation():
    with pytest.raises(ValueError):
        Algebra(QQ, 0, (), ())
    with pytest.raises(ValueError):
        Algebra(QQ, 2, ("x", "x"), (QQ.zero,) * 8)
    with pytest.raises(ValueError):
        Algebra.from_products(QQ, ["x"], {(0, 1): {0: 1}})

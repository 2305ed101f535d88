import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    associative_samples,
    bracket_by_circ,
    circ_by_slots,
    line_algebra,
    rand_cochain,
    rand_map,
    trunc_poly2,
    trunc_poly3,
)
from nabext import (
    Algebra,
    MultilinearMap,
    circ,
    circ_i,
    delta_as_bracket,
    gerstenhaber_bracket,
    hochschild_delta,
    hochschild_delta_module,
    multiplication_map,
)
from nabext.classify import _symbolic_digits
from nabext.fields import GF2, GF3, QQ
from nabext.linalg import basis_vector, vec_add, vec_scale

# Over Q, half the draws are zero: a plain ``st.fractions`` rarely yields 0,
# and the kernels skip zero coefficients, so those branches need zeros.
_SCALARS = {
    GF2: st.integers(0, 1),
    GF3: st.integers(0, 2),
    QQ: st.one_of(st.just(Fraction(0)), st.fractions(-2, 2, max_denominator=3)),
}
_ARITIES = st.integers(1, 3)


def _maps(field, dim, arity):
    """Arity-``arity`` maps on a ``dim``-dimensional space with any
    coefficients of ``field``."""
    size = dim ** (arity + 1)
    return st.lists(_SCALARS[field], min_size=size, max_size=size).map(
        lambda coeffs: MultilinearMap(field, (dim,) * arity, dim, tuple(coeffs))
    )


def test_map_shape_and_entry_round_trip():
    m = MultilinearMap.from_entries(QQ, (2, 3), 2, [(1, 0, 2, "3/2"), (0, 1, 1, 2)])
    assert m.arity == 2 and m.degree == 1
    assert m.column((0, 2))[1] == QQ.parse("3/2")
    assert sorted(m.entries()) == sorted(
        MultilinearMap.from_entries(QQ, (2, 3), 2, list(m.entries())).entries()
    )


def _entries_by_product(m: MultilinearMap):
    """The nonzero entries by a walk over every basis tuple of every target
    index: the order ``entries`` promises."""
    out = []
    for k in range(m.target_dim):
        for flat, idxs in enumerate(itertools.product(*(range(d) for d in m.source_dims))):
            c = m.coeffs[k * m.input_size + flat]
            if c != 0:
                out.append((k, *idxs, c))
    return out


@settings(deadline=None, max_examples=200)
@given(
    st.data(),
    st.sampled_from([GF2, GF3, QQ]),
    st.lists(st.integers(1, 3), max_size=3),
    st.integers(1, 3),
)
def test_entries_walk_the_nonzero_coefficients_in_index_order(data, field, source_dims, target):
    size = target * math.prod(source_dims)
    coeffs = data.draw(st.lists(_SCALARS[field], min_size=size, max_size=size))
    m = MultilinearMap(field, tuple(source_dims), target, tuple(coeffs))
    assert list(m.entries()) == _entries_by_product(m)


@pytest.mark.parametrize(
    "field,coeff,text",
    [(QQ, 1, "1"), (QQ, Fraction(2), "2"), (QQ, Fraction(-1, 2), "-1/2"), (QQ, "3/1", "3"), (GF3, 5, "2"), (GF3, -1, "2")],
)
def test_a_refused_entry_is_named_by_indices_and_field_text(field, coeff, text):
    # the field's own text of the coefficient, the same over Q and F_p
    with pytest.raises(ValueError) as caught:
        MultilinearMap.from_entries(field, (2, 3), 2, [(0, 1, 1, 1), (0, 1, 3, coeff)])
    assert str(caught.value) == f"entry (0, 1, 3, {text}) out of range"
    with pytest.raises(ValueError) as caught:
        MultilinearMap.from_entries(field, (2, 3), 2, [(1, 0, coeff)])
    assert str(caught.value) == f"entry (1, 0, {text}) has wrong arity"


@pytest.mark.parametrize("field", [GF3, QQ], ids=str)
@pytest.mark.parametrize(
    "source_dims,target",
    [((), 1), ((), 3), ((2,), 1), ((3,), 2), ((2, 3), 2), ((3, 1), 3), ((2, 1, 3), 2), ((2, 2, 2), 1)],
)
def test_column_is_the_entries_of_a_basis_tuple(field, source_dims, target):
    # the strided slice of the coefficients against entry-by-entry lookup:
    # the target index outermost, then the basis tuples in product order
    m = rand_map(random.Random(len(source_dims) * 10 + target), field, source_dims, target)
    assert m.input_size == math.prod(source_dims)
    for flat, idxs in enumerate(itertools.product(*(range(d) for d in source_dims))):
        assert m.column(idxs) == tuple(m.coeffs[k * m.input_size + flat] for k in range(target))


def test_map_apply_is_multilinear_evaluation():
    alg = trunc_poly2(QQ)
    m = multiplication_map(alg)
    x = (QQ.parse("2"), QQ.parse("1/2"))
    y = (QQ.parse("-1"), QQ.parse("3"))
    assert m.apply([x, y]) == alg.multiply(x, y)


def test_delta_of_zero_map_is_zero():
    alg = trunc_poly2(GF3)
    for arity in (0, 1, 2):
        z = MultilinearMap.zero(GF3, (alg.dim,) * arity, alg.dim)
        assert hochschild_delta(z, alg).is_zero()


def test_delta_of_identity_on_idempotent_line():
    # delta(id)(e, e) = e*id(e) - id(e*e) + id(e)*e = e - e + e = e
    alg = line_algebra(QQ, "idem")
    d = hochschild_delta(MultilinearMap.from_entries(QQ, (1,), 1, [(0, 0, 1)]), alg)
    assert d.column((0, 0)) == (QQ.one,)


def test_delta_squared_is_zero_on_random_cochains():
    rng = random.Random(3)
    for field in (QQ, GF2):
        for alg in associative_samples(field):
            for arity in (1, 2):
                for _ in range(5):
                    f = rand_cochain(rng, alg, arity)
                    assert hochschild_delta(hochschild_delta(f, alg), alg).is_zero()


def test_delta_requires_matching_space():
    alg = trunc_poly2(QQ)
    f = rand_map(random.Random(0), QQ, (3, 3), 3)
    with pytest.raises(ValueError):
        hochschild_delta(f, alg)


def test_circ_i_definition_unrolled():
    rng = random.Random(4)
    f = rand_map(rng, QQ, (2, 2), 2)
    g = rand_map(rng, QQ, (2, 2), 2)
    h1 = circ_i(f, g, 1)
    h2 = circ_i(f, g, 2)
    for idxs in [(0, 0, 0), (1, 0, 1), (0, 1, 1)]:
        x, y, z = idxs
        bx = tuple(QQ.one if t == x else QQ.zero for t in range(2))
        by = tuple(QQ.one if t == y else QQ.zero for t in range(2))
        bz = tuple(QQ.one if t == z else QQ.zero for t in range(2))
        assert h1.column(idxs) == f.apply([g.apply([bx, by]), bz])
        assert h2.column(idxs) == f.apply([bx, g.apply([by, bz])])


def _delta_module_by_definition(f, ring, left, right, idxs):
    """``delta f`` at a basis tuple, term by term from the textbook formula
    with ``MultilinearMap.apply`` on basis vectors."""
    field, n = f.field, f.arity
    e = [ring.basis_vector(i) for i in idxs]
    out = left.apply([e[0], f.apply(e[1:])])
    for i in range(1, n + 1):
        term = f.apply(e[: i - 1] + [ring.multiply(e[i - 1], e[i])] + e[i + 1 :])
        out = vec_add(field, out, vec_scale(field, field.from_int((-1) ** i), term))
    tail = right.apply([f.apply(e[:n]), e[n]])
    return vec_add(field, out, vec_scale(field, field.from_int((-1) ** (n + 1)), tail))


@settings(deadline=None, max_examples=60)
@given(st.data(), st.sampled_from([GF2, GF3, QQ]), st.integers(1, 2), st.integers(1, 3), st.integers(0, 3))
def test_delta_module_matches_the_textbook_formula(data, field, r_dim, m_dim, arity):
    # random structure constants and actions: the formula needs neither
    # associativity nor the bimodule axioms
    scalars = _SCALARS[field]
    table = data.draw(st.lists(scalars, min_size=r_dim ** 3, max_size=r_dim ** 3))
    ring = Algebra(field, r_dim, tuple(f"r{i}" for i in range(r_dim)), tuple(table))

    def tensor(dims, target):
        size = target * math.prod(dims)
        coeffs = data.draw(st.lists(scalars, min_size=size, max_size=size))
        return MultilinearMap(field, dims, target, tuple(coeffs))

    left, right = tensor((r_dim, m_dim), m_dim), tensor((m_dim, r_dim), m_dim)
    f = tensor((r_dim,) * arity, m_dim)
    d = hochschild_delta_module(f, ring, left, right)
    assert (d.source_dims, d.target_dim) == ((r_dim,) * (arity + 1), m_dim)
    for idxs in itertools.product(range(r_dim), repeat=arity + 1):
        assert d.column(idxs) == _delta_module_by_definition(f, ring, left, right, idxs)


@settings(deadline=None, max_examples=40)
@pytest.mark.parametrize("inner_arity", [0, 1, 2])
@given(
    data=st.data(),
    field=st.sampled_from([GF2, GF3, QQ]),
    zero_side=st.sampled_from([None, None, "f", "g"]),
)
def test_circ_i_matches_the_definition_on_basis_vectors(inner_arity, data, field, zero_side):
    # slots of different dimensions, every slot, and the zero map on
    # either side; the oracle is the dense MultilinearMap.apply
    dims = st.integers(1, 3)
    f_dims = tuple(data.draw(st.lists(dims, min_size=1, max_size=3)))
    g_dims = tuple(data.draw(st.lists(dims, min_size=inner_arity, max_size=inner_arity)))
    target = data.draw(dims)

    def tensor(source_dims, target_dim, zero):
        size = target_dim * math.prod(source_dims)
        if zero:
            return MultilinearMap.zero(field, source_dims, target_dim)
        coeffs = data.draw(st.lists(_SCALARS[field], min_size=size, max_size=size))
        return MultilinearMap(field, source_dims, target_dim, tuple(coeffs))

    f = tensor(f_dims, target, zero_side == "f")
    for i in range(1, len(f_dims) + 1):
        g = tensor(g_dims, f_dims[i - 1], zero_side == "g")
        h = circ_i(f, g, i)
        head, tail = f_dims[: i - 1], f_dims[i:]
        assert (h.source_dims, h.target_dim) == (head + g_dims + tail, target)
        for idxs in itertools.product(*(range(d) for d in h.source_dims)):
            e = [basis_vector(field, d, x) for d, x in zip(h.source_dims, idxs)]
            inner = g.apply(e[i - 1 : i - 1 + inner_arity])
            expected = f.apply(e[: i - 1] + [inner] + e[i - 1 + inner_arity :])
            assert h.column(idxs) == expected


@settings(deadline=None, max_examples=60)
@given(st.data(), st.sampled_from([GF2, GF3, QQ]), st.integers(1, 2), st.integers(0, 2))
def test_linear_structure_is_coefficientwise(data, field, dim, arity):
    # +, -, negation and scaling skip zero coefficients; the field
    # operations on every coefficient are the oracle
    f, g = (data.draw(_maps(field, dim, arity)) for _ in range(2))
    c = data.draw(_SCALARS[field])
    pairs = list(zip(f.coeffs, g.coeffs))
    assert (f + g).coeffs == tuple(field.add(a, b) for a, b in pairs)
    assert (f - g).coeffs == tuple(field.sub(a, b) for a, b in pairs)
    assert (-f).coeffs == tuple(field.neg(a) for a in f.coeffs)
    assert f.scale(c).coeffs == tuple(field.mul(c, a) for a in f.coeffs)
    assert f.is_zero() == all(a == 0 for a in f.coeffs)


def test_circ_i_identity_is_neutral():
    rng = random.Random(5)
    ident = MultilinearMap.from_entries(QQ, (2,), 2, [(0, 0, 1), (1, 1, 1)])
    g = rand_map(rng, QQ, (2, 2, 2), 2)
    assert circ_i(ident, g, 1) == g
    for i in (1, 2, 3):
        assert circ_i(g, ident, i) == g


def test_circ_i_product_on_idempotent_line():
    alg = line_algebra(QQ, "idem")
    m = multiplication_map(alg)
    assert circ_i(m, m, 2).column((0, 0, 0)) == (QQ.one,)


def test_circ_i_validation():
    f = rand_map(random.Random(0), QQ, (2, 2), 2)
    g = rand_map(random.Random(0), QQ, (3, 3), 3)
    with pytest.raises(ValueError):
        circ_i(f, f, 3)
    with pytest.raises(ValueError):
        circ_i(f, g, 1)


def test_circ_signs_degree_zero_inner():
    # inner map of degree 0: all insertion signs are +1
    rng = random.Random(6)
    f = rand_map(rng, QQ, (2, 2, 2), 2)
    g = rand_map(rng, QQ, (2,), 2)
    assert circ(f, g) == circ_i(f, g, 1) + circ_i(f, g, 2) + circ_i(f, g, 3)


def test_circ_signs_two_arity_two_maps():
    # deg f = deg g = 1: signs are (-1)^{1*2} = +1 and (-1)^{1*3} = -1
    rng = random.Random(7)
    f = rand_map(rng, QQ, (2, 2), 2)
    g = rand_map(rng, QQ, (2, 2), 2)
    assert circ(f, g) == circ_i(f, g, 1) - circ_i(f, g, 2)


@settings(deadline=None, max_examples=80)
@given(
    st.data(),
    st.sampled_from([GF2, GF3, QQ]),
    st.integers(1, 2),
    st.integers(0, 3),
    st.integers(0, 3),
    st.booleans(),
)
def test_circ_and_bracket_are_their_sums_of_insertion_maps(data, field, dim, af, ag, symbolic):
    # the one-pass insertion sums against one dense circ_i map per
    # insertion, negated and summed as maps; two constants have no sum.
    # Over F_p some coefficients are the census's variables, distinct
    # across f and g, so every product stays of degree at most 2
    f = data.draw(_maps(field, dim, af))
    g = data.draw(_maps(field, dim, ag))
    if symbolic and field is not QQ:
        variables = iter(_symbolic_digits(len(f.coeffs) + len(g.coeffs), field.p))

        def some_symbolic(m):
            n = len(m.coeffs)
            picks = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            coeffs = tuple(next(variables) if pick else v for v, pick in zip(m.coeffs, picks))
            return MultilinearMap(field, m.source_dims, dim, coeffs)

        f, g = some_symbolic(f), some_symbolic(g)
    if af == ag == 0:
        for op in (circ, gerstenhaber_bracket):
            with pytest.raises(ValueError, match="two arity-0 maps"):
                op(f, g)
        return
    assert circ(f, g) == circ_by_slots(f, g)
    assert gerstenhaber_bracket(f, g) == bracket_by_circ(f, g)


def test_self_composition_of_associative_product_vanishes():
    alg = line_algebra(QQ, "idem")
    m = multiplication_map(alg)
    assert circ(m, m).is_zero()


def test_self_composition_detects_non_associativity_any_characteristic():
    bad = Algebra.from_products(GF2, ["e0", "e1"], {(0, 0): {1: 1}, (1, 0): {0: 1}})
    m = multiplication_map(bad)
    mm = circ(m, m)
    assert not mm.is_zero()
    # the self-composition is the associator map itself
    assert mm.column((0, 0, 0)) == bad.associator(
        bad.basis_vector(0), bad.basis_vector(0), bad.basis_vector(0)
    )


def test_bracket_with_self_doubles_composition_in_odd_degree():
    rng = random.Random(8)
    f = rand_map(rng, QQ, (3, 3), 3)
    assert gerstenhaber_bracket(f, f) == circ(f, f).scale(QQ.from_int(2))


def test_bracket_of_product_with_itself_detects_associativity():
    # over a field where 2 is invertible, [m, m] = 0 iff the product is
    # associative; over F2 the bracket is identically 0, so the detector is
    # the self-composition (tested above)
    for alg, expected in [
        (trunc_poly2(QQ), True),
        (Algebra.from_products(QQ, ["e0", "e1"], {(0, 0): {1: 1}, (1, 0): {0: 1}}), False),
        (trunc_poly2(GF3), True),
        (Algebra.from_products(GF3, ["e0", "e1"], {(0, 0): {1: 1}, (1, 0): {0: 1}}), False),
    ]:
        m = multiplication_map(alg)
        assert gerstenhaber_bracket(m, m).is_zero() is expected
        assert alg.is_associative() is expected


@settings(deadline=None, max_examples=60)
@given(st.data(), st.sampled_from([GF2, GF3, QQ]), st.integers(1, 3), _ARITIES, _ARITIES)
def test_graded_antisymmetry_random_pairs(data, field, dim, af, ag):
    # [f, g] = -(-1)^(deg f deg g) [g, f]
    f = data.draw(_maps(field, dim, af))
    g = data.draw(_maps(field, dim, ag))
    sign = field.from_int((-1) ** (f.degree * g.degree))
    assert (gerstenhaber_bracket(f, g) + gerstenhaber_bracket(g, f).scale(sign)).is_zero()


def test_delta_as_bracket_matches_hochschild_delta():
    # the sign-convention gate: delta f = (-1)^(arity-1) [m, f] exactly
    rng = random.Random(10)
    for field in (QQ, GF2, GF3):
        for alg in associative_samples(field):
            m = multiplication_map(alg)
            for arity in (1, 2, 3):
                f = rand_cochain(rng, alg, arity)
                assert delta_as_bracket(f, m) == hochschild_delta(f, alg)


def test_delta_as_bracket_arity_two_is_minus_bracket():
    rng = random.Random(11)
    alg = trunc_poly2(QQ)
    m = multiplication_map(alg)
    f = rand_cochain(rng, alg, 2)
    assert delta_as_bracket(f, m) == -gerstenhaber_bracket(m, f)


def test_delta_as_bracket_zero():
    alg = trunc_poly2(QQ)
    m = multiplication_map(alg)
    z = MultilinearMap.zero(QQ, (2, 2), 2)
    assert delta_as_bracket(z, m).is_zero()


@settings(deadline=None, max_examples=60)
@given(st.data(), st.sampled_from([GF2, GF3, QQ]), st.integers(1, 2), _ARITIES, _ARITIES, _ARITIES)
def test_graded_jacobi_identity_random(data, field, dim, af, ag, ah):
    f, g, h = (data.draw(_maps(field, dim, a)) for a in (af, ag, ah))
    mf, ng, kh = f.degree, g.degree, h.degree
    t1 = gerstenhaber_bracket(f, gerstenhaber_bracket(g, h)).scale(
        field.from_int((-1) ** (mf * kh))
    )
    t2 = gerstenhaber_bracket(g, gerstenhaber_bracket(h, f)).scale(
        field.from_int((-1) ** (ng * mf))
    )
    t3 = gerstenhaber_bracket(h, gerstenhaber_bracket(f, g)).scale(
        field.from_int((-1) ** (kh * ng))
    )
    assert (t1 + t2 + t3).is_zero()


@settings(deadline=None, max_examples=60)
@given(st.data(), st.sampled_from([GF2, GF3, QQ]), _ARITIES, _ARITIES)
def test_delta_is_a_graded_derivation_of_the_bracket(data, field, af, ag):
    """Derivation rule, in the two equivalent signed forms.

    The differential in bracket form, d = [m, -], satisfies the textbook
    axiom d[f,g] = [df,g] + (-1)^{deg f}[f,dg] verbatim.  The Hochschild
    differential differs from d by the factor (-1)^{arity-1}, which shifts
    the rule to delta[f,g] = (-1)^{deg g}[delta f, g] + [f, delta g]; both
    are exact tensor identities here.
    """
    alg = data.draw(st.sampled_from([a for a in associative_samples(field) if a.dim <= 2]))
    f = data.draw(_maps(field, alg.dim, af))
    g = data.draw(_maps(field, alg.dim, ag))
    m = multiplication_map(alg)
    br = gerstenhaber_bracket(f, g)

    ad = lambda x: gerstenhaber_bracket(m, x)
    lhs = ad(br)
    rhs = gerstenhaber_bracket(ad(f), g) + gerstenhaber_bracket(
        f, ad(g)
    ).scale(field.from_int((-1) ** f.degree))
    assert lhs == rhs

    lhs = hochschild_delta(br, alg)
    rhs = gerstenhaber_bracket(hochschild_delta(f, alg), g).scale(
        field.from_int((-1) ** g.degree)
    ) + gerstenhaber_bracket(f, hochschild_delta(g, alg))
    assert lhs == rhs


def test_arity_zero_constants():
    # delta of a constant c is x -> x*c - c*x; brackets with constants
    # follow the same insertion formulas with empty sums
    alg = trunc_poly2(QQ)
    const = MultilinearMap.from_entries(QQ, (), 2, [(1, QQ.one)])  # the element t
    d = hochschild_delta(const, alg)
    assert d.arity == 1
    # t is central in k[t]/t^2, so delta vanishes
    assert d.is_zero()
    m = multiplication_map(alg)
    # the arity-0 empty insertion sum makes circ(const, m) the zero 1-ary map
    assert circ(const, m).arity == 1 and circ(const, m).is_zero()
    # and delta c = (-1)^{0-1}[m, c] still holds at arity 0
    assert delta_as_bracket(const, m) == d

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    line_algebra,
    line_cocycle,
    rand_cocycle,
    rand_gauge,
    trunc_poly2,
    zero_algebra,
)
from nabext import (
    GaugeParam,
    MultilinearMap,
    NabCocycle,
    abelian_specialize,
    apply_equivalence,
    beta_element,
    check_cocycle,
    cocycle_to_mc,
    embed_block_map,
    gauge_closed_form,
    gauge_series,
    gerstenhaber_bracket,
    hochschild_delta,
    hochschild_delta_module,
    is_mc,
    is_valid_cocycle,
    mc_context,
    module_coboundary,
)
from nabext.fields import GF2, GF3, QQ, FieldError
from nabext.linalg import mat_vec, vec_add, vec_scale


GAUGE_CASES = [
    (QQ, lambda f: line_algebra(f, "zero", "a"), lambda f: line_algebra(f, "idem", "b")),
    (QQ, lambda f: zero_algebra(f, 2), lambda f: line_algebra(f, "idem", "b")),
    (GF3, lambda f: line_algebra(f, "zero", "a"), lambda f: trunc_poly2(f)),
    (GF2, lambda f: zero_algebra(f, 2), lambda f: trunc_poly2(f)),
]


def _case(field, a_spec, b_spec):
    a, b = a_spec(field), b_spec(field)
    return a, b


def test_zero_gauge_is_identity():
    rng = random.Random(41)
    for field, a_spec, b_spec in GAUGE_CASES:
        a, b = _case(field, a_spec, b_spec)
        c = rand_cocycle(rng, a, b)
        x, base, split = mc_context(c)
        zero = GaugeParam.zero(field, a.dim, b.dim)
        assert gauge_closed_form(x, zero, base, split) == x
        assert apply_equivalence(c, zero) == c
        assert gauge_closed_form(x, zero, base, split) == x


def test_gauge_of_zero_with_zero_products_is_zero():
    # x = 0, all kernel products zero, quotient product zero: only the
    # beta(b1) beta(b2) term could survive and it lands in zero products
    a = zero_algebra(QQ, 2)
    b = zero_algebra(QQ, 1, "b")
    c = NabCocycle.zero(a, b)
    x, base, split = mc_context(c)
    beta = rand_gauge(random.Random(0), a, b)
    assert gauge_closed_form(x, beta, base, split).is_zero()


def test_closed_form_equals_component_transform():
    rng = random.Random(42)
    for field, a_spec, b_spec in GAUGE_CASES:
        a, b = _case(field, a_spec, b_spec)
        for _ in range(10):
            c = rand_cocycle(rng, a, b)
            beta = rand_gauge(rng, a, b)
            x, base, split = mc_context(c)
            assert gauge_closed_form(x, beta, base, split) == cocycle_to_mc(
                apply_equivalence(c, beta)
            )


def test_gauge_transform_is_inverted_by_negated_parameter():
    rng = random.Random(43)
    for field, a_spec, b_spec in GAUGE_CASES:
        a, b = _case(field, a_spec, b_spec)
        for _ in range(5):
            c = rand_cocycle(rng, a, b)
            beta = rand_gauge(rng, a, b)
            image = apply_equivalence(c, beta)
            assert apply_equivalence(image, beta.negate(field)) == c


def _small_algebras(field):
    return [
        line_algebra(field, "zero"),
        line_algebra(field, "idem"),
        trunc_poly2(field),
        zero_algebra(field, 2),
    ]


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([GF2, GF3, QQ]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 2 ** 32),
)
def test_gauge_action_law(field, a_pick, b_pick, seed):
    # equivalence is an action of the additive group Hom(B, A), on every
    # triple, valid or not: applying beta1 then beta2 is applying beta1 + beta2
    rng = random.Random(seed)
    a, b = _small_algebras(field)[a_pick], _small_algebras(field)[b_pick]
    c = rand_cocycle(rng, a, b)
    beta1, beta2 = rand_gauge(rng, a, b), rand_gauge(rng, a, b)
    total = GaugeParam(
        tuple(
            tuple(field.add(x, y) for x, y in zip(r1, r2))
            for r1, r2 in zip(beta1.matrix, beta2.matrix)
        )
    )
    assert apply_equivalence(apply_equivalence(c, beta1), beta2) == apply_equivalence(c, total)


def test_series_equals_closed_form():
    rng = random.Random(44)
    count = 0
    for field, a_spec, b_spec in GAUGE_CASES:
        if field.characteristic == 2:
            continue
        a, b = _case(field, a_spec, b_spec)
        for _ in range(20):
            c = rand_cocycle(rng, a, b)
            beta = rand_gauge(rng, a, b)
            x, base, split = mc_context(c)
            assert gauge_series(x, beta, base, split) == gauge_closed_form(
                x, beta, base, split
            )
            count += 1
    assert count >= 50


def test_series_refuses_characteristic_two():
    a, b = zero_algebra(GF2, 1), line_algebra(GF2, "idem", "b")
    c = NabCocycle.zero(a, b)
    x, base, split = mc_context(c)
    with pytest.raises(FieldError):
        gauge_series(x, GaugeParam.zero(GF2, 1, 1), base, split)


def test_adjoint_square_vanishes_on_twist_shaped_elements():
    # (ad_beta)^2 kills both the element and delta beta, which is what
    # truncates the series
    rng = random.Random(45)
    for field, a_spec, b_spec in GAUGE_CASES:
        a, b = _case(field, a_spec, b_spec)
        c = rand_cocycle(rng, a, b)
        beta = rand_gauge(rng, a, b)
        x, base, split = mc_context(c)
        belt = beta_element(beta, split, field)
        ad1 = gerstenhaber_bracket(belt, x)
        assert gerstenhaber_bracket(belt, ad1).is_zero()
        dbeta = hochschild_delta(belt, base)
        ad1 = gerstenhaber_bracket(belt, dbeta)
        assert gerstenhaber_bracket(belt, ad1).is_zero()


def test_double_bracket_term_is_the_quadratic_correction():
    # -(1/2)[beta, delta beta](b1, b2) = beta(b1) beta(b2)
    rng = random.Random(46)
    for field, a_spec, b_spec in GAUGE_CASES:
        if field.characteristic == 2:
            continue
        a, b = _case(field, a_spec, b_spec)
        beta = rand_gauge(rng, a, b)
        _, base, split = mc_context(NabCocycle.zero(a, b))
        belt = beta_element(beta, split, field)
        term = gerstenhaber_bracket(belt, hochschild_delta(belt, base)).scale(
            field.inv(field.from_int(-2))
        )
        off = split.a_dim
        for j1, j2 in itertools.product(range(b.dim), repeat=2):
            prod = a.multiply(beta.column(j1), beta.column(j2))
            expected = tuple(prod) + (field.zero,) * split.b_dim
            assert term.column((off + j1, off + j2)) == expected


def test_gauge_rejects_elements_with_aa_component():
    a, b = zero_algebra(QQ, 1), line_algebra(QQ, "idem", "b")
    _, base, split = mc_context(NabCocycle.zero(a, b))
    rho = embed_block_map(
        MultilinearMap.from_entries(QQ, (1, 1), 1, [(0, 0, 0, 1)]), split, "AA", "A"
    )
    with pytest.raises(ValueError):
        gauge_closed_form(rho, GaugeParam.zero(QQ, 1, 1), base, split)


def test_gauge_preserves_maurer_cartan_set():
    for a2, b2 in itertools.product(("zero", "idem"), repeat=2):
        a = line_algebra(GF2, a2, "a")
        b = line_algebra(GF2, b2, "b")
        for f, g, x in itertools.product((0, 1), repeat=3):
            c = line_cocycle(a, b, f, g, x)
            elt, base, split = mc_context(c)
            if not is_mc(elt, base, split):
                continue
            for bval in (0, 1):
                beta = GaugeParam(((GF2.coerce(bval),),))
                assert is_mc(gauge_closed_form(elt, beta, base, split), base, split)


def test_gauge_preserves_validity_over_q():
    rng = random.Random(47)
    a = line_algebra(QQ, "zero", "a")
    b = line_algebra(QQ, "idem", "b")
    c = line_cocycle(a, b, 1, 1, 1)
    assert is_valid_cocycle(c)
    for _ in range(10):
        beta = rand_gauge(rng, a, b)
        assert is_valid_cocycle(apply_equivalence(c, beta))


def test_closed_form_inverse_witness_found_by_search():
    a, b = zero_algebra(GF2, 2), line_algebra(GF2, "idem", "b")
    rng = random.Random(48)
    c = rand_cocycle(rng, a, b)
    beta = rand_gauge(rng, a, b)
    x, base, split = mc_context(c)
    y = gauge_closed_form(x, beta, base, split)
    assert gauge_closed_form(x, beta, base, split) == y
    # search the finite gauge group for a reverse witness
    found = []
    for combo in itertools.product((0, 1), repeat=a.dim * b.dim):
        cand = GaugeParam(
            tuple(tuple(GF2.coerce(combo[i * b.dim + j]) for j in range(b.dim)) for i in range(a.dim))
        )
        if gauge_closed_form(y, cand, base, split) == x:
            found.append(cand)
    assert beta.negate(GF2) in found


def test_apply_equivalence_tells_the_image_from_the_triple():
    a, b = zero_algebra(GF2, 1), line_algebra(GF2, "idem", "b")
    c = line_cocycle(a, b, 1, 1, 1)
    beta = GaugeParam(((GF2.one,),))
    assert apply_equivalence(c, beta) == apply_equivalence(c, beta)
    assert apply_equivalence(c, beta) != c


# ---------------------------------------------------------------------------
# abelian specialization
# ---------------------------------------------------------------------------

def test_abelian_specialize_trivial():
    a, b = zero_algebra(QQ, 1), line_algebra(QQ, "idem", "b")
    out = abelian_specialize(NabCocycle.zero(a, b))
    assert out.left_action.is_zero() and out.right_action.is_zero()
    assert out.cocycle.is_zero()


def test_abelian_specialize_hand_case():
    # the hand-verified cocycle has a^2 = 0, so it is abelian: b acts as the
    # identity on both sides and the curvature is a module cocycle
    a = line_algebra(GF2, "zero", "a")
    b = line_algebra(GF2, "idem", "b")
    c = line_cocycle(a, b, 1, 1, 1)
    out = abelian_specialize(c)
    assert out.left_action.column((0, 0)) == (GF2.one,)
    assert out.right_action.column((0, 0)) == (GF2.one,)
    dchi = hochschild_delta_module(out.cocycle, b, out.left_action, out.right_action)
    assert dchi.is_zero()


def test_abelian_specialize_rejects_nonzero_kernel_product():
    a = line_algebra(QQ, "idem", "a")
    b = line_algebra(QQ, "idem", "b")
    with pytest.raises(ValueError):
        abelian_specialize(NabCocycle.zero(a, b))


def test_abelian_specialize_rejects_invalid_cocycles():
    a = line_algebra(GF2, "zero", "a")
    b = line_algebra(GF2, "idem", "b")
    c = line_cocycle(a, b, 1, 0, 1)  # x(f+g) = 1: fails equation 5
    with pytest.raises(ValueError):
        abelian_specialize(c)


def test_equivalent_abelian_cocycles_share_actions_and_differ_by_coboundary():
    rng = random.Random(49)
    cases = [
        (GF2, zero_algebra(GF2, 1), line_algebra(GF2, "idem", "b")),
        (GF2, zero_algebra(GF2, 2), line_algebra(GF2, "idem", "b")),
        (QQ, zero_algebra(QQ, 1), line_algebra(QQ, "idem", "b")),
    ]
    for field, a, b in cases:
        for f, g, x in itertools.product((0, 1), repeat=3):
            if a.dim != 1:
                break
            c = line_cocycle(a, b, f, g, x)
            if not is_valid_cocycle(c):
                continue
            for _ in range(4):
                beta = rand_gauge(rng, a, b)
                c2 = apply_equivalence(c, beta)
                # the bimodule structure is blind to the gauge
                assert c2.phi == c.phi and c2.psi == c.psi
                # chi' - chi = -delta beta for the module differential
                diff = c2.chi - c.chi
                assert diff == -module_coboundary(beta, c)


@pytest.mark.parametrize("field", [GF3, QQ], ids=str)
@pytest.mark.parametrize("a_dim,b_dim", [(1, 2), (2, 3), (3, 2)])
def test_gauge_param_as_map_is_the_matrix_as_a_cochain(field, a_dim, b_dim):
    # non-square shapes, so that a transposed coefficient layout fails
    rng = random.Random(10 * a_dim + b_dim)
    beta = rand_gauge(rng, zero_algebra(field, a_dim), zero_algebra(field, b_dim))
    m = beta.as_map(field)
    assert (m.source_dims, m.target_dim) == ((b_dim,), a_dim)
    for j in range(b_dim):
        assert m.column((j,)) == beta.column(j)
    v = tuple(field.random(rng) for _ in range(b_dim))
    by_columns = (field.zero,) * a_dim
    for j, c in enumerate(v):
        by_columns = vec_add(field, by_columns, vec_scale(field, c, beta.column(j)))
    assert m.apply([v]) == mat_vec(field, beta.matrix, v) == by_columns


def test_module_coboundary_is_a_cocycle_boundary():
    # delta(delta beta) = 0 under the bimodule differential of a valid
    # abelian cocycle
    a = zero_algebra(GF2, 2)
    b = line_algebra(GF2, "idem", "b")
    rng = random.Random(50)
    for _ in range(10):
        c = rand_cocycle(rng, a, b)
        if not is_valid_cocycle(c):
            continue
        beta = rand_gauge(rng, a, b)
        cob = module_coboundary(beta, c)
        d2 = hochschild_delta_module(cob, b, c.phi, c.psi)
        assert d2.is_zero()

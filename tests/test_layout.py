"""The twisted product has one layout on A (+) B, the one of
``build_extension``; the Maurer-Cartan element, the closed-form gauge
transform and the equivalence of extensions are read from it or are
block-free formulas.  Each property below ties one of them to a route that
does not share its layout: the per-component transform, the block
projections, the section extraction and the extension morphism check.
They run on random triples, valid or not, over F2, F3 and Q, on
associative pairs with dim A + dim B <= 5, non-commutative ones included.
"""

import random

from hypothesis import given, settings, strategies as st

from helpers import (
    left_unit2,
    line_algebra,
    rand_cocycle,
    rand_gauge,
    trunc_poly2,
    upper_triangular2,
    zero_algebra,
)
from nabext import (
    apply_equivalence,
    canonical_presentation,
    canonical_section,
    check_extension_equivalence,
    cocycle_from_mc,
    cocycle_from_section,
    cocycle_to_mc,
    gauge_closed_form,
    mc_context,
    theta_from_gauge,
)
from nabext.fields import GF2, GF3, QQ

_BUILDERS = (
    lambda f: line_algebra(f, "zero"),
    lambda f: line_algebra(f, "idem"),
    trunc_poly2,
    lambda f: zero_algebra(f, 2),
    left_unit2,
    upper_triangular2,
)


@st.composite
def triples(draw):
    """A random triple and gauge parameter on an associative pair."""
    field = draw(st.sampled_from([GF2, GF3, QQ]))
    a = draw(st.sampled_from(_BUILDERS))(field)
    b = draw(st.sampled_from([g for g in _BUILDERS if g(field).dim + a.dim <= 5]))(field)
    assert a.is_associative() and b.is_associative()
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return rand_cocycle(rng, a, b), rand_gauge(rng, a, b)


@settings(deadline=None, max_examples=100)
@given(triples())
def test_closed_form_equals_component_transform_on_random_pairs(case):
    c, beta = case
    x, base, split = mc_context(c)
    assert gauge_closed_form(x, beta, base, split) == cocycle_to_mc(apply_equivalence(c, beta))


@settings(deadline=None, max_examples=100)
@given(triples())
def test_block_projections_invert_the_assembly(case):
    c, _ = case
    assert cocycle_from_mc(cocycle_to_mc(c), c.A, c.B) == c


@settings(deadline=None, max_examples=100)
@given(triples())
def test_canonical_section_recovers_the_triple(case):
    c, _ = case
    pres = canonical_presentation(c)
    assert cocycle_from_section(pres, canonical_section(pres)) == c


@settings(deadline=None, max_examples=100)
@given(triples())
def test_theta_from_gauge_is_an_equivalence_of_twisted_products(case):
    c, beta = case
    ext, ext2 = canonical_presentation(c), canonical_presentation(apply_equivalence(c, beta))
    split = mc_context(c)[2]
    ok, failures = check_extension_equivalence(ext, ext2, theta_from_gauge(beta, split, c.A.field))
    assert ok, failures

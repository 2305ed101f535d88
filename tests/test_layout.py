"""The twisted product has one layout on A (+) B, the one of
``build_extension``; the Maurer-Cartan element, the closed-form gauge
transform and the equivalence of extensions are read from it or are
block-free formulas.  Each property below ties one of them to a route that
does not share its layout: the per-component transform, the block
projections, the section extraction and the extension morphism check.
They run on random triples, valid or not, over F2, F3 and Q, on
associative pairs with dim A + dim B <= 5, non-commutative ones included.

The last property moves a valid extension off the block basis: E' is the
twisted product read through a random invertible P (summed from the
structure constants by ``helpers.read_through``), with ``iota' = P^-1 iota``
and ``proj' = proj P``, so sections and derived end algebras are read
through a ``theta = (iota' | s')`` that is not the identity.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from helpers import (
    canonical_presentation,
    left_unit2,
    line_algebra,
    line_cocycle,
    rand_cocycle,
    rand_gauge,
    rand_invertible,
    read_through,
    trunc_poly2,
    upper_triangular2,
    zero_algebra,
)
from nabext import (
    ExtensionPresentation,
    NabCocycle,
    Section,
    apply_equivalence,
    build_extension,
    canonical_section,
    check_extension_equivalence,
    cocycle_from_mc,
    cocycle_from_section,
    cocycle_to_mc,
    gauge_closed_form,
    is_valid_cocycle,
    mc_context,
    theta_from_gauge,
)
from nabext.exact_sequences import resolved
from nabext.fields import GF2, GF3, QQ
from nabext.linalg import identity_matrix, mat_mul

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


def _valid_seeds(a, b):
    """The zero triple, and on lines every valid triple with entries in
    {0, 1, -1}."""
    seeds = [NabCocycle.zero(a, b)]
    if a.dim == b.dim == 1:
        values = {a.field.coerce(v) for v in (0, 1, -1)}
        lines = (line_cocycle(a, b, *t) for t in itertools.product(values, repeat=3))
        seeds += [c for c in lines if is_valid_cocycle(c)]
    return seeds


@st.composite
def moved_extensions(draw):
    """A valid triple c (a seed moved by a random gauge), the presentation
    of its twisted product read through a random invertible P with A and B
    supplied or derived, P^-1 and a gauge parameter."""
    field = draw(st.sampled_from([GF2, GF3, QQ]))
    a = draw(st.sampled_from(_BUILDERS))(field)
    b = draw(st.sampled_from([g for g in _BUILDERS if g(field).dim + a.dim <= 5]))(field)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    c = apply_equivalence(draw(st.sampled_from(_valid_seeds(a, b))), rand_gauge(rng, a, b))
    assert is_valid_cocycle(c)
    E, _ = build_extension(c)
    p, p_inv = rand_invertible(rng, field, E.dim)
    eye = identity_matrix(field, E.dim)
    iota, proj = tuple(row[: a.dim] for row in eye), eye[a.dim :]
    ext = ExtensionPresentation(
        read_through(E, p, p_inv),
        mat_mul(field, p_inv, iota),
        mat_mul(field, proj, p),
        a if draw(st.booleans()) else None,
        b if draw(st.booleans()) else None,
    )
    return c, ext, p_inv, rand_gauge(rng, a, b)


def _triple(c):
    return c.phi, c.psi, c.chi


@settings(deadline=None, max_examples=100)
@given(moved_extensions())
def test_sections_of_a_moved_extension_give_the_triple_and_its_gauge_images(case):
    c, ext, p_inv, beta = case
    f, a_dim = c.A.field, c.A.dim
    s0 = tuple(row[a_dim:] for row in identity_matrix(f, ext.E.dim))
    got = cocycle_from_section(ext, Section(mat_mul(f, p_inv, s0)))
    assert _triple(got) == _triple(c)
    # the section s0 - iota beta, moved by P^-1, gives the gauge image
    iota_beta = tuple(beta.matrix[r] if r < a_dim else (f.zero,) * c.B.dim for r in range(ext.E.dim))
    shifted = tuple(
        tuple(f.sub(u, v) for u, v in zip(row, shift)) for row, shift in zip(s0, iota_beta)
    )
    moved = cocycle_from_section(ext, Section(mat_mul(f, p_inv, shifted)))
    assert _triple(moved) == _triple(apply_equivalence(c, beta))
    filled = resolved(ext)
    assert (filled.A.table, filled.B.table) == (c.A.table, c.B.table)

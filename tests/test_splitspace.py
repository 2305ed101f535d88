"""The block layout of cochains on A (+) B and the dgLa L of A-valued
cochains.  The package computes in L with ``hochschild_delta`` and
``gerstenhaber_bracket``; closure of L under both is asserted here, with
``in_L`` on every result."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import line_algebra, rand_cocycle, rand_gauge, rand_map, trunc_poly2, zero_algebra
from nabext import (
    GaugeParam,
    MembershipError,
    MultilinearMap,
    SplitSpace,
    beta_element,
    cocycle_from_mc,
    cocycle_to_mc,
    direct_sum_space,
    embed_block_map,
    gerstenhaber_bracket,
    hochschild_delta,
    in_L,
    mc_residual,
    multiplication_map,
    project_block_map,
)
from nabext.fields import GF2, GF3, QQ


def _split_pair(field, a_spec, b_spec):
    a = a_spec(field)
    b = b_spec(field)
    return a, b, *direct_sum_space(a, b)


CASES = [
    (QQ, lambda f: line_algebra(f, "zero", "a"), lambda f: line_algebra(f, "idem", "b")),
    (GF2, lambda f: zero_algebra(f, 2), lambda f: line_algebra(f, "idem", "b")),
    (QQ, lambda f: line_algebra(f, "zero", "a"), lambda f: trunc_poly2(f)),
]


def _patterns(arity):
    """The 2^arity input patterns of an arity-``arity`` map, in index order."""
    return ["".join(word) for word in itertools.product("AB", repeat=arity)]


def test_base_product_component_vanishing():
    # the blockwise product has no component mixing blocks, and its BB->B
    # component is the quotient multiplication itself
    for field, a_spec, b_spec in CASES:
        a, b, total, split = _split_pair(field, a_spec, b_spec)
        m = multiplication_map(total)
        for pat in ("AB", "BA", "AA"):
            assert project_block_map(m, split, pat, "B").is_zero()
        bb_to_b = project_block_map(m, split, "BB", "B")
        assert bb_to_b == multiplication_map(b)
        aa_to_a = project_block_map(m, split, "AA", "A")
        assert aa_to_a == multiplication_map(a)


def test_component_sum_reassembles_map():
    rng = random.Random(21)
    for field, a_spec, b_spec in CASES:
        _, _, total, split = _split_pair(field, a_spec, b_spec)
        for arity in (1, 2):
            f = rand_map(rng, field, (split.dim,) * arity, split.dim)
            comps = [
                embed_block_map(project_block_map(f, split, pat, out), split, pat, out)
                for pat in _patterns(arity)
                for out in "AB"
            ]
            assert len(comps) == 2 ** (arity + 1)
            total_map = None
            for comp in comps:
                total_map = comp if total_map is None else total_map + comp
            assert total_map == f


def test_extract_component_validation():
    # a pattern or block that does not fit the map is refused by both
    # directions of the block layout
    _, _, total, split = _split_pair(QQ, *CASES[0][1:])
    f = rand_map(random.Random(0), QQ, (split.dim,) * 2, split.dim)
    with pytest.raises(ValueError):
        project_block_map(f, split, "ABA", "A")
    with pytest.raises(ValueError):
        project_block_map(f, split, "AC", "A")
    with pytest.raises(ValueError):
        embed_block_map(project_block_map(f, split, "AB", "A"), split, "ABA", "A")
    with pytest.raises(ValueError):
        embed_block_map(MultilinearMap.zero(QQ, (2, 1), 1), split, "AB", "A")
    # an output block other than A or B is refused, not read as B
    with pytest.raises(ValueError):
        project_block_map(f, split, "BB", "C")
    with pytest.raises(ValueError):
        embed_block_map(project_block_map(f, split, "BB", "B"), split, "BB", "C")
    # values outside the split space
    wide = rand_map(random.Random(1), QQ, (split.dim,) * 2, split.dim + 1)
    with pytest.raises(ValueError):
        project_block_map(wide, split, "AB", "A")


def test_in_L_examples():
    rng = random.Random(22)
    for field, a_spec, b_spec in CASES:
        a, b, total, split = _split_pair(field, a_spec, b_spec)
        base = multiplication_map(total)
        # the base product maps BB into B, so it is not A-valued
        if not multiplication_map(b).is_zero():
            assert not in_L(base, split)
        assert in_L(MultilinearMap.zero(field, (split.dim,) * 2, split.dim), split)
        c = rand_cocycle(rng, a, b)
        assert in_L(cocycle_to_mc(c), split)


def test_l_delta_of_gauge_parameter_matches_hand_expansion():
    # delta beta(e1, e2) = a1 beta(b2) + beta(b1) a2 - beta(b1 b2)
    a = line_algebra(QQ, "idem", "a")
    b = line_algebra(QQ, "idem", "b")
    total, split = direct_sum_space(a, b)
    beta = GaugeParam(((QQ.one,),))
    belt = beta_element(beta, split, QQ)
    d = hochschild_delta(belt, total)
    assert in_L(d, split)
    # basis order (a, b): input (a, b) gives a*beta(b) = a
    assert d.column((0, 1)) == (QQ.one, QQ.zero)
    # input (b, a): beta(b)*a = a
    assert d.column((1, 0)) == (QQ.one, QQ.zero)
    # input (b, b): -beta(b b) = -beta(b)
    assert d.column((1, 1)) == (QQ.from_int(-1), QQ.zero)
    assert d.column((0, 0)) == (QQ.zero, QQ.zero)


def test_l_delta_zero_and_closure():
    rng = random.Random(23)
    for field, a_spec, b_spec in CASES:
        a, b, total, split = _split_pair(field, a_spec, b_spec)
        z = MultilinearMap.zero(field, (split.dim,), split.dim)
        assert hochschild_delta(z, total).is_zero()
        for arity in (1, 2):
            for _ in range(10):
                f = cocycle_to_mc(rand_cocycle(rng, a, b)) if arity == 2 else (
                    beta_element(rand_gauge(rng, a, b), split, field)
                )
                assert in_L(f, split)
                assert in_L(hochschild_delta(f, total), split)


def test_l_delta_rejects_non_members():
    # the entry points that read an element of L refuse the base product,
    # whose BB -> B block is the quotient product
    a, b, total, split = _split_pair(QQ, *CASES[0][1:])
    base = multiplication_map(total)
    with pytest.raises(MembershipError):
        mc_residual(base, total, split)
    with pytest.raises(MembershipError):
        cocycle_from_mc(base, a, b)


def test_l_bracket_closure_and_paper_identities():
    rng = random.Random(24)
    for field, a_spec, b_spec in CASES:
        a, b, total, split = _split_pair(field, a_spec, b_spec)
        for _ in range(10):
            f = cocycle_to_mc(rand_cocycle(rng, a, b))
            g = cocycle_to_mc(rand_cocycle(rng, a, b))
            assert in_L(gerstenhaber_bracket(f, g), split)

        # [beta, chi] = 0: both take values in the A block and chi
        # consumes only B inputs
        c = rand_cocycle(rng, a, b)
        beta = rand_gauge(rng, a, b)
        belt = beta_element(beta, split, field)
        chi_emb = embed_block_map(c.chi, split, "BB", "A")
        assert gerstenhaber_bracket(belt, chi_emb).is_zero()

        # [beta, phi](b1, b2) = -phi(b1, beta(b2))
        phi_emb = embed_block_map(c.phi, split, "BA", "A")
        br = gerstenhaber_bracket(belt, phi_emb)
        assert in_L(br, split)
        for j1 in range(b.dim):
            for j2 in range(b.dim):
                expected = tuple(
                    field.neg(v)
                    for v in c.phi.apply([b.basis_vector(j1), beta.column(j2)])
                ) + (field.zero,) * b.dim
                assert br.column((split.a_dim + j1, split.a_dim + j2)) == expected
        # and all other patterns of the bracket vanish
        for pat in ("AA", "AB", "BA"):
            assert project_block_map(br, split, pat, "A").is_zero()


def test_bidegree_rule_for_brackets():
    # components of [f, g] live only at (i+k-1) A's and (j+l) B's when f, g
    # are concentrated at single patterns
    rng = random.Random(25)
    field = GF2
    a, b, total, split = _split_pair(field, *CASES[1][1:])
    cases = [("BA", "BB"), ("AB", "BA"), ("BB", "BB"), ("AB", "AB")]
    for pat_f, pat_g in cases:
        dims_f = tuple(split.a_dim if ch == "A" else split.b_dim for ch in pat_f)
        dims_g = tuple(split.a_dim if ch == "A" else split.b_dim for ch in pat_g)
        f = embed_block_map(rand_map(rng, field, dims_f, split.a_dim), split, pat_f, "A")
        g = embed_block_map(rand_map(rng, field, dims_g, split.a_dim), split, pat_g, "A")
        br = gerstenhaber_bracket(f, g)
        assert in_L(br, split)
        expected_a = pat_f.count("A") + pat_g.count("A") - 1
        expected_b = pat_f.count("B") + pat_g.count("B")
        for pat in _patterns(br.arity):
            if not project_block_map(br, split, pat, "A").is_zero():
                assert (pat.count("A"), pat.count("B")) == (expected_a, expected_b), (pat_f, pat_g, pat)


def test_embed_project_round_trip():
    rng = random.Random(26)
    a, b, total, split = _split_pair(QQ, *CASES[0][1:])
    small = rand_map(rng, QQ, (split.b_dim, split.a_dim), split.a_dim)
    emb = embed_block_map(small, split, "BA", "A")
    assert project_block_map(emb, split, "BA", "A") == small
    assert in_L(emb, split)


def test_split_dgla_axioms_at_small_dims():
    # degree +1, square zero, and the signed derivation rule, inside the
    # A-valued subspace
    rng = random.Random(27)
    for field, a_spec, b_spec in CASES[:2]:
        a, b, total, split = _split_pair(field, a_spec, b_spec)
        for _ in range(5):
            f = beta_element(rand_gauge(rng, a, b), split, field)
            g = cocycle_to_mc(rand_cocycle(rng, a, b))
            df = hochschild_delta(f, total)
            assert df.arity == f.arity + 1
            assert in_L(df, split)
            assert hochschild_delta(df, total).is_zero()
            br = gerstenhaber_bracket(f, g)
            assert in_L(br, split)
            lhs = hochschild_delta(br, total)
            rhs = gerstenhaber_bracket(df, g).scale(
                field.from_int((-1) ** g.degree)
            ) + gerstenhaber_bracket(f, hochschild_delta(g, total))
            assert in_L(lhs, split)
            assert lhs == rhs


# Over Q, half the draws are zero, so that maps with zero blocks come up.
_SCALARS = {
    GF2: st.integers(0, 1),
    GF3: st.integers(0, 2),
    QQ: st.one_of(st.just(Fraction(0)), st.fractions(-2, 2, max_denominator=3)),
}


@st.composite
def _split_maps(draw):
    """A split space with blocks of dimension 1 or 2, an arity-1..3 map on
    it, and one (pattern, block) pair with a map on its block factors."""
    field = draw(st.sampled_from([GF2, GF3, QQ]))
    split = SplitSpace(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    arity = draw(st.integers(1, 3))

    def coeffs(size):
        return tuple(field.coerce(c) for c in draw(st.lists(_SCALARS[field], min_size=size, max_size=size)))

    f = MultilinearMap(field, (split.dim,) * arity, split.dim, coeffs(split.dim ** (arity + 1)))
    pat = draw(st.sampled_from(_patterns(arity)))
    out = draw(st.sampled_from("AB"))
    dims = tuple(len(split.block_indices(ch)) for ch in pat)
    target = len(split.block_indices(out))
    g = MultilinearMap(field, dims, target, coeffs(target * math.prod(dims)))
    return split, f, pat, out, g


@settings(deadline=None, max_examples=150)
@given(_split_maps())
def test_block_maps_round_trip_and_reassemble(case):
    split, f, pat, out, g = case
    # projection inverts embedding
    assert project_block_map(embed_block_map(g, split, pat, out), split, pat, out) == g
    # projection reads the entries of f at the block indices
    slots = [split.block_indices(ch) for ch in pat]
    small = project_block_map(f, split, pat, out)
    for k, idxs in itertools.product(range(small.target_dim), itertools.product(*map(range, small.source_dims))):
        full = tuple(r[i] for r, i in zip(slots, idxs))
        assert small.column(idxs)[k] == f.column(full)[split.block_indices(out)[k]]
    # the embedded components over every (pattern, block) sum back to f
    total = MultilinearMap.zero(f.field, f.source_dims, f.target_dim)
    for p, o in itertools.product(_patterns(f.arity), "AB"):
        total = total + embed_block_map(project_block_map(f, split, p, o), split, p, o)
    assert total == f

import itertools
import random

import pytest

from helpers import line_algebra, rand_cocycle, rand_gauge, rand_map, trunc_poly2, zero_algebra
from nabext import (
    GaugeParam,
    MultilinearMap,
    all_components,
    beta_element,
    bidegrees,
    cocycle_to_mc,
    direct_sum_space,
    embed_block_map,
    extract_component,
    in_L,
    l_bracket,
    l_delta,
    multiplication_map,
    patterns,
    project_block_map,
)
from nabext.fields import GF2, QQ
from nabext.splitspace import MembershipError


def _split_pair(field, a_spec, b_spec):
    a = a_spec(field)
    b = b_spec(field)
    return a, b, *direct_sum_space(a, b)


CASES = [
    (QQ, lambda f: line_algebra(f, "zero", "a"), lambda f: line_algebra(f, "idem", "b")),
    (GF2, lambda f: zero_algebra(f, 2), lambda f: line_algebra(f, "idem", "b")),
    (QQ, lambda f: line_algebra(f, "zero", "a"), lambda f: trunc_poly2(f)),
]


def test_patterns_enumeration():
    assert list(patterns(2)) == ["AA", "AB", "BA", "BB"]
    assert len(list(patterns(3))) == 8


def test_base_product_component_vanishing():
    # the blockwise product has no component mixing blocks, and its BB->B
    # component is the quotient multiplication itself
    for field, a_spec, b_spec in CASES:
        a, b, total, split = _split_pair(field, a_spec, b_spec)
        m = multiplication_map(total)
        for pat in ("AB", "BA", "AA"):
            assert extract_component(m, split, pat, "B").is_zero()
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
            comps = all_components(f, split)
            assert len(comps) == 2 ** (arity + 1)
            total_map = None
            for comp in comps.values():
                total_map = comp if total_map is None else total_map + comp
            assert total_map == f


def test_extract_component_validation():
    _, _, total, split = _split_pair(QQ, *CASES[0][1:])
    f = rand_map(random.Random(0), QQ, (split.dim,) * 2, split.dim)
    with pytest.raises(ValueError):
        extract_component(f, split, "ABA", "A")
    with pytest.raises(ValueError):
        extract_component(f, split, "AC", "A")
    # an output block other than A or B is refused, not read as B
    with pytest.raises(ValueError):
        extract_component(f, split, "AB", "C")
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
    d = l_delta(belt, total, split)
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
        assert l_delta(z, total, split).is_zero()
        for arity in (1, 2):
            for _ in range(10):
                f = cocycle_to_mc(rand_cocycle(rng, a, b)) if arity == 2 else (
                    beta_element(rand_gauge(rng, a, b), split, field)
                )
                assert in_L(l_delta(f, total, split), split)


def test_l_delta_rejects_non_members():
    _, _, total, split = _split_pair(QQ, *CASES[0][1:])
    base = multiplication_map(total)
    with pytest.raises(MembershipError):
        l_delta(base, total, split)


def test_l_bracket_closure_and_paper_identities():
    rng = random.Random(24)
    for field, a_spec, b_spec in CASES:
        a, b, total, split = _split_pair(field, a_spec, b_spec)
        for _ in range(10):
            f = cocycle_to_mc(rand_cocycle(rng, a, b))
            g = cocycle_to_mc(rand_cocycle(rng, a, b))
            assert in_L(l_bracket(f, g, split), split)

        # [beta, chi] = 0: both take values in the A block and chi
        # consumes only B inputs
        c = rand_cocycle(rng, a, b)
        beta = rand_gauge(rng, a, b)
        belt = beta_element(beta, split, field)
        chi_emb = embed_block_map(c.chi, split, "BB", "A")
        assert l_bracket(belt, chi_emb, split).is_zero()

        # [beta, phi](b1, b2) = -phi(b1, beta(b2))
        phi_emb = embed_block_map(c.phi, split, "BA", "A")
        br = l_bracket(belt, phi_emb, split)
        for j1 in range(b.dim):
            for j2 in range(b.dim):
                expected = tuple(
                    field.neg(v)
                    for v in c.phi.apply([b.basis_vector(j1), beta.column(j2)])
                ) + (field.zero,) * b.dim
                assert br.column((split.a_dim + j1, split.a_dim + j2)) == expected
        # and all other patterns of the bracket vanish
        for pat in ("AA", "AB", "BA"):
            assert extract_component(br, split, pat, "A").is_zero()


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
        br = l_bracket(f, g, split)
        expected_a = pat_f.count("A") + pat_g.count("A") - 1
        expected_b = pat_f.count("B") + pat_g.count("B")
        for pat, (na, nb) in bidegrees(br, split).items():
            assert (na, nb) == (expected_a, expected_b), (pat_f, pat_g, pat)


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
            df = l_delta(f, total, split)
            assert df.arity == f.arity + 1
            assert l_delta(df, total, split).is_zero()
            lhs = l_delta(l_bracket(f, g, split), total, split)
            rhs = l_bracket(df, g, split).scale(field.from_int((-1) ** g.degree)) + l_bracket(
                f, l_delta(g, total, split), split
            )
            assert lhs == rhs

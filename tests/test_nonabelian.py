import collections
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nabext.classify as classify
import nabext.nonabelian as nonabelian
from helpers import (
    associative_samples,
    associator_map,
    left_unit2,
    line_algebra,
    line_cocycle,
    rand_cocycle,
    rand_gauge,
    residuals_by_sides,
    trunc_poly2,
    trunc_poly3,
    upper_triangular2,
    zero_algebra,
)
from nabext import (
    Algebra,
    CandidateSpace,
    CocycleViolation,
    GaugeParam,
    MultilinearMap,
    NabCocycle,
    ViolationKind,
    apply_equivalence,
    associator_residual,
    beta_element,
    build_extension,
    check_cocycle,
    circ,
    cocycle_from_mc,
    cocycle_residuals,
    cocycle_to_mc,
    derivation_condition_defect,
    direct_sum_space,
    gauge_closed_form,
    gauge_series,
    gerstenhaber_bracket,
    hochschild_delta,
    in_L,
    is_mc,
    is_valid_cocycle,
    mc_context,
    mc_residual,
    project_block_map,
)
from nabext.fields import GF2, GF3, QQ

# the input patterns of an arity-3 map on A (+) B, in index order
PATTERNS3 = ["".join(word) for word in itertools.product("AB", repeat=3)]


def f2_lines(a2="zero", b2="idem"):
    return line_algebra(GF2, a2, "a"), line_algebra(GF2, b2, "b")


def test_zero_cocycle_is_valid_everywhere():
    for a2, b2 in itertools.product(("zero", "idem"), repeat=2):
        a, b = f2_lines(a2, b2)
        assert check_cocycle(NabCocycle.zero(a, b)) == []


def test_hand_verified_valid_cocycle():
    # phi = psi = id, chi(b,b) = a over F2 with a^2 = 0, b^2 = b:
    #   eq1: phi(phi(a)) = a; phi_{b^2}(a) + chi a = a + 0  -- holds
    #   eq5: -phi(chi) + chi(b^2,b) - chi(b,b^2) + psi(chi) = -a + a = 0
    a, b = f2_lines()
    c = line_cocycle(a, b, 1, 1, 1)
    assert check_cocycle(c) == []


def test_discriminating_input_both_readings_agree_with_associativity():
    # phi = id, psi = 0, chi = 0 over a^2 = 0, b^2 = b.  The Leibniz-type
    # identities all hold (every kernel product vanishes), psi - phi = -id
    # is a derivation of the zero product, and the twisted product is
    # associative: both readings of the derivation condition say "valid",
    # and the associativity oracle agrees.
    a, b = f2_lines()
    c = line_cocycle(a, b, 1, 0, 0)
    identity_gate = check_cocycle(c)
    derivation_gate = derivation_condition_defect(c)
    ext, _ = build_extension(c)
    assert identity_gate == []
    assert derivation_gate is None
    assert ext.is_associative()


def test_eq4_detail_separates_the_three_identities():
    # over A = k[t]/t^2 the cross identity psi(a1) a2 = a1 phi(a2) can fail
    # alone: take phi = 0 and psi = id
    a = trunc_poly2(GF2)
    b = line_algebra(GF2, "idem", "b")
    psi = MultilinearMap.from_entries(
        GF2, (a.dim, b.dim), a.dim, [(0, 0, 0, 1), (1, 1, 0, 1)]
    )
    c = NabCocycle(
        a,
        b,
        MultilinearMap.zero(GF2, (b.dim, a.dim), a.dim),
        psi,
        MultilinearMap.zero(GF2, (b.dim, b.dim), a.dim),
    )
    kinds = {(v.which, v.detail) for v in check_cocycle(c)}
    assert (ViolationKind.EQ4_DERIVATION, "cross_compat") in kinds


def test_violation_kinds_cover_all_five_equations():
    a, b = f2_lines()
    a2 = zero_algebra(GF2, 2)
    seen = set()
    space_cocycles = [
        line_cocycle(a, b, f, g, x)
        for f, g, x in itertools.product((0, 1), repeat=3)
    ] + [rand_cocycle(random.Random(s), a2, trunc_poly2(GF2)) for s in range(40)]
    for c in space_cocycles:
        for v in check_cocycle(c):
            seen.add(v.which)
    assert seen >= {
        ViolationKind.EQ1_LEFT_TWIST,
        ViolationKind.EQ2_RIGHT_TWIST,
        ViolationKind.EQ5_CHI_COCYCLE,
    }


def test_check_cocycle_requires_associative_ends():
    bad = Algebra.from_products(GF2, ["e0", "e1"], {(0, 0): {1: 1}, (1, 0): {0: 1}})
    b = line_algebra(GF2, "idem", "b")
    with pytest.raises(ValueError):
        check_cocycle(NabCocycle.zero(bad, b))


def test_build_extension_of_zero_cocycle_is_direct_sum():
    for field in (GF2, QQ):
        a = line_algebra(field, "zero", "a")
        b = trunc_poly2(field)
        ext, split = build_extension(NabCocycle.zero(a, b))
        total, split2 = direct_sum_space(a, b)
        assert ext.table == total.table
        assert (split.a_dim, split.b_dim) == (split2.a_dim, split2.b_dim)


def test_build_extension_of_hand_cocycle():
    # a^2 = 0, b^2 = b + chi(b,b) = b + a, ab = psi(a) = a, ba = phi(a) = a
    a, b = f2_lines()
    ext, _ = build_extension(line_cocycle(a, b, 1, 1, 1))
    assert ext.product_row(0, 0) == (0, 0)
    assert ext.product_row(1, 1) == (1, 1)
    assert ext.product_row(0, 1) == (1, 0)
    assert ext.product_row(1, 0) == (1, 0)
    assert ext.is_associative()


def test_invalid_candidate_builds_non_associative_product():
    a, b = f2_lines("idem", "idem")
    c = line_cocycle(a, b, 1, 0, 0)  # fails the cross identity when a^2 = a
    violations = check_cocycle(c)
    assert violations
    ext, _ = build_extension(c)
    assert not ext.is_associative()


def test_remark_level_sweep_validity_equals_associativity():
    for a2, b2 in itertools.product(("zero", "idem"), repeat=2):
        a, b = f2_lines(a2, b2)
        for f, g, x in itertools.product((0, 1), repeat=3):
            c = line_cocycle(a, b, f, g, x)
            assert (check_cocycle(c) == []) == build_extension(c)[0].is_associative()


def test_associator_components_of_valid_extension_vanish():
    a, b = f2_lines()
    ext, split = build_extension(line_cocycle(a, b, 1, 1, 1))
    assoc = associator_map(ext)
    blocks = [project_block_map(assoc, split, pat, out) for pat in PATTERNS3 for out in "AB"]
    assert len(blocks) == 16
    assert all(block.is_zero() for block in blocks)


def test_chi_only_defect_is_the_curvature_cocycle_equation():
    # base product plus a curvature that fails the cocycle equation: the
    # BBB->A associator component equals the equation-5 defect exactly
    a = line_algebra(QQ, "zero", "a")
    b = trunc_poly2(QQ)
    rng = random.Random(31)
    chi = MultilinearMap.from_function(
        QQ, (b.dim, b.dim), a.dim, lambda idxs: (QQ.random(rng),)
    )
    c = NabCocycle(
        a,
        b,
        MultilinearMap.zero(QQ, (b.dim, a.dim), a.dim),
        MultilinearMap.zero(QQ, (a.dim, b.dim), a.dim),
        chi,
    )
    ext, split = build_extension(c)
    bbb_a = project_block_map(associator_map(ext), split, "BBB", "A")
    assert not bbb_a.is_zero()
    # with zero twists the defect is chi(b1 b2, b3) - chi(b1, b2 b3),
    # expanded here by hand as the independent oracle
    for j1, j2, j3 in itertools.product(range(b.dim), repeat=3):
        first = chi.apply([b.product_row(j1, j2), b.basis_vector(j3)])
        second = chi.apply([b.basis_vector(j1), b.product_row(j2, j3)])
        expected = tuple(QQ.sub(u, v) for u, v in zip(first, second))
        assert bbb_a.column((j1, j2, j3)) == expected
    # the same defect is what check_cocycle reports for equation 5
    defects = {
        v.witness: v.discrepancy
        for v in check_cocycle(c)
        if v.which == ViolationKind.EQ5_CHI_COCYCLE
    }
    for witness, disc in defects.items():
        assert bbb_a.column(witness) == disc


def test_b_valued_components_vanish_when_forced_blocks_are_zero():
    # any product whose AB->B, BA->B, AA->B components vanish has zero
    # B-valued associator components off the BBB pattern
    rng = random.Random(32)
    a = zero_algebra(GF2, 2)
    b = line_algebra(GF2, "idem", "b")
    for _ in range(10):
        c = rand_cocycle(rng, a, b)
        ext, split = build_extension(c)
        assoc = associator_map(ext)
        for pat in PATTERNS3:
            if pat != "BBB":
                assert project_block_map(assoc, split, pat, "B").is_zero()


def test_cocycle_to_mc_components_and_membership():
    rng = random.Random(33)
    a = zero_algebra(GF2, 2)
    b = line_algebra(GF2, "idem", "b")
    for _ in range(10):
        c = rand_cocycle(rng, a, b)
        x = cocycle_to_mc(c)
        split = build_extension(c)[1]
        assert in_L(x, split)
        assert project_block_map(x, split, "AA", "A").is_zero()
        assert cocycle_from_mc(x, a, b) == c
    assert cocycle_to_mc(NabCocycle.zero(a, b)).is_zero()


def test_mc_residual_zero_cases():
    a, b = f2_lines()
    c = line_cocycle(a, b, 1, 1, 1)
    x, base, split = mc_context(c)
    assert mc_residual(x, base, split).is_zero()
    z = MultilinearMap.zero(GF2, (split.dim,) * 2, split.dim)
    assert mc_residual(z, base, split).is_zero()


def test_mc_residual_equals_associator_component_sum_over_f2():
    # the defect identity, for valid and invalid candidates alike
    rng = random.Random(34)
    pairs = [f2_lines(a2, b2) for a2, b2 in itertools.product(("zero", "idem"), repeat=2)]
    cocycles = []
    for a, b in pairs:
        cocycles += [
            line_cocycle(a, b, f, g, x)
            for f, g, x in itertools.product((0, 1), repeat=3)
        ]
    a2 = zero_algebra(GF2, 2)
    b1 = line_algebra(GF2, "idem", "b")
    cocycles += [rand_cocycle(rng, a2, b1) for _ in range(25)]
    cocycles += [rand_cocycle(rng, line_algebra(GF2, "zero", "a"), trunc_poly2(GF2)) for _ in range(25)]
    for c in cocycles:
        x, base, split = mc_context(c)
        res = mc_residual(x, base, split)
        ext, _ = build_extension(c)
        assoc = associator_map(ext)
        assert in_L(res, split)
        for pat in PATTERNS3:
            assert project_block_map(res, split, pat, "A") == project_block_map(assoc, split, pat, "A")


def test_associator_residual_matches_extension_associativity_any_field():
    # over Q: the twisted product is associative exactly when the
    # associator-form residual vanishes (the dgLa-form residual differs by
    # the sign of the element there)
    a = line_algebra(QQ, "zero", "a")
    b = line_algebra(QQ, "idem", "b")
    c = line_cocycle(a, b, 1, 1, 1)
    assert check_cocycle(c) == []
    x, base, split = mc_context(c)
    assert associator_residual(x, base, split).is_zero()
    assert not mc_residual(x, base, split).is_zero()
    assert mc_residual(-x, base, split) == associator_residual(x, base, split)


def test_corollary_sweep_dims_1_1_all_variants():
    for a2, b2 in itertools.product(("zero", "idem"), repeat=2):
        a, b = f2_lines(a2, b2)
        for f, g, x in itertools.product((0, 1), repeat=3):
            c = line_cocycle(a, b, f, g, x)
            elt, base, split = mc_context(c)
            assert (check_cocycle(c) == []) == is_mc(elt, base, split)


def test_is_mc_mutation_flips():
    # perturbing single structure constants of the hand-verified element
    # by 1 flips the verdict except where the perturbed triple happens to
    # be one of the other valid candidates
    a, b = f2_lines()
    valid = {(f, g, x) for f, g, x in itertools.product((0, 1), repeat=3)
             if is_valid_cocycle(line_cocycle(a, b, f, g, x))}
    start = (1, 1, 1)
    for slot in range(3):
        mutated = list(start)
        mutated[slot] ^= 1
        c = line_cocycle(a, b, *mutated)
        elt, base, split = mc_context(c)
        assert is_mc(elt, base, split) == (tuple(mutated) in valid)
        assert is_mc(elt, base, split) == is_valid_cocycle(c)


def test_mc_residual_requires_arity_two_and_membership():
    a, b = f2_lines()
    _, base, split = mc_context(NabCocycle.zero(a, b))
    with pytest.raises(ValueError):
        mc_residual(MultilinearMap.zero(GF2, (2,), 2), base, split)


# ---------------------------------------------------------------------------
# check_cocycle pinned: the violations of ~200 seeded F2/F3 candidates at dims
# (1,1), (2,1), (1,2) and (2,2), recorded from the single-pass equation check
# that preceded the split of the equations into a curvature-free and a
# curvature group; and the derivation_condition_defect of the same
# candidates, recorded from the pointwise check that preceded its route
# through hochschild_delta
# ---------------------------------------------------------------------------

GOLDEN_CHECK = Path(__file__).parent / "golden" / "check_cocycle_F2_F3.json"
GOLDEN_DERIVATION = Path(__file__).parent / "golden" / "derivation_condition_F2_F3.json"
_GOLDEN_ALGEBRAS = {
    "idem": lambda f: line_algebra(f, "idem", "x"),
    "zero": lambda f: line_algebra(f, "zero", "x"),
    "trunc2": trunc_poly2,
    "zero2": lambda f: zero_algebra(f, 2),
}
_GOLDEN_BY_DIM = {1: ("idem", "zero"), 2: ("trunc2", "zero2")}


def _golden_cases():
    """(field name, A name, B name, index, space) of the pinned candidates:
    half uniform over the space, half with one or two nonzero digits (often
    valid)."""
    rng = random.Random(20180213)
    for field in (GF2, GF3):
        for a_dim, b_dim in ((1, 1), (2, 1), (1, 2), (2, 2)):
            for _ in range(25):
                a, b = rng.choice(_GOLDEN_BY_DIM[a_dim]), rng.choice(_GOLDEN_BY_DIM[b_dim])
                space = CandidateSpace(_GOLDEN_ALGEBRAS[a](field), _GOLDEN_ALGEBRAS[b](field))
                if rng.random() < 0.5:
                    index = rng.randrange(space.total_candidates)
                else:
                    index = 0
                    for pos in rng.sample(range(space.total_entries), rng.choice((1, 2))):
                        index += rng.randrange(1, field.p) * field.p ** pos
                yield str(field), a, b, index, space


def test_check_cocycle_matches_golden():
    golden = json.loads(GOLDEN_CHECK.read_text())
    cases = list(_golden_cases())
    assert [(g["field"], g["A"], g["B"], g["index"]) for g in golden] == [case[:4] for case in cases]
    valid = 0
    for g, (*_, index, space) in zip(golden, cases):
        c = space.candidate(index)
        got = [[v.which.value, list(v.witness), list(v.discrepancy), v.detail] for v in check_cocycle(c)]
        assert got == g["violations"], (g["field"], g["A"], g["B"], index)
        assert is_valid_cocycle(c) == (got == [])
        valid += got == []
    assert 0 < valid < len(golden)


def test_derivation_condition_matches_golden():
    golden = json.loads(GOLDEN_DERIVATION.read_text())
    cases = list(_golden_cases())
    assert [(g["field"], g["A"], g["B"], g["index"]) for g in golden] == [case[:4] for case in cases]
    for g, (*_, index, space) in zip(golden, cases):
        v = derivation_condition_defect(space.candidate(index))
        got = None if v is None else [v.which.value, list(v.witness), list(v.discrepancy), v.detail]
        assert got == g["defect"], (g["field"], g["A"], g["B"], index)
    assert 0 < sum(g["defect"] is None for g in golden) < len(golden)


def _nonzero(residuals):
    return [CocycleViolation(*r) for r in residuals if any(r[2])]


def test_defect_groups_split_by_what_they_read():
    # one stream: every EQ3/EQ4 residual, which reads no chi, comes before
    # every EQ1/EQ2/EQ5 one, and the nonzero residuals, sorted by kind, are
    # check_cocycle's list
    twist_kinds = {ViolationKind.EQ3_COMMUTE, ViolationKind.EQ4_DERIVATION}
    for *_, index, space in itertools.islice(_golden_cases(), 0, None, 5):
        c = space.candidate(index)
        residuals = list(cocycle_residuals(c))
        reads_chi = [r[0] not in twist_kinds for r in residuals]
        assert reads_chi == sorted(reads_chi) and 0 < sum(reads_chi) < len(reads_chi)
        assert sorted(_nonzero(residuals), key=lambda v: v.which.value) == check_cocycle(c)


def test_is_valid_cocycle_stops_at_the_first_nonzero_residual(monkeypatch):
    # deterministic work count: phi(b, .) projects onto a_0 and psi(., b)
    # sends a_0 to a_1, so the twists do not commute at a_0 and the first
    # EQ3 residual is nonzero.  is_valid_cocycle draws that one residual
    # and reads no column of chi and no product row of B
    A, B = zero_algebra(GF2, 2), line_algebra(GF2, "idem", "b")
    phi = MultilinearMap(GF2, (1, 2), 2, (1, 0, 0, 0))
    psi = MultilinearMap(GF2, (2, 1), 2, (0, 0, 1, 0))
    c = NabCocycle(A, B, phi, psi, MultilinearMap.zero(GF2, (1, 1), 2))
    kind, witness, disc, _ = next(cocycle_residuals(c))
    assert (kind, witness) == (ViolationKind.EQ3_COMMUTE, (0, 0, 0)) and any(disc)
    drawn, read = [], []
    real = nonabelian.cocycle_residuals

    def counted(c):
        for r in real(c):
            drawn.append(r[0])
            yield r

    column, product_row = MultilinearMap.column, Algebra.product_row
    monkeypatch.setattr(nonabelian, "cocycle_residuals", counted)
    monkeypatch.setattr(MultilinearMap, "column", lambda m, idxs: read.append(m) or column(m, idxs))
    monkeypatch.setattr(Algebra, "product_row", lambda alg, i, j: read.append(alg) or product_row(alg, i, j))
    assert not is_valid_cocycle(c)
    assert drawn == [ViolationKind.EQ3_COMMUTE]
    assert any(m is phi for m in read) and any(m is psi for m in read) and any(m is A for m in read)
    assert not [m for m in read if m is c.chi or m is B]


def _as_fractions(c: NabCocycle, beta: GaugeParam):
    """``c`` and ``beta`` with every coefficient a ``Fraction``, integral
    ones included: the representation of Q before ints stood for them."""

    def alg(a):
        return Algebra(a.field, a.dim, a.basis, tuple(Fraction(v) for v in a.table))

    def part(m):
        return MultilinearMap(m.field, m.source_dims, m.target_dim, tuple(Fraction(v) for v in m.coeffs))

    wrapped = NabCocycle(alg(c.A), alg(c.B), part(c.phi), part(c.psi), part(c.chi))
    return wrapped, GaugeParam(tuple(tuple(Fraction(v) for v in row) for row in beta.matrix))


def _q_kernel_outputs(c: NabCocycle, beta: GaugeParam):
    x, base, split = mc_context(c)
    image = apply_equivalence(c, beta)
    return {
        "check_cocycle": tuple(v for violation in check_cocycle(c) for v in violation.discrepancy),
        "cocycle_to_mc": cocycle_to_mc(c).coeffs,
        "build_extension": build_extension(c)[0].table,
        "apply_equivalence": image.phi.coeffs + image.psi.coeffs + image.chi.coeffs,
        "gauge_closed_form": gauge_closed_form(x, beta, base, split).coeffs,
        "gauge_series": gauge_series(x, beta, base, split).coeffs,
        "circ": circ(x, x).coeffs,
        "gerstenhaber_bracket": gerstenhaber_bracket(beta_element(beta, split, base.field), x).coeffs,
    }


def test_q_kernels_keep_integral_scalars_as_ints():
    # random triples and gauge images of zero: every output coefficient is
    # an int or a proper Fraction, and Fraction-wrapped inputs give equal
    # outputs
    rng = random.Random(29)
    samples = associative_samples(QQ)
    fractions = 0
    for _ in range(8):
        a, b = rng.choice(samples), rng.choice(samples)
        beta = rand_gauge(rng, a, b)
        for c in (rand_cocycle(rng, a, b), apply_equivalence(NabCocycle.zero(a, b), rand_gauge(rng, a, b))):
            outputs = _q_kernel_outputs(c, beta)
            for name, coeffs in outputs.items():
                assert not [v for v in coeffs if type(v) is not int and v.denominator == 1], name
                fractions += sum(type(v) is Fraction for v in coeffs)
            assert _q_kernel_outputs(*_as_fractions(c, beta)) == outputs
    assert fractions > 0


_SCALARS = {
    GF2: st.integers(0, 1),
    GF3: st.integers(0, 2),
    QQ: st.one_of(st.just(0), st.fractions(-2, 2, max_denominator=3)),
}


@settings(deadline=None, max_examples=60)
@given(st.data(), st.sampled_from([GF2, GF3, QQ]), st.booleans())
def test_residuals_are_their_two_sided_form(data, field, symbolic):
    # every residual, in order, against left side minus right side; over
    # F_p some coefficients are the census's variables
    algebras = associative_samples(field) + [left_unit2(field), upper_triangular2(field)]
    a = data.draw(st.sampled_from([alg for alg in algebras if alg.dim <= 2]))
    b = data.draw(st.sampled_from(algebras))
    shapes = ((b.dim, a.dim), (a.dim, b.dim), (b.dim, b.dim))
    total = sum(math.prod(dims) * a.dim for dims in shapes)
    coeffs = data.draw(st.lists(_SCALARS[field], min_size=total, max_size=total))
    if symbolic and field is not QQ:
        variables = classify._symbolic_digits(total, field.p)
        chosen = data.draw(st.lists(st.booleans(), min_size=total, max_size=total))
        coeffs = [x if pick else v for v, x, pick in zip(coeffs, variables, chosen)]
    parts, at = [], 0
    for dims in shapes:
        size = math.prod(dims) * a.dim
        parts.append(MultilinearMap(field, dims, a.dim, tuple(coeffs[at : at + size])))
        at += size
    c = NabCocycle(a, b, *parts)
    assert list(cocycle_residuals(c)) == residuals_by_sides(a, b, c.phi, c.psi, c.chi)


def test_residual_and_insertion_work_guard(monkeypatch):
    # deterministic work counts instead of a timing: each residual is one
    # pass of the signed-sum kernel, with no one-sided vector joined by
    # vec_add, vec_sub or vec_neg, and circ and the bracket each sum every
    # insertion in one from_terms, adding, subtracting and negating no map
    rng = random.Random(34)
    q = rand_cocycle(rng, trunc_poly2(QQ), trunc_poly3(QQ))
    space = CandidateSpace(zero_algebra(GF2, 2), trunc_poly2(GF2))
    symbolic = space._decode(classify._symbolic_digits(space.total_entries, space.p))
    elements = []
    for c in (q, symbolic):
        x, base, split = mc_context(c)
        elements.append((x, beta_element(rand_gauge(rng, c.A, c.B), split, base.field)))
    calls = collections.Counter()

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in ("vec_add", "vec_sub", "vec_neg"):
        monkeypatch.setattr(nonabelian, name, counted(name, getattr(nonabelian, name)))
    for c in (q, symbolic):
        assert list(cocycle_residuals(c)) == residuals_by_sides(c.A, c.B, c.phi, c.psi, c.chi)
    assert calls == {}

    from_terms = MultilinearMap.from_terms
    monkeypatch.setattr(MultilinearMap, "from_terms", classmethod(lambda cls, *args: counted("from_terms", from_terms)(*args)))
    for name in ("__add__", "__sub__", "__neg__"):
        monkeypatch.setattr(MultilinearMap, name, counted(name, getattr(MultilinearMap, name)))
    for x, beta in elements:
        for op, args in ((circ, (x, x)), (gerstenhaber_bracket, (beta, x))):
            calls.clear()
            op(*args)
            assert calls == {"from_terms": 1}, op.__name__

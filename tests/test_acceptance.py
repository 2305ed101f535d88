"""Acceptance suite: one test per criterion, each printing a PASS line.

Every assertion here is exact (integer or rational equality); the only
tolerances are wall-clock budgets, which are asserted where stated.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time

import pytest

from helpers import (
    associative_samples,
    associator_map,
    canonical_presentation,
    line_algebra,
    line_cocycle,
    rand_cochain,
    rand_cocycle,
    rand_gauge,
    trunc_poly2,
    zero_algebra,
)
from nabext import (
    CandidateSpace,
    GaugeParam,
    MultilinearMap,
    NabCocycle,
    abelian_specialize,
    apply_equivalence,
    beta_element,
    build_extension,
    canonical_section,
    census,
    check_cocycle,
    cocycle_from_section,
    cocycle_to_mc,
    delta_as_bracket,
    direct_sum_space,
    enumerate_cocycles,
    enumerate_sections,
    gauge_closed_form,
    gauge_series,
    gerstenhaber_bracket,
    hochschild_delta,
    hochschild_delta_module,
    in_L,
    is_valid_cocycle,
    mc_context,
    mc_residual,
    module_coboundary,
    multiplication_map,
    project_block_map,
    section_difference,
)
from nabext.fields import GF2, GF3, QQ
from nabext.io_json import dumps_canonical, report_to_json

# the input patterns of an arity-3 map on A (+) B, in index order
PATTERNS3 = ["".join(word) for word in itertools.product("AB", repeat=3)]


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


# ---------------------------------------------------------------------------
# criterion 1: dgLa axioms at desk scale
# ---------------------------------------------------------------------------

def test_criterion_1_dgla_axioms():
    start = time.monotonic()
    rng = random.Random(1001)
    sampled = 0

    for field in (QQ, GF2):
        ambients = associative_samples(field)  # dims 1..3

        # delta squared
        for alg in ambients:
            for arity in (1, 2, 3):
                f = rand_cochain(rng, alg, arity)
                sampled += 1
                assert hochschild_delta(hochschild_delta(f, alg), alg).is_zero()

        # graded antisymmetry: [f,g] + (-1)^{mn}[g,f] = 0
        for alg in ambients:
            for af, ag in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
                f = rand_cochain(rng, alg, af)
                g = rand_cochain(rng, alg, ag)
                sampled += 2
                sign = field.from_int((-1) ** (f.degree * g.degree))
                assert (
                    gerstenhaber_bracket(f, g)
                    + gerstenhaber_bracket(g, f).scale(sign)
                ).is_zero()

        # graded Jacobi on cyclically signed triples
        jacobi_shapes = [(1, 1, 1), (1, 2, 2), (2, 2, 2), (2, 2, 3)]
        for alg in ambients[:4]:  # dims 1 and 2 keep arity-3 triples cheap
            for shape in jacobi_shapes:
                f, g, h = (rand_cochain(rng, alg, a) for a in shape)
                sampled += 3
                m, n, k = f.degree, g.degree, h.degree
                t1 = gerstenhaber_bracket(f, gerstenhaber_bracket(g, h)).scale(
                    field.from_int((-1) ** (m * k))
                )
                t2 = gerstenhaber_bracket(g, gerstenhaber_bracket(h, f)).scale(
                    field.from_int((-1) ** (n * m))
                )
                t3 = gerstenhaber_bracket(h, gerstenhaber_bracket(f, g)).scale(
                    field.from_int((-1) ** (k * n))
                )
                assert (t1 + t2 + t3).is_zero()
        # one dim-3 Jacobi instance per field at arity 2
        alg3 = ambients[4]
        f, g, h = (rand_cochain(rng, alg3, 2) for _ in range(3))
        sampled += 3
        t1 = gerstenhaber_bracket(f, gerstenhaber_bracket(g, h)).scale(
            field.from_int((-1) ** (f.degree * h.degree))
        )
        t2 = gerstenhaber_bracket(g, gerstenhaber_bracket(h, f)).scale(
            field.from_int((-1) ** (g.degree * f.degree))
        )
        t3 = gerstenhaber_bracket(h, gerstenhaber_bracket(f, g)).scale(
            field.from_int((-1) ** (h.degree * g.degree))
        )
        assert (t1 + t2 + t3).is_zero()

        # derivation rule of the differential, in both signed forms: the
        # bracket-form differential d = [m, -] satisfies the textbook axiom
        # verbatim; the Hochschild delta (its (-1)^{arity-1} twist) obeys
        # the equivalent rule with the sign on the other term
        for alg in ambients:
            m_map = multiplication_map(alg)
            for af, ag in [(1, 1), (1, 2), (2, 2)]:
                f = rand_cochain(rng, alg, af)
                g = rand_cochain(rng, alg, ag)
                sampled += 2
                br = gerstenhaber_bracket(f, g)
                d = lambda x: gerstenhaber_bracket(m_map, x)
                assert d(br) == gerstenhaber_bracket(d(f), g) + gerstenhaber_bracket(
                    f, d(g)
                ).scale(field.from_int((-1) ** f.degree))
                assert hochschild_delta(br, alg) == gerstenhaber_bracket(
                    hochschild_delta(f, alg), g
                ).scale(field.from_int((-1) ** g.degree)) + gerstenhaber_bracket(
                    f, hochschild_delta(g, alg)
                )

    elapsed = time.monotonic() - start
    assert sampled >= 200
    assert elapsed < 30.0
    _report(
        "criterion 1 (dgLa axioms)",
        f"{sampled} randomized cochains over Q and F2, exact, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: sign-convention gate
# ---------------------------------------------------------------------------

def test_criterion_2_sign_gate():
    rng = random.Random(1002)
    checked = 0
    for field in (QQ, GF2):
        for alg in associative_samples(field):
            m = multiplication_map(alg)
            for arity in (1, 2, 3):
                for _ in range(5):
                    f = rand_cochain(rng, alg, arity)
                    checked += 1
                    assert hochschild_delta(f, alg) == delta_as_bracket(f, m)
    _report(
        "criterion 2 (sign gate)",
        f"delta f == (-1)^(arity-1)[m, f] on {checked} cochains, verbatim signs",
    )


# ---------------------------------------------------------------------------
# criteria 3 and 4 share one sweep
# ---------------------------------------------------------------------------

def _line_variant_spaces():
    for a2, b2 in itertools.product(("zero", "idem"), repeat=2):
        yield CandidateSpace(
            line_algebra(GF2, a2, "a"), line_algebra(GF2, b2, "b")
        )


def _random_sweep_spaces():
    # the (1,2) space only has 256 candidates, so it is swept exhaustively;
    # the other two are sampled without replacement
    return [
        (CandidateSpace(zero_algebra(GF2, 2), line_algebra(GF2, "idem", "b")), 400, 101),
        (CandidateSpace(line_algebra(GF2, "zero", "a"), trunc_poly2(GF2)), 256, 102),
        (CandidateSpace(zero_algebra(GF2, 2), trunc_poly2(GF2)), 400, 103),
    ]


@pytest.fixture(scope="module")
def f2_sweep():
    """Shared F2 sweep: 32 exhaustive line candidates plus >= 1000 sampled
    candidates at dims up to (2,2), with all verdicts precomputed."""
    start = time.monotonic()
    records = []
    for space in _line_variant_spaces():
        base, split = direct_sum_space(space.A, space.B)
        for idx in space.exhaustive_indices():
            records.append(_sweep_record(space, base, split, idx))
    for space, count, seed in _random_sweep_spaces():
        base, split = direct_sum_space(space.A, space.B)
        if count >= space.total_candidates:
            indices = space.exhaustive_indices()
        else:
            indices = space.sample_indices(count, seed)
        for idx in indices:
            records.append(_sweep_record(space, base, split, idx))
    elapsed = time.monotonic() - start
    return records, elapsed


def _sweep_record(space, base, split, idx):
    c = space.candidate(idx)
    valid = is_valid_cocycle(c)
    x = cocycle_to_mc(c)
    residual = mc_residual(x, base, split)
    ext, _ = build_extension(c)
    assoc = associator_map(ext)
    residual_matches = in_L(residual, split) and all(
        project_block_map(residual, split, pat, "A") == project_block_map(assoc, split, pat, "A")
        for pat in PATTERNS3
    )
    b_components_zero = all(project_block_map(assoc, split, pat, "B").is_zero() for pat in PATTERNS3)
    return {
        "valid": valid,
        "mc": residual.is_zero(),
        "associative": ext.is_associative(),
        "residual_matches_table": residual_matches,
        "aaa_component_zero": project_block_map(assoc, split, "AAA", "A").is_zero(),
        "b_components_zero": b_components_zero,
    }


def test_criterion_3_cocycles_are_mc_elements(f2_sweep):
    records, elapsed = f2_sweep
    assert len(records) >= 32 + 1000
    mismatches = [r for r in records if r["valid"] != r["mc"]]
    assert mismatches == []
    assert elapsed < 10.0
    _report(
        "criterion 3 (cocycles = MC elements)",
        f"{len(records)} candidates (32 exhaustive + {len(records)-32} sampled), "
        f"0 mismatches, sweep {elapsed:.1f}s",
    )


def test_criterion_4_associativity_and_residual_identity(f2_sweep):
    records, _ = f2_sweep
    assert all(r["valid"] == r["associative"] for r in records)
    assert all(r["residual_matches_table"] for r in records)
    # the residual is compared with the associator on all eight A-valued
    # patterns; the AAA component vanishes identically (the kernel algebra
    # is associative), so the comparison holds on the other seven
    assert all(r["aaa_component_zero"] for r in records)
    assert all(r["b_components_zero"] for r in records)
    _report(
        "criterion 4 (associativity & residual identity)",
        f"{len(records)} candidates, residual == associator component sum entrywise",
    )


# ---------------------------------------------------------------------------
# criterion 5: the two equivalence partitions coincide
# ---------------------------------------------------------------------------

def _partition(items, related):
    blocks = []
    for i in range(len(items)):
        placed = False
        for block in blocks:
            if any(related(i, j) for j in block):
                block.add(i)
                placed = True
        if not placed:
            blocks.append({i})
    # merge transitively
    merged = True
    while merged:
        merged = False
        for x in range(len(blocks)):
            for y in range(x + 1, len(blocks)):
                if blocks[x] & blocks[y]:
                    blocks[x] |= blocks[y]
                    del blocks[y]
                    merged = True
                    break
            if merged:
                break
    return {frozenset(b) for b in blocks}


def test_criterion_5_partition_coincidence():
    start = time.monotonic()
    for space in _line_variant_spaces():
        base, split = direct_sum_space(space.A, space.B)
        betas = space.gauge_params()
        cocycles = [c for _, c in enumerate_cocycles(space)]
        elements = [cocycle_to_mc(c) for c in cocycles]

        def related_cocycle(i, j):
            return any(apply_equivalence(cocycles[i], b) == cocycles[j] for b in betas)

        def related_gauge(i, j):
            return any(
                gauge_closed_form(elements[i], b, base, split) == elements[j]
                for b in betas
            )

        p1 = _partition(cocycles, related_cocycle)
        p2 = _partition(elements, related_gauge)
        assert p1 == p2
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(
        "criterion 5 (equivalence = gauge partitions)",
        f"4 line variants, exhaustive beta search, identical partitions, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: series and closed form agree
# ---------------------------------------------------------------------------

def test_criterion_6_gauge_series_consistency():
    rng = random.Random(1006)
    pairs = 0
    for field in (QQ, GF3):
        spaces = [
            (line_algebra(field, "zero", "a"), line_algebra(field, "idem", "b")),
            (zero_algebra(field, 2), line_algebra(field, "idem", "b")),
            (line_algebra(field, "zero", "a"), trunc_poly2(field)),
            (zero_algebra(field, 2), trunc_poly2(field)),
        ]
        for a, b in spaces:
            base, split = direct_sum_space(a, b)
            for _ in range(7):
                c = rand_cocycle(rng, a, b)
                beta = rand_gauge(rng, a, b)
                x = cocycle_to_mc(c)
                assert gauge_series(x, beta, base, split) == gauge_closed_form(
                    x, beta, base, split
                )
                # the squared adjoint really is zero on both series inputs
                belt = beta_element(beta, split, field)
                assert gerstenhaber_bracket(
                    belt, gerstenhaber_bracket(belt, x)
                ).is_zero()
                assert gerstenhaber_bracket(
                    belt, gerstenhaber_bracket(belt, hochschild_delta(belt, base))
                ).is_zero()
                pairs += 1
    assert pairs >= 50
    _report(
        "criterion 6 (gauge series = closed form)",
        f"{pairs} random (element, parameter) pairs over Q and F3, exact",
    )


# ---------------------------------------------------------------------------
# criterion 7: section round trips and independence
# ---------------------------------------------------------------------------

def test_criterion_7_section_round_trips():
    spaces = list(_line_variant_spaces()) + [
        CandidateSpace(zero_algebra(GF2, 2), line_algebra(GF2, "idem", "b"))
    ]
    total_cocycles = 0
    total_pairs = 0
    orientations = {"plus": 0, "minus": 0}
    for space in spaces:
        cocycles = enumerate_cocycles(space)
        extensions = [(i, build_extension(c)[0]) for i, c in cocycles]
        assert [i for i, _ in cocycles] == [i for i, _ in extensions]

        for (idx, c), (_, ext_alg) in zip(cocycles, extensions):
            total_cocycles += 1
            pres = canonical_presentation(c)
            assert pres.E.table == ext_alg.table
            back = cocycle_from_section(pres, canonical_section(pres))
            assert back == c

            sections = list(enumerate_sections(pres))
            assert len(sections) == 2 ** (space.A.dim * space.B.dim)
            extracted = [cocycle_from_section(pres, s) for s in sections]
            for (s, cs), (s2, cs2) in itertools.product(
                zip(sections, extracted), repeat=2
            ):
                beta = section_difference(s, s2, pres)
                plus = apply_equivalence(cs, beta) == cs2
                minus = apply_equivalence(cs, beta.negate(GF2)) == cs2
                assert plus or minus
                orientations["plus" if plus else "minus"] += 1
                total_pairs += 1
    assert orientations["plus"] == total_pairs  # over F2, -beta = beta
    _report(
        "criterion 7 (section round trips)",
        f"{total_cocycles} cocycles across 5 censuses, {total_pairs} section pairs, "
        "counts equal on both routes",
    )


# ---------------------------------------------------------------------------
# criterion 8: abelian specialization
# ---------------------------------------------------------------------------

def test_criterion_8_abelian_specialization():
    checked = 0
    coboundary_pairs = 0
    spaces = [
        CandidateSpace(line_algebra(GF2, "zero", "a"), line_algebra(GF2, "idem", "b")),
        CandidateSpace(line_algebra(GF2, "zero", "a"), line_algebra(GF2, "zero", "b")),
        CandidateSpace(zero_algebra(GF2, 2), line_algebra(GF2, "idem", "b")),
    ]
    for space in spaces:
        betas = space.gauge_params()
        for _, c in enumerate_cocycles(space):
            assert c.A.has_zero_product()
            structure = abelian_specialize(c)
            dchi = hochschild_delta_module(
                structure.cocycle, c.B, structure.left_action, structure.right_action
            )
            assert dchi.is_zero()
            checked += 1
            for beta in betas:
                c2 = apply_equivalence(c, beta)
                assert c2.phi == c.phi and c2.psi == c.psi
                assert (c2.chi - c.chi) == -module_coboundary(beta, c)
                coboundary_pairs += 1
    # sampled (2,2) abelian candidates from the criterion-3 spaces
    space = CandidateSpace(zero_algebra(GF2, 2), trunc_poly2(GF2))
    for idx in space.sample_indices(200, seed=108):
        c = space.candidate(idx)
        if not is_valid_cocycle(c):
            continue
        structure = abelian_specialize(c)
        assert hochschild_delta_module(
            structure.cocycle, c.B, structure.left_action, structure.right_action
        ).is_zero()
        checked += 1
    _report(
        "criterion 8 (abelian specialization)",
        f"{checked} valid zero-kernel cocycles, delta(chi) = 0; "
        f"{coboundary_pairs} gauge pairs share actions and differ by a coboundary",
    )


# ---------------------------------------------------------------------------
# criterion 9: determinism and performance
# ---------------------------------------------------------------------------

def test_criterion_9_determinism_and_performance():
    space = CandidateSpace(
        line_algebra(GF2, "zero", "a"), line_algebra(GF2, "idem", "b")
    )
    start = time.monotonic()
    report1 = census(space)
    census_time = time.monotonic() - start
    assert census_time < 1.0

    report2 = census(space, jobs=2)
    bytes1 = dumps_canonical(report_to_json(report1, space.A.field))
    bytes2 = dumps_canonical(report_to_json(report2, space.A.field))
    assert bytes1 == bytes2

    # a second space, to make job-independence non-trivial
    space2 = CandidateSpace(zero_algebra(GF2, 2), line_algebra(GF2, "idem", "b"))
    r1 = census(space2, jobs=1)
    r2 = census(space2, jobs=3)
    assert dumps_canonical(report_to_json(r1, GF2)) == dumps_canonical(
        report_to_json(r2, GF2)
    )
    _report(
        "criterion 9 (determinism & performance)",
        f"(1,1) census {census_time * 1000:.0f} ms; reports byte-identical across --jobs",
    )

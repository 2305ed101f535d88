import itertools
import random

import pytest

from helpers import line_algebra, line_cocycle, rand_cocycle, rand_gauge, zero_algebra
from nabext import (
    ExtensionPresentation,
    NabCocycle,
    Section,
    all_gauge_params,
    apply_equivalence,
    build_extension,
    canonical_presentation,
    canonical_section,
    check_extension_equivalence,
    cocycle_from_section,
    direct_sum_space,
    enumerate_sections,
    is_valid_cocycle,
    section_difference,
    theta_from_gauge,
    verify_extension,
)
from nabext.exact_sequences import BrokenExtensionError, is_section, resolved
from nabext.fields import GF2, GF3, QQ
from nabext.linalg import identity_matrix


def _hand_pair(a2="zero", b2="idem"):
    return line_algebra(GF2, a2, "a"), line_algebra(GF2, b2, "b")


def test_verify_direct_sum_canonical_maps():
    a = zero_algebra(QQ, 2)
    b = line_algebra(QQ, "idem", "b")
    ext = canonical_presentation(NabCocycle.zero(a, b))
    diag = verify_extension(ext)
    assert diag.ok and diag.failures == []


def test_verify_twisted_extension():
    a, b = _hand_pair()
    ext = canonical_presentation(line_cocycle(a, b, 1, 1, 1))
    assert verify_extension(ext).ok


def test_verify_detects_zero_projection():
    a, b = _hand_pair()
    ext = canonical_presentation(line_cocycle(a, b, 1, 1, 1))
    broken = ExtensionPresentation(
        ext.E, ext.iota, ((GF2.zero, GF2.zero),), ext.A, ext.B
    )
    diag = verify_extension(broken)
    assert not diag.ok
    assert any("surjective" in msg for msg in diag.failures)


def test_verify_detects_non_morphism_projection():
    # swap iota and a projection that does not kill the kernel
    a, b = _hand_pair()
    ext = canonical_presentation(line_cocycle(a, b, 1, 1, 1))
    crooked = ExtensionPresentation(
        ext.E, ext.iota, ((GF2.one, GF2.one),), ext.A, ext.B
    )
    diag = verify_extension(crooked)
    assert not diag.ok


def test_resolved_derives_end_algebras():
    a, b = _hand_pair()
    c = line_cocycle(a, b, 1, 1, 1)
    ext = canonical_presentation(c)
    anonymous = ExtensionPresentation(ext.E, ext.iota, ext.proj)
    filled = resolved(anonymous)
    assert filled.A.table == a.table
    assert filled.B.table == b.table
    assert verify_extension(filled).ok


def test_canonical_section_round_trip_all_candidates():
    for a2, b2 in itertools.product(("zero", "idem"), repeat=2):
        a, b = _hand_pair(a2, b2)
        for f, g, x in itertools.product((0, 1), repeat=3):
            c = line_cocycle(a, b, f, g, x)
            if not is_valid_cocycle(c):
                continue
            ext = canonical_presentation(c)
            assert cocycle_from_section(ext, canonical_section(ext)) == c


def test_direct_sum_canonical_section_gives_zero_cocycle():
    a = zero_algebra(GF2, 2)
    b = line_algebra(GF2, "idem", "b")
    c0 = NabCocycle.zero(a, b)
    ext = canonical_presentation(c0)
    assert cocycle_from_section(ext, canonical_section(ext)) == c0


def test_section_count_matches_kernel_hom_space():
    # dim B = 1 over F2: exactly 2^(dim A) sections
    for a_dim in (1, 2):
        a = zero_algebra(GF2, a_dim)
        b = line_algebra(GF2, "idem", "b")
        ext = canonical_presentation(NabCocycle.zero(a, b))
        sections = list(enumerate_sections(ext))
        assert len(sections) == 2 ** a_dim
        assert all(is_section(ext, s) for s in sections)
        assert len({s.matrix for s in sections}) == len(sections)


def test_sections_are_base_plus_iota_beta_in_gauge_order():
    # the n-th section differs from the canonical one by the n-th gauge parameter
    for field, a, b in (
        (GF2, zero_algebra(GF2, 2), line_algebra(GF2, "idem", "b")),
        (GF3, zero_algebra(GF3, 1), zero_algebra(GF3, 2, "b")),
    ):
        ext = canonical_presentation(NabCocycle.zero(a, b))
        base = canonical_section(ext)
        offsets = [section_difference(s, base, ext) for s in enumerate_sections(ext)]
        assert offsets == list(all_gauge_params(field, a.dim, b.dim))


def test_extracted_cocycles_are_valid_for_every_section():
    a, b = _hand_pair()
    for f, g, x in itertools.product((0, 1), repeat=3):
        c = line_cocycle(a, b, f, g, x)
        if not is_valid_cocycle(c):
            continue
        ext = canonical_presentation(c)
        for s in enumerate_sections(ext):
            assert is_valid_cocycle(cocycle_from_section(ext, s))


def test_section_difference_and_orientation():
    # beta = s - s' carries the s-cocycle to the s'-cocycle via the
    # component transform; this is the orientation the gauge theorem uses
    for a2 in ("zero", "idem"):
        a, b = _hand_pair(a2)
        for f, g, x in itertools.product((0, 1), repeat=3):
            c = line_cocycle(a, b, f, g, x)
            if not is_valid_cocycle(c):
                continue
            ext = canonical_presentation(c)
            sections = list(enumerate_sections(ext))
            for s, s2 in itertools.product(sections, repeat=2):
                beta = section_difference(s, s2, ext)
                c_s = cocycle_from_section(ext, s)
                c_s2 = cocycle_from_section(ext, s2)
                assert apply_equivalence(c_s, beta) == c_s2


def test_section_difference_of_equal_sections_is_zero():
    a, b = _hand_pair()
    ext = canonical_presentation(line_cocycle(a, b, 1, 1, 1))
    s = canonical_section(ext)
    beta = section_difference(s, s, ext)
    assert all(v == 0 for row in beta.matrix for v in row)


def test_section_difference_over_q():
    # same statement in characteristic zero, where orientation matters
    a = line_algebra(QQ, "zero", "a")
    b = line_algebra(QQ, "idem", "b")
    c = line_cocycle(a, b, 1, 1, 1)
    ext = canonical_presentation(c)
    s = canonical_section(ext)
    shifted = Section(((QQ.parse("2/3"),), (QQ.one,)))
    assert is_section(ext, shifted)
    beta = section_difference(shifted, s, ext)
    assert beta.matrix == ((QQ.parse("2/3"),),)
    c_shifted = cocycle_from_section(ext, shifted)
    assert apply_equivalence(c_shifted, beta) == cocycle_from_section(ext, s)
    # the opposite orientation fails here, so the search must try both
    assert apply_equivalence(c_shifted, beta.negate(QQ)) != cocycle_from_section(ext, s)


def test_identity_theta_on_equal_extensions():
    a, b = _hand_pair()
    ext = canonical_presentation(line_cocycle(a, b, 1, 1, 0))
    ok, failures = check_extension_equivalence(
        ext, ext, identity_matrix(GF2, ext.E.dim)
    )
    assert ok and not failures


def test_theta_from_gauge_relates_equivalent_extensions():
    rng = random.Random(51)
    cases = [
        (GF2, zero_algebra(GF2, 1), line_algebra(GF2, "idem", "b")),
        (GF2, zero_algebra(GF2, 2), line_algebra(GF2, "idem", "b")),
        (QQ, zero_algebra(QQ, 1), line_algebra(QQ, "idem", "b")),
    ]
    for field, a, b in cases:
        for _ in range(6):
            c = rand_cocycle(rng, a, b) if a.dim > 1 else line_cocycle(a, b, 1, 1, 1)
            if not is_valid_cocycle(c):
                continue
            beta = rand_gauge(rng, a, b)
            c2 = apply_equivalence(c, beta)
            ext, ext2 = canonical_presentation(c), canonical_presentation(c2)
            _, split = build_extension(c)
            theta = theta_from_gauge(beta, split, field)
            ok, failures = check_extension_equivalence(ext, ext2, theta)
            assert ok, failures


def test_theta_failing_projection_condition():
    a, b = _hand_pair()
    c = line_cocycle(a, b, 1, 1, 0)
    ext = canonical_presentation(c)
    # a map sending the quotient generator into the kernel only
    theta = ((GF2.one, GF2.one), (GF2.zero, GF2.zero))
    ok, failures = check_extension_equivalence(ext, ext, theta)
    assert not ok
    assert any("proj" in msg for msg in failures)


def test_equivalent_extensions_give_equivalent_cocycles():
    # theta-related presentations produce cocycles in one equivalence class
    a, b = _hand_pair()
    c = line_cocycle(a, b, 1, 1, 1)
    beta = rand_gauge(random.Random(52), a, b)
    c2 = apply_equivalence(c, beta)
    ext, ext2 = canonical_presentation(c), canonical_presentation(c2)
    got = cocycle_from_section(ext2, canonical_section(ext2))
    assert got == c2
    # and c2 is in the beta-orbit of c by construction
    assert apply_equivalence(c, beta) == got


def test_proj_with_no_section_is_broken():
    a, b = _hand_pair()
    ext = canonical_presentation(line_cocycle(a, b, 0, 0, 0))
    no_section = ExtensionPresentation(
        ext.E, ext.iota, ((GF2.zero, GF2.zero),), ext.A, ext.B
    )
    with pytest.raises(BrokenExtensionError):
        canonical_section(no_section)


def test_pull_back_outside_image_fails():
    a, b = _hand_pair()
    ext = canonical_presentation(line_cocycle(a, b, 0, 0, 0))
    with pytest.raises(BrokenExtensionError):
        ext.pull_back((GF2.zero, GF2.one))

import itertools
import json
import random
from pathlib import Path

import pytest

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
    zero_algebra,
)
from nabext import (
    ExtensionPresentation,
    NabCocycle,
    Section,
    all_gauge_params,
    apply_equivalence,
    build_extension,
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
from nabext import exact_sequences
from nabext.exact_sequences import BrokenExtensionError, block_presentation, is_section, resolved
from nabext.fields import GF2, GF3, QQ
from nabext.linalg import identity_matrix, mat_mul


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


def test_section_cocycle_inverts_theta_once(monkeypatch):
    # deterministic work count: E read through theta = (iota | s) takes one
    # solve per basis vector of E to invert theta, not one per basis pair
    a, b = zero_algebra(GF3, 2), trunc_poly2(GF3)
    c = NabCocycle.zero(a, b)
    ext = resolved(canonical_presentation(c))
    canonical = canonical_section(ext)
    s = list(enumerate_sections(ext))[-1]
    assert s != canonical
    calls = []
    real = exact_sequences.solve
    monkeypatch.setattr(exact_sequences, "solve", lambda *args: calls.append(args) or real(*args))
    extracted = exact_sequences.section_cocycle(ext, s)
    assert 0 < len(calls) <= ext.E.dim
    monkeypatch.undo()
    assert apply_equivalence(extracted, section_difference(s, canonical, ext)) == c


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


# ---------------------------------------------------------------------------
# diagnostics of broken and honest presentations, pinned
# ---------------------------------------------------------------------------

GOLDEN_DIAGNOSTICS = Path(__file__).parent / "golden" / "extension_diagnostics_F2_F3.json"

_DIAGNOSTIC_PAIRS = (
    (lambda f: line_algebra(f, "idem", "a"), lambda f: line_algebra(f, "zero", "b")),
    (trunc_poly2, lambda f: line_algebra(f, "idem", "b")),
    (lambda f: line_algebra(f, "zero", "a"), lambda f: zero_algebra(f, 2, "b")),
    (left_unit2, lambda f: line_algebra(f, "idem", "b")),
)


def _foreign(alg):
    """Another algebra of the same dimension: zero if ``alg`` is not."""
    if not alg.has_zero_product():
        return zero_algebra(alg.field, alg.dim, "x")
    return line_algebra(alg.field, "idem", "x") if alg.dim == 1 else trunc_poly2(alg.field)


def _rand_matrix(rng, field, rows, cols):
    return tuple(tuple(field.random(rng) for _ in range(cols)) for _ in range(rows))


def _presentation(rng, kind, mode, a, b):
    """One seeded presentation of a random twisted product of ``a`` and ``b``:
    ``block``, ``moved`` (read through a random invertible P, iota' = P^-1
    iota, proj' = proj P), ``bent`` (moved, one entry of iota' or proj'
    shifted), ``random`` (random iota and proj) or ``foreign`` (moved, with
    other end algebras); A and B are supplied as ``mode`` says."""
    f = a.field
    E, _ = build_extension(rand_cocycle(rng, a, b))
    ends = (_foreign(a), _foreign(b)) if kind == "foreign" else (a, b)
    block = block_presentation(E, a, b)
    iota, proj = block.iota, block.proj
    if kind == "random":
        iota, proj = _rand_matrix(rng, f, E.dim, a.dim), _rand_matrix(rng, f, b.dim, E.dim)
    elif kind != "block":
        p, p_inv = rand_invertible(rng, f, E.dim)
        E, iota, proj = read_through(E, p, p_inv), mat_mul(f, p_inv, iota), mat_mul(f, proj, p)
    if kind == "bent":
        which = rng.randrange(2)
        m = [list(row) for row in (iota, proj)[which]]
        r, c = rng.randrange(len(m)), rng.randrange(len(m[0]))
        m[r][c] = f.add(m[r][c], f.one)
        bent = tuple(tuple(row) for row in m)
        iota, proj = (bent, proj) if which == 0 else (iota, bent)
    return ExtensionPresentation(
        E, iota, proj, ends[0] if "A" in mode else None, ends[1] if "B" in mode else None
    )


def _diagnostic_cases():
    rng = random.Random(1802)
    for field in (GF2, GF3):
        for n, (build_a, build_b) in enumerate(_DIAGNOSTIC_PAIRS):
            a, b = build_a(field), build_b(field)
            for kind in ("block", "moved", "bent", "random", "foreign"):
                for mode in ("AB", "A", "B", ""):
                    ext = _presentation(rng, kind, mode, a, b)
                    junk = Section(_rand_matrix(rng, field, ext.E.dim, b.dim))
                    yield [str(field), n, kind, mode], ext, junk


def _outcome(fn, *args):
    """(result, None) or (None, [exception type, message])."""
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, [type(exc).__name__, str(exc)]


def _diagnose(ext, junk):
    """The failures of :func:`verify_extension`, in order, and what
    :func:`resolved`, :func:`canonical_section` and
    :func:`cocycle_from_section` (with the canonical section, or ``junk``
    when there is none, and with ``junk``) return or raise."""
    fmt = lambda values: [ext.E.field.format(v) for v in values]
    filled, filled_err = _outcome(resolved, ext)
    section, section_err = _outcome(canonical_section, ext)
    out = {
        "failures": verify_extension(ext).failures,
        "resolved": filled_err
        or [[list(alg.basis), fmt(alg.table)] for alg in (filled.A, filled.B)],
        "section": section_err or [fmt(row) for row in section.matrix],
    }
    for key, s in (("cocycle", section or junk), ("cocycle_junk", junk)):
        c, err = _outcome(cocycle_from_section, ext, s)
        out[key] = err or [fmt(m.coeffs) for m in (c.phi, c.psi, c.chi)]
    return out


def test_extension_diagnostics_match_golden():
    golden = json.loads(GOLDEN_DIAGNOSTICS.read_text())
    cases = list(_diagnostic_cases())
    assert [g["case"] for g in golden] == [case for case, _, _ in cases]
    for g, (case, ext, junk) in zip(golden, cases):
        assert {"case": case, **_diagnose(ext, junk)} == g, case
    # both honest and broken presentations, and every kind of outcome, occur
    assert 0 < sum(g["failures"] == [] for g in golden) < len(golden)
    assert 0 < sum(isinstance(g["cocycle"][0], str) for g in golden) < len(golden)

import functools
import itertools
import json
import math
import os
import random
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    left_unit2,
    line_algebra,
    rand_invertible,
    read_through,
    sweep_orbits,
    trunc_poly2,
    trunc_poly3,
    upper_triangular2,
    zero_algebra,
)
import nabext.algebra as algebra
import nabext.classify as classify
import nabext.exact_sequences as exact_sequences
import nabext.nonabelian as nonabelian
from nabext import (
    Algebra,
    BudgetExceededError,
    CandidateSpace,
    apply_equivalence,
    build_extension,
    CrossCheckError,
    MultilinearMap,
    census,
    check_cocycle,
    cocycle_to_mc,
    direct_sum_space,
    enumerate_cocycles,
    gauge_closed_form,
    is_mc,
    is_valid_cocycle,
    orbit_partition,
    ViolationKind,
)
from nabext.classify import enumerate_extensions, worker_count
from nabext.exact_sequences import block_presentation, canonical_section, cocycle_from_section
from nabext.cli import main
from nabext.io_json import dumps_canonical, report_to_json
from nabext.fields import GF2, GF3, PrimeField
from nabext.linalg import identity_matrix, mat_vec, vec_neg, vec_sub


def _space(a2="zero", b2="idem", **kw):
    return CandidateSpace(
        line_algebra(GF2, a2, "a"), line_algebra(GF2, b2, "b"), **kw
    )


def test_candidate_decoding_round_trip():
    space = _space()
    assert space.total_candidates == 8
    seen = set()
    for idx in space.exhaustive_indices():
        c = space.candidate(idx)
        assert space._index(c.phi.coeffs + c.psi.coeffs + c.chi.coeffs) == idx
        seen.add((c.phi.coeffs, c.psi.coeffs, c.chi.coeffs))
    assert len(seen) == 8


def test_enumerate_cocycles_matches_hand_derivation():
    # a^2 = 0, b^2 = b: valid iff chi * (phi + psi) = 0, six candidates
    space = _space()
    got = {
        (c.phi.coeffs[0], c.psi.coeffs[0], c.chi.coeffs[0])
        for _, c in enumerate_cocycles(space)
    }
    expected = {
        (f, g, x)
        for f, g, x in itertools.product((0, 1), repeat=3)
        if (x * (f + g)) % 2 == 0
    }
    assert got == expected
    assert (0, 0, 0) in got and (1, 1, 1) in got


def test_enumerate_cocycles_zero_square_variant():
    # a^2 = 0, b^2 = 0 forces phi = psi = 0 and leaves chi free
    space = _space("zero", "zero")
    got = {
        (c.phi.coeffs[0], c.psi.coeffs[0], c.chi.coeffs[0])
        for _, c in enumerate_cocycles(space)
    }
    assert got == {(0, 0, 0), (0, 0, 1)}


def test_every_enumerated_cocycle_is_maurer_cartan():
    for a2, b2 in itertools.product(("zero", "idem"), repeat=2):
        space = _space(a2, b2)
        base, split = direct_sum_space(space.A, space.B)
        for _, c in enumerate_cocycles(space):
            assert is_mc(cocycle_to_mc(c), base, split)


def test_extension_route_agrees_with_cocycle_route():
    # the solved cocycles are the candidates whose build_extension algebra
    # is associative, each swept one by one, and every hit passes the
    # numeric test
    for a2, b2 in itertools.product(("zero", "idem"), repeat=2):
        space = _space(a2, b2)
        cocycles = enumerate_cocycles(space)
        swept = _associative_hits(space, space.exhaustive_indices())
        assert enumerate_extensions(space, cocycles) == swept


def test_extension_enumeration_members():
    space = _space()
    exts = enumerate_extensions(space, enumerate_cocycles(space))
    assert all(e.is_associative() for _, e in exts)
    tables = {e.table for _, e in exts}
    built = {build_extension(c)[0].table for _, c in enumerate_cocycles(space)}
    assert tables == built
    # zero cocycle's direct sum is present
    total, _ = direct_sum_space(space.A, space.B)
    assert total.table in tables


def test_budget_enforcement():
    # each refusal names the way out
    space = _space(budget=4)
    message = "8 candidates exceed the budget of 4; raise --budget or use sampling (--sample)"
    with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
        space.exhaustive_indices()
    message = "the p^(ab) = 2^1 = 2 gauge parameters exceed the budget of 1; raise --budget"
    with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
        _space(budget=1).gauge_params()
    # a sample counts against the budget too
    assert len(space.sample_indices(4, seed=0)) == 4
    with pytest.raises(BudgetExceededError):
        space.sample_indices(5, seed=0)


def test_an_over_budget_cocycle_route_raises_before_compiling(monkeypatch):
    monkeypatch.setattr(classify, "cocycle_residuals", _refuse)
    space = _space(budget=4)
    with pytest.raises(BudgetExceededError):
        enumerate_cocycles(space)
    with pytest.raises(BudgetExceededError):
        census(space)
    assert "cocycle_stages" not in space.__dict__ and "_symbolic_associators" not in space.__dict__


def test_sampling_is_deterministic_and_in_range():
    a = zero_algebra(GF2, 2)
    b = trunc_poly2(GF2)
    space = CandidateSpace(a, b)
    s1 = space.sample_indices(100, seed=5)
    s2 = space.sample_indices(100, seed=5)
    assert s1 == s2
    assert len(set(s1)) == 100
    assert all(0 <= i < space.total_candidates for i in s1)
    assert space.sample_indices(100, seed=6) != s1


class _CountedPool(ProcessPoolExecutor):
    started = 0

    def __init__(self, *args, **kwargs):
        type(self).started += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs, whatever the host has, and a count of the pools started.
    The pool class is patched in :mod:`concurrent.futures`, where the import
    inside ``_scan`` reads it when a pool starts."""
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _CountedPool)
    monkeypatch.setattr(_CountedPool, "started", 0)
    return _CountedPool


@pytest.mark.parametrize("jobs", [1, 2])
def test_scans_return_the_decoded_hits(two_cpus, jobs):
    # A = zero(2) satisfies phi(b, a1 a2) = phi(b, a1) a2 for every phi, so
    # the solver hands out all 3^4 = 81 phi: at least 64 tasks, so with two
    # jobs the scan splits over a 2-worker pool.  The numeric test of the
    # hits runs in the parent
    space = CandidateSpace(zero_algebra(GF3, 2), line_algebra(GF3, "idem", "b"))
    assert space.entry_counts[0] == 4 and space.total_candidates == 3 ** 10
    cocycles = enumerate_cocycles(space, jobs=jobs)
    extensions = enumerate_extensions(space, cocycles)
    assert two_cpus.started == (1 if jobs == 2 else 0)
    assert cocycles and [i for i, _ in cocycles] == [i for i, _ in extensions]
    for i, c in cocycles:
        assert c == space.candidate(i)
    for i, ext in extensions:
        assert ext == build_extension(space.candidate(i))[0]


def test_census_hands_out_phi_points_to_one_pool(two_cpus, monkeypatch):
    # A = zero(2) leaves the phi stage without a row, so the census hands
    # out all 3^4 = 81 phi points to one scan: with two jobs a 2-worker pool
    # takes them, and the hits are those of the row test of every index
    space = CandidateSpace(zero_algebra(GF3, 2), line_algebra(GF3, "idem", "b"))
    swept = tuple(i for i, _ in enumerate_cocycles(space, space.exhaustive_indices()))
    handed = []
    scan = classify._scan

    def counted(sp, stages, tasks, worker, jobs):
        tasks = list(tasks)
        handed.append((worker.__name__, len(tasks)))
        return scan(sp, stages, tasks, worker, jobs)

    monkeypatch.setattr(classify, "_scan", counted)
    report = census(CandidateSpace(space.A, space.B), jobs=2)
    assert handed == [("_fibre_chunk", 81)] and two_cpus.started == 1
    assert report.cocycle_indices == swept and len(swept) == 284


def _diag2(field):
    return Algebra.from_products(field, ["e1", "e2"], {(0, 0): {0: 1}, (1, 1): {1: 1}})


# (1,1), (2,1), (1,2) and (1,1) over F3; the (2,1) and (1,2) spaces hand
# out at least 64 indices, so with two jobs their scan starts a pool
_SCATTER_SPACES = {
    "F2-idem-zero": (line_algebra(GF2, "idem", "a"), line_algebra(GF2, "zero", "b")),
    "F2-unit2-idem1": (trunc_poly2(GF2), line_algebra(GF2, "idem", "b")),
    "F2-zero1-diag2": (line_algebra(GF2, "zero", "a"), _diag2(GF2)),
    "F3-zero-idem": (line_algebra(GF3, "zero", "a"), line_algebra(GF3, "idem", "b")),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(_SCATTER_SPACES))
def test_scattered_tables_are_build_extension_tables(two_cpus, name, jobs):
    # every index, tested one by one on the rows: the row test keeps
    # exactly the associative twisted products, and each hit's scattered
    # table is build_extension's algebra
    space = CandidateSpace(*_SCATTER_SPACES[name])
    built = {i: build_extension(space.candidate(i))[0] for i in space.exhaustive_indices()}
    hits = enumerate_extensions(space, enumerate_cocycles(space, space.exhaustive_indices(), jobs=jobs))
    assert two_cpus.started == (1 if jobs == 2 and space.total_candidates >= 64 else 0)
    for i, ext in hits:
        assert ext == built[i]
    assert [i for i, _ in hits] == [i for i, ext in built.items() if ext.is_associative()]
    assert hits and len(hits) < len(built)


def test_a_swapped_layout_trips_the_census():
    # two digits written into each other's slots: the oracle no longer
    # builds build_extension's tables, and the census cross-checks notice
    space = CandidateSpace(trunc_poly2(GF2), line_algebra(GF2, "idem", "b"))
    zero, slots = space.extension_layout
    swapped = (slots[-1],) + slots[1:-1] + (slots[0],)
    object.__setattr__(space, "extension_layout", (zero, swapped))
    with pytest.raises(CrossCheckError):
        census(space)


def test_a_swapped_layout_fails_the_layout_identity():
    # the same fault, seen by the identity itself: the symbolic twisted
    # product's table is no longer the layout's, first at the lower of the
    # two swapped slots
    space = CandidateSpace(trunc_poly2(GF2), line_algebra(GF2, "idem", "b"))
    space.check_identities()
    zero, slots = space.extension_layout
    swapped = (slots[-1],) + slots[1:-1] + (slots[0],)
    object.__setattr__(space, "extension_layout", (zero, swapped))
    first = min(slots[0], slots[-1])
    with pytest.raises(CrossCheckError, match=rf"^layout identity: .* at slot {first} of the table$"):
        space.check_identities()


def test_a_stage_that_drops_a_triple_trips_the_census(monkeypatch, capsys):
    # a^2 = 0, b^2 = b: the BBB associator is chi (psi - phi) a, so it is
    # the only triple that rejects candidates 5 (phi 1, psi 0, chi 1) and 6
    # (phi 0, psi 1, chi 1).  Symbolic associators without it no longer
    # hold the EQ5 row chi (phi + psi), and the route identity names that
    # row before the scan, on an exhaustive run and on a sample, and
    # nabext census exits 3
    space = _space()
    assert classify._terms(space._symbolic_associators[(1, 1, 1)][0]) == {(0, 2): 1, (1, 2): 1}
    for i in (5, 6):
        assert build_extension(space.candidate(i))[0].associativity_witness() == (1, 1, 1)

    def dropped(space, associators):
        return {t: v for t, v in associators.items() if t != (1, 1, 1)}

    _edit_cached(monkeypatch, "_symbolic_associators", dropped)
    message = (
        "route identity: residual eq5_chi_cocycle at (0, 0, 0), component 0, of the cocycle"
        " route's chi stage is no associator of the twisted product, up to sign"
    )
    _trips_before_the_scan(monkeypatch, capsys, message, _space(), None, ["--field", "F2"])
    argv = ["--field", "F2", "--sample", "4", "--seed", "1"]
    _trips_before_the_scan(monkeypatch, capsys, message, _space(), [5, 6], argv)


def _signed_rows(space):
    """The nonzero cocycle-stage rows and the nonzero symbolic associators
    of ``space``, each a set of sorted ``(monomial, coefficient)`` terms,
    signs kept."""
    p = space.p
    associators = set()
    for disc in space._symbolic_associators.values():
        associators |= {tuple(sorted(classify._terms(v).items())) for v in disc if v != 0}
    rows = set()
    for stage in space.cocycle_stages:
        for row in stage.rows:
            poly = {}
            for k, l, c in row:
                m = tuple(v for v in (k, l) if v >= 0)
                poly[m] = (poly.get(m, 0) + c) % p
            rows.add(tuple(sorted((m, c) for m, c in poly.items() if c)))
    return rows, associators


def test_the_route_identity_holds_on_every_small_pair():
    # every pair of the helper algebras with dim A + dim B <= 5, over F2, F3
    # and F5: the cocycle rows are the twisted product's associators, up to
    # sign.  Over F3 the sign matters: on the zero/idem lines a row is the
    # negative of an associator and not the associator itself
    builders = (
        lambda f: line_algebra(f, "zero"),
        lambda f: line_algebra(f, "idem"),
        trunc_poly2,
        trunc_poly3,
        lambda f: zero_algebra(f, 2),
        left_unit2,
        upper_triangular2,
    )
    checked = 0
    for field in (GF2, GF3, _GF5):
        for make_a, make_b in itertools.product(builders, repeat=2):
            a, b = make_a(field), make_b(field)
            if a.dim + b.dim <= 5:
                CandidateSpace(a, b).check_route_identity()
                checked += 1
    assert checked == 135
    rows, associators = _signed_rows(CandidateSpace(line_algebra(GF3, "zero", "a"), line_algebra(GF3, "idem", "b")))
    assert len(rows) == len(associators) == 3 and len(rows - associators) == 1


@pytest.mark.parametrize(
    "triple,message",
    [
        (
            (0, 1, 2),
            "route identity: the associator at basis triple (0, 1, 2), component 0,"
            " is no row of the cocycle route, up to sign",
        ),
        (
            (1, 1, 1),
            "route identity: residual eq5_chi_cocycle at (0, 0, 0), component 0, of the cocycle"
            " route's chi stage is no associator of the twisted product, up to sign",
        ),
    ],
    ids=["associator", "row"],
)
def test_the_route_identity_holds_up_to_sign_not_up_to_a_scalar(monkeypatch, triple, message):
    # F5, A the zero line, B = k[t]/t^2: one symbolic associator doubled is
    # a scalar multiple of a row but neither the row nor its negative, so
    # the route identity names the first row or associator left unmatched.
    # The (0, 1, 2) associator equals the (0, 2, 1) one, so its row is still
    # matched; the (1, 1, 1) associator is the only one of its row
    space = CandidateSpace(line_algebra(_GF5, "zero", "a"), trunc_poly2(_GF5))
    space.check_route_identity()
    original = space._symbolic_associators[triple][0]

    def doubled(space, associators):
        return {t: (2 * v[0],) + v[1:] if t == triple else v for t, v in associators.items()}

    _edit_cached(monkeypatch, "_symbolic_associators", doubled)
    edited = CandidateSpace(space.A, space.B)
    assert 3 * edited._symbolic_associators[triple][0] == original != edited._symbolic_associators[triple][0]
    with pytest.raises(CrossCheckError, match=f"^{re.escape(message)}$"):
        edited.check_route_identity()


@st.composite
def _nonzero_polys(draw):
    """A nonzero canonical polynomial of degree at most 2 in three
    variables over F5 or F7, and p."""
    p = draw(st.sampled_from([5, 7]))
    monomials = [(), (0,), (1,), (2,), (0, 0), (0, 1), (1, 2), (2, 2)]
    terms = draw(st.dictionaries(st.sampled_from(monomials), st.integers(1, p - 1), min_size=1))
    return classify._canonical(terms, p), p


@settings(deadline=None, max_examples=200)
@given(_nonzero_polys())
def test_a_route_identity_key_is_a_polynomial_up_to_sign(case):
    # P and -P share a key, which is the terms of one of them; 2P, neither
    # P nor -P over F5 and F7, has another
    P, p = case

    def key(value):
        return classify._signed_key(classify._terms(value % p).items(), p)

    assert key(P) == key(-P) != key(2 * P)
    assert key(P) in {frozenset(classify._terms(v % p).items()) for v in (P, -P)}


def _patched(monkeypatch, edit):
    """``classify.build_extension`` with slot 0 of each table replaced by
    ``edit(cocycle, held)``."""
    def built(c):
        ext, split = build_extension(c)
        table = list(ext.table)
        table[0] = edit(c, table[0])
        return Algebra(ext.field, ext.dim, ext.basis, tuple(table)), split

    monkeypatch.setattr(classify, "build_extension", built)


# on a^2 = 0, b^2 = b this EQ1 row is phi0^2 - phi0, quadratic in phi alone,
# so the psi stage takes it
_EQ1_UNMATCHED = (
    "route identity: residual eq1_left_twist at (0, 0, 0), component 0, of the cocycle route's"
    " psi stage is no associator of the twisted product, up to sign"
)


def test_a_twist_written_twice_trips_the_census(monkeypatch):
    # a twisted product in which the chi digit also lands in the AA slot 0:
    # its associators are no longer the cocycle rows, and the route
    # identity names the first row it lacks
    space = _space()
    _patched(monkeypatch, lambda c, held: held + c.chi.coeffs[0])
    with pytest.raises(CrossCheckError, match=f"^{re.escape(_EQ1_UNMATCHED)}$"):
        census(space)


def test_a_product_of_two_digits_in_a_slot_trips_the_census(monkeypatch):
    # a twisted product whose slot 0 gains phi * chi is not affine in the
    # digits: an associator of the symbolic table has degree above 2, the
    # first one read, at the AAA triple (0, 0, 0), degree 4
    space = _space()
    _patched(monkeypatch, lambda c, held: held + c.phi.coeffs[0] * c.chi.coeffs[0])
    with pytest.raises(CrossCheckError, match=r"variables \(0, 0, 2, 2\) has degree 4"):
        census(space)


def test_a_constant_slot_that_differs_trips_the_census(monkeypatch):
    # a twisted product whose digit-free slot 0 holds 1 once chi is not the
    # number 0 (the symbolic chi is a variable, not 0): the symbolic table
    # is another than the numeric one, and its associators are no longer
    # the cocycle rows
    space = _space()
    _patched(monkeypatch, lambda c, held: held if c.chi.coeffs[0] == 0 else 1 - held)
    with pytest.raises(CrossCheckError, match=f"^{re.escape(_EQ1_UNMATCHED)}$"):
        census(space)


def test_twist_slots_are_the_a_valued_cross_slots():
    # over every helper pair with dim A + dim B <= 5: one distinct slot per
    # coefficient, each an A-valued BA, AB or BB slot that the direct sum
    # leaves 0
    builders = (
        lambda f: line_algebra(f, "zero"),
        lambda f: line_algebra(f, "idem"),
        trunc_poly2,
        lambda f: zero_algebra(f, 2),
        left_unit2,
        upper_triangular2,
    )
    for make_a, make_b in itertools.product(builders, repeat=2):
        a, b = make_a(GF2), make_b(GF2)
        if a.dim + b.dim > 5:
            continue
        base, split = direct_sum_space(a, b)
        block = lambda i: "A" if i in split.a_indices else "B"
        slots = nonabelian.twist_slots(split)
        assert len(set(slots)) == len(slots) == CandidateSpace(a, b).total_entries
        for slot in slots:
            pair, k = divmod(slot, split.dim)
            i, j = divmod(pair, split.dim)
            assert block(i) + block(j) in ("BA", "AB", "BB")
            assert block(k) == "A"
            assert base.table[slot] == 0


def test_census_work_guard(monkeypatch):
    # deterministic work counts instead of a timing: the census builds
    # twisted products in classify only twice, whatever the number of
    # cocycles, once on the zero candidate for the layout and once on the
    # symbolic one for the extension stages and the identities, and the
    # cocycle equations never apply a map to a vector
    space = CandidateSpace(trunc_poly2(GF2), line_algebra(GF2, "idem", "b"))
    assert space.total_candidates == 1024
    built = []
    monkeypatch.setattr(
        classify, "build_extension", lambda c: built.append(c) or build_extension(c)
    )
    applied_from = []
    real_apply = MultilinearMap.apply

    def apply(self, vectors):
        applied_from.append(sys._getframe(1).f_code.co_name)
        return real_apply(self, vectors)

    monkeypatch.setattr(MultilinearMap, "apply", apply)
    report = census(space)
    assert report.num_cocycles == 4 and len(built) == 2
    assert "cocycle_residuals" not in applied_from


def test_solver_evaluates_fewer_twist_residuals_than_pairs(monkeypatch):
    # deterministic work count: an exhaustive run reads the residual
    # generator exactly once, symbolically, and every stage system off that
    # one pass; a pair sweep would visit each of the (phi, psi) pairs
    space = CandidateSpace(trunc_poly2(GF2), line_algebra(GF2, "idem", "b"))
    assert space.p ** (space.entry_counts[0] + space.entry_counts[1]) == 256
    calls = {"cocycle_residuals": 0}

    def counted(name):
        real = getattr(nonabelian, name)

        def generator(*args):
            calls[name] += 1
            return real(*args)

        return generator

    # the solver calls the generator directly, the defect filters through
    # its own module
    for name in calls:
        monkeypatch.setattr(classify, name, counted(name))
        monkeypatch.setattr(nonabelian, name, counted(name))
    hits = enumerate_cocycles(space)
    assert calls == {"cocycle_residuals": 1}
    assert [i for i, _ in hits] == [i for i, _ in _associative_hits(space, space.exhaustive_indices())]
    assert len({c.phi.coeffs for _, c in hits}) > 1


def test_oracle_evaluates_numeric_associators_only_to_check_its_hits(monkeypatch):
    # deterministic work count: the route identity reads the associators
    # off one symbolic pass, so the only associators the census evaluates
    # on numbers are the full checks of its hits, at most dim^3 per hit
    space = CandidateSpace(trunc_poly2(GF2), line_algebra(GF2, "idem", "b"))
    space.check_route_identity()
    numeric = []
    real = algebra.basis_associators

    def counted(field, dim, table):
        for triple, value in real(field, dim, table):
            numeric.append(triple)
            yield triple, value

    monkeypatch.setattr(classify, "basis_associators", counted)
    monkeypatch.setattr(algebra, "basis_associators", counted)
    hits = enumerate_extensions(space, enumerate_cocycles(space))
    dim = space.A.dim + space.B.dim
    assert hits and 0 < len(numeric) <= dim ** 3 * len(hits)


def _evaluated(value, digits, p):
    """A symbolic scalar of the stage pass at ``digits``."""
    return sum(c * math.prod(digits[k] for k in m) for m, c in classify._terms(value).items()) % p


def _stack(residuals):
    return tuple(v for _, _, disc, _ in residuals for v in disc)


def _bounds(space):
    n_phi, n_psi, _ = space.entry_counts
    return ((0, n_phi), (n_phi, n_phi + n_psi), (n_phi + n_psi, space.total_entries))


def _scattered(space, digits):
    """The extension layout's table with ``digits`` in their slots."""
    zero, slots = space.extension_layout
    table = list(zero.table)
    for slot, digit in zip(slots, digits):
        table[slot] = digit
    return table


def _associators(space, table, triples):
    zero = space.extension_layout[0]
    associators = dict(algebra.basis_associators(zero.field, zero.dim, table))
    return tuple(v for t in triples for v in associators[t])


def _residual_values(space, digits):
    """What the probes of the stages read: every residual of the cocycle
    route, :func:`cocycle_residuals`, at the digits ``digits``."""
    return _stack(nonabelian.cocycle_residuals(space._decode(digits)))


_GF5 = PrimeField(5)
# dims 1 and 2, commutative and not
_STAGE_BUILDERS = (
    lambda f: line_algebra(f, "zero"),
    lambda f: line_algebra(f, "idem"),
    trunc_poly2,
    lambda f: zero_algebra(f, 2),
    left_unit2,
)


@st.composite
def _spaces_and_digits(draw):
    """A space over F2, F3 or F5 whose ends are helper algebras of dims 1-2
    read through a random change of basis, and random index digits."""
    field = draw(st.sampled_from([GF2, GF3, _GF5]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    ends = []
    for _ in range(2):
        alg = draw(st.sampled_from(_STAGE_BUILDERS))(field)
        ends.append(read_through(alg, *rand_invertible(rng, field, alg.dim)))
    space = CandidateSpace(*ends)
    return space, tuple(field.random(rng) for _ in range(space.total_entries))


@settings(deadline=None, max_examples=60)
@given(_spaces_and_digits())
def test_symbolic_equations_evaluate_to_the_numeric_ones(case):
    # the residual generator and the associator kernel over symbolic
    # digits, evaluated at random digits, give what they give on the numbers
    space, digits = case
    symbolic = classify._symbolic_digits(space.total_entries, space.p)
    evaluated = lambda values: tuple(_evaluated(v, digits, space.p) for v in values)
    assert evaluated(_residual_values(space, symbolic)) == _residual_values(space, digits)
    triples = list(itertools.product(range(space.A.dim + space.B.dim), repeat=3))
    assert evaluated(_associators(space, _scattered(space, symbolic), triples)) == _associators(
        space, _scattered(space, digits), triples
    )


@settings(deadline=None, max_examples=60)
@given(_spaces_and_digits())
def test_stage_systems_are_the_probes_of_their_generators(case):
    # each stage at random earlier and later digits: r0 is the residuals
    # with the unknowns at zero, and column j is the residuals at the j-th
    # unit vector minus r0, on the stage's rows, so a stage row reads no
    # later digit; a row that no stage holds is zero, and a system that
    # holds none keeps one zero row
    space, digits = case
    field = space.A.field
    held = {q for system in space.cocycle_stages for q in system.touched}
    for (lo, hi), system in zip(_bounds(space), space.cocycle_stages):
        fixed, later = digits[:lo], digits[hi:]
        rows = system.at(fixed)
        if not system.touched:
            assert rows == [(0,) * (hi - lo + 1)]
            rows = []
        r0 = _residual_values(space, fixed + (0,) * (hi - lo) + later)
        assert all(v == 0 for q, v in enumerate(r0) if q not in held)
        assert vec_neg(field, tuple(row[-1] for row in rows)) == tuple(r0[q] for q in system.touched)
        for j, unit in enumerate(identity_matrix(field, hi - lo)):
            column = vec_sub(field, _residual_values(space, fixed + unit + later), r0)
            assert tuple(row[j] for row in rows) == tuple(column[q] for q in system.touched)


@settings(deadline=None, max_examples=30)
@given(_spaces_and_digits(), st.randoms(use_true_random=False))
def test_both_specialisations_of_a_read_agree(case, rng):
    # the dense rows [M | -r0] of a stage at its earlier digits send the
    # unknowns x to r0 + M x; the row test at the full digit vector, the
    # constant 1 appended, is false where that image is nonzero, and true
    # at a solution of the stage
    space, digits = case
    field = space.A.field
    for (lo, hi), stage in zip(_bounds(space), space.cocycle_stages):
        rows = stage.at(digits[:lo])

        def image(x):
            linear = mat_vec(field, tuple(row[:-1] for row in rows), x)
            return tuple(field.sub(v, row[-1]) for v, row in zip(linear, rows, strict=True))

        x = tuple(field.random(rng) for _ in range(hi - lo))
        assert stage.vanishes_at(digits[:lo] + x + digits[hi:] + (1,)) == (not any(image(x)))
        for y in itertools.islice(stage.solutions(digits[:lo]), 1):
            assert not any(image(y)) and stage.vanishes_at(digits[:lo] + y + digits[hi:] + (1,))


def test_a_stage_term_of_degree_two_in_its_unknowns_is_refused(monkeypatch, capsys):
    # a residual generator with an added chi * chi term is no longer
    # affine in chi: the chi stage refuses it, naming the residual and the
    # monomial, and the CLI exits 3
    real = nonabelian.cocycle_residuals

    def squared(c):
        f = c.A.field
        for kind, witness, disc, detail in real(c):
            if kind is ViolationKind.EQ5_CHI_COCYCLE and witness == (0, 0, 0):
                disc = (f.add(disc[0], f.mul(c.chi.coeffs[0], c.chi.coeffs[0])),) + disc[1:]
            yield kind, witness, disc, detail

    monkeypatch.setattr(classify, "cocycle_residuals", squared)
    message = (
        r"cocycle route, chi stage: residual eq5_chi_cocycle at \(0, 0, 0\), component 0,"
        r" has the term chi\[0\]\*chi\[0\] of degree 2"
    )
    with pytest.raises(CrossCheckError, match=message):
        census(_space())
    assert main(["census", "--field", "F2", "--a2", "zero", "--b2", "idem"]) == 3
    err = capsys.readouterr().err
    assert "chi stage" in err and "chi[0]*chi[0]" in err and "Traceback" not in err


def _squared_in(real, stage, kind):
    """The residual generator ``real`` with the square of the first digit of
    ``stage`` (0 for phi, 1 for psi, 2 for chi) added to the last component
    of its first residual of kind ``kind``."""

    def planted(c):
        f, x = c.A.field, (c.phi, c.psi, c.chi)[stage].coeffs[0]
        done = False
        for found, witness, disc, detail in real(c):
            if found is kind and not done:
                disc, done = disc[:-1] + (f.add(disc[-1], f.mul(x, x)),), True
            yield found, witness, disc, detail

    return planted


@pytest.mark.parametrize("route,stage", [("cocycle", "chi")])
def test_a_refused_term_names_its_row(monkeypatch, route, stage):
    # the row label of a refusal, byte for byte: a chi square planted in the
    # first EQ1 residual on F2 zero(2)/idem line, whose residuals have two
    # components.  A phi or psi square only moves its row one stage later;
    # in chi no stage is left
    space = CandidateSpace(zero_algebra(GF2, 2), line_algebra(GF2, "idem", "b"))
    planted = _squared_in(
        nonabelian.cocycle_residuals, classify._STAGES.index(stage), ViolationKind.EQ1_LEFT_TWIST
    )
    monkeypatch.setattr(classify, "cocycle_residuals", planted)
    message = (
        f"{route} route, {stage} stage: residual eq1_left_twist at (0, 0, 0),"
        f" component 1, has the term {stage}[0]*{stage}[0] of degree 2 in the unknowns"
    )
    with pytest.raises(CrossCheckError) as refused:
        census(space)
    assert str(refused.value) == message


def test_the_grouping_of_a_stage_refuses_a_term_of_degree_two_in_its_unknowns():
    # the stage read keeps such a term out of every stage; rows made with
    # one are refused when a solve first groups them, naming the row
    stage = classify._Affine(GF3, 1, 3, (4, 7), (((-1, 0, 2), (-1, 1, 1)), ((0, 1, 1), (1, 2, 2))))
    with pytest.raises(CrossCheckError) as refused:
        stage.by_param
    assert str(refused.value) == "affine rows: row 7 has the term x1*x2 of degree 2 in x1 to x2"


def _refuse(*args):
    raise AssertionError("a worker evaluated the equations again")


def test_pool_census_reads_the_stage_systems_of_the_parent(two_cpus, monkeypatch):
    # F3 zero(2)/idem line: the census hands 81 phi points to a 2-worker
    # pool.  The workers get the stage systems with the pickled space: one
    # that read an equation or the layout again would fail
    def space():
        return CandidateSpace(zero_algebra(GF3, 2), line_algebra(GF3, "idem", "b"))

    serial = dumps_canonical(report_to_json(census(space(), jobs=1), GF3))
    assert two_cpus.started == 0
    scan = classify._scan

    def scan_without_equations(sp, stages, tasks, worker, jobs):
        with monkeypatch.context() as m:
            for name in ("cocycle_residuals", "basis_associators", "build_extension"):
                m.setattr(classify, name, _refuse)
            return scan(sp, stages, tasks, worker, jobs)

    monkeypatch.setattr(classify, "_scan", scan_without_equations)
    pooled = dumps_canonical(report_to_json(census(space(), jobs=2), GF3))
    assert two_cpus.started == 1
    assert pooled == serial


# each has pairs that pass and pairs that fail the curvature-free equations
_ORACLE_SPACES = {
    "F2-idem-zero": (line_algebra(GF2, "idem", "a"), line_algebra(GF2, "zero", "b")),
    "F2-idem-idem": (line_algebra(GF2, "idem", "a"), line_algebra(GF2, "idem", "b")),
    "F3-idem-idem": (line_algebra(GF3, "idem", "a"), line_algebra(GF3, "idem", "b")),
    "F3-idem-zero": (line_algebra(GF3, "idem", "a"), line_algebra(GF3, "zero", "b")),
    "F2-idem-k[t]/t2": (line_algebra(GF2, "idem", "a"), trunc_poly2(GF2)),
    "F2-k[t]/t2-idem": (trunc_poly2(GF2), line_algebra(GF2, "idem", "b")),
}


def _hand_picked(space):
    """Sorted indices in which several chi share a pair: the zero pair, the
    first pairs that fail the curvature-free equations (EQ3/EQ4) and the
    first nonzero pairs that pass them, each with three of its chi."""
    twist_kinds = {ViolationKind.EQ3_COMMUTE, ViolationKind.EQ4_DERIVATION}

    def fails_twists(pair):
        return any(v.which in twist_kinds for v in check_cocycle(space.candidate(pair)))

    # the (phi, psi) pairs are the low base-p digits of an index
    pair_count = space.p ** (space.entry_counts[0] + space.entry_counts[1])
    pairs = range(1, pair_count)
    failing = [pair for pair in pairs if fails_twists(pair)][:2]
    passing = [pair for pair in pairs if not fails_twists(pair)][:2]
    assert failing and passing
    chi_count = space.total_candidates // pair_count
    chis = sorted({0, chi_count // 2, chi_count - 1})
    return sorted(pair + pair_count * chi for pair in [0] + failing + passing for chi in chis)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(_ORACLE_SPACES))
def test_staged_scan_matches_both_unstaged_oracles(two_cpus, name, jobs):
    # the staged cocycle scan against associativity of the twisted product
    # and against the full equation check, candidate by candidate
    space = CandidateSpace(*_ORACLE_SPACES[name])
    every = list(space.exhaustive_indices())
    solved = [i for i, _ in enumerate_cocycles(space, jobs=jobs)]
    for idx in (every, _hand_picked(space)):
        got = [i for i, _ in enumerate_cocycles(space, idx, jobs=jobs)]
        assert got == [i for i in idx if build_extension(space.candidate(i))[0].is_associative()]
        assert got == [i for i in idx if check_cocycle(space.candidate(i)) == []]
    assert solved == [i for i in every if check_cocycle(space.candidate(i)) == []]


@functools.lru_cache(maxsize=None)
def _associative_algebras(field, dim):
    """Every associative structure-constant table of dimension ``dim``."""
    algebras = []
    for table in itertools.product(list(field.elements()), repeat=dim ** 3):
        alg = Algebra(field, dim, tuple(f"e{i}" for i in range(dim)), table)
        if alg.is_associative():
            algebras.append(alg)
    return tuple(algebras)


# (field, dim A, dim B) with at most 6,561 candidates, so that the oracle
# sweeps every one; F3 (2,1) and every (2,2) space are larger
_SOLVER_SHAPES = ((GF2, 1, 1), (GF3, 1, 1), (GF2, 2, 1), (GF2, 1, 2), (GF3, 1, 2))


@st.composite
def _small_spaces(draw):
    field, a, b = draw(st.sampled_from(_SOLVER_SHAPES))
    A = draw(st.sampled_from(_associative_algebras(field, a)))
    B = draw(st.sampled_from(_associative_algebras(field, b)))
    return CandidateSpace(A, B)


@settings(deadline=None, max_examples=60)
@given(_small_spaces())
def test_solver_matches_the_extension_sweep(space):
    # the solved cocycles are the row test's hits among every index, and
    # the route identity makes those rows the associators of the twisted
    # product; each solved cocycle is the decoded candidate of its index,
    # and each hit's scattered table is build_extension's algebra
    cocycles = enumerate_cocycles(space)
    assert cocycles == enumerate_cocycles(space, space.exhaustive_indices())
    space.check_route_identity()
    assert all(c == space.candidate(i) for i, c in cocycles)
    assert all(ext == build_extension(space.candidate(i))[0] for i, ext in enumerate_extensions(space, cocycles))


def test_staged_scan_rejects_out_of_range_indices():
    # the low digits of total_candidates are those of the zero cocycle, so
    # a sampled scan that read them without a range check would keep a hit
    space = _space()
    for bad in (-1, space.total_candidates):
        for indices in ([0, bad], [bad]):
            for route in (enumerate_cocycles, lambda sp, idx: census(sp, indices=idx)):
                with pytest.raises(IndexError, match=f"^candidate index {bad} out of range$"):
                    route(space, indices)


def test_an_out_of_range_index_raises_before_anything_compiles(monkeypatch):
    # the range check of a sample comes before the route identity on a
    # census, and before the stages are read on an enumeration, so neither
    # compiles the space; an iterator of indices is read once
    monkeypatch.setattr(CandidateSpace, "check_route_identity", _refuse)
    monkeypatch.setattr(classify, "cocycle_residuals", _refuse)
    space = _space()
    for bad in (-1, space.total_candidates):
        for indices in ([0, bad], [bad]):
            for route in (enumerate_cocycles, lambda sp, idx: census(sp, indices=idx)):
                with pytest.raises(IndexError, match=f"^candidate index {bad} out of range$"):
                    route(space, iter(indices))
    assert "cocycle_stages" not in space.__dict__ and "_symbolic_associators" not in space.__dict__


def test_census_mismatch_reports_the_unstaged_verdict(monkeypatch):
    # a solver worker that keeps a candidate whose twisted product is not
    # associative trips the numeric test of the hits, and the message says
    # that the unstaged equations reject it: the solver is at fault
    space = _space()
    extra = 5
    assert extra not in census(_space()).cocycle_indices
    solve_fibres = classify._fibre_chunk

    def adding(sp, stages, phis):
        return solve_fibres(sp, stages, phis) + [(extra, sp._digits(extra))]

    monkeypatch.setattr(classify, "_fibre_chunk", adding)
    message = (
        rf"^numeric hit test: cocycle {extra} is not associative at basis triple \(1, 1, 1\);"
        r" the unstaged equations reject it$"
    )
    with pytest.raises(CrossCheckError, match=message):
        census(space)


def test_orbit_partition_matches_hand_derivation():
    # a^2 = 0, b^2 = b: chi shifts by (phi + psi + 1) t, so {000, 001} and
    # {110, 111} merge and the two mixed-twist cocycles sit alone
    space = _space()
    cocycles = enumerate_cocycles(space)
    orbits = orbit_partition(space, cocycles)
    as_triples = []
    for orbit in orbits:
        members = {
            (c.phi.coeffs[0], c.psi.coeffs[0], c.chi.coeffs[0])
            for i, c in cocycles
            if i in orbit.members
        }
        as_triples.append(members)
    assert {frozenset(m) for m in as_triples} == {
        frozenset({(0, 0, 0), (0, 0, 1)}),
        frozenset({(1, 1, 0), (1, 1, 1)}),
        frozenset({(1, 0, 0)}),
        frozenset({(0, 1, 0)}),
    }


def test_orbit_witness_chains_replay():
    space = _space()
    cocycles = enumerate_cocycles(space)
    by_index = dict(cocycles)
    orbits = orbit_partition(space, cocycles)
    for orbit in orbits:
        rep = by_index[orbit.representative]
        for member, chain in orbit.witnesses:
            assert len(chain) == (0 if member == orbit.representative else 1)
            current = rep
            for beta in chain:
                current = apply_equivalence(current, beta)
            assert current == by_index[member]
        assert orbit.representative == min(orbit.members)


def test_orbit_relation_is_reflexive_and_symmetric():
    space = _space()
    cocycles = enumerate_cocycles(space)
    base, split = direct_sum_space(space.A, space.B)
    betas = space.gauge_params()
    for _, c in cocycles:
        # reflexive: the zero parameter
        assert apply_equivalence(c, betas[0]) == c or any(
            apply_equivalence(c, b) == c for b in betas
        )
    # symmetric: reverse witnesses exist by search
    for _, c in cocycles:
        for beta in betas:
            image = apply_equivalence(c, beta)
            assert any(apply_equivalence(image, b2) == c for b2 in betas)


def test_census_one_one_full_report():
    report = census(_space())
    assert report.num_candidates == 8
    assert report.num_cocycles == 6
    assert len(report.orbits) == 4


@pytest.mark.parametrize(
    "a2,b2,expected_cocycles,expected_classes",
    [
        ("zero", "idem", 6, 4),
        ("zero", "zero", 2, 2),
        ("idem", "idem", 2, 1),
        ("idem", "zero", 2, 1),
    ],
)
def test_census_all_line_variants(a2, b2, expected_cocycles, expected_classes):
    report = census(_space(a2, b2))
    assert report.num_cocycles == expected_cocycles
    assert len(report.orbits) == expected_classes


def test_census_is_deterministic_and_job_independent():
    space = CandidateSpace(zero_algebra(GF2, 2), line_algebra(GF2, "idem", "b"))
    r1 = census(space, jobs=1)
    r2 = census(space, jobs=2)
    assert r1.cocycle_indices == r2.cocycle_indices
    assert [o.representative for o in r1.orbits] == [o.representative for o in r2.orbits]
    assert [o.members for o in r1.orbits] == [o.members for o in r2.orbits]


def test_census_two_one_dimensional_kernel():
    space = CandidateSpace(zero_algebra(GF2, 2), line_algebra(GF2, "idem", "b"))
    report = census(space)
    assert report.num_candidates == 1024
    assert report.num_cocycles == 88


def test_partition_stability_under_candidate_shuffling():
    space = _space()
    cocycles = enumerate_cocycles(space)
    orbits_sorted = orbit_partition(space, cocycles)
    shuffled = list(cocycles)
    random.Random(99).shuffle(shuffled)
    orbits_shuffled = orbit_partition(space, shuffled)
    canon = lambda orbits: sorted(tuple(sorted(o.members)) for o in orbits)
    assert canon(orbits_sorted) == canon(orbits_shuffled)
    assert [o.representative for o in orbits_sorted] == sorted(
        o.representative for o in orbits_shuffled
    )


def test_gf3_line_census():
    # the same pipeline runs over F3: 27 candidates on the (1,1) line pair
    a = line_algebra(GF3, "zero", "a")
    b = line_algebra(GF3, "idem", "b")
    space = CandidateSpace(a, b)
    report = census(space)
    assert report.num_candidates == 27
    assert report.num_cocycles == len(report.cocycle_indices) > 0


@pytest.mark.parametrize(
    "A,B",
    [
        (line_algebra(GF2, "zero", "a"), line_algebra(GF2, "idem", "b")),
        (line_algebra(GF3, "zero", "a"), line_algebra(GF3, "idem", "b")),
        (zero_algebra(GF2, 2), line_algebra(GF2, "idem", "b")),
    ],
)
def test_orbit_stabilizer(A, B):
    # |orbit| * |Stab(rep)| = |Hom(B, A)| = p^(a*b), counted by brute force
    space = CandidateSpace(A, B)
    by_index = dict(enumerate_cocycles(space))
    betas = space.gauge_params()
    orbits = orbit_partition(space, list(by_index.items()))
    assert sorted(i for o in orbits for i in o.members) == sorted(by_index)
    for orbit in orbits:
        rep = by_index[orbit.representative]
        stabilizer = sum(apply_equivalence(rep, beta) == rep for beta in betas)
        assert len(orbit.members) * stabilizer == space.p ** (A.dim * B.dim)


def _broken_moves(monkeypatch, edit):
    """Break the compiled gauge action of every space created after the
    call: the orbit stage reads ``edit(moves)`` of the real
    :attr:`CandidateSpace.gauge_moves`."""
    _edit_cached(monkeypatch, "gauge_moves", lambda space, moves: edit(moves))


def test_orbit_partition_rejects_a_miscounted_orbit(monkeypatch):
    # beta = 2 compiled as beta = 1: orbits of size 3 shrink to 2 while
    # the stabilizer stays trivial, so 2 * 1 != 3
    A, B = line_algebra(GF3, "zero", "a"), line_algebra(GF3, "idem", "b")
    cocycles = enumerate_cocycles(CandidateSpace(A, B))
    _broken_moves(monkeypatch, lambda moves: (moves[0], moves[1], (moves[2][0], moves[1][1])))
    with pytest.raises(CrossCheckError, match="stabilizing"):
        orbit_partition(CandidateSpace(A, B), cocycles)


def test_orbit_partition_rejects_overlapping_orbits(monkeypatch):
    # beta = 1 compiled to also write 0 into phi: the second representative,
    # the one with phi = 1, is sent into the first orbit
    space = _space()
    cocycles = enumerate_cocycles(space)
    second = orbit_partition(space, cocycles)[1].representative
    assert dict(cocycles)[second].phi.coeffs == (1,)
    # beta = 0 moves no slot, and beta = 1 leaves phi, slot 0, as it is
    (_, fixed), (_, moved) = space.gauge_moves
    assert not fixed and 0 not in [q for q, _, _ in moved]
    _broken_moves(monkeypatch, lambda moves: (moves[0], (moves[1][0], moves[1][1] + ((0, 0, ()),))))
    with pytest.raises(CrossCheckError, match="earlier orbit"):
        orbit_partition(_space(), cocycles)


def test_orbit_partition_rejects_a_list_that_is_not_closed():
    # without the cocycle 4, the image of the zero cocycle under beta = 1
    # leaves the list
    cocycles = [(i, c) for i, c in enumerate_cocycles(_space()) if i != 4]
    with pytest.raises(CrossCheckError, match="^equivalence carried cocycle 0 out of the enumerated set"):
        orbit_partition(_space(), cocycles)


def test_a_product_of_two_digits_in_the_gauge_image_is_refused(monkeypatch):
    # phi[0] * psi[0] added to chi[0] of the symbolic image: with beta fixed
    # the action is no longer affine in the digits, so the read of the
    # compiled action refuses it, naming the slot and the term
    def planted(space, image):
        x = classify._symbolic_digits(2, space.p)
        chi = image.chi.coeffs
        return replace(image, chi=replace(image.chi, coeffs=(x[0] * x[1] + chi[0], *chi[1:])))

    _edit_cached(monkeypatch, "_symbolic_image", planted)
    message = "gauge action: chi[0] of apply_equivalence's image has the term phi[0]*psi[0] of degree 2 in the digits"
    with pytest.raises(CrossCheckError, match=f"^{re.escape(message)}$"):
        orbit_partition(_space(), enumerate_cocycles(_space()))


def test_a_zero_symbolic_scalar_is_false():
    # an empty _Poly is zero wherever a kernel tests a scalar: is_zero reads
    # a map of them as zero, and the twist-shape check accepts a symbolic
    # twist whose AA slots hold one
    zero, x1 = classify._Poly({}, 2), classify._Poly({(1,): 1}, 2)
    assert not zero and not classify._Poly({(1,): 0}, 2) and x1
    assert MultilinearMap(GF2, (1, 1), 2, (zero, zero)).is_zero()
    assert not MultilinearMap(GF2, (1, 1), 2, (zero, x1)).is_zero()
    _, split = direct_sum_space(line_algebra(GF2, "zero", "a"), line_algebra(GF2, "idem", "b"))
    # dim 2: slot 0 is AA, slots 1-3 the other A-valued ones, 4-7 B-valued
    twist = [zero] + [classify._Poly({(s,): 1}, 2) for s in (1, 2, 3)] + [0] * 4
    nonabelian._require_twist_shape(MultilinearMap(GF2, (2, 2), 2, tuple(twist)), split)
    with pytest.raises(ValueError, match="twist shape"):
        nonabelian._require_twist_shape(MultilinearMap(GF2, (2, 2), 2, (x1, *twist[1:])), split)


@st.composite
def _gauge_spaces(draw):
    """A space over F2, F3 or F5 whose kernel A has nonzero products, both
    ends helper algebras read through a random change of basis, and a
    seeded random source."""
    field = draw(st.sampled_from([GF2, GF3, _GF5]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kernels = (lambda f: line_algebra(f, "idem", "a"), trunc_poly2, left_unit2, _nil2, _diag2)
    A = draw(st.sampled_from(kernels))(field)
    quotients = [lambda f: line_algebra(f, "zero", "b"), lambda f: line_algebra(f, "idem", "b")]
    if A.dim == 1:
        quotients += [trunc_poly2, lambda f: zero_algebra(f, 2, "b"), left_unit2]
    B = draw(st.sampled_from(quotients))(field)
    ends = [read_through(alg, *rand_invertible(rng, field, alg.dim)) for alg in (A, B)]
    return CandidateSpace(*ends), rng


def _work_count_spaces():
    """The ends of four spaces with 6, 8, 8 and 88 cocycles."""
    return (
        (line_algebra(GF2, "zero", "a"), line_algebra(GF2, "idem", "b")),
        (_nil2(GF2), line_algebra(GF2, "zero", "b")),
        (line_algebra(GF3, "zero", "a"), line_algebra(GF3, "idem", "b")),
        (zero_algebra(GF2, 2), line_algebra(GF2, "idem", "b")),
    )


def _once_in_the_parent(monkeypatch, two_cpus, name, real):
    """Patch ``name`` in :mod:`nabext.classify` with ``real`` counted and
    refused outside this process, then census F3 zero(2)/idem line, which
    hands 81 phi points to a scan, at ``jobs`` 1 and 2: the second
    starts a pool, and either calls ``name`` once, in the parent."""
    parent, calls = os.getpid(), []

    def counted(*args):
        if os.getpid() != parent:
            raise AssertionError(f"a worker called {name}")
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(classify, name, counted)
    space = CandidateSpace(zero_algebra(GF3, 2), line_algebra(GF3, "idem", "b"))
    for jobs, pools in ((1, 0), (2, 1)):
        calls.clear()
        assert census(CandidateSpace(space.A, space.B), jobs=jobs).num_cocycles == 284
        assert len(calls) == 1 and two_cpus.started == pools


def test_census_compiles_the_gauge_action_once_per_space(monkeypatch, two_cpus):
    # the gauge identity reads gauge_closed_form off the once-per-space
    # symbolic pass, in the parent, whatever --jobs
    _once_in_the_parent(monkeypatch, two_cpus, "gauge_closed_form", gauge_closed_form)


def test_census_derives_the_solve_grouping_once_per_stage_in_the_parent(monkeypatch, two_cpus):
    # the by-parameter grouping that a solve reads is derived from the rows
    # only when a run solves: once per stage, in the parent, whatever
    # --jobs; a sample, pooled or not, never derives it
    parent, calls = os.getpid(), []
    real = vars(classify._Affine)["by_param"].func

    def counted(stage):
        if os.getpid() != parent:
            raise AssertionError("a worker derived the grouping")
        calls.append(stage)
        return real(stage)

    grouping = functools.cached_property(counted)
    grouping.__set_name__(classify._Affine, "by_param")
    monkeypatch.setattr(classify._Affine, "by_param", grouping)
    A, B = zero_algebra(GF3, 2), line_algebra(GF3, "idem", "b")
    for jobs, pools in ((1, 0), (2, 1)):
        calls.clear()
        space = CandidateSpace(A, B)
        cocycles = census(space, jobs=jobs).cocycle_indices
        assert len(cocycles) == 284 and two_cpus.started == pools
        assert len(calls) == 3 and all(a is b for a, b in zip(calls, space.cocycle_stages))
    calls.clear()
    # a fifth of the cocycles and 40 other candidates: at least 64 tasks
    indices = sorted(set(cocycles[::5]) | set(space.sample_indices(40, seed=1)))
    for jobs, pools in ((1, 1), (2, 2)):
        space = CandidateSpace(A, B)
        report = census(space, jobs=jobs, indices=indices)
        assert report.cocycle_indices == tuple(i for i in indices if i in cocycles)
        assert calls == [] and two_cpus.started == pools
        assert not any("by_param" in vars(stage) for stage in space.cocycle_stages)


def test_census_runs_the_section_round_trip_once_per_space(monkeypatch, two_cpus):
    # the section identity reads cocycle_from_section off the
    # once-per-space symbolic pass, in the parent, whatever --jobs
    _once_in_the_parent(monkeypatch, two_cpus, "cocycle_from_section", cocycle_from_section)


def test_a_gauge_term_of_degree_two_in_the_element_is_refused(monkeypatch, capsys):
    # a closed form with an added x[1] * x[3] in slot 3, psi times chi on
    # the default space, is not apply_equivalence's image: the gauge
    # identity names the slot, and the CLI exits 3
    def squared(x, beta, base, split):
        image = gauge_closed_form(x, beta, base, split)
        f, coeffs = base.field, list(image.coeffs)
        coeffs[3] = f.add(coeffs[3], f.mul(x.coeffs[1], x.coeffs[3]))
        return replace(image, coeffs=tuple(coeffs))

    monkeypatch.setattr(classify, "gauge_closed_form", squared)
    message = "gauge identity: gauge_closed_form differs from apply_equivalence at slot 3 of the element"
    with pytest.raises(CrossCheckError, match=f"^{message}$"):
        census(_space())
    assert main(["census", "--field", "F2", "--a2", "zero", "--b2", "idem"]) == 3
    assert capsys.readouterr().err == f"internal inconsistency: {message}\n"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name,A,B",
    [
        ("census_F2_zero2_idem.json", zero_algebra(GF2, 2), line_algebra(GF2, "idem", "b")),
        ("census_F3_zero_idem.json", line_algebra(GF3, "zero", "a"), line_algebra(GF3, "idem", "b")),
    ],
)
def test_census_report_matches_golden(name, A, B):
    # the full canonical report, witnesses included, pinned byte for byte
    space = CandidateSpace(A, B)
    text = dumps_canonical(report_to_json(census(space), space.A.field))
    assert text == (GOLDEN / name).read_text()


def _nil2(field):
    """The non-unital algebra t k[t]/t^3: basis (t, t^2), t t = t^2."""
    return Algebra.from_products(field, ["t", "t2"], {(0, 0): {1: 1}})


# the eleven exhaustive census spaces of the benchmark, F2 zero line/k[t]/t^3
# (every (phi, psi) pair passes the curvature-free equations) and F3
# k[t]/t^2/idem line; the reports were recorded by the pair sweep that the
# staged solver replaced
_GOLDEN_CENSUS_SPACES = {
    "F2-unit2-idem1": (trunc_poly2(GF2), line_algebra(GF2, "idem", "b")),
    "F2-diag2-idem1": (_diag2(GF2), line_algebra(GF2, "idem", "b")),
    "F2-nil2-zero1": (_nil2(GF2), line_algebra(GF2, "zero", "b")),
    "F2-unit2-zero1": (trunc_poly2(GF2), line_algebra(GF2, "zero", "b")),
    "F2-diag2-zero1": (_diag2(GF2), line_algebra(GF2, "zero", "b")),
    "F2-zero1-zero2": (line_algebra(GF2, "zero", "a"), zero_algebra(GF2, 2, "b")),
    "F2-zero1-diag2": (line_algebra(GF2, "zero", "a"), _diag2(GF2)),
    "F2-zero1-unit2": (line_algebra(GF2, "zero", "a"), trunc_poly2(GF2)),
    "F2-zero1-idem1": (line_algebra(GF2, "zero", "a"), line_algebra(GF2, "idem", "b")),
    "F3-zero1-idem1": (line_algebra(GF3, "zero", "a"), line_algebra(GF3, "idem", "b")),
    "F3-zero1-zero1": (line_algebra(GF3, "zero", "a"), line_algebra(GF3, "zero", "b")),
    "F2-zero1-unit3": (line_algebra(GF2, "zero", "a"), trunc_poly3(GF2)),
    "F3-unit2-idem1": (trunc_poly2(GF3), line_algebra(GF3, "idem", "b")),
    # two (2,2) spaces of 2^24 candidates, recorded by the per-index
    # extension sweep (about two minutes each); solved by block pattern,
    # each census takes about a second
    "F2-nil2-nil2": (_nil2(GF2), _nil2(GF2)),
    "F2-unit2-zero2": (trunc_poly2(GF2), zero_algebra(GF2, 2, "b")),
    # 2^24 candidates, 472 cocycles in 85 classes, recorded by the probing
    # solver and oracle; the census takes a few seconds
    "F2-zero2-unit2": (zero_algebra(GF2, 2), trunc_poly2(GF2)),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_CENSUS_SPACES))
def test_census_reports_of_the_benchmark_spaces_match_golden(name):
    space = CandidateSpace(*_GOLDEN_CENSUS_SPACES[name])
    text = dumps_canonical(report_to_json(census(space), space.A.field))
    assert text == (GOLDEN / "census" / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(_GOLDEN_CENSUS_SPACES))
def test_the_orbit_stage_is_the_numeric_sweep(name):
    # the orbits of the compiled action, witnesses included, are those of
    # one numeric apply_equivalence per orbit and parameter, on every golden
    # space: the first eleven are the benchmark's exhaustive census spaces,
    # and F2-zero2-unit2 is its sampled one
    space = CandidateSpace(*_GOLDEN_CENSUS_SPACES[name])
    cocycles = [(i, space.candidate(i)) for i in _golden_cocycles(name)]
    assert orbit_partition(space, cocycles) == sweep_orbits(space, cocycles)


_SMALL_F2_SPACES = sorted(
    name
    for name, (A, B) in _GOLDEN_CENSUS_SPACES.items()
    if A.field == GF2 and CandidateSpace(A, B).total_candidates <= 1024
)


def _moves_are_apply_equivalence(space, indices):
    """Every beta's compiled move, on each candidate of ``indices``, cocycle
    or not, gives the digits of the numeric apply_equivalence image."""
    assert [beta for beta, _ in space.gauge_moves] == space.gauge_params()
    for i in indices:
        c = space.candidate(i)
        digits = classify._digit_vector(c)
        for beta, moved in space.gauge_moves:
            assert classify._moved(digits, moved, space.p) == classify._digit_vector(apply_equivalence(c, beta))


@pytest.mark.parametrize("name", _SMALL_F2_SPACES)
def test_each_compiled_move_is_apply_equivalence_at_every_candidate(name):
    space = CandidateSpace(*_GOLDEN_CENSUS_SPACES[name])
    _moves_are_apply_equivalence(space, range(space.total_candidates))


def test_each_compiled_move_is_apply_equivalence_on_a_sample_of_an_f3_space():
    # over F2, -c is c, so only an odd p shows a flipped sign in a constant
    # of beta alone or in a digit times an entry of beta, an unknown
    # numbered below its parameter.  A = k[t]/t^2 has nonzero products, so
    # the image has both
    space = CandidateSpace(*_GOLDEN_CENSUS_SPACES["F3-unit2-idem1"])
    assert space.total_candidates == 3 ** 10 and len(space.gauge_params()) == 9
    _moves_are_apply_equivalence(space, space.sample_indices(300, seed=1))


def _monomial(k, l):
    """The monomial of a stage term's padded variables ``k <= l``."""
    return tuple(v for v in (k, l) if v >= 0)


# the golden census spaces: the benchmark's, and F2 zero(2)/idem line
_STAGED_SPACES = {**_GOLDEN_CENSUS_SPACES, "F2-zero2-idem1": (zero_algebra(GF2, 2), line_algebra(GF2, "idem", "b"))}


@pytest.mark.parametrize("name", sorted(_STAGED_SPACES))
def test_each_row_is_solved_at_the_earliest_stage_that_can_take_it(name):
    # every stage row reads no digit from its stage's hi on, is affine in
    # the stage's unknowns, and fits no earlier stage: it reads a digit
    # past that stage's hi or has a term of degree 2 in its unknowns.
    # Together the stages hold each nonzero residual row once, as its terms
    space = CandidateSpace(*_STAGED_SPACES[name])
    bounds = _bounds(space)
    symbolic = _residual_values(space, classify._symbolic_digits(space.total_entries, space.p))
    held = {}
    for s, ((lo, hi), stage) in enumerate(zip(bounds, space.cocycle_stages)):
        assert (stage.lo, stage.hi) == (lo, hi)
        for q, terms in zip(stage.touched, stage.rows, strict=True):
            assert all(l < hi and k < lo for k, l, _ in terms)
            for earlier_lo, earlier_hi in bounds[:s]:
                assert any(l >= earlier_hi or k >= earlier_lo for k, l, _ in terms)
            assert q not in held
            held[q] = {_monomial(k, l): c for k, l, c in terms}
    assert held == {q: classify._terms(v) for q, v in enumerate(symbolic) if v}


_REPORT_KEYS = {"p", "a_dim", "b_dim", "num_candidates", "num_cocycles", "cocycle_indices", "num_classes", "orbits"}


@pytest.mark.parametrize(
    "path", sorted(GOLDEN.glob("census_*.json")) + sorted((GOLDEN / "census").glob("*.json")), ids=lambda p: p.name
)
def test_every_golden_census_report_is_consistent(path):
    # the reports' own invariants: the exact keys, the counts, and orbits
    # that partition the cocycles, each led by its least member
    doc = json.loads(path.read_text())
    assert set(doc) == _REPORT_KEYS
    assert doc["num_cocycles"] == len(doc["cocycle_indices"]) > 0
    assert doc["num_classes"] == len(doc["orbits"]) > 0
    members = [m for orbit in doc["orbits"] for m in orbit["members"]]
    assert sorted(members) == doc["cocycle_indices"] == sorted(set(doc["cocycle_indices"]))
    for orbit in doc["orbits"]:
        assert set(orbit) == {"representative", "members", "witnesses"}
        assert orbit["representative"] == min(orbit["members"])


def test_census_reads_the_indices_once():
    # zero/idem lines over F2: of 1, 3 and 5, the cocycles are 1 and 3; an
    # iterator is read once, before the route identity and the scan
    assert census(_space(), indices=iter([1, 3, 5])).cocycle_indices == (1, 3)
    assert census(_space(), indices=(5, 3, 1)).cocycle_indices == (1, 3)


def test_census_refuses_a_repeated_index():
    with pytest.raises(ValueError, match="census indices must be distinct"):
        census(_space(), indices=[3, 3, 1, 7, 7])


def test_sampled_census_has_no_orbit_stage():
    space = CandidateSpace(zero_algebra(GF2, 2), trunc_poly2(GF2))
    indices = space.sample_indices(50, seed=1)
    report = census(space, indices=indices)
    assert report.orbits is None
    assert set(report.cocycle_indices) <= set(indices)
    assert list(report.cocycle_indices) == [i for i in indices if is_valid_cocycle(space.candidate(i))]


def _unstaged_hits(space, indices):
    """The ``(index, candidate)`` pairs that :func:`is_valid_cocycle`
    accepts among ``indices``."""
    decoded = ((i, space.candidate(i)) for i in indices)
    return [(i, c) for i, c in decoded if is_valid_cocycle(c)]


def _associative_hits(space, indices):
    """The ``(index, extension)`` pairs among ``indices`` whose
    :func:`build_extension` algebra is associative."""
    built = ((i, build_extension(space.candidate(i))[0]) for i in indices)
    return [(i, ext) for i, ext in built if ext.is_associative()]


def _golden_cocycles(name):
    return tuple(json.loads((GOLDEN / "census" / f"{name}.json").read_text())["cocycle_indices"])


def test_the_row_test_is_the_unstaged_oracle_on_every_candidate_of_the_benchmark_spaces():
    # every index of the eleven exhaustive benchmark spaces, tested as a
    # sample on the compiled rows, gets is_valid_cocycle's verdict and
    # build_extension's associativity, each hit with build_extension's
    # algebra
    total = 0
    for A, B in list(_GOLDEN_CENSUS_SPACES.values())[:11]:
        space = CandidateSpace(A, B)
        every = space.exhaustive_indices()
        hits = enumerate_cocycles(space, every)
        assert hits == _unstaged_hits(space, every)
        assert enumerate_extensions(space, hits) == _associative_hits(space, every)
        total += len(every)
    assert total == 5950


def test_the_row_test_is_the_unstaged_oracle_on_a_sixteen_million_candidate_space():
    # F2 zero(2)/k[t]/t^2: every golden cocycle and 2,000 sampled indices
    name = "F2-zero2-unit2"
    space = CandidateSpace(*_GOLDEN_CENSUS_SPACES[name])
    indices = sorted(set(_golden_cocycles(name) + space.sample_indices(2000, seed=3)))
    hits = enumerate_cocycles(space, indices)
    assert hits == _unstaged_hits(space, indices)
    assert len(hits) >= 472
    assert enumerate_extensions(space, hits) == _associative_hits(space, indices)


def _sample_with_cocycles():
    """F2 zero(2)/k[t]/t^2 and a sample of 100 of its candidates, ten of
    them golden cocycles."""
    name = "F2-zero2-unit2"
    space = CandidateSpace(*_GOLDEN_CENSUS_SPACES[name])
    cocycles = _golden_cocycles(name)[::47][:10]
    others = [i for i in space.sample_indices(100, seed=11) if i not in cocycles][:90]
    return space, sorted(cocycles + tuple(others))


def test_a_pooled_sample_is_the_serial_one(two_cpus, monkeypatch):
    # 100 indices: the census hands them to a 2-worker pool, whose workers
    # get the compiled rows with the pickled space and evaluate no equation
    space, indices = _sample_with_cocycles()
    serial = census(space, indices=indices)
    assert (len(indices), serial.num_cocycles, two_cpus.started) == (100, 10, 0)
    scan = classify._scan

    def scan_without_equations(sp, stages, tasks, worker, jobs):
        with monkeypatch.context() as m:
            for name in ("cocycle_residuals", "is_valid_cocycle", "build_extension"):
                m.setattr(classify, name, _refuse)
            return scan(sp, stages, tasks, worker, jobs)

    monkeypatch.setattr(classify, "_scan", scan_without_equations)
    pooled = census(CandidateSpace(space.A, space.B), jobs=2, indices=indices)
    assert two_cpus.started == 1
    assert dumps_canonical(report_to_json(pooled, GF2)) == dumps_canonical(report_to_json(serial, GF2))


def _edit_cached(monkeypatch, name, edit):
    """Replace the cached property ``name`` of :class:`CandidateSpace` by one
    whose value is ``edit(space, value)`` of the real one's, so that every
    space, the CLI's too, reads the edited value."""
    real = vars(CandidateSpace)[name].func
    edited = functools.cached_property(lambda space: edit(space, real(space)))
    edited.__set_name__(CandidateSpace, name)
    monkeypatch.setattr(CandidateSpace, name, edited)


def _plant_in_chi_stage(space, stages):
    """The cocycle stages with 1 planted in the constant of the first
    chi-stage row, which has none."""
    phi_stage, psi_stage, chi_stage = stages
    first, *others = chi_stage.rows
    assert all(k >= 0 or l >= 0 for k, l, _ in first)
    return phi_stage, psi_stage, replace(chi_stage, rows=(first + ((-1, -1, 1),), *others))


def _trips_before_the_scan(monkeypatch, capsys, message, space, indices, argv):
    """``census(space, indices=indices)`` raises ``message`` and
    ``nabext census`` with ``argv`` exits 3 with that one line, neither
    reaching the scan."""
    monkeypatch.setattr(classify, "_scan", _refuse)
    with pytest.raises(CrossCheckError, match=f"^{re.escape(message)}$"):
        census(space, indices=indices)
    assert main(["census", *argv]) == 3
    assert capsys.readouterr() == ("", f"internal inconsistency: {message}\n")


def test_a_constant_row_in_the_cocycle_stages_trips_a_sampled_census(monkeypatch, capsys):
    # 1 planted as the constant of the first chi-stage row, on both spaces
    # the EQ2 row at (0, 0, 0): the rows are no longer the associators, so
    # the route identity names the row, before the scan, on a sample with
    # cocycles, on an exhaustive run, and in nabext census, which exits 3
    _edit_cached(monkeypatch, "cocycle_stages", _plant_in_chi_stage)
    message = (
        "route identity: residual eq2_right_twist at (0, 0, 0), component 0, of the cocycle route's"
        " chi stage is no associator of the twisted product, up to sign"
    )
    space, indices = _sample_with_cocycles()
    argv = ["--field", "F2", "--sample", "4", "--seed", "1"]
    _trips_before_the_scan(monkeypatch, capsys, message, space, indices, argv)
    _trips_before_the_scan(monkeypatch, capsys, message, _space(), None, ["--field", "F2"])


def _planted_associators(field, dim, table):
    """:func:`basis_associators` with 1 added to component 0 at the AAA
    triple ``(0, 0, 0)``."""
    for triple, value in algebra.basis_associators(field, dim, table):
        if triple == (0, 0, 0):
            value = (field.add(value[0], 1),) + tuple(value[1:])
        yield triple, value


def test_a_constant_in_an_associator_trips_a_sampled_census(monkeypatch, capsys):
    # 1 planted in one component of the symbolic associators: the route
    # identity names the associator that is no cocycle row, before the
    # scan, on a sample with cocycles and on an exhaustive run, and
    # nabext census exits 3
    monkeypatch.setattr(classify, "basis_associators", _planted_associators)
    message = "route identity: the associator at basis triple (0, 0, 0), component 0, is no row of the cocycle route, up to sign"
    space, indices = _sample_with_cocycles()
    argv = ["--field", "F2", "--a2", "zero", "--b2", "idem", "--sample", "8", "--seed", "0"]
    _trips_before_the_scan(monkeypatch, capsys, message, space, indices, argv)
    _trips_before_the_scan(monkeypatch, capsys, message, _space(), None, ["--field", "F2"])


def test_a_stage_that_accepts_every_candidate_trips_the_numeric_hit_test():
    # a^2 = 0, b^2 = b: only the psi and chi stages have rows, so with none
    # they accept every sampled candidate, and the numeric test of the hits
    # names the first candidate whose twisted product is not associative,
    # the triple, and the verdict of the unstaged equations, which reject it
    space = _space()
    phi_stage, *later = space.cocycle_stages
    assert not phi_stage.touched and all(stage.touched for stage in later)
    emptied = tuple(replace(stage, touched=(), rows=()) for stage in later)
    object.__setattr__(space, "cocycle_stages", (phi_stage, *emptied))
    every = space.exhaustive_indices()
    hits = enumerate_cocycles(space, every)
    assert len(hits) == len(every)
    first = next(i for i in every if not build_extension(space.candidate(i))[0].is_associative())
    witness = build_extension(space.candidate(first))[0].associativity_witness()
    message = (
        rf"^numeric hit test: cocycle {first} is not associative at basis triple {re.escape(str(witness))};"
        r" the unstaged equations reject it$"
    )
    with pytest.raises(CrossCheckError, match=message):
        enumerate_extensions(space, hits)


def _symbolic_sides(space, sides, identity, values):
    """The two sides of ``identity``, the first word of its entry in
    ``sides`` (the list of :meth:`CandidateSpace._identity_sides`),
    evaluated at ``values``: a candidate's digits, then the entries of beta
    row by row."""
    ((left, right),) = [(left, right) for what, left, right, _ in sides if what.split()[0] == identity]
    return tuple(tuple(_evaluated(v, values, space.p) for v in side) for side in (left, right))


def _numeric_sides(space, digits, beta, name):
    """The two sides of the identity ``name`` on the candidate with index
    digits ``digits`` and the gauge parameter ``beta``, each by its numeric
    route."""
    c = space._decode(digits)
    base, split = direct_sum_space(space.A, space.B)
    x = cocycle_to_mc(c)
    if name == "gauge":
        return gauge_closed_form(x, beta, base, split).coeffs, cocycle_to_mc(apply_equivalence(c, beta)).coeffs
    E = build_extension(c)[0]
    if name == "section":
        pres = block_presentation(E, space.A, space.B)
        return classify._digit_vector(cocycle_from_section(pres, canonical_section(pres))), tuple(digits)
    associators = [v for _, v in algebra.basis_associators(E.field, E.dim, E.table)]
    residual = nonabelian.associator_residual(x, base, split).coeffs
    return residual, tuple(v[k] for k in range(E.dim) for v in associators)


def _on_every_candidate(name, identity):
    """Every candidate of the golden space ``name``, hits and non-hits
    alike: the identity's two symbolic sides, evaluated at its digits with
    beta zero, are the numeric ones, and agree."""
    space = CandidateSpace(*_GOLDEN_CENSUS_SPACES[name])
    sides = list(space._identity_sides())
    n_beta = space.A.dim * space.B.dim
    beta = nonabelian.GaugeParam.zero(space.A.field, space.A.dim, space.B.dim)
    for i in range(space.total_candidates):
        digits = space._digits(i)
        numeric = _numeric_sides(space, digits, beta, identity)
        assert _symbolic_sides(space, sides, identity, digits + [0] * n_beta) == numeric
        assert numeric[0] == numeric[1]


@pytest.mark.parametrize("name", ["F2-nil2-zero1", "F2-zero1-diag2", "F3-zero1-idem1"])
def test_the_compiled_section_read_is_the_numeric_one_on_every_candidate(name):
    # "compiled" is the once-per-space symbolic pass: the section
    # identity's sides, read once over _Poly, evaluated at every candidate's
    # digits, are the numeric round trip on its extension and its digits
    _on_every_candidate(name, "section")


@st.composite
def _section_spaces(draw):
    """A space over F2 or F3 whose ends are helper algebras of dims 1-2, the
    kernel read through a random change of basis, and a few candidate
    indices."""
    field = draw(st.sampled_from([GF2, GF3]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    A, B = (draw(st.sampled_from(_STAGE_BUILDERS + (_nil2, _diag2)))(field) for _ in range(2))
    space = CandidateSpace(read_through(A, *rand_invertible(rng, field, A.dim)), B)
    return space, [rng.randrange(space.total_candidates) for _ in range(4)]


def _identity_cases():
    """A space of :func:`_gauge_spaces` or of :func:`_section_spaces`, and a
    seeded random source."""
    return st.one_of(_gauge_spaces(), _section_spaces().map(lambda case: (case[0], random.Random(case[1][0]))))


def _at_random_points(case, identity):
    """``check_identities`` passes on the space of ``case``; then, at random
    digits and beta, the identity's symbolic sides and its numeric ones."""
    space, rng = case
    space.check_identities()
    sides = list(space._identity_sides())
    a, b, p = space.A.dim, space.B.dim, space.p
    for _ in range(3):
        digits = [rng.randrange(p) for _ in range(space.total_entries)]
        entries = [rng.randrange(p) for _ in range(a * b)]
        beta = nonabelian.GaugeParam(tuple(tuple(entries[i * b : (i + 1) * b]) for i in range(a)))
        symbolic = _symbolic_sides(space, sides, identity, digits + entries)
        yield symbolic, _numeric_sides(space, digits, beta, identity)


@settings(deadline=None, max_examples=30)
@given(_identity_cases())
def test_the_compiled_section_read_is_the_numeric_one(case):
    # the section identity's sides from the once-per-space symbolic pass,
    # at random digits and beta, are the numeric round trip
    for symbolic, numeric in _at_random_points(case, "section"):
        assert symbolic == numeric and numeric[0] == numeric[1]


@settings(deadline=None, max_examples=30)
@given(_identity_cases())
def test_the_compiled_gauge_action_is_the_closed_form(case):
    # the gauge identity's sides from the once-per-space symbolic pass, at
    # random digits and beta, are gauge_closed_form on the element and
    # cocycle_to_mc of apply_equivalence
    for symbolic, numeric in _at_random_points(case, "gauge"):
        assert symbolic == numeric and numeric[0] == numeric[1]


@settings(deadline=None, max_examples=30)
@given(_identity_cases())
def test_the_compiled_mc_check_is_the_numeric_one(case):
    # the Maurer-Cartan identity's sides from the once-per-space symbolic
    # pass, at random digits and beta, are associator_residual and the
    # associators of build_extension
    for symbolic, numeric in _at_random_points(case, "Maurer-Cartan"):
        assert symbolic == numeric and numeric[0] == numeric[1]


@pytest.mark.parametrize("corruption,digit", [("constant", 0), ("swap", 1)])
def test_a_corrupted_section_read_trips_the_census(monkeypatch, corruption, digit):
    # F3 zero/idem line, whose digits are phi[0], psi[0] and chi[0]: a
    # section read with 1 added to its first slot fails the section identity
    # there, and one with its second and third slots swapped at psi[0]
    space = CandidateSpace(line_algebra(GF3, "zero", "a"), line_algebra(GF3, "idem", "b"))
    section_cocycle = exact_sequences.section_cocycle

    def corrupted(ext, s):
        coeffs = list(classify._digit_vector(section_cocycle(ext, s)))
        if corruption == "constant":
            coeffs[0] += 1
        else:
            coeffs[1], coeffs[2] = coeffs[2], coeffs[1]
        return space._decode(coeffs)

    monkeypatch.setattr(exact_sequences, "section_cocycle", corrupted)
    name = ("phi[0]", "psi[0]", "chi[0]")[digit]
    message = f"section identity: the canonical section's triple differs from the candidate at {name}"
    with pytest.raises(CrossCheckError, match=f"^{re.escape(message)}$"):
        census(space)


def test_a_product_of_two_digits_in_the_section_read_is_refused(monkeypatch, capsys):
    # the default CLI space, zero/idem lines over F2: a recovered phi
    # coefficient with a product of the phi and psi digits is not phi[0]
    section_cocycle = exact_sequences.section_cocycle

    def with_a_product(ext, s):
        c = section_cocycle(ext, s)
        coeffs = (c.phi.coeffs[0] + classify._Poly({(0, 1): 1}, 2),) + c.phi.coeffs[1:]
        return replace(c, phi=replace(c.phi, coeffs=coeffs))

    monkeypatch.setattr(exact_sequences, "section_cocycle", with_a_product)
    assert main(["census", "--field", "F2"]) == 3
    assert capsys.readouterr().err == (
        "internal inconsistency: section identity: the canonical section's triple differs"
        " from the candidate at phi[0]\n"
    )


def test_a_symbolic_extension_that_fails_verification_trips_the_census(monkeypatch):
    failed = exact_sequences.ExtensionDiagnostics(ok=False, failures=["iota is not injective"])
    monkeypatch.setattr(exact_sequences, "verify_extension", lambda ext: failed)
    with pytest.raises(CrossCheckError, match="^section identity: .*iota is not injective$"):
        census(_space())


def test_worker_count_clamp(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert worker_count(1, 100) == 1
    assert worker_count(3, 100) == 3
    assert worker_count(1000, 100) == 4
    assert worker_count(8, 2) == 2
    assert worker_count(8, 0) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert worker_count(8, 100) == 1


def test_candidate_space_requires_associative_ends():
    from nabext import Algebra

    bad = Algebra.from_products(GF2, ["e0", "e1"], {(0, 0): {1: 1}, (1, 0): {0: 1}})
    with pytest.raises(ValueError):
        CandidateSpace(bad, line_algebra(GF2, "idem", "b"))


@pytest.mark.parametrize("name", ["F2-nil2-zero1", "F2-zero1-diag2", "F3-zero1-idem1"])
def test_the_compiled_mc_check_is_the_numeric_one_on_every_candidate(name):
    # the Maurer-Cartan identity's sides from the once-per-space symbolic
    # pass, evaluated at every candidate's digits, are associator_residual
    # of cocycle_to_mc and the associators of build_extension, coefficient
    # by coefficient
    _on_every_candidate(name, "Maurer-Cartan")


@st.composite
def _polys(draw):
    """A prime, two operands reduced from raw terms in three variables (the
    first a canonical ``_Poly``, the second one or an ``int``, often minus
    the first plus a constant, so that a sum collapses), a scalar, reduced
    or not and often a multiple of p, whether both are linear, and digits
    to evaluate at."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    linear = draw(st.booleans())
    monomials = [(), (0,), (1,), (2,)] + ([] if linear else [(0, 0), (0, 1), (1, 2), (2, 2)])
    coefficient = st.integers(-2 * p, 2 * p)
    raw = lambda: draw(st.dictionaries(st.sampled_from(monomials), coefficient, max_size=5))
    # the first holds a variable, so it is a _Poly
    first = {**raw(), draw(st.sampled_from(monomials[1:])): draw(st.integers(1, p - 1))}
    first = classify._canonical(first, p)
    second = classify._canonical(raw(), p)
    if draw(st.booleans()):
        second = draw(coefficient) - first
    digits = tuple(draw(st.integers(0, p - 1)) for _ in range(3))
    scalar = draw(st.one_of(coefficient, st.sampled_from([0, p, -p])))
    return p, first, second, scalar, linear, digits


def _is_canonical(value, p):
    if isinstance(value, int):
        return 0 <= value < p
    terms = value.terms
    return (
        value.p == p
        and all(0 < c < p for c in terms.values())
        and any(terms)  # some monomial holds a variable
        and value % p is value
    )


@settings(deadline=None, max_examples=300)
@given(_polys())
def test_poly_arithmetic_is_the_field_arithmetic_at_every_point(case):
    # evaluating P op Q at the digits is applying the F_p op to P and Q
    # evaluated there, for either order of the operands, and so with a
    # scalar k for Q; every result is canonical, a _Poly with coefficients
    # in 1..p-1 and a variable, or the plain int it collapses to; and no
    # operation changes an operand's terms
    p, P, Q, k, linear, digits = case
    at = lambda value: _evaluated(value, digits, p)
    assert isinstance(P, classify._Poly) and _is_canonical(P, p) and _is_canonical(Q, p)
    before = (dict(P.terms), dict(classify._terms(Q)))
    ops = [(lambda a, b: a + b), (lambda a, b: a - b)] + ([lambda a, b: a * b] if linear else [])
    for op in ops:
        for a, b in ((P, Q), (Q, P), (P, k), (k, P)):
            result = op(a, b)
            assert _is_canonical(result, p)
            assert at(result) == op(at(a), at(b)) % p
    assert _is_canonical(-P, p) and at(-P) == -at(P) % p
    assert P * 0 == 0 and isinstance(P * 0, int) and P * (p + 1) is P
    assert (dict(P.terms), dict(classify._terms(Q))) == before


def _untouched(op, *operands):
    """``op`` applied to ``operands``, after checking that it leaves the
    terms of each :class:`_Poly` among them as they were."""
    before = [dict(v.terms) for v in operands if isinstance(v, classify._Poly)]
    result = op(*operands)
    assert [dict(v.terms) for v in operands if isinstance(v, classify._Poly)] == before
    return result


def test_poly_products_and_sums_build_the_canonical_terms():
    # the products of two variables and the sums that merge only the right
    # operand's monomials give the canonical terms directly: a squared
    # variable, variables in either order, coefficient products that wrap
    # mod 7, a sum that cancels one monomial, and sums that collapse to an
    # int or to 0
    x0, x1, x2 = classify._symbolic_digits(3, 7)
    mul, add, sub = (lambda a, b: a * b), (lambda a, b: a + b), (lambda a, b: a - b)
    assert _untouched(mul, 3 * x0, 5 * x0).terms == {(0, 0): 1}
    assert _untouched(mul, 4 * x1, 2 * x0).terms == {(0, 1): 1}
    assert _untouched(mul, x0, 6 * x1).terms == {(0, 1): 6}
    assert _untouched(mul, 6 * x2, 6 * x1).terms == {(1, 2): 1}
    q = _untouched(add, x0 * x1, 3 * x2)
    assert q.terms == {(0, 1): 1, (2,): 3}
    assert _untouched(add, q, 4 * x2).terms == {(0, 1): 1}
    assert _untouched(add, x0 + 3, 6 * x0) == 3 and isinstance(x0 + 3 + 6 * x0, int)
    assert _untouched(sub, q, x0 * x1 + 3 * x2) == 0 and isinstance(q - (x0 * x1 + 3 * x2), int)
    assert _untouched(add, x0 + 3, 6 * x0 + 4) == 0
    assert _untouched(sub, 5, x2).terms == {(2,): 6, (): 5}
    assert _untouched(lambda a: -a, q).terms == {(0, 1): 6, (2,): 4}
    # a scalar times a poly of degree 2, in either order
    r = 2 * x0 * x1 + 3 * x2 + 1
    assert _untouched(mul, 4, r).terms == _untouched(mul, r, 4).terms == {(0, 1): 1, (2,): 5, (): 4}
    assert _untouched(mul, r, 7) == 0 and _untouched(mul, 1, r) is r
    # a product with a constant term takes the general loop
    assert _untouched(mul, x0 + 1, x1 + 2).terms == {(0, 1): 1, (0,): 2, (1,): 1, (): 2}


def test_a_product_of_degree_three_is_refused():
    x0, x1, x2 = classify._symbolic_digits(3, 3)
    message = r"^a product of the variables \(0, 0, 1\) has degree 3; the formula is not of degree at most 2$"
    with pytest.raises(CrossCheckError, match=message):
        (x0 * x0) * x1
    with pytest.raises(CrossCheckError, match=message):
        x1 * (x0 * x0 + 1)
    message = r"^a product of the variables \(0, 1, 2\) has degree 3; the formula is not of degree at most 2$"
    with pytest.raises(CrossCheckError, match=message):
        (x0 * x1) * x2


@pytest.mark.parametrize("name", ["F2-unit2-idem1", "F2-zero2-unit2", "F3-zero1-idem1"])
def test_every_symbolic_stage_value_is_canonical(name):
    # a zero coefficient left in a stage value would make its row touched:
    # every component of the residual generator and of the symbolic
    # associators is a reduced int or a canonical _Poly
    space = CandidateSpace(*_GOLDEN_CENSUS_SPACES[name])
    c = space._decode(classify._symbolic_digits(space.total_entries, space.p))
    residuals = list(nonabelian.cocycle_residuals(c))
    values = [v for _, _, disc, _ in residuals for v in disc]
    values += [v for disc in space._symbolic_associators.values() for v in disc]
    assert len(values) >= len(residuals) + (space.A.dim + space.B.dim) ** 4
    assert all(_is_canonical(v, space.p) for v in values)
    assert any(isinstance(v, classify._Poly) for v in values)


def _planted_residual(x, base, split):
    """:func:`associator_residual` with 1 added to its first slot."""
    r = nonabelian.associator_residual(x, base, split)
    return replace(r, coeffs=(r.field.add(r.coeffs[0], 1),) + r.coeffs[1:])


_MC_MESSAGE = (
    "Maurer-Cartan identity: associator_residual differs from the twisted product's associator"
    " at basis triple (0, 0, 0), component 0"
)


def test_a_constant_in_the_residual_read_trips_the_census(monkeypatch):
    space = CandidateSpace(line_algebra(GF3, "zero", "a"), line_algebra(GF3, "idem", "b"))
    monkeypatch.setattr(classify, "associator_residual", _planted_residual)
    with pytest.raises(CrossCheckError, match=f"^{re.escape(_MC_MESSAGE)}$"):
        census(space)


def test_a_constant_in_the_residual_trips_the_cli_census(monkeypatch, capsys):
    # associator_residual with 1 added to its first slot: the symbolic
    # residual carries it, and the census of the default space exits 3
    monkeypatch.setattr(classify, "associator_residual", _planted_residual)
    assert main(["census", "--field", "F2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal inconsistency: {_MC_MESSAGE}\n"


def test_a_sample_of_cocycles_runs_the_mc_check(monkeypatch):
    # F2 zero line/diag(2): 256 candidates, 24 cocycles.  A sample of every
    # cocycle and as many other candidates finds exactly the cocycles and
    # checks the identities, so a planted residual constant trips it there
    # too
    space = CandidateSpace(*_GOLDEN_CENSUS_SPACES["F2-zero1-diag2"])
    exhaustive = census(space).cocycle_indices
    assert (space.total_candidates, len(exhaustive)) == (256, 24)
    others = [i for i in range(space.total_candidates) if i not in exhaustive][:: 9][: len(exhaustive)]
    indices = sorted(exhaustive + tuple(others))
    report = census(CandidateSpace(space.A, space.B), indices=indices)
    assert report.cocycle_indices == exhaustive
    assert report.orbits is None
    monkeypatch.setattr(classify, "associator_residual", _planted_residual)
    with pytest.raises(CrossCheckError, match=f"^{re.escape(_MC_MESSAGE)}$"):
        census(CandidateSpace(space.A, space.B), indices=indices)


def _break(monkeypatch, broken):
    """Break one identity of :meth:`CandidateSpace.check_identities` on the
    default space, zero/idem lines over F2, by patching ``broken``; the
    message that the census must then raise."""
    if broken == "associator_residual":
        monkeypatch.setattr(classify, "associator_residual", _planted_residual)
        return _MC_MESSAGE
    if broken == "section_cocycle":
        real = exact_sequences.section_cocycle

        def swapped(ext, s):
            # the phi and psi slots read each other's value
            c = real(ext, s)
            phi, psi = c.phi.coeffs, c.psi.coeffs
            phi, psi = replace(c.phi, coeffs=psi[:1] + phi[1:]), replace(c.psi, coeffs=phi[:1] + psi[1:])
            return replace(c, phi=phi, psi=psi)

        monkeypatch.setattr(exact_sequences, "section_cocycle", swapped)
        return "section identity: the canonical section's triple differs from the candidate at phi[0]"
    if broken == "twist_slots":
        # the phi and psi slots swapped: every hit's table is still
        # associative, so only the layout identity sees the fault
        def swapped_slots(split):
            phi, psi, *rest = nonabelian.twist_slots(split)
            return (psi, phi, *rest)

        monkeypatch.setattr(classify, "twist_slots", swapped_slots)
        return "layout identity: the twisted product's table differs from the layout's at slot 2 of the table"
    if broken == "apply_equivalence":
        # an action that fixes everything: the closed form moves chi by
        # beta(b b), in slot 3
        monkeypatch.setattr(classify, "apply_equivalence", lambda c, beta: c)
        slot = 3
    else:
        # one extra term, beta's entry, in the phi slot 2 of the image
        def extra(x, beta, base, split):
            image = gauge_closed_form(x, beta, base, split)
            coeffs = list(image.coeffs)
            coeffs[2] = image.field.add(coeffs[2], beta.matrix[0][0])
            return replace(image, coeffs=tuple(coeffs))

        monkeypatch.setattr(classify, "gauge_closed_form", extra)
        slot = 2
    return f"gauge identity: gauge_closed_form differs from apply_equivalence at slot {slot} of the element"


@pytest.mark.parametrize("run", ["exhaustive", "sample"])
@pytest.mark.parametrize(
    "broken", ["associator_residual", "section_cocycle", "apply_equivalence", "gauge_closed_form", "twist_slots"]
)
def test_a_broken_identity_trips_the_census(monkeypatch, capsys, broken, run):
    # each identity broken by one patch makes the census raise, on an
    # exhaustive run and on a sample with hits, and nabext census exit 3
    # with one stderr line that names the identity
    indices, argv = (None, []) if run == "exhaustive" else ([1, 2, 5], ["--sample", "4", "--seed", "1"])
    assert census(_space(), indices=indices).num_cocycles > 0
    assert main(["census", "--field", "F2", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["num_cocycles"] > 0
    message = _break(monkeypatch, broken)
    with pytest.raises(CrossCheckError, match=f"^{re.escape(message)}$"):
        census(_space(), indices=indices)
    assert main(["census", "--field", "F2", *argv]) == 3
    assert capsys.readouterr() == ("", f"internal inconsistency: {message}\n")


@pytest.mark.parametrize(
    "corruption,cocycle",
    [("B-valued constant", 0), ("A-valued constant", 0), ("identity", 0)],
)
def test_a_corrupted_compiled_image_trips_the_census(monkeypatch, corruption, cocycle):
    # F3 zero/idem line, whose closed-form image goes wrong for every beta:
    # a constant in the B-valued slot 4 or in the phi slot 2 of e_b e_a -> a,
    # or the image of beta = 0, x itself, in place of beta's, which misses
    # the move of slot 3.  The symbolic gauge identity holds at every digit
    # vector and every beta, so an exhaustive run trips, and so does a
    # sample whose one hit is the cocycle ``cocycle``
    space = CandidateSpace(line_algebra(GF3, "zero", "a"), line_algebra(GF3, "idem", "b"))
    assert census(space).cocycle_indices[0] == cocycle
    # slot (k * 2 + i) * 2 + j holds the e_k coefficient of x(e_i, e_j)
    slot = {"B-valued constant": 4, "A-valued constant": 2, "identity": 3}[corruption]

    def corrupted(x, beta, base, split):
        if corruption == "identity":
            return x
        image = gauge_closed_form(x, beta, base, split)
        coeffs = list(image.coeffs)
        coeffs[slot] = image.field.add(coeffs[slot], 1)
        return replace(image, coeffs=tuple(coeffs))

    monkeypatch.setattr(classify, "gauge_closed_form", corrupted)
    message = f"gauge identity: gauge_closed_form differs from apply_equivalence at slot {slot} of the element"
    for indices in (None, [cocycle]):
        with pytest.raises(CrossCheckError, match=f"^{re.escape(message)}$"):
            census(CandidateSpace(space.A, space.B), indices=indices)


def _counted(monkeypatch, names):
    """Call counts of the ``nonabelian`` and ``exact_sequences`` functions
    ``names``, wherever a ``nabext`` module calls them from: each is
    wrapped in every module namespace that holds it."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(nonabelian, name, None) or getattr(exact_sequences, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for module in [m for key, m in sys.modules.items() if key.startswith("nabext.")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_census_work_counts_are_exact(monkeypatch):
    # the identities are checked off one symbolic pass per space, once a
    # hit is found: one associator_residual, gauge_closed_form and
    # cocycle_from_section, one apply_equivalence, whose symbolic image the
    # orbit stage's compiled action reads too, and two cocycle_to_mc, each
    # of which builds an extension.  A census with a hit, exhaustive or sampled,
    # builds exactly four extensions, whatever the number of cocycles: those
    # two, the zero candidate's for the layout and the symbolic one for the
    # route identity and the identities.  Every census scans once, reads the
    # equations off one symbolic pass of the residual generator and never
    # calls is_valid_cocycle while the hits pass the numeric test.  A sample
    # without a cocycle checks only the route identity and builds one
    # extension, the symbolic one
    scans = []
    real_scan = classify._scan
    monkeypatch.setattr(classify, "_scan", lambda *args: scans.append(args[3]) or real_scan(*args))
    names = (
        "associator_residual",
        "gauge_closed_form",
        "cocycle_from_section",
        "apply_equivalence",
        "cocycle_to_mc",
        "build_extension",
        "cocycle_residuals",
        "is_valid_cocycle",
    )
    calls = _counted(monkeypatch, names)
    equations = {"cocycle_residuals": 1, "is_valid_cocycle": 0}
    identities = {"associator_residual": 1, "gauge_closed_form": 1, "cocycle_from_section": 1, "cocycle_to_mc": 2}
    for A, B in _work_count_spaces():
        calls.update(dict.fromkeys(calls, 0))
        scans.clear()
        space = CandidateSpace(A, B)
        report = census(space)
        assert calls == {
            **identities,
            "apply_equivalence": 1,
            "build_extension": 4,
            **equations,
        }
        assert scans == [classify._fibre_chunk]
        calls.update(dict.fromkeys(calls, 0))
        scans.clear()
        rejected = [i for i in range(report.num_candidates) if i not in report.cocycle_indices][:5]
        assert census(CandidateSpace(A, B), indices=rejected).num_cocycles == 0
        assert calls == {
            **dict.fromkeys(identities, 0),
            "apply_equivalence": 0,
            "build_extension": 1,
            **equations,
        }
        assert scans == [classify._sample_chunk]
        calls.update(dict.fromkeys(calls, 0))
        scans.clear()
        mixed = sorted(rejected + list(report.cocycle_indices))
        assert census(CandidateSpace(A, B), indices=mixed).cocycle_indices == report.cocycle_indices
        assert calls == {**identities, "apply_equivalence": 1, "build_extension": 4, **equations}
        assert scans == [classify._sample_chunk]


def test_census_solves_each_stage_an_exact_number_of_times(monkeypatch):
    # the fibres of three exhaustive F2 censuses, per stage: one phi
    # solve, one psi solve per phi point and one chi solve per (phi, psi)
    # pair that the psi stage admits.  A row that reads only phi is met in
    # the psi stage, so fewer pairs reach the chi stage.  A stage's rows
    # that read parameters only are tested before its elimination, so only
    # the fibres where they all vanish reach solution_space
    calls, current, eliminations = [], [None], []
    real, real_solve = classify._Affine.solutions, classify.solution_space

    def solutions(stage, params):
        calls.append(stage.lo)

        def run():
            # set when the fibre is walked, which is when it eliminates
            current[0] = stage.lo
            yield from real(stage, params)

        return run()

    monkeypatch.setattr(classify._Affine, "solutions", solutions)
    monkeypatch.setattr(classify, "solution_space", lambda *args: eliminations.append(current[0]) or real_solve(*args))
    cases = (
        (zero_algebra(GF2, 2), trunc_poly2(GF2), [0, 16, 16], [1, 256, 656], [1, 11, 55]),
        (zero_algebra(GF2, 2), zero_algebra(GF2, 2, "b"), [0, 16, 16], [1, 256, 400], [1, 10, 46]),
        (trunc_poly2(GF2), zero_algebra(GF2, 2, "b"), [0, 4, 4], [1, 16, 16], [1, 16, 16]),
    )
    for A, B, parameter_rows, fibres, solves in cases:
        calls.clear()
        eliminations.clear()
        space = CandidateSpace(A, B)
        census(space)
        stages = space.cocycle_stages
        assert [len(stage.parameter_rows) for stage in stages] == parameter_rows
        assert [calls.count(stage.lo) for stage in stages] == fibres
        assert [eliminations.count(stage.lo) for stage in stages] == solves

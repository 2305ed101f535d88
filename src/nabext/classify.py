"""Classification over prime fields: find every valid twist triple, split
the cocycles into the orbits of the gauge group Hom(B, A), and cross-check
every step against the extension picture.  The orbits are read straight off
the group action, so every member carries a one-step witness from its
representative.

Candidates are indexed by writing all twist coefficients as base-p digits,
so runs are deterministic and trivially splittable across workers.  The
(phi, psi) coefficients are the low digits and chi the high ones.

Each formula is evaluated once per space over :class:`_Poly`, a polynomial
of degree at most 2 in numbered variables.  The stages are read by
:func:`_read_affine` into rows ``r0 + M x`` affine in the unknowns, with
``r0`` and ``M`` sparse sums in the parameters (an :class:`_Affine`): six
reads per space, three stages per route.  A term of degree 2 in the
unknowns, or one in a later variable, raises :class:`CrossCheckError`, so
affinity is checked, not assumed.  No equation is written out here.

The two routes of the census find the cocycles independently and have one
shape: three stages, phi, then psi with phi fixed, then chi with phi and
psi fixed, that split the route's test between them.  A stage's unknowns
are its digits, its parameters the earlier ones, and its rows with them
written in are what one elimination solves.  An exhaustive run solves the
stages in turn (:func:`_fibre_chunk`); a sample of indices is tested on
them row by row, each index's digits written into the phi, psi and chi
rows in turn and stopped at the first nonzero row (:func:`_sample_chunk`).

The cocycle route reads the residual generators of
:mod:`~nabext.nonabelian`: the phi stage is the psi-free ``phi_leibniz``
rows of EQ4, the psi stage the other rows of EQ3 and EQ4, the chi stage
EQ1, EQ2 and EQ5.  :func:`is_valid_cocycle` stays the diagnostic oracle.

The extension route is the oracle: it reads only the twisted-product table
that :func:`build_extension` writes through :func:`twist_slots`, built once
per space with every digit a variable, and never consults an equation.  Its
stages are the associators by block pattern: BAA for phi; AAB, ABA and BAB
for psi; BBA, ABB and BBB for chi (AAA is the associativity of A).  Each
hit is then tested on every basis triple, numerically, and only the hits
become :class:`Algebra` values.

The orbits come from the triple action :func:`apply_equivalence`.  The
paper's correspondence rests on three identities between a triple, its
Maurer-Cartan element, its extension and its gauge moves, and
:meth:`CandidateSpace.check_identities` compares both sides of each as
polynomials, once per space, with the digits and the gauge parameter's
entries as variables: the Maurer-Cartan residual is the associator of the
twisted product, the canonical section gives the triple back, and the
closed-form gauge action on the element is :func:`apply_equivalence`.  An
identity of polynomials holds at every candidate and every beta, so it
holds at every hit, where the extension route has already tested
associativity numerically.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .algebra import Algebra, SplitSpace, associativity_witness, basis_associator, direct_sum_space
from .cochains import MultilinearMap
from .exact_sequences import (
    BrokenExtensionError,
    block_presentation,
    canonical_section,
    cocycle_from_section,
)
from .fields import PrimeField
from .linalg import (
    Vector,
    solution_space,
    vec_add,
    vec_scale,
)
from .nonabelian import (
    CrossCheckError,
    GaugeParam,
    NabCocycle,
    Residual,
    all_gauge_params,
    apply_equivalence,
    associator_residual,
    build_extension,
    cocycle_to_mc,
    curvature_residuals,
    gauge_closed_form,
    is_valid_cocycle,
    twist_residuals,
    twist_slots,
)

DEFAULT_BUDGET = 2 ** 24


class BudgetExceededError(ValueError):
    """The requested sweep is larger than the configured budget."""


def _digits(n: int, p: int, count: int) -> List[int]:
    """The ``count`` lowest base-p digits of ``n``, least significant first."""
    out = []
    for _ in range(count):
        n, d = divmod(n, p)
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# symbolic passes read as affine systems, once per space
# ---------------------------------------------------------------------------

#: A product of variables: ``()``, ``(k,)`` or ``(k, l)`` with ``k <= l``.
Monomial = Tuple[int, ...]


def _terms(x) -> Dict[Monomial, int]:
    """The ``{monomial: coefficient}`` of a :class:`_Poly` or a scalar."""
    return x.terms if isinstance(x, _Poly) else ({(): x} if x else {})


def _canonical(terms: Dict[Monomial, int], p: int):
    """``terms`` with every coefficient reduced into 1..p-1 and the zero ones
    dropped: a :class:`_Poly`, or the plain ``int`` when no variable is left.
    The one reduction of :class:`_Poly` arithmetic."""
    out = {m: r for m, c in terms.items() if (r := c % p)}
    if len(out) > 1 or (out and () not in out):
        return _Poly(out, p)
    return out.get((), 0)


class _Poly:
    """A polynomial of degree at most 2 over F_p in numbered variables,
    ``{monomial: coefficient}``: a candidate's index digits, and the entries
    of a gauge parameter.

    It has what :class:`PrimeField` asks of a scalar in ``add``, ``sub``,
    ``mul`` and ``neg`` (``+``, ``-``, ``*``, unary ``-`` and ``% p``) and
    the zero tests of the kernels (``== 0``, ``!= 0``, truth value), so the
    residual generators, :func:`basis_associator`, :func:`build_extension`,
    :func:`cocycle_to_mc`, :func:`associator_residual`,
    :func:`gauge_closed_form`, :func:`apply_equivalence` and
    :func:`cocycle_from_section` (its :func:`verify_extension` and
    :func:`section_cocycle`) run over it as written.  :func:`_read_affine`
    reads the stages they return, and
    :meth:`CandidateSpace.check_identities` compares the identities.  A
    product above degree 2 raises :class:`CrossCheckError`: every read and
    identity relies on its formula being at most quadratic.

    Arithmetic keeps a canonical form (:func:`_canonical`): coefficients in
    1..p-1, no zero term, and a result with no variable left is a plain
    ``int``.  So ``% p`` hands the value back unchanged, a kernel's zero
    tests cost no reduction, and once the variables of a sum cancel, the
    rest of the formula runs on ints.
    """

    __slots__ = ("terms", "p")

    def __init__(self, terms: Dict[Monomial, int], p: int):
        self.terms = terms
        self.p = p

    def __add__(self, other):
        terms = dict(self.terms)
        if isinstance(other, _Poly):
            for m, c in other.terms.items():
                terms[m] = terms.get(m, 0) + c
        elif other:
            terms[()] = terms.get((), 0) + other
        else:
            return self
        return _canonical(terms, self.p)

    __radd__ = __add__

    def __neg__(self):
        return _canonical({m: -c for m, c in self.terms.items()}, self.p)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        p = self.p
        if not isinstance(other, _Poly):
            # a scalar: no monomial loop
            other %= p
            if other == 1:
                return self
            return _canonical({m: c * other for m, c in self.terms.items()}, p) if other else 0
        terms: Dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                # each monomial is sorted, so the product needs sorting only
                # when both hold a variable
                m = tuple(sorted(m1 + m2)) if m1 and m2 else m1 or m2
                if len(m) > 2:
                    raise CrossCheckError(
                        f"a product of the variables {m} has degree {len(m)};"
                        " the formula is not of degree at most 2"
                    )
                terms[m] = terms.get(m, 0) + c1 * c2
        return _canonical(terms, p)

    __rmul__ = __mul__

    def __mod__(self, p: int) -> "_Poly":
        # canonical already
        return self

    def __eq__(self, other) -> bool:
        return self.terms == _terms(other)

    def __bool__(self) -> bool:
        # nonzero exactly when some coefficient is, as a scalar: the
        # kernels' ``if c`` and ``MultilinearMap.is_zero`` skip zero terms
        return any(self.terms.values())

    __hash__ = None


@dataclass(frozen=True)
class _Affine:
    """Rows ``r0 + M x`` over F_p, affine in the unknowns ``x``, the
    variables ``lo`` to ``hi - 1``, with ``r0`` and ``M`` polynomials in the
    parameters, the variables below ``lo``.  ``touched`` lists, in order,
    the rows that some term reaches; the others are zero whatever the
    parameters, so they are dropped once, at read time.  ``terms`` maps each
    monomial in the parameters to the ``(position, coefficient)`` pairs it
    adds to the augmented matrix ``[M | -r0]`` of the touched rows, flat and
    row by row.  :meth:`at` and :meth:`solutions` write the parameters in;
    :meth:`vanishes_at` writes in the unknowns too."""

    field: PrimeField
    lo: int
    hi: int
    touched: Tuple[int, ...]
    terms: Tuple[Tuple[Monomial, Tuple[Tuple[int, int], ...]], ...]

    def at(self, params: Sequence[int]) -> List[Vector]:
        """The touched rows of ``[M | -r0]`` with ``params`` written in, or
        one zero row, so that the width holds, when no row is touched: a
        sparse sum over the monomials whose parameters are all nonzero."""
        width = self.hi - self.lo + 1
        aug = [0] * (max(len(self.touched), 1) * width)
        for mono, entries in self.terms:
            w = 1
            for k in mono:
                w *= params[k]
            if w:
                for pos, c in entries:
                    aug[pos] += w * c
        p = self.field.p
        aug = [v % p for v in aug]
        return [tuple(aug[r : r + width]) for r in range(0, len(aug), width)]

    # cached: regrouped once, then read at every digit vector
    @cached_property
    def _row_terms(self) -> Tuple[Tuple[Tuple[int, int, int], ...], ...]:
        """:attr:`terms` regrouped by touched row, in order: each term as
        ``(k, l, c)``, the digits ``k`` and ``l`` times ``c``, where ``-1``
        stands for the constant 1, so a row is ``sum c * d[k] * d[l]``."""
        width = self.hi - self.lo + 1
        rows: List[List[Tuple[int, int, int]]] = [[] for _ in self.touched]
        for mono, entries in self.terms:
            for pos, c in entries:
                r, col = divmod(pos, width)
                # the last column holds -r0; any other, the unknown lo + col
                if col == width - 1:
                    full, c = mono, -c
                else:
                    full = mono + (self.lo + col,)
                k, l = (*full, -1, -1)[:2]
                rows[r].append((k, l, c))
        return tuple(tuple(row) for row in rows)

    def vanishes_at(self, digits: Sequence[int]) -> bool:
        """Whether every row is zero with both the parameters and the
        unknowns read off ``digits``, a full digit vector: the touched rows
        are evaluated in order, and the first nonzero one ends the test."""
        p = self.field.p
        d = (*digits, 1)
        for row in self._row_terms:
            s = 0
            for k, l, c in row:
                s += c * d[k] * d[l]
            if s % p:
                return False
        return True

    def solutions(self, params: Sequence[int]) -> Iterator[Vector]:
        """Every value of the unknowns that zeroes the rows with ``params``
        written in: one solution plus every combination of the nullspace,
        both from one :func:`solution_space`.  An empty fibre costs that one
        elimination."""
        field = self.field
        # a repeated row constrains nothing more, so elimination sees each
        # distinct row once
        rows = list(dict.fromkeys(self.at(params)))
        solved = solution_space(
            field, tuple(row[:-1] for row in rows), tuple(row[-1] for row in rows)
        )
        if solved is None:
            return
        x0, basis = solved
        for combo in itertools.product(list(field.elements()), repeat=len(basis)):
            x = x0
            for c, v in zip(combo, basis):
                if c != 0:
                    x = vec_add(field, x, vec_scale(field, c, v))
            yield x


def _read_affine(
    field: PrimeField, read: str, values: Iterable[Tuple[str, object]], lo: int, hi: int, names: List[str]
) -> _Affine:
    """The :class:`_Affine` of symbolic ``(label, value)`` rows, in order,
    with the variables below ``lo`` as parameters and ``lo`` to ``hi - 1``
    as unknowns.  Raises :class:`CrossCheckError`, naming the read, the
    row's label and the monomial (each variable by its entry of ``names``),
    if a term has degree 2 in the unknowns or reads a variable from ``hi``
    on, a later stage's digit: the rows must be affine in the unknowns and
    decided before the later variables are.  A row with no term is zero for
    every parameter value, so only the rows with some term are kept, as
    :attr:`_Affine.touched`."""
    width = hi - lo + 1
    by_param: Dict[Monomial, List[Tuple[int, int]]] = {}
    touched: List[int] = []
    for row, (label, value) in enumerate(values):
        terms = _terms(value)
        if terms:
            start = len(touched) * width
            touched.append(row)
        for mono, c in terms.items():
            # a monomial is sorted, so its one unknown, if any, comes last;
            # a term free of unknowns goes to the column of -r0
            if not mono or mono[-1] < lo:
                param, position, c = mono, start + width - 1, -c
            elif mono[-1] < hi and (len(mono) == 1 or mono[-2] < lo):
                param, position = mono[:-1], start + mono[-1] - lo
            else:
                why = "in a later stage's digit" if mono[-1] >= hi else "of degree 2 in the unknowns"
                raise CrossCheckError(
                    f"{read}: {label} has the term {'*'.join(names[k] for k in mono)} {why}"
                )
            by_param.setdefault(param, []).append((position, c))
    return _Affine(field, lo, hi, tuple(touched), tuple((m, tuple(e)) for m, e in by_param.items()))


def _labelled(residuals: Iterable[Residual]) -> List[Tuple[str, Vector]]:
    """Each residual's discrepancy, named by its kind and basis triple."""
    return [
        (f"{kind.value}{' ' + detail if detail else ''} at {witness}", disc)
        for kind, witness, disc, detail in residuals
    ]


def _symbolic_digits(count: int, p: int) -> List[_Poly]:
    """The index digits ``0`` to ``count - 1`` as variables over F_p."""
    return [_Poly({(k,): 1}, p) for k in range(count)]


@dataclass(frozen=True)
class CandidateSpace:
    """All twist triples for a fixed pair of finite-field algebras."""

    A: Algebra
    B: Algebra
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if not isinstance(self.A.field, PrimeField):
            raise ValueError("candidate enumeration needs a prime field")
        if self.A.field != self.B.field:
            raise ValueError("candidate spaces need one common field")
        if not self.A.is_associative():
            raise ValueError("kernel algebra is not associative")
        if not self.B.is_associative():
            raise ValueError("quotient algebra is not associative")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")

    @property
    def p(self) -> int:
        return self.A.field.p

    # cached: the shape of the space is fixed and every decode reads it
    @cached_property
    def shapes(self) -> Tuple[Tuple[Tuple[int, int], int], ...]:
        a, b = self.A.dim, self.B.dim
        # (source_dims, target) per component, in phi, psi, chi order
        return (((b, a), a), ((a, b), a), ((b, b), a))

    @cached_property
    def entry_counts(self) -> Tuple[int, ...]:
        return tuple(t * dims[0] * dims[1] for dims, t in self.shapes)

    @cached_property
    def total_entries(self) -> int:
        return sum(self.entry_counts)

    @cached_property
    def total_candidates(self) -> int:
        return self.p ** self.total_entries

    @cached_property
    def extension_layout(self) -> Tuple[Algebra, Tuple[int, ...]]:
        """The zero candidate's twisted product and, for each index digit,
        the slot of the structure-constant table that holds that digit: the
        :func:`twist_slots` of the split, the layout that
        :func:`build_extension` writes.  A candidate's table is the zero
        table with its digits written into their slots."""
        zero, split = build_extension(self.candidate(0))
        return zero, twist_slots(split)

    def _digit_names(self) -> List[str]:
        """The index digits by name: ``phi[k]``, ``psi[k]`` and ``chi[k]``."""
        parts = zip(("phi", "psi", "chi"), self.entry_counts)
        return [f"{part}[{k}]" for part, n in parts for k in range(n)]

    def _read_stages(
        self, route: str, residuals: Sequence[Sequence[Tuple[str, Vector]]]
    ) -> Tuple[_Affine, ...]:
        """The phi, psi and chi stages of ``route``, one :func:`_read_affine`
        each of its ``(label, discrepancy)`` residuals, a row per component:
        a stage's own digits are its unknowns, the earlier ones its
        parameters, and a later stage's digits are refused."""
        n_phi, n_psi, _ = self.entry_counts
        bounds = ((0, n_phi), (n_phi, n_phi + n_psi), (n_phi + n_psi, self.total_entries))
        names = self._digit_names()
        stages = []
        for part, (lo, hi), stage in zip(("phi", "psi", "chi"), bounds, residuals):
            rows = (
                (f"residual {label}, component {k},", v) for label, disc in stage for k, v in enumerate(disc)
            )
            stages.append(_read_affine(self.A.field, f"{route}, {part} stage", rows, lo, hi, names))
        return tuple(stages)

    @cached_property
    def cocycle_stages(self) -> Tuple[_Affine, _Affine, _Affine]:
        """The phi, psi and chi stages of the cocycle route, from one pass
        of :func:`twist_residuals` and one of :func:`curvature_residuals`
        with every digit a variable: phi from the ``phi_leibniz`` rows,
        psi from the other :func:`twist_residuals` rows, chi from
        :func:`curvature_residuals`."""
        c = self._decode(_symbolic_digits(self.total_entries, self.p))
        twist = list(twist_residuals(self.A, self.B, c.phi, c.psi))
        leibniz = [r for r in twist if r[3] == "phi_leibniz"]
        others = [r for r in twist if r[3] != "phi_leibniz"]
        curvature = curvature_residuals(self.A, self.B, c.phi, c.psi, c.chi)
        return self._read_stages("cocycle route", [_labelled(r) for r in (leibniz, others, curvature)])

    @cached_property
    def _symbolic_extension(self) -> Algebra:
        """The twisted product of the symbolic candidate, every digit a
        :class:`_Poly` variable in its slot."""
        return build_extension(self._decode(_symbolic_digits(self.total_entries, self.p)))[0]

    # cached: the extension stages and the Maurer-Cartan identity read it
    @cached_property
    def _symbolic_associators(self) -> Dict[Tuple[int, int, int], Vector]:
        """:func:`basis_associator` of :attr:`_symbolic_extension` at every
        basis triple, in order."""
        E = self._symbolic_extension
        triples = itertools.product(range(E.dim), repeat=3)
        return {t: basis_associator(E.field, E.dim, E.table, *t) for t in triples}

    @cached_property
    def extension_stages(self) -> Tuple[_Affine, _Affine, _Affine]:
        """The phi, psi and chi stages of the extension route, from the
        :attr:`_symbolic_associators` of the triples of :func:`_stage_triples`."""
        rows = [
            [(f"associator at basis triple {t}", self._symbolic_associators[t]) for t in triples]
            for triples in _stage_triples(self)
        ]
        return self._read_stages("extension route", rows)

    def _identity_sides(self) -> Iterator[Tuple[str, Sequence, Sequence, Callable[[int], str]]]:
        """The identities of :meth:`check_identities` in turn, each as its
        failure message, its two sides slot by slot and the name of slot
        ``q``: the digits are the variables ``0`` to ``n - 1``, and beta's
        entries, row by row, the ``a * b`` after them."""
        n, a, b = self.total_entries, self.A.dim, self.B.dim
        variables = _symbolic_digits(n + a * b, self.p)
        c = self._decode(variables[:n])
        beta = GaugeParam(tuple(tuple(variables[n + i * b : n + (i + 1) * b]) for i in range(a)))
        base, split = direct_sum_space(self.A, self.B)
        x = cocycle_to_mc(c)
        triples = list(self._symbolic_associators.items())
        yield (
            "Maurer-Cartan identity: associator_residual differs from the twisted product's associator",
            associator_residual(x, base, split).coeffs,
            # the residual is stored target-outermost: a block of triples per component
            [v[k] for k in range(split.dim) for _, v in triples],
            lambda q: f"basis triple {triples[q % len(triples)][0]}, component {q // len(triples)}",
        )
        pres = block_presentation(self._symbolic_extension, self.A, self.B)
        try:
            recovered = cocycle_from_section(pres, canonical_section(pres))
        except BrokenExtensionError as exc:
            raise CrossCheckError(f"section identity: the symbolic extension fails: {exc}") from None
        yield (
            "section identity: the canonical section's triple differs from the candidate",
            sum(_key(recovered), ()),
            variables[:n],
            self._digit_names().__getitem__,
        )
        yield (
            "gauge identity: gauge_closed_form differs from apply_equivalence",
            gauge_closed_form(x, beta, base, split).coeffs,
            cocycle_to_mc(apply_equivalence(c, beta)).coeffs,
            "slot {} of the element".format,
        )

    def check_identities(self) -> None:
        """Check, as polynomials, the three identities that tie a twist
        triple ``c`` to its Maurer-Cartan element ``x = cocycle_to_mc(c)``,
        its extension and its gauge moves:

        1. ``associator_residual(x)`` is the associator of the twisted
           product, :attr:`_symbolic_extension`, at every basis triple;
        2. :func:`cocycle_from_section` on the canonical section of that
           product's :func:`block_presentation` gives ``c`` back (it reads
           the twist through the block projections, not through
           :func:`twist_slots`, so it checks that layout too);
        3. ``gauge_closed_form(x, beta)`` is
           ``cocycle_to_mc(apply_equivalence(c, beta))``.

        Each side is a :class:`_Poly` of degree at most 2 in the digits and
        the entries of beta (:meth:`_identity_sides`), so one pass checks
        every candidate under every beta.  Raises :class:`CrossCheckError`
        naming the identity and the first slot where its two sides differ,
        or when the symbolic extension fails verification."""
        for what, left, right, where in self._identity_sides():
            # both sides are canonical, reduced ints or _Poly, so equal
            # values compare equal
            for q, (u, v) in enumerate(zip(left, right, strict=True)):
                if u != v:
                    raise CrossCheckError(f"{what} at {where(q)}")

    def _map(self, part: int, digits: Sequence[int]) -> MultilinearMap:
        dims, target = self.shapes[part]
        return MultilinearMap(self.A.field, dims, target, tuple(digits))

    def _decode(self, digits: Sequence) -> NabCocycle:
        """The candidate whose index digits, least significant first, are
        ``digits``, numbers or :class:`_Poly` variables: phi takes the low
        digits, psi the middle ones and chi the high ones."""
        n_phi, n_psi, _ = self.entry_counts
        parts = (digits[:n_phi], digits[n_phi : n_phi + n_psi], digits[n_phi + n_psi :])
        return NabCocycle(self.A, self.B, *(self._map(k, part) for k, part in enumerate(parts)))

    def _index(self, digits: Sequence[int]) -> int:
        """The candidate index whose base-p digits, least significant first,
        are ``digits``."""
        idx = 0
        for d in reversed(digits):
            idx = idx * self.p + d
        return idx

    def candidate(self, index: int) -> NabCocycle:
        """Decode a candidate from its base-p digit expansion."""
        if not 0 <= index < self.total_candidates:
            raise IndexError(f"candidate index {index} out of range")
        return self._decode(_digits(index, self.p, self.total_entries))

    def exhaustive_indices(self) -> range:
        if self.total_candidates > self.budget:
            raise BudgetExceededError(
                f"{self.total_candidates} candidates exceed the budget of {self.budget};"
                " use sampling"
            )
        return range(self.total_candidates)

    def sample_indices(self, count: int, seed: int) -> Tuple[int, ...]:
        """Deterministic uniform sample without replacement (sorted).  The
        budget bounds a sample as it bounds an exhaustive run."""
        import random

        if not 0 <= count <= self.total_candidates:
            raise ValueError(
                f"sample size {count} is not between 0 and the"
                f" {self.total_candidates} candidates of the space"
            )
        if count > self.budget:
            raise BudgetExceededError(
                f"a sample of {count} candidates exceeds the budget of {self.budget}"
            )
        rng = random.Random(seed)
        seen = set()
        while len(seen) < count:
            seen.add(rng.randrange(self.total_candidates))
        return tuple(sorted(seen))

    def gauge_params(self) -> List[GaugeParam]:
        """Every linear map from the quotient into the kernel."""
        a, b = self.A.dim, self.B.dim
        if self.p ** (a * b) > self.budget:
            raise BudgetExceededError("gauge parameter space exceeds the budget")
        return list(all_gauge_params(self.A.field, a, b))


# ---------------------------------------------------------------------------
# scanning (parallelizable, deterministic)
# ---------------------------------------------------------------------------

def _sample_chunk(
    space: CandidateSpace, stages: Sequence[_Affine], chunk: Sequence[int]
) -> List[Tuple[int, List[int]]]:
    """The ``(index, digits)`` of each index of ``chunk`` whose digits zero
    the rows of the phi, psi and chi ``stages``, tested in turn, row by row:
    the first nonzero row rejects the index."""
    p, n, total = space.p, space.total_entries, space.total_candidates
    hits = []
    for i in chunk:
        if not 0 <= i < total:
            raise IndexError(f"candidate index {i} out of range")
        digits = _digits(i, p, n)
        if all(stage.vanishes_at(digits) for stage in stages):
            hits.append((i, digits))
    return hits


def _fibre_chunk(
    space: CandidateSpace, stages: Sequence[_Affine], phis: Sequence[Vector]
) -> List[Tuple[int, Vector]]:
    """The ``(index, digits)`` of every solution of the phi, psi and chi
    ``stages`` over each ``phi`` of ``phis``: psi over the psi stage's
    solutions with phi fixed, then chi over the chi stage's with phi and psi
    fixed."""
    _, psi_stage, chi_stage = stages
    hits = []
    for phi in phis:
        for psi in psi_stage.solutions(phi):
            for chi in chi_stage.solutions(phi + psi):
                digits = phi + psi + chi
                hits.append((space._index(digits), digits))
    return hits


# the block pattern of a basis triple -> the stage that solves it: 0 for
# phi, 1 for psi, 2 for chi.  AAA is the associativity of A.
_STAGE_OF_PATTERN = {"BAA": 0, "AAB": 1, "ABA": 1, "BAB": 1, "BBA": 2, "ABB": 2, "BBB": 2}


def _stage_triples(space: CandidateSpace) -> Tuple[Tuple[Tuple[int, int, int], ...], ...]:
    """The basis triples of A (+) B that decide phi, psi and chi in turn,
    grouped by block pattern.  A triple's associator reads the twisted
    product only through its blocks: a BAA associator is linear in phi and
    reads nothing else; an AAB, ABA or BAB one is affine in psi once phi is
    fixed and reads no chi; a BBA, ABB or BBB one is affine in chi once phi
    and psi are fixed."""
    split = SplitSpace(space.A.dim, space.B.dim)
    stages: Tuple[List[Tuple[int, int, int]], ...] = ([], [], [])
    for triple in itertools.product(range(split.dim), repeat=3):
        stage = _STAGE_OF_PATTERN.get("".join(split.block_of(i) for i in triple))
        if stage is not None:
            stages[stage].append(triple)
    return tuple(tuple(triples) for triples in stages)


def _chunks(tasks: Sequence, parts: int) -> List[List]:
    n = max(1, -(-len(tasks) // parts))
    return [list(tasks[i : i + n]) for i in range(0, len(tasks), n)]


def worker_count(jobs: int, tasks: int) -> int:
    """Processes worth starting: no more than requested, than CPUs, or than
    tasks to hand out, and at least one."""
    return max(1, min(jobs, os.cpu_count() or 1, tasks))


def _scan(space, stages, tasks, worker, jobs) -> List[Tuple]:
    """The ``(index, digits)`` pairs that ``worker`` keeps of ``tasks`` with
    the ``stages``, in index order.

    A pool starts only for 64 tasks or more (candidate indices for a
    sampled run, phi points for an exhaustive one).  The pool module, and
    :mod:`multiprocessing` with it, is imported only when a pool starts, so
    a serial run and every other verb do not pay for that import.
    """
    tasks = list(tasks)
    chunks = _chunks(tasks, worker_count(jobs, len(tasks)))
    if len(chunks) <= 1 or len(tasks) < 64:
        out = worker(space, stages, tasks)
    else:
        from concurrent.futures import ProcessPoolExecutor

        out = []
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            for part in pool.map(worker, itertools.repeat(space), itertools.repeat(stages), chunks):
                out.extend(part)
    return sorted(out, key=lambda hit: hit[0])


def _solve(
    space: CandidateSpace,
    read: Callable[[], Sequence[_Affine]],
    indices: Optional[Iterable[int]],
    jobs: int,
) -> List[Tuple[int, Sequence[int]]]:
    """The ``(index, digits)`` of every candidate that all three stages
    ``read()`` returns accept, in index order: the stages solved in turn on
    an exhaustive run (``indices`` None; over the budget it raises
    :class:`BudgetExceededError` before anything compiles), and tested row
    by row on a sample.  The stages are read before a pool starts, so that
    no worker compiles them."""
    if indices is None:
        space.exhaustive_indices()
        stages = read()
        return _scan(space, stages, stages[0].solutions(()), _fibre_chunk, jobs)
    stages = read()
    return _scan(space, stages, indices, _sample_chunk, jobs)


def enumerate_cocycles(
    space: CandidateSpace,
    indices: Optional[Iterable[int]] = None,
    jobs: int = 1,
) -> List[Tuple[int, NabCocycle]]:
    """All candidates passing the cocycle equations, in index order, as
    ``(index, cocycle)`` pairs: exactly the indices that
    :func:`is_valid_cocycle` accepts.

    The stages are :attr:`CandidateSpace.cocycle_stages`, solved on an
    exhaustive run (``indices`` None) and tested row by row on a sample, as
    the module docstring describes; a fibre costs one elimination and no
    generator call, and only the hits are decoded.
    """
    return [(i, space._decode(d)) for i, d in _solve(space, lambda: space.cocycle_stages, indices, jobs)]


def enumerate_extensions(
    space: CandidateSpace,
    indices: Optional[Iterable[int]] = None,
    jobs: int = 1,
) -> List[Tuple[int, Algebra]]:
    """All candidates whose twisted product is associative, in index order,
    as ``(index, extension algebra)`` pairs, an algebra built for each hit
    only.

    This is the oracle of the cocycle route: its stages,
    :attr:`CandidateSpace.extension_stages`, are read off the twisted-product
    table and never off the cocycle equations.  They are solved on an
    exhaustive run (``indices`` None) and tested row by row on a sample, as
    the module docstring describes.  Each hit's digits are then written into
    their slots of :attr:`CandidateSpace.extension_layout`, the table that
    :func:`build_extension` writes, and tested on every basis triple,
    numerically; a hit that fails raises :class:`CrossCheckError` with its
    index and the triple.
    """
    hits = _solve(space, lambda: space.extension_stages, indices, jobs)
    zero, slots = space.extension_layout
    table = list(zero.table)
    out = []
    for index, digits in hits:
        for slot, digit in zip(slots, digits):
            table[slot] = digit
        witness = associativity_witness(zero.field, zero.dim, table)
        if witness is not None:
            raise CrossCheckError(
                f"staged extension route: candidate {index} is not associative"
                f" at basis triple {witness}"
            )
        out.append((index, replace(zero, table=tuple(table))))
    return out


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Orbit:
    """A gauge orbit: its least cocycle index, its members in index order,
    and per member a one-step witness ``(beta,)`` with
    ``apply_equivalence(representative, beta) == member`` (``()`` for the
    representative itself)."""

    representative: int
    members: Tuple[int, ...]
    witnesses: Tuple[Tuple[int, Tuple[GaugeParam, ...]], ...]


@dataclass
class ClassificationReport:
    p: int
    a_dim: int
    b_dim: int
    num_candidates: int
    num_cocycles: int
    cocycle_indices: Tuple[int, ...]
    num_extensions: int
    orbits: List[Orbit]
    checks: Dict[str, bool] = dc_field(default_factory=dict)


def _key(c: NabCocycle):
    return (c.phi.coeffs, c.psi.coeffs, c.chi.coeffs)


def orbit_partition(space: CandidateSpace, cocycles: Sequence[Tuple[int, NabCocycle]]) -> List[Orbit]:
    """Partition an equivalence-closed cocycle list into gauge orbits.

    Equivalence is the action of the additive group Hom(B, A) of gauge
    parameters (applying beta1 then beta2 is applying beta1 + beta2), so a
    class is exactly an orbit ``{apply_equivalence(c, beta) : beta}``.  The
    cocycles are walked in index order; each one not yet placed is the
    representative of a new orbit, and each member's witness is ``(beta,)``
    for the first ``beta`` in :meth:`CandidateSpace.gauge_params` order that
    reaches it.

    Raises :class:`CrossCheckError` when an image leaves the list or lands in
    an earlier orbit, or when |orbit| * |stabilizer| is not p^(a*b).  That
    the closed-form gauge action on the Maurer-Cartan elements gives the
    same orbits is checked by :func:`census`, once per space, as the gauge
    identity of :meth:`CandidateSpace.check_identities`.
    """
    betas = space.gauge_params()
    group_order = space.p ** (space.A.dim * space.B.dim)
    cocycles = sorted(cocycles, key=lambda item: item[0])
    pos_by_key = {_key(c): pos for pos, (_, c) in enumerate(cocycles)}

    # position -> the witnesses of its orbit, keyed by member position
    orbit_of: Dict[int, Dict[int, Tuple[GaugeParam, ...]]] = {}
    found: List[Dict[int, Tuple[GaugeParam, ...]]] = []
    for pos, (i, c) in enumerate(cocycles):
        if pos not in orbit_of:
            witnesses: Dict[int, Tuple[GaugeParam, ...]] = {pos: ()}
            stabilizer = 0
            for beta in betas:
                to = pos_by_key.get(_key(apply_equivalence(c, beta)))
                if to is None:
                    raise CrossCheckError(
                        f"equivalence carried cocycle {i} out of the enumerated set; "
                        "the list was not exhaustive or validity is not preserved"
                    )
                if to in orbit_of:
                    raise CrossCheckError(f"an image of cocycle {i} lies in an earlier orbit")
                if to == pos:
                    stabilizer += 1
                witnesses.setdefault(to, (beta,))
            if len(witnesses) * stabilizer != group_order:
                raise CrossCheckError(
                    f"orbit of cocycle {i} has {len(witnesses)} members and "
                    f"{stabilizer} stabilizing parameters, not {group_order} in all"
                )
            for to in witnesses:
                orbit_of[to] = witnesses
            found.append(witnesses)

    orbits = []
    for witnesses in found:
        members = sorted(witnesses)
        orbits.append(
            Orbit(
                representative=cocycles[members[0]][0],
                members=tuple(cocycles[pos][0] for pos in members),
                witnesses=tuple((cocycles[pos][0], witnesses[pos]) for pos in members),
            )
        )
    return orbits


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

def census(
    space: CandidateSpace, jobs: int = 1, indices: Optional[Sequence[int]] = None
) -> ClassificationReport:
    """Run the whole pipeline with every cross-check armed.

    ``indices`` restricts the run to a sample of candidates; a sample is not
    closed under equivalence, so its report lists no orbits.  Both routes
    solve their stages on an exhaustive run and test a sample on them row by
    row; when the routes disagree, :func:`is_valid_cocycle` is the oracle
    that the mismatch message quotes.

    A failed check raises :class:`CrossCheckError`.  The ``checks`` of a
    returned report say what held:

    - ``counts_match``: both routes found the same indices;
    - ``cocycles_satisfy_mc``: the Maurer-Cartan identity of
      :meth:`CandidateSpace.check_identities`, which runs once a hit is
      found, on a sample too, and the extension route's numeric
      associativity test of every hit;
    - ``sampled``: a sample, whose report leaves out the keys below;
    - ``tables_match``: each hit's extension table is
      :func:`build_extension`'s;
    - ``section_roundtrip``: the section identity;
    - ``partitions_agree``: the checks of :func:`orbit_partition`, whose
      orbits the gauge identity makes those of the closed-form action on
      the Maurer-Cartan elements.

    The numeric :func:`associator_residual`, :func:`gauge_closed_form` and
    :func:`section_cocycle` stay the routes of the CLI verbs.
    """
    cocycles = enumerate_cocycles(space, indices, jobs)
    extensions = enumerate_extensions(space, indices, jobs)

    cocycle_idx = [i for i, _ in cocycles]
    extension_idx = [i for i, _ in extensions]
    if cocycle_idx != extension_idx:
        only_c = sorted(set(cocycle_idx) - set(extension_idx))[:5]
        only_e = sorted(set(extension_idx) - set(cocycle_idx))[:5]
        # the unstaged equations tell a fault of the solver or the compiled
        # row test from a disagreement between the equations and associativity
        unstaged = [i for i in only_c + only_e if is_valid_cocycle(space.candidate(i))]
        raise CrossCheckError(
            f"cocycle/extension mismatch: valid-only {only_c}, "
            f"associative-only {only_e}; the unstaged equations accept {unstaged}"
        )

    if cocycles:
        space.check_identities()

    report = ClassificationReport(
        p=space.p,
        a_dim=space.A.dim,
        b_dim=space.B.dim,
        num_candidates=space.total_candidates,
        num_cocycles=len(cocycles),
        cocycle_indices=tuple(cocycle_idx),
        num_extensions=len(extensions),
        orbits=[],
        checks={"counts_match": True, "cocycles_satisfy_mc": True},
    )
    if indices is not None:
        report.checks["sampled"] = True
        return report

    for (i, c), (_, E) in zip(cocycles, extensions):
        if build_extension(c)[0].table != E.table:
            raise CrossCheckError(f"the extension route's table of candidate {i} is not build_extension's")

    report.orbits = orbit_partition(space, cocycles)
    report.checks.update(tables_match=True, section_roundtrip=True, partitions_agree=True)
    return report

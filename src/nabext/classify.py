"""Classification over prime fields: find every valid twist triple, split
the cocycles into the orbits of the gauge group Hom(B, A), and cross-check
every step against the extension picture.  Every orbit member carries a
one-step witness from its representative.

Candidates are indexed by writing all twist coefficients as base-p digits,
(phi, psi) the low ones and chi the high ones, so runs are deterministic
and trivially splittable across workers.

Each formula is evaluated once per space over :class:`_Poly`, a polynomial
of degree at most 2 in numbered variables: the digits, then the entries of
a gauge parameter beta.  No equation is written out here.  Two of these
passes are read as affine families, rows ``r0 + M x`` in some unknowns
``x``, with ``r0`` and ``M`` polynomials in other variables, the
parameters.  One grouping, :func:`_by_monomial`, files the terms of both
under their parameter monomials and refuses a term of degree 2 in the
unknowns:

- The stages of the cocycle route, :attr:`CandidateSpace.cocycle_stages`,
  are the rows of :func:`cocycle_residuals`, solved for phi, then psi with
  phi fixed, then chi with both fixed.  A stage's unknowns are its digits
  and its parameters the earlier ones (an :class:`_Affine`).  A row goes
  to the earliest stage that reads no later digit and has no term of
  degree 2 in its unknowns, so it is tested as soon as its variables are
  fixed; a row of degree 2 in chi fits no stage and raises
  :class:`CrossCheckError`.  An exhaustive run (:func:`_fibre_chunk`) tests
  a stage's rows that read its parameters only, and where they all vanish
  eliminates the dense rows of :meth:`_Affine.at`.  A sample is tested row
  by row, stopped at the first nonzero row (:func:`_sample_chunk`).
- The gauge action, :attr:`CandidateSpace.gauge_moves`, is the slots of
  :func:`apply_equivalence` of the symbolic candidate under the symbolic
  beta.  Its unknowns are the digits and its parameters beta's entries;
  each beta, written in as a sparse sum per slot, is one affine move of
  the digits, which :func:`orbit_partition` applies to each representative.

The route identity, :meth:`CandidateSpace.check_route_identity`, checks once
per space that the stage rows, as polynomials in the digits, are the
associators of the twisted product that :func:`build_extension` writes, up
to sign (:func:`_signed_key`): the paper's starting point, that the cocycle
equations are associativity of the twisted product.  Equal rows have equal
zero sets, so the stages accept exactly the candidates whose twisted
product is associative, at every candidate.  Each hit is then tested on
every basis triple, numerically (:func:`enumerate_extensions`).
:meth:`CandidateSpace.check_identities` compares, once per space, both
sides of four identities between a triple, its Maurer-Cartan element, its
extension and its gauge image as polynomials in the digits and beta's
entries, so they hold at every hit and every beta.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .algebra import Algebra, associativity_witness, basis_associators, direct_sum_space
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
    all_gauge_params,
    apply_equivalence,
    associator_residual,
    build_extension,
    cocycle_residuals,
    cocycle_to_mc,
    gauge_closed_form,
    is_valid_cocycle,
    twist_slots,
)

DEFAULT_BUDGET = 2 ** 24


class BudgetExceededError(ValueError):
    """The requested sweep is larger than the configured budget."""


# ---------------------------------------------------------------------------
# symbolic passes read as affine systems, once per space
# ---------------------------------------------------------------------------

#: A product of variables: ``()``, ``(k,)`` or ``(k, l)`` with ``k <= l``.
Monomial = Tuple[int, ...]

#: The stages of the cocycle route, in the order they are solved.
_STAGES = ("phi", "psi", "chi")


def _terms(x) -> Dict[Monomial, int]:
    """The ``{monomial: coefficient}`` of a :class:`_Poly` or a scalar."""
    return x.terms if isinstance(x, _Poly) else ({(): x} if x else {})


def _canonical(terms: Dict[Monomial, int], p: int):
    """``terms`` with every coefficient reduced into 1..p-1 and the zero ones
    dropped: a :class:`_Poly`, or the plain ``int`` when no variable is left.
    The reduction of a scalar multiple and of a general product, and of a
    raw dict of terms; sums, negation and the product of two variables keep
    the canonical form without it."""
    out = {m: r for m, c in terms.items() if (r := c % p)}
    if len(out) > 1 or (out and () not in out):
        return _Poly(out, p)
    return out.get((), 0)


def _signed_sum(sign: int):
    """The :class:`_Poly` operation ``self + sign * other``, ``sign`` 1 for
    a sum and -1 for a difference: the left terms copied, and only the
    right operand's monomials reduced into them, those that cancel
    dropped."""

    def op(self, other):
        if isinstance(other, _Poly):
            items = other.terms.items()
        elif other:
            items = (((), other),)
        else:
            return self
        p = self.p
        terms = dict(self.terms)
        for m, c in items:
            r = (terms.get(m, 0) + sign * c) % p
            if r:
                terms[m] = r
            else:
                terms.pop(m, None)
        if len(terms) > 1 or (terms and () not in terms):
            return _Poly(terms, p)
        return terms.get((), 0)

    return op


class _Poly:
    """A polynomial of degree at most 2 over F_p in numbered variables,
    ``{monomial: coefficient}``: a candidate's index digits, and the entries
    of a gauge parameter.

    It has what :class:`PrimeField` asks of a scalar in ``add``, ``sub``,
    ``mul`` and ``neg`` (``+``, ``-``, ``*``, unary ``-`` and ``% p``) and
    the zero tests of the kernels (``== 0``, ``!= 0``, truth value), so
    :func:`cocycle_residuals`, :func:`basis_associators`,
    :func:`build_extension`, :func:`cocycle_to_mc`,
    :func:`associator_residual`, :func:`gauge_closed_form`,
    :func:`apply_equivalence` and :func:`cocycle_from_section` (its
    :func:`verify_extension` and :func:`section_cocycle`) run over it as
    written.  :attr:`CandidateSpace.cocycle_stages` reads the rows of the
    first, and :meth:`CandidateSpace.check_identities` compares the
    identities.  A product above degree 2 raises :class:`CrossCheckError`:
    every read and identity relies on its formula being at most quadratic.

    Arithmetic keeps a canonical form: coefficients in 1..p-1, no zero
    term, and a result with no variable left is a plain ``int``.  So ``% p``
    hands the value back unchanged, a kernel's zero tests cost no reduction,
    and once the variables of a sum cancel, the rest of the formula runs on
    ints.  Each operation touches only the monomials it changes: a sum or
    a difference copies the left terms and reduces only the right operand's
    monomials into them, dropping those that cancel; negation maps each
    coefficient ``c`` to ``-c % p``, nonzero for a nonzero ``c``, and a
    scalar minus a poly is that negation with the constant term moved; and
    the product of two variables ``c1 x_k`` and ``c2 x_l`` is the one term
    ``c1 c2 x_k x_l``, its monomial sorted and its coefficient reduced,
    nonzero as p is prime.  A scalar multiple and any other product are
    reduced by :func:`_canonical`.
    """

    __slots__ = ("terms", "p")

    def __init__(self, terms: Dict[Monomial, int], p: int):
        self.terms = terms
        self.p = p

    __add__ = __radd__ = _signed_sum(1)
    __sub__ = _signed_sum(-1)

    def __neg__(self):
        p = self.p
        return _Poly({m: -c % p for m, c in self.terms.items()}, p)

    def __rsub__(self, other):
        # ``other`` is a scalar: each term negated, then the constant term
        # moved by it
        p = self.p
        terms = {m: -c % p for m, c in self.terms.items()}
        if other:
            r = (terms.get((), 0) + other) % p
            if r:
                terms[()] = r
            else:
                terms.pop((), None)
        return _Poly(terms, p)

    def __mul__(self, other):
        p = self.p
        if not isinstance(other, _Poly):
            # a scalar: no monomial loop
            other %= p
            if other == 1:
                return self
            return _canonical({m: c * other for m, c in self.terms.items()}, p) if other else 0
        if len(self.terms) == 1 == len(other.terms):
            ((m1, c1),) = self.terms.items()
            ((m2, c2),) = other.terms.items()
            if len(m1) == 1 == len(m2):
                # two variables: one sorted monomial, whose coefficient is
                # nonzero as p is prime
                k, l = m1[0], m2[0]
                return _Poly({(k, l) if k <= l else (l, k): c1 * c2 % p}, p)
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
        if isinstance(other, _Poly):
            return self.terms == other.terms
        # a scalar, as in the kernels' ``c != 0``: a canonical _Poly holds a
        # variable, so only the empty one equals a scalar, zero
        return not (other or self.terms)

    def __bool__(self) -> bool:
        # nonzero exactly when some coefficient is, as a scalar: the
        # kernels' ``if c`` and ``MultilinearMap.is_zero`` skip zero terms
        return any(self.terms.values())

    __hash__ = None


def _padded(values: Iterable) -> List[List[Tuple[int, int, int]]]:
    """The terms of each of ``values``, a :class:`_Poly` or a scalar, as
    ``(k, l, c)``, ``c`` times the variables ``k <= l``, the monomial padded
    on the left with ``-1``, which stands for the constant 1: the form of
    every read.  A zero has no term."""
    out = []
    for value in values:
        if isinstance(value, _Poly):
            out.append([(-1, -1, *m, c)[-3:] for m, c in value.terms.items()])
        else:
            out.append([(-1, -1, value)] if value else [])
    return out


#: Each parameter monomial, padded, with the ``(position, coefficient)``
#: pairs that it adds to ``[M | -r0]``.
Grouping = Tuple[Tuple[Tuple[int, int], Tuple[Tuple[int, int], ...]], ...]


def _by_monomial(rows: Iterable, lo: int, hi: int, refuse: Callable[[int, int, int], str]) -> Grouping:
    """The :func:`_padded` terms of ``rows``, rows ``r0 + M x`` affine in
    the unknowns ``x``, the variables ``lo`` to ``hi - 1``, grouped by their
    monomial in the other variables, the parameters, which keep their
    numbers.  The rows of ``[M | -r0]`` are laid end to end: a term files
    its one unknown's coefficient in that unknown's column, or, with no
    unknown, its negation in the column of ``-r0``.  A term of degree 2 in
    the unknowns raises :class:`CrossCheckError` with the text
    ``refuse(row, k, l)``."""
    width = hi - lo + 1
    grouped: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for r, row in enumerate(rows):
        # the unknown v has its column at start + v, and -r0 at start + hi
        start = r * width - lo
        for k, l, c in row:
            if lo <= l < hi:
                if k >= lo:
                    raise CrossCheckError(refuse(r, k, l))
                # the unknown l, times the parameter k or, at -1, alone
                grouped.setdefault((-1, k), []).append((start + l, c))
            elif lo <= k < hi:
                # the unknown k, times the parameter l
                grouped.setdefault((-1, l), []).append((start + k, c))
            else:
                grouped.setdefault((k, l), []).append((start + hi, -c))
    # built from a list, not a generator: a generator's tuple is made at a
    # guessed length and resized, so each one freed grows the interpreter's
    # free list of its real length (up to 2,000), and peak memory climbs
    # with the spaces a process solves
    return tuple([(m, tuple(e)) for m, e in grouped.items()])


@dataclass(frozen=True)
class _Affine:
    """Rows ``r0 + M x`` over F_p, affine in the unknowns ``x``, the
    variables ``lo`` to ``hi - 1``, with ``r0`` and ``M`` polynomials in the
    parameters, the variables below ``lo``.  ``touched`` numbers, in
    order, the stage's rows in the route's whole residual sequence; a row
    with no term is in no stage.  ``rows`` holds each touched row as its
    :func:`_padded` terms; an unknown, if any, is ``l``.
    :meth:`vanishes_at` and the route identity read them so;
    :meth:`solutions` reads :attr:`parameter_rows`, and :meth:`at`
    :attr:`by_param`, both derived from them once a run solves."""

    field: PrimeField
    lo: int
    hi: int
    touched: Tuple[int, ...]
    rows: Tuple[Tuple[Tuple[int, int, int], ...], ...]

    # cached: derived in the parent before a pool starts, pickled with it
    @cached_property
    def by_param(self) -> Grouping:
        """The rows grouped by :func:`_by_monomial`.  A term of degree 2 in
        the unknowns is refused, naming its row; the stages of
        :attr:`CandidateSpace.cocycle_stages` hold none."""
        lo, hi = self.lo, self.hi
        return _by_monomial(self.rows, lo, hi, lambda r, k, l: (
            f"affine rows: row {self.touched[r]} has the term x{k}*x{l} of degree 2 in x{lo} to x{hi - 1}"
        ))

    @cached_property
    def parameter_rows(self) -> Tuple[Tuple[Tuple[int, int, int], ...], ...]:
        """The rows that read no unknown, in order: each is zero or not
        once the parameters are fixed, whatever the unknowns."""
        lo = self.lo
        return tuple([row for row in self.rows if all(l < lo for _, l, _ in row)])

    def at(self, params: Sequence[int]) -> List[Vector]:
        """The touched rows of ``[M | -r0]`` with ``params`` written in, or
        one zero row, so that the width holds, when no row is touched: a
        sparse sum over the monomials whose parameters are all nonzero."""
        width = self.hi - self.lo + 1
        aug = [0] * (max(len(self.touched), 1) * width)
        q = (*params, 1)
        for (k, l), entries in self.by_param:
            w = q[k] * q[l]
            if w:
                for pos, c in entries:
                    aug[pos] += w * c
        p = self.field.p
        aug = [v % p for v in aug]
        return [tuple(aug[r : r + width]) for r in range(0, len(aug), width)]

    def vanishes_at(self, d: Sequence[int]) -> bool:
        """Whether every row is zero with both the parameters and the
        unknowns read off ``d``, a full digit vector with the constant 1
        appended (:func:`_rows_vanish`)."""
        return _rows_vanish(self.rows, d, self.field.p)

    def solutions(self, params: Sequence[int]) -> Iterator[Vector]:
        """Every value of the unknowns that zeroes the rows with ``params``
        written in: one solution plus every combination of the nullspace,
        both from one :func:`solution_space`.  The :attr:`parameter_rows`
        are tested at ``params`` first, and the first nonzero one ends the
        fibre before any elimination; an empty fibre past them costs one
        elimination."""
        field = self.field
        if not _rows_vanish(self.parameter_rows, (*params, 1), field.p):
            return
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


def _rows_vanish(rows: Iterable[Tuple[Tuple[int, int, int], ...]], d: Sequence[int], p: int) -> bool:
    """Whether each row of ``(k, l, c)`` terms is zero mod ``p`` with its
    variables read off ``d``, whose last entry is the constant 1: the rows
    are evaluated in order, and the first nonzero one ends the test."""
    for row in rows:
        s = 0
        for k, l, c in row:
            s += c * d[k] * d[l]
        if s % p:
            return False
    return True


def _signed_key(terms: Iterable[Tuple[Monomial, int]], p: int) -> FrozenSet[Tuple[Monomial, int]]:
    """A nonzero polynomial P over F_p up to sign, from its canonical terms
    ``(monomial, coefficient)``: the terms of whichever of P and -P has the
    coefficient of its least monomial at most p/2, which no other multiple
    of P shares."""
    terms = list(terms)
    if 2 * min(terms)[1] > p:
        return frozenset((m, p - c) for m, c in terms)
    return frozenset(terms)


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
        parts = zip(_STAGES, self.entry_counts)
        return [f"{part}[{k}]" for part, n in parts for k in range(n)]

    @cached_property
    def cocycle_stages(self) -> Tuple[_Affine, _Affine, _Affine]:
        """The phi, psi and chi stages of the cocycle route, one read of
        :func:`cocycle_residuals` on the symbolic candidate of
        :attr:`_symbolic_point`, a row per component, each row written once
        as its terms.  Stage ``(lo, hi)`` has the digits ``lo`` to ``hi - 1``
        as its unknowns and the earlier ones as its parameters.  Each row
        goes to the earliest stage where it reads no digit from ``hi`` on
        and no term has degree 2 in the unknowns: the stage of its highest
        digit, or, if a term is a product of two of that stage's digits,
        the next one, where it reads parameters only.  A row with no term is
        zero for every candidate and is dropped.  A row with a term of
        degree 2 in chi fits no stage and raises :class:`CrossCheckError`,
        naming the row (:meth:`_stage_row_label`) and the monomial."""
        n_phi, n_psi, _ = self.entry_counts
        los = (0, n_phi, n_phi + n_psi, self.total_entries)
        # the stage of each digit, and of the padding -1, the constant
        stage_of = [s for s in range(3) for _ in range(los[s], los[s + 1])] + [0]
        touched, rows = ([], [], []), ([], [], [])
        values = [v for _, _, disc, _ in cocycle_residuals(self._symbolic_point[1]) for v in disc]
        for row, terms in enumerate(_padded(values)):
            if not terms:
                continue
            # a monomial is sorted and padded on the left, so l is its
            # highest variable, and k is one only in a product
            s = stage_of[max([l for _, l, _ in terms])]
            if max(terms)[0] >= los[s]:
                s += 1
                if s == 3:
                    mono = next(term[:2] for term in terms if term[0] >= los[2])
                    raise CrossCheckError(
                        f"cocycle route, chi stage: {self._stage_row_label(row)} has the term"
                        f" {'*'.join(self._digit_names()[v] for v in mono)} of degree 2 in the unknowns"
                    )
            touched[s].append(row)
            rows[s].append(tuple(terms))
        return tuple(_Affine(self.A.field, los[s], los[s + 1], tuple(touched[s]), tuple(rows[s])) for s in range(3))

    @cached_property
    def _symbolic_extension(self) -> Algebra:
        """The twisted product of the symbolic candidate of
        :attr:`_symbolic_point`, every digit a :class:`_Poly` variable in
        its slot."""
        return build_extension(self._symbolic_point[1])[0]

    # cached: the route identity and the Maurer-Cartan identity read it
    @cached_property
    def _symbolic_associators(self) -> Dict[Tuple[int, int, int], Vector]:
        """:func:`basis_associators` of :attr:`_symbolic_extension`, by triple."""
        E = self._symbolic_extension
        return dict(basis_associators(E.field, E.dim, E.table))

    def check_route_identity(self) -> None:
        """Check that the rows of :attr:`cocycle_stages` are the associators
        of the twisted product: the rows of the three stages, each keyed
        straight off its ``(k, l, c)`` terms, and the nonzero components of
        :attr:`_symbolic_associators` at every basis triple are one set of
        polynomials, each keyed once by :func:`_signed_key`, so up to sign,
        not up to a scalar.  An AAA component is the int 0, as A is
        associative.

        Reading the rows as the read wrote them, not the generators, checks
        the read along with the equations.  Equal sets have equal zero sets,
        so the stages accept exactly the candidates whose twisted product is
        associative, at every candidate.  Raises :class:`CrossCheckError`
        naming the first row of either side that the other lacks: a stage
        row by its residual's kind, witness and component, or an associator
        by its basis triple and component."""
        p = self.p
        # key -> the first (triple, component) whose associator has it
        associators: Dict[FrozenSet[Tuple[Monomial, int]], Tuple[Tuple[int, int, int], int]] = {}
        for t, disc in self._symbolic_associators.items():
            for k, value in enumerate(disc):
                if value:
                    associators.setdefault(_signed_key(_terms(value).items(), p), (t, k))
        rows = set()
        for part, stage in enumerate(self.cocycle_stages):
            for row, terms in zip(stage.touched, stage.rows):
                key = _signed_key((((k, l) if k >= 0 else (l,) if l >= 0 else (), c) for k, l, c in terms), p)
                if key not in associators:
                    raise CrossCheckError(
                        f"route identity: {self._stage_row_label(row)} of the cocycle route's"
                        f" {_STAGES[part]} stage is no associator of the twisted product, up to sign"
                    )
                rows.add(key)
        for key, (t, k) in associators.items():
            if key not in rows:
                raise CrossCheckError(
                    f"route identity: the associator at basis triple {t}, component {k},"
                    " is no row of the cocycle route, up to sign"
                )

    def _stage_row_label(self, row: int) -> str:
        """The name of row ``row`` of :func:`cocycle_residuals` on the
        symbolic candidate, counted over every component, zeros included:
        its residual's kind, detail and witness, and its component.  The
        residuals are evaluated again, so a label costs nothing until a
        check fails."""
        for kind, witness, disc, detail in cocycle_residuals(self._symbolic_point[1]):
            if row < len(disc):
                return f"residual {kind.value}{' ' + detail if detail else ''} at {witness}, component {row},"
            row -= len(disc)

    # cached: the stage read, its row labels, the symbolic extension, the
    # identities and the symbolic image read it
    @cached_property
    def _symbolic_point(self) -> Tuple[List[_Poly], NabCocycle, GaugeParam]:
        """The variables, the symbolic candidate and the symbolic gauge
        parameter: the digits are the variables ``0`` to ``n - 1``, and
        beta's entries, row by row, the ``a * b`` after them."""
        n, a, b = self.total_entries, self.A.dim, self.B.dim
        variables = _symbolic_digits(n + a * b, self.p)
        beta = GaugeParam(tuple(tuple(variables[n + i * b : n + (i + 1) * b]) for i in range(a)))
        return variables, self._decode(variables[:n]), beta

    # cached: the gauge identity and the gauge moves read it
    @cached_property
    def _symbolic_image(self) -> NabCocycle:
        """:func:`apply_equivalence` of the symbolic candidate under the
        symbolic gauge parameter (:attr:`_symbolic_point`)."""
        _, c, beta = self._symbolic_point
        return apply_equivalence(c, beta)

    @cached_property
    def gauge_moves(self) -> Tuple[Tuple[GaugeParam, Tuple[Tuple[int, int, Tuple[Tuple[int, int], ...]], ...]], ...]:
        """The gauge action compiled: each beta of :meth:`gauge_params`, in
        order, with the slots of a candidate's digit vector that it moves,
        each as ``(slot, constant, ((digit, coefficient), ...))``, the
        image's digit in that slot being the constant plus the sum of the
        coefficients times the digits, mod p (:func:`_moved`).  A slot that
        beta leaves as it is is not listed.

        Each slot of :attr:`_symbolic_image` is a row grouped by
        :func:`_by_monomial`, the digits its unknowns and beta's entries,
        the variables from ``n`` on, its parameters; a term that multiplies
        two digits raises :class:`CrossCheckError`, naming the slot and the
        term.  A slot that is its own digit is moved by no beta and is not
        grouped.  Each beta is written into each other slot's monomials as a
        sparse sum, where :meth:`_Affine.at` writes a stage's rows dense."""
        # the budget, before anything compiles
        betas = self.gauge_params()
        n, p = self.total_entries, self.p
        slots = []
        for q, terms in enumerate(_padded(_digit_vector(self._symbolic_image))):
            if terms != [(-1, q, 1)]:
                slots.append((q, _by_monomial((terms,), 0, n, lambda _, k, l: (
                    f"gauge action: {self._digit_names()[q]} of apply_equivalence's image has the term"
                    f" {self._digit_names()[k]}*{self._digit_names()[l]} of degree 2 in the digits"
                ))))
        moves = []
        for beta in betas:
            # each parameter by its number: beta's entries from n on
            w = (*(0,) * n, *(v for row in beta.matrix for v in row), 1)
            moved = []
            for q, grouped in slots:
                # the column of a digit, or n, that of -r0 -> its coefficient
                affine: Dict[int, int] = {}
                for (bk, bl), entries in grouped:
                    scale = w[bk] * w[bl]
                    if scale:
                        for k, c in entries:
                            affine[k] = affine.get(k, 0) + scale * c
                affine = {k: r for k, c in affine.items() if (r := c % p)}
                if affine != {q: 1}:
                    moved.append((q, -affine.pop(n, 0) % p, tuple(affine.items())))
            moves.append((beta, tuple(moved)))
        return tuple(moves)

    def _identity_sides(self) -> Iterator[Tuple[str, Sequence, Sequence, Callable[[int], str]]]:
        """The identities of :meth:`check_identities` in turn, each as its
        failure message, its two sides slot by slot and the name of slot
        ``q``, over the variables of :attr:`_symbolic_point`."""
        n = self.total_entries
        variables, c, beta = self._symbolic_point
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
            _digit_vector(recovered),
            variables[:n],
            self._digit_names().__getitem__,
        )
        yield (
            "gauge identity: gauge_closed_form differs from apply_equivalence",
            gauge_closed_form(x, beta, base, split).coeffs,
            cocycle_to_mc(self._symbolic_image).coeffs,
            "slot {} of the element".format,
        )
        zero, slots = self.extension_layout
        laid_out = list(zero.table)
        for slot, digit in zip(slots, variables[:n]):
            laid_out[slot] = digit
        yield (
            "layout identity: the twisted product's table differs from the layout's",
            self._symbolic_extension.table,
            laid_out,
            "slot {} of the table".format,
        )

    def check_identities(self) -> None:
        """Check, as polynomials, the four identities that tie a twist
        triple ``c`` to its Maurer-Cartan element ``x = cocycle_to_mc(c)``,
        its extension and its gauge moves:

        1. ``associator_residual(x)`` is the associator of the twisted
           product, :attr:`_symbolic_extension`, at every basis triple;
        2. :func:`cocycle_from_section` on the canonical section of that
           product's :func:`block_presentation` gives ``c`` back (it reads
           the twist through the block projections, not through
           :func:`twist_slots`, so it checks that layout too);
        3. ``gauge_closed_form(x, beta)`` is
           ``cocycle_to_mc(apply_equivalence(c, beta))``, the image read
           off :attr:`_symbolic_image`, which :attr:`gauge_moves` compiles
           for the orbit stage;
        4. the twisted product's table is :attr:`extension_layout`'s zero
           table with digit ``k`` written at slot ``k`` of the layout, the
           table that :func:`enumerate_extensions` builds for each hit.

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

    # cached: every sampled index is expanded over them
    @cached_property
    def _place_values(self) -> Tuple[int, ...]:
        """The place value ``p**k`` of each index digit ``k``."""
        return tuple(self.p ** k for k in range(self.total_entries))

    def _digits(self, index: int) -> List[int]:
        """The base-p digits of ``index``, least significant first, one per
        twist coefficient."""
        p = self.p
        return [index // q % p for q in self._place_values]

    def candidate(self, index: int) -> NabCocycle:
        """Decode a candidate from its base-p digit expansion."""
        _check_range(self, (index,))
        return self._decode(self._digits(index))

    def exhaustive_indices(self) -> range:
        if self.total_candidates > self.budget:
            raise BudgetExceededError(
                f"{self.total_candidates} candidates exceed the budget of {self.budget};"
                " raise --budget or use sampling (--sample)"
            )
        return range(self.total_candidates)

    def sample_indices(self, count: int, seed: int) -> Tuple[int, ...]:
        """Deterministic uniform sample without replacement (sorted).  The
        budget bounds a sample as it bounds an exhaustive run.  A negative
        seed is refused: :class:`random.Random` seeds with an int's absolute
        value, so it would draw the sample of its positive twin."""
        import random

        if seed < 0:
            raise ValueError(f"seed {seed} is negative; a sample's seed is at least 0")
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
            raise BudgetExceededError(
                f"the p^(ab) = {self.p}^{a * b} = {self.p ** (a * b)} gauge parameters exceed"
                f" the budget of {self.budget}; raise --budget"
            )
        return list(all_gauge_params(self.A.field, a, b))


# ---------------------------------------------------------------------------
# scanning (parallelizable, deterministic)
# ---------------------------------------------------------------------------

def _sample_chunk(
    space: CandidateSpace, stages: Sequence[_Affine], chunk: Sequence[int]
) -> List[Tuple[int, List[int]]]:
    """The ``(index, digits)`` of each index of ``chunk``, in range, whose
    digits zero the rows of the phi, psi and chi ``stages``, tested in turn,
    row by row: the first nonzero row rejects the index.  Each index is
    expanded once, with the constant 1 appended, for all three stages."""
    hits = []
    for i in chunk:
        d = space._digits(i) + [1]
        if all(stage.vanishes_at(d) for stage in stages):
            hits.append((i, d[:-1]))
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


def _check_range(space: CandidateSpace, indices: Sequence[int]) -> None:
    """Raise :class:`IndexError` at the first of ``indices`` out of range."""
    total = space.total_candidates
    for i in indices:
        if not 0 <= i < total:
            raise IndexError(f"candidate index {i} out of range")


def enumerate_cocycles(
    space: CandidateSpace,
    indices: Optional[Iterable[int]] = None,
    jobs: int = 1,
) -> List[Tuple[int, NabCocycle]]:
    """All candidates passing the cocycle equations, in index order, as
    ``(index, cocycle)`` pairs: exactly the indices that
    :func:`is_valid_cocycle` accepts.

    The stages are :attr:`CandidateSpace.cocycle_stages`, solved in turn on
    an exhaustive run (``indices`` None) and tested row by row on a sample,
    as the module docstring describes; a budget or range check fails before
    anything compiles.  A fibre costs one elimination and no generator call,
    and only the hits are decoded.  The stages, and the grouping that a
    solve reads, are derived before a pool starts, so that no worker
    compiles them.  The census adds the route identity, which makes these
    exactly the candidates whose twisted product is associative.
    """
    if indices is None:
        space.exhaustive_indices()
        stages = space.cocycle_stages
        for stage in stages:
            # derived here, so that no worker does
            stage.by_param, stage.parameter_rows
        hits = _scan(space, stages, stages[0].solutions(()), _fibre_chunk, jobs)
    else:
        indices = tuple(indices)
        _check_range(space, indices)
        hits = _scan(space, space.cocycle_stages, indices, _sample_chunk, jobs)
    return [(i, space._decode(d)) for i, d in hits]


def enumerate_extensions(
    space: CandidateSpace, cocycles: Sequence[Tuple[int, NabCocycle]]
) -> List[Tuple[int, Algebra]]:
    """The extension algebra of each ``(index, cocycle)`` of ``cocycles``,
    in their order, tested numerically: the cocycle's digits are written
    into their slots of :attr:`CandidateSpace.extension_layout`, the table
    that :func:`build_extension` writes, and the table is tested on every
    basis triple.  A table that is not associative raises
    :class:`CrossCheckError` with the index, the triple and the verdict of
    the unstaged equations, :func:`is_valid_cocycle`, which tells a solver
    that kept a non-cocycle (they reject it) from equations that disagree
    with associativity (they accept it)."""
    zero, slots = space.extension_layout
    table = list(zero.table)
    out = []
    for index, c in cocycles:
        for slot, digit in zip(slots, _digit_vector(c)):
            table[slot] = digit
        witness = associativity_witness(zero.field, zero.dim, table)
        if witness is not None:
            verdict = "accept" if is_valid_cocycle(c) else "reject"
            raise CrossCheckError(
                f"numeric hit test: cocycle {index} is not associative at basis triple {witness};"
                f" the unstaged equations {verdict} it"
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
    """What :func:`census` found: the cocycles' indices, in order, and their
    gauge orbits, ``None`` on a sample, which is not closed under
    equivalence."""

    p: int
    a_dim: int
    b_dim: int
    num_candidates: int
    num_cocycles: int
    cocycle_indices: Tuple[int, ...]
    orbits: Optional[List[Orbit]]


def _digit_vector(c: NabCocycle) -> Tuple:
    """The coefficients of phi, psi and chi in turn: the index digits of a
    candidate, least significant first."""
    return c.phi.coeffs + c.psi.coeffs + c.chi.coeffs


def _moved(d: Tuple[int, ...], moved, p: int) -> Tuple[int, ...]:
    """The digit vector ``d`` of a candidate moved by one beta's slots
    ``moved`` of :attr:`CandidateSpace.gauge_moves`: the digits of its
    :func:`apply_equivalence` image."""
    image = list(d)
    for q, constant, row in moved:
        s = constant
        for k, c in row:
            s += c * d[k]
        image[q] = s % p
    return tuple(image)


def orbit_partition(space: CandidateSpace, cocycles: Sequence[Tuple[int, NabCocycle]]) -> List[Orbit]:
    """Partition an equivalence-closed cocycle list into gauge orbits.

    Equivalence is the action of the additive group Hom(B, A) of gauge
    parameters (applying beta1 then beta2 is applying beta1 + beta2), so a
    class is exactly an orbit ``{apply_equivalence(c, beta) : beta}``.  The
    cocycles are walked in index order; each one not yet placed is the
    representative of a new orbit, and each member's witness is ``(beta,)``
    for the first ``beta`` in :meth:`CandidateSpace.gauge_params` order that
    reaches it.  Each cocycle is keyed by its digit vector, and each image
    is computed from the representative's digits by the compiled action,
    :attr:`CandidateSpace.gauge_moves`, mod p: one symbolic
    :func:`apply_equivalence` per space, not one numeric call per orbit and
    parameter.

    Raises :class:`CrossCheckError` when an image leaves the list or lands in
    an earlier orbit, or when |orbit| * |stabilizer| is not p^(a*b).  That
    the closed-form gauge action on the Maurer-Cartan elements gives the
    same orbits is checked by :func:`census`, once per space, as the gauge
    identity of :meth:`CandidateSpace.check_identities`, on the symbolic
    image that the moves are read from.
    """
    moves = space.gauge_moves
    group_order = space.p ** (space.A.dim * space.B.dim)
    cocycles = sorted(cocycles, key=lambda item: item[0])
    keys = [_digit_vector(c) for _, c in cocycles]
    pos_by_key = {key: pos for pos, key in enumerate(keys)}
    p = space.p

    # the positions already in an orbit
    placed = set()
    found: List[Dict[int, Tuple[GaugeParam, ...]]] = []
    for pos, (i, _) in enumerate(cocycles):
        if pos not in placed:
            witnesses: Dict[int, Tuple[GaugeParam, ...]] = {pos: ()}
            stabilizer = 0
            for beta, moved in moves:
                to = pos_by_key.get(_moved(keys[pos], moved, p))
                if to is None:
                    raise CrossCheckError(
                        f"equivalence carried cocycle {i} out of the enumerated set; "
                        "the list was not exhaustive or validity is not preserved"
                    )
                if to in placed:
                    raise CrossCheckError(f"an image of cocycle {i} lies in an earlier orbit")
                if to == pos:
                    stabilizer += 1
                witnesses.setdefault(to, (beta,))
            if len(witnesses) * stabilizer != group_order:
                raise CrossCheckError(
                    f"orbit of cocycle {i} has {len(witnesses)} members and "
                    f"{stabilizer} stabilizing parameters, not {group_order} in all"
                )
            placed.update(witnesses)
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
    space: CandidateSpace, jobs: int = 1, indices: Optional[Iterable[int]] = None
) -> ClassificationReport:
    """Run the whole pipeline with every cross-check armed.

    ``indices`` restricts the run to a sample of distinct candidates, read
    once; a repeated index raises :class:`ValueError`, one out of range
    :class:`IndexError`.  A sample is not closed under equivalence, so its
    report has no orbits.  The cocycle route is solved once: its stages are
    solved on an exhaustive run and a sample is tested on them row by row,
    after the budget check and the route identity.

    A failed check raises :class:`CrossCheckError`, so a returned report has
    passed all of these:

    - on every run, hit or no hit, the route identity of
      :meth:`CandidateSpace.check_route_identity`: the rows that the run
      solves are the twisted product's associators, up to sign;
    - the numeric associativity test of every hit,
      :func:`enumerate_extensions`;
    - once a hit is found, on a sample too, the four identities of
      :meth:`CandidateSpace.check_identities`;
    - on an exhaustive run, the checks of :func:`orbit_partition`, whose
      orbits the gauge identity makes those of the closed-form action on
      the Maurer-Cartan elements.

    The numeric :func:`associator_residual`, :func:`gauge_closed_form` and
    :func:`section_cocycle` stay the routes of the CLI verbs.
    """
    if indices is None:
        # the budget, before the route identity compiles anything
        space.exhaustive_indices()
    else:
        indices = tuple(indices)
        if len(set(indices)) != len(indices):
            raise ValueError("census indices must be distinct")
        _check_range(space, indices)
    space.check_route_identity()
    cocycles = enumerate_cocycles(space, indices, jobs)
    if cocycles:
        enumerate_extensions(space, cocycles)
        space.check_identities()

    return ClassificationReport(
        p=space.p,
        a_dim=space.A.dim,
        b_dim=space.B.dim,
        num_candidates=space.total_candidates,
        num_cocycles=len(cocycles),
        cocycle_indices=tuple(i for i, _ in cocycles),
        orbits=orbit_partition(space, cocycles) if indices is None else None,
    )

"""Multilinear maps as dense exact tensors, with the Hochschild differential
and the Gerstenhaber insertion products and bracket.

Sign conventions, used verbatim everywhere in this package:

* an arity-``n`` map has graded degree ``n - 1``;
* ``delta f(x_1,...,x_{n+1}) = x_1 f(x_2,...,x_{n+1})
  + sum_{i=1}^{n} (-1)^i f(x_1,...,x_i x_{i+1},...,x_{n+1})
  + (-1)^{n+1} f(x_1,...,x_n) x_{n+1}``;
* ``(f o_i g)`` plugs ``g`` into the ``i``-th slot of ``f`` (1-based);
* ``f o g = sum_{i=1}^{m+1} (-1)^{n(i+1)} f o_i g`` where ``n = deg g`` and
  ``m = deg f``;
* ``[f, g] = f o g - (-1)^{m n} g o f``.

One function body evaluates the differential for any pair of actions on a
coefficient space: :func:`hochschild_delta_module` hands it the actions as
tensors, :func:`hochschild_delta` the algebra acting on itself, and the gauge
coboundaries and the derivation check of :mod:`nabext.nonabelian` call it
too.

The tensors are stored dense, but the kernels walk only their nonzero
coefficients: the insertions, the differential and the linear structure of
:class:`MultilinearMap` do no arithmetic on a zero coefficient, and
:meth:`MultilinearMap.from_terms` sums the kernels' products into one flat
buffer.  :func:`circ` and :func:`gerstenhaber_bracket` hand it the terms of
every insertion at once, each insertion's sign already on the plugged
coefficients, so neither builds a map per insertion.  The twist-shaped
elements of the Maurer-Cartan side are mostly zero (no AA block, only
A-valued targets), so a sweep over every basis tuple would spend most of
its work on zeros.
:meth:`MultilinearMap.apply` stays the dense route, a full multilinear
evaluation, and the tests use it as the oracle of every kernel.

These choices satisfy ``delta f = (-1)^{arity(f)-1} [m, f]`` for the
multiplication map ``m`` of an associative algebra; the test suite gates the
package on that identity.  One consequence worth spelling out: the plain
adjoint ``d = [m, -]`` obeys the textbook derivation axiom
``d[f,g] = [df,g] + (-1)^{deg f}[f,dg]``, while the Hochschild ``delta``
(differing from ``d`` by ``(-1)^{arity-1}``) obeys the equivalent rule
``delta[f,g] = (-1)^{deg g}[delta f,g] + [f,delta g]``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple

from .algebra import Algebra
from .fields import Field, Scalar
from .linalg import Vector


def _entry_error(field: Field, idx, value: Scalar, why: str) -> ValueError:
    """A refused entry named by its indices and the field's text of its
    coefficient, which reads the same over Q and F_p."""
    return ValueError(f"entry ({', '.join(map(str, idx))}, {field.format(value)}) {why}")


@dataclass(frozen=True)
class MultilinearMap:
    """An n-ary multilinear map stored as a dense coefficient tensor.

    ``coeffs`` is flat with the target index outermost:
    ``f(e_{i_1},...,e_{i_n}) = sum_k coeffs[k * prod(source_dims) + flat(i)] e_k``.
    Arity 0 is allowed; such a map is just a vector in the target.
    """

    field: Field
    source_dims: Tuple[int, ...]
    target_dim: int
    coeffs: Tuple[Scalar, ...]

    def __post_init__(self):
        if self.target_dim < 1 or any(d < 1 for d in self.source_dims):
            raise ValueError("dimensions must be positive")
        if len(self.coeffs) != self.target_dim * math.prod(self.source_dims):
            raise ValueError("coefficient tensor has wrong size")

    # -- shape ------------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.source_dims)

    @property
    def degree(self) -> int:
        """Graded degree: arity minus one."""
        return self.arity - 1

    @property
    def input_size(self) -> int:
        return len(self.coeffs) // self.target_dim

    def is_uniform(self, dim: int) -> bool:
        return all(d == dim for d in self.source_dims)

    def _flat_index(self, idxs: Sequence[int]) -> int:
        off = 0
        for d, i in zip(self.source_dims, idxs):
            off = off * d + i
        return off

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, field: Field, source_dims: Sequence[int], target_dim: int) -> "MultilinearMap":
        size = target_dim * math.prod(source_dims)
        return cls(field, tuple(source_dims), target_dim, (field.zero,) * size)

    @classmethod
    def from_function(
        cls,
        field: Field,
        source_dims: Sequence[int],
        target_dim: int,
        fn: Callable[[Tuple[int, ...]], Vector],
    ) -> "MultilinearMap":
        """Tabulate ``fn`` on all basis tuples; ``fn`` returns target vectors.
        No kernel calls it: it builds test maps, and the benchmark traces it
        to show that none of the verbs tabulates a closure."""
        dims = tuple(source_dims)
        in_size = math.prod(dims)
        buf = [field.zero] * (target_dim * in_size)
        for flat, idxs in enumerate(itertools.product(*(range(d) for d in dims))):
            vec = fn(idxs)
            for k, v in enumerate(vec):
                if v != 0:
                    buf[k * in_size + flat] = v
        return cls(field, dims, target_dim, tuple(buf))

    @classmethod
    def from_entries(
        cls,
        field: Field,
        source_dims: Sequence[int],
        target_dim: int,
        entries: Iterable[Tuple],
    ) -> "MultilinearMap":
        """Entries are ``(k, i_1, ..., i_n, coeff)``; absent entries are zero."""
        dims = tuple(source_dims)
        buf = [field.zero] * (target_dim * math.prod(dims))
        for entry in entries:
            *idx, coeff = entry
            value = field.coerce(coeff)
            if len(idx) != len(dims) + 1:
                raise _entry_error(field, idx, value, "has wrong arity")
            # the target index is the outermost digit of the flat position
            off = idx[0]
            if not 0 <= off < target_dim:
                raise _entry_error(field, idx, value, "out of range")
            for d, i in zip(dims, idx[1:]):
                if not 0 <= i < d:
                    raise _entry_error(field, idx, value, "out of range")
                off = off * d + i
            buf[off] = value
        return cls(field, dims, target_dim, tuple(buf))

    @classmethod
    def from_terms(
        cls,
        field: Field,
        source_dims: Sequence[int],
        target_dim: int,
        terms: Iterable[Tuple[int, Scalar, Scalar]],
    ) -> "MultilinearMap":
        """The map whose flat coefficients are the sums of ``v * w`` at
        position ``at`` over the ``(at, v, w)`` of ``terms``, and zero where
        no term lands: the sparse kernels name only the positions
        they reach, so each term costs one product and at most one sum."""
        add, mul = field.add, field.mul
        buf = [None] * (target_dim * math.prod(source_dims))
        for at, v, w in terms:
            term = mul(v, w)
            prev = buf[at]
            buf[at] = term if prev is None else add(prev, term)
        zero = field.zero
        return cls(field, tuple(source_dims), target_dim, tuple(zero if c is None else c for c in buf))

    # -- access -----------------------------------------------------------

    def column(self, idxs: Sequence[int]) -> Vector:
        """The value on a basis tuple, as a target vector: with the target
        index outermost it is every ``input_size``-th coefficient."""
        return self.coeffs[self._flat_index(idxs) :: self.input_size]

    def apply(self, vectors: Sequence[Vector]) -> Vector:
        """Full multilinear evaluation on arbitrary vectors."""
        if len(vectors) != self.arity:
            raise ValueError("wrong number of arguments")
        for v, d in zip(vectors, self.source_dims):
            if len(v) != d:
                raise ValueError("argument length does not match slot dimension")
        f = self.field
        out = [f.zero] * self.target_dim
        for idxs in itertools.product(*(range(d) for d in self.source_dims)):
            weight = f.one
            zero = False
            for v, i in zip(vectors, idxs):
                if v[i] == 0:
                    zero = True
                    break
                weight = f.mul(weight, v[i])
            if zero:
                continue
            col = self.column(idxs)
            for k, c in enumerate(col):
                if c != 0:
                    out[k] = f.add(out[k], f.mul(weight, c))
        return tuple(out)

    def entries(self) -> Iterable[Tuple]:
        """Nonzero entries as ``(k, i_1, ..., i_n, coeff)`` in index order:
        the order of the flat coefficients, whose digits are the indices."""
        last_first = self.source_dims[::-1]
        for pos, c in enumerate(self.coeffs):
            if c != 0:
                idxs = []
                for d in last_first:
                    pos, i = divmod(pos, d)
                    idxs.append(i)
                yield (pos, *idxs[::-1], c)

    # -- linear structure ---------------------------------------------------

    def _check_same_shape(self, other: "MultilinearMap"):
        if (
            self.field != other.field
            or self.source_dims != other.source_dims
            or self.target_dim != other.target_dim
        ):
            raise ValueError("shape or field mismatch between multilinear maps")

    def __add__(self, other: "MultilinearMap") -> "MultilinearMap":
        self._check_same_shape(other)
        add = self.field.add
        coeffs = tuple(
            (add(a, b) if a else b) if b else a for a, b in zip(self.coeffs, other.coeffs)
        )
        return MultilinearMap(self.field, self.source_dims, self.target_dim, coeffs)

    def __sub__(self, other: "MultilinearMap") -> "MultilinearMap":
        self._check_same_shape(other)
        sub, neg = self.field.sub, self.field.neg
        coeffs = tuple(
            (sub(a, b) if a else neg(b)) if b else a for a, b in zip(self.coeffs, other.coeffs)
        )
        return MultilinearMap(self.field, self.source_dims, self.target_dim, coeffs)

    def __neg__(self) -> "MultilinearMap":
        neg = self.field.neg
        coeffs = tuple(neg(a) if a else a for a in self.coeffs)
        return MultilinearMap(self.field, self.source_dims, self.target_dim, coeffs)

    def scale(self, c: Scalar) -> "MultilinearMap":
        mul = self.field.mul
        coeffs = tuple(mul(c, a) if a else a for a in self.coeffs)
        return MultilinearMap(self.field, self.source_dims, self.target_dim, coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def multiplication_map(alg: Algebra) -> MultilinearMap:
    """The product of ``alg`` as an arity-2 map on its own space: the
    structure-constant table with the target index moved outermost."""
    zero, dim = alg.field.zero, alg.dim
    coeffs = tuple(v if v != 0 else zero for k in range(dim) for v in alg.table[k::dim])
    return MultilinearMap(alg.field, (dim, dim), dim, coeffs)


def hochschild_delta(f: MultilinearMap, amb: Algebra) -> MultilinearMap:
    """The Hochschild differential of ``f`` with actions from ``amb``.

    ``f`` must be an n-ary map on ``amb``'s space with values inside it;
    the outer actions are multiplications in ``amb``: this is
    :func:`hochschild_delta_module` with the algebra acting on itself, its
    actions read straight off :attr:`Algebra.product_entries`.
    """
    if f.field != amb.field:
        raise ValueError("field mismatch between cochain and algebra")
    if not f.is_uniform(amb.dim) or f.target_dim != amb.dim:
        raise ValueError("cochain does not live on the algebra's space")
    products = amb.product_entries
    return _delta(f, amb, products, products)


def hochschild_delta_module(
    f: MultilinearMap,
    ring: Algebra,
    left_action: MultilinearMap,
    right_action: MultilinearMap,
) -> MultilinearMap:
    """Hochschild differential for maps ``ring^(x)n -> M`` with bimodule
    actions given as tensors ``left: ring (x) M -> M`` and
    ``right: M (x) ring -> M``.

    The actions need not satisfy the bimodule axioms.
    """
    m_dim = f.target_dim
    r_dim = ring.dim
    if f.field != ring.field or not f.is_uniform(r_dim):
        raise ValueError("cochain does not live on the ring's space")
    if left_action.source_dims != (r_dim, m_dim) or left_action.target_dim != m_dim:
        raise ValueError("left action has wrong shape")
    if right_action.source_dims != (m_dim, r_dim) or right_action.target_dim != m_dim:
        raise ValueError("right action has wrong shape")
    return _delta(f, ring, _bilinear_entries(left_action), _bilinear_entries(right_action))


def _bilinear_entries(m: MultilinearMap) -> List[Tuple[int, int, int, Scalar]]:
    """The nonzero coefficients of an arity-2 map as ``(i, j, k, w)``: its
    value on ``(e_i, e_j)`` has ``w`` at ``e_k``, the layout of
    :attr:`Algebra.product_entries`."""
    d2 = m.source_dims[1]
    size = m.input_size
    return [(pos % size // d2, pos % d2, pos // size, w) for pos, w in enumerate(m.coeffs) if w]


def _delta(f: MultilinearMap, ring: Algebra, left, right) -> MultilinearMap:
    """The one evaluation of the Hochschild formula in the package, for
    ``f: ring^(x)n -> M`` with the actions given by their nonzero entries:
    ``(x, t, k, w)`` in ``left`` says ``e_x . m_t`` has ``w`` at ``m_k``,
    ``(t, x, k, w)`` in ``right`` that ``m_t . e_x`` does.

    Each nonzero coefficient of ``f``, at target ``t`` and input ``idxs``,
    is sent through the three terms: into ``x . f(idxs)`` and
    ``f(idxs) . x`` for every ``x``, and, for the ``i``-th middle term,
    into every ``(.., a, b, ..)`` whose product ``e_a e_b`` reaches the
    ``i``-th index of ``idxs``.  Signs ride on the weights.
    """
    field = f.field
    neg = field.neg
    r, n, m_dim = ring.dim, f.arity, f.target_dim
    f_in = f.input_size
    out_in = f_in * r
    # x f(...) lands at k*out_in + x*f_in + flat and (-1)^{n+1} f(...) x at
    # k*out_in + flat*r + x, for f's coefficient at (t, flat)
    outer_left = [[] for _ in range(m_dim)]
    for x, t, k, w in left:
        outer_left[t].append((k * out_in + x * f_in, w))
    outer_right = [[] for _ in range(m_dim)]
    for t, x, k, w in right:
        outer_right[t].append((k * out_in + x, w if n % 2 else neg(w)))
    # (-1)^i f(.., x_i x_{i+1}, ..): the i-th index of f's input, s, has
    # ``below`` = r^(n-i) inputs after it; e_a e_b having w at e_s puts the
    # pair (a, b) there instead
    belows = [r ** (n - i) for i in range(1, n + 1)]
    middles = [[[] for _ in range(r)] for _ in belows]
    for a, b, s, w in ring.product_entries:
        for i, below in enumerate(belows, 1):
            middles[i - 1][s].append(((a * r + b) * below, w if i % 2 == 0 else neg(w)))

    def terms():
        for pos, v in enumerate(f.coeffs):
            if not v:
                continue
            t, flat = divmod(pos, f_in)
            for off, w in outer_left[t]:
                yield off + flat, v, w
            for off, w in outer_right[t]:
                yield off + flat * r, v, w
            for below, by_index in zip(belows, middles):
                head, rest = divmod(flat, r * below)
                s, tail = divmod(rest, below)
                at = t * out_in + head * r * r * below + tail
                for off, w in by_index[s]:
                    yield at + off, v, w

    return MultilinearMap.from_terms(field, (r,) * (n + 1), m_dim, terms())


def _insertion_terms(
    f: MultilinearMap, g: MultilinearMap, i: int, odd: int
) -> Iterator[Tuple[int, Scalar, Scalar]]:
    """The :meth:`MultilinearMap.from_terms` terms of ``(-1)^odd f o_i g``,
    checked before any term is made.

    ``(f o_i g)(head, inner, tail) = sum_t g(inner)_t f(head, e_t, tail)``:
    every nonzero coefficient of ``f`` at slot value ``t`` meets every
    nonzero value of ``g`` with target ``t``.  The sign is applied once, to
    ``g``'s plugged coefficients.
    """
    if f.field != g.field:
        raise ValueError("field mismatch")
    if not 1 <= i <= f.arity:
        raise ValueError(f"slot {i} out of range for arity {f.arity}")
    if g.target_dim != f.source_dims[i - 1]:
        raise ValueError("target of inner map does not match the slot space")
    f_in, g_in = f.input_size, g.input_size
    slot = f.source_dims[i - 1]
    tail_size = math.prod(f.source_dims[i:])
    out_in = f_in // slot * g_in
    # plugs[t]: the offset of g's input inside the output input, and the
    # signed value, for every nonzero coefficient of g with target t
    neg = f.field.neg
    plugs = [[] for _ in range(g.target_dim)]
    for pos, v in enumerate(g.coeffs):
        if v:
            t, inner = divmod(pos, g_in)
            plugs[t].append((inner * tail_size, neg(v) if odd % 2 else v))

    def terms():
        for pos, c in enumerate(f.coeffs):
            if not c:
                continue
            k, flat = divmod(pos, f_in)
            head, rest = divmod(flat, slot * tail_size)
            t, tail = divmod(rest, tail_size)
            at = k * out_in + head * g_in * tail_size + tail
            for off, v in plugs[t]:
                yield at + off, v, c

    return terms()


def circ_i(f: MultilinearMap, g: MultilinearMap, i: int) -> MultilinearMap:
    """Plug ``g`` into slot ``i`` of ``f`` (1-based): one insertion, the
    terms that :func:`circ` sums over every slot."""
    terms = _insertion_terms(f, g, i, 0)
    out_dims = f.source_dims[: i - 1] + g.source_dims + f.source_dims[i:]
    return MultilinearMap.from_terms(f.field, out_dims, f.target_dim, terms)


def _insertion_sum_terms(
    f: MultilinearMap, g: MultilinearMap, odd: int
) -> Iterator[Tuple[int, Scalar, Scalar]]:
    """The terms of ``(-1)^odd f o g``: those of every insertion
    ``f o_i g``, each with its sign ``(-1)^{odd + deg(g)(i+1)}``, and every
    insertion checked before any term is made."""
    dim = g.target_dim
    if not f.is_uniform(dim) or not g.is_uniform(dim):
        raise ValueError("insertion sum needs cochains on a single space")
    if f.arity == g.arity == 0:
        raise ValueError("insertion sum of two arity-0 maps is undefined")
    n = g.degree
    slots = [_insertion_terms(f, g, i, odd + n * (i + 1)) for i in range(1, f.arity + 1)]
    return itertools.chain.from_iterable(slots)


def circ(f: MultilinearMap, g: MultilinearMap) -> MultilinearMap:
    """Signed sum of all insertions: ``sum_i (-1)^{deg(g)(i+1)} f o_i g``,
    one :meth:`MultilinearMap.from_terms` over the terms of every insertion.

    Both maps must be cochains on one space (uniform slots of the dimension
    that ``g`` targets); for arity-0 ``f`` the empty sum is the zero map.
    """
    terms = _insertion_sum_terms(f, g, 0)
    out_dims = (g.target_dim,) * (f.arity + g.arity - 1)
    return MultilinearMap.from_terms(f.field, out_dims, f.target_dim, terms)


def gerstenhaber_bracket(f: MultilinearMap, g: MultilinearMap) -> MultilinearMap:
    """``[f, g] = f o g - (-1)^{deg(f) deg(g)} g o f``, one
    :meth:`MultilinearMap.from_terms` over the terms of every insertion of
    both sides: the sign of ``g o f`` rides on the signs of its insertions."""
    dim = g.target_dim
    if f.target_dim != dim:
        raise ValueError("bracket needs cochains valued in one space")
    terms = itertools.chain(
        _insertion_sum_terms(f, g, 0), _insertion_sum_terms(g, f, 1 + f.degree * g.degree)
    )
    return MultilinearMap.from_terms(f.field, (dim,) * (f.arity + g.arity - 1), dim, terms)


def delta_as_bracket(f: MultilinearMap, m: MultilinearMap) -> MultilinearMap:
    """The differential in bracket form: ``(-1)^{arity(f)-1} [m, f]``.

    ``m`` is an arity-2 candidate multiplication on the same space.  When
    ``m`` is the product of an associative algebra this agrees with
    :func:`hochschild_delta`.  The package computes with the latter; this is
    the independent side of the test of ``delta = (-1)^{n-1} [m, .]``.
    """
    if m.arity != 2:
        raise ValueError("expected an arity-2 multiplication map")
    result = gerstenhaber_bracket(m, f)
    # the sign (-1)^{arity(f)-1} is -1 exactly when the arity is even
    return -result if f.arity % 2 == 0 else result

"""JSON schemas for every object the command line reads or writes.

Coefficients travel as decimal strings ("3/2" is allowed over Q, bare
integers over prime fields) so exactness survives serialization; unlisted
entries are zero.  Emission is canonical: keys sorted, entries in index
order, fixed indentation, so equal objects produce equal bytes.

:func:`dumps_canonical` is one recursive writer that appends to a list,
escaping strings with json's C ``encode_basestring_ascii``; its oracle, in
the tests, is ``json.dumps(obj, sort_keys=True, indent=2)``, whose
``indent`` sends every document through json's pure-Python encoder.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Algebra, SplitSpace
from .classify import ClassificationReport, Orbit
from .cochains import MultilinearMap
from .exact_sequences import ExtensionPresentation, Section
from .fields import Field, FieldError, PrimeField, Rationals
from .linalg import Matrix
from .nonabelian import GaugeParam, NabCocycle


class FormatError(ValueError):
    """Malformed or inconsistent input document."""


#: The most coefficients a dense tensor of the command line may hold: a map,
#: a matrix, an algebra's structure constants, or a computed result.
MAX_DENSE_SIZE = 2 ** 20


def require_dense_size(what: str, target_dim: int, source_dim: int, arity: int) -> None:
    """Raise :class:`FormatError`, before anything is allocated, if a map of
    ``arity`` slots of dimension ``source_dim`` into dimension
    ``target_dim`` would hold more than :data:`MAX_DENSE_SIZE` coefficients
    or slots.  A dimension of 2 or more to the power 21 is past the bound,
    so the power stops there and no large number is formed."""
    power = source_dim ** max(0, min(arity, MAX_DENSE_SIZE.bit_length()))
    if arity > MAX_DENSE_SIZE or abs(target_dim * power) > MAX_DENSE_SIZE:
        raise FormatError(
            f"{what} would hold {target_dim} x {source_dim}^{arity} coefficients, more than {MAX_DENSE_SIZE}"
        )


_encode_str = json.encoder.encode_basestring_ascii


def dumps_canonical(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` and a newline, except
    that a dict key that is not a ``str`` raises ``TypeError``."""
    out: List[str] = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(obj, out: List[str], newline: str) -> None:
    """Append the text of ``obj`` to ``out``; ``newline`` is the line break
    and indentation of the line ``obj`` starts on."""
    if type(obj) is int:
        out.append(int.__repr__(obj))
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"a document key must be a str, not {type(key).__name__}")
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            _write(obj[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    else:
        # bools, None, floats, and the TypeError of anything else
        out.append(json.dumps(obj))


def loads(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # also a plain ValueError: an integer past the int-string digit
        # limit; a RecursionError: arrays or objects nested too deep
        raise FormatError(f"not valid JSON: {exc}") from exc


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``false`` are not numbers, and ``2.5``
    and ``2.0`` are not integers."""
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


def _expect(obj, key: str, kind, what: str):
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{what} is missing the {key!r} key")
    value = obj[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise FormatError(f"{what}[{key!r}] has the wrong type")
    return value


# -- fields -----------------------------------------------------------------

def field_to_json(field: Field):
    if isinstance(field, Rationals):
        return "Q"
    return {"p": field.p}


def field_from_json(obj) -> Field:
    if obj == "Q":
        return Rationals()
    if isinstance(obj, dict) and "p" in obj:
        try:
            # no int(): it would read 2.5 as 2 (true is 1, no prime)
            return PrimeField(obj["p"])
        except FieldError as exc:
            raise FormatError(f"bad prime field spec {obj!r}: {exc}") from exc
    raise FormatError(f"field spec must be \"Q\" or {{\"p\": prime}}, got {obj!r}")


def _parse_scalar(field: Field, value, what: str):
    try:
        if isinstance(value, str):
            return field.parse(value)
        if _is_int(value):
            return field.coerce(value)
    except FieldError as exc:
        raise FormatError(f"{what}: {exc}") from exc
    raise FormatError(f"{what}: scalar must be a string or integer, got {value!r}")


# -- algebras ---------------------------------------------------------------

def algebra_to_json(alg: Algebra) -> Dict:
    products: List[List] = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            row = alg.product_row(i, j)
            pairs = [[k, alg.field.format(v)] for k, v in enumerate(row) if v != 0]
            if pairs:
                products.append([i, j, *pairs])
    return {
        "field": field_to_json(alg.field),
        "dim": alg.dim,
        "basis": list(alg.basis),
        "products": products,
    }


def algebra_from_json(obj) -> Algebra:
    field = field_from_json(_expect(obj, "field", None, "algebra"))
    dim = _expect(obj, "dim", int, "algebra")
    basis = _expect(obj, "basis", list, "algebra")
    if len(basis) != dim or not all(isinstance(n, str) for n in basis):
        raise FormatError("algebra basis must list dim distinct names")
    require_dense_size("algebra", dim, dim, 2)
    rows = _expect(obj, "products", list, "algebra")
    products: Dict[Tuple[int, int], Dict[int, object]] = {}
    for row in rows:
        if not isinstance(row, list) or len(row) < 2:
            raise FormatError(f"product row {row!r} must be [i, j, [k, coeff], ...]")
        i, j, *pairs = row
        if not _is_int(i) or not _is_int(j):
            raise FormatError(f"product row {row!r} must start with two indices")
        if not (0 <= i < dim and 0 <= j < dim):
            raise FormatError(f"product row ({i},{j}) out of range for dim {dim}")
        entry = products.setdefault((i, j), {})
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2 or not _is_int(pair[0]):
                raise FormatError(f"product coefficient {pair!r} must be [k, coeff]")
            k, coeff = pair
            if not 0 <= k < dim:
                raise FormatError(f"output index {k} out of range for dim {dim}")
            value = _parse_scalar(field, coeff, f"product ({i},{j})")
            if k in entry:
                raise FormatError(f"product ({i},{j}) gives output index {k} twice")
            entry[k] = value
    try:
        return Algebra.from_products(field, basis, products)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# -- multilinear maps --------------------------------------------------------

def entries_to_json(m: MultilinearMap) -> List[List]:
    """The nonzero entries ``[k, i_1, ..., i_n, coeff]`` of ``m``, in index
    order, with each coefficient as a decimal string."""
    return [[*e[:-1], m.field.format(e[-1])] for e in m.entries()]


def map_to_json(m: MultilinearMap, split: Optional[SplitSpace] = None) -> Dict:
    if not m.is_uniform(m.source_dims[0] if m.source_dims else 1):
        raise ValueError("only uniform-slot maps are serialized standalone")
    out = {
        "arity": m.arity,
        "source_dim": m.source_dims[0] if m.source_dims else 1,
        "target_dim": m.target_dim,
        "entries": entries_to_json(m),
    }
    if split is not None:
        out["split"] = {"a_dim": split.a_dim, "b_dim": split.b_dim}
    return out


def _entries_from_json(
    rows, field: Field, source_dims: Sequence[int], target_dim: int, what: str
) -> MultilinearMap:
    if not isinstance(rows, list):
        raise FormatError(f"{what} entries must be a list")
    arity = len(source_dims)
    entries = []
    seen = set()
    for row in rows:
        if not isinstance(row, list) or len(row) != arity + 2:
            raise FormatError(
                f"{what} entry {row!r} must be [k, {arity} indices, coeff]"
            )
        *idx, coeff = row
        for v in idx:
            if not _is_int(v):
                raise FormatError(f"{what} entry {row!r} has non-integer indices")
        value = _parse_scalar(field, coeff, what)
        slot = tuple(idx)
        if slot in seen:
            raise FormatError(f"{what} entry {idx} is given twice")
        seen.add(slot)
        entries.append((*slot, value))
    try:
        return MultilinearMap.from_entries(field, source_dims, target_dim, entries)
    except ValueError as exc:
        raise FormatError(f"{what}: {exc}") from exc


def map_from_json(obj, field: Field) -> Tuple[MultilinearMap, Optional[SplitSpace]]:
    arity = _expect(obj, "arity", int, "map")
    if arity < 0:
        raise FormatError(f"map arity must be nonnegative, got {arity}")
    source_dim = _expect(obj, "source_dim", int, "map")
    target_dim = _expect(obj, "target_dim", int, "map")
    rows = _expect(obj, "entries", list, "map")
    require_dense_size("map", target_dim, source_dim, arity)
    split = None
    if "split" in obj:
        sp = obj["split"]
        try:
            split = SplitSpace(
                _expect(sp, "a_dim", int, "split"), _expect(sp, "b_dim", int, "split")
            )
        except ValueError as exc:
            raise FormatError(f"split header: {exc}") from exc
        if split.dim != source_dim:
            raise FormatError("split header does not match source_dim")
    return (
        _entries_from_json(rows, field, (source_dim,) * arity, target_dim, "map"),
        split,
    )


# -- cocycles -----------------------------------------------------------------

def cocycle_to_json(c: NabCocycle) -> Dict:
    return {
        "A": algebra_to_json(c.A),
        "B": algebra_to_json(c.B),
        "phi": entries_to_json(c.phi),
        "psi": entries_to_json(c.psi),
        "chi": entries_to_json(c.chi),
    }


def cocycle_from_json(obj) -> NabCocycle:
    a = algebra_from_json(_expect(obj, "A", dict, "cocycle"))
    b = algebra_from_json(_expect(obj, "B", dict, "cocycle"))
    if a.field != b.field:
        raise FormatError("cocycle algebras live over different fields")
    field = a.field
    phi = _entries_from_json(_expect(obj, "phi", list, "cocycle"), field, (b.dim, a.dim), a.dim, "phi")
    psi = _entries_from_json(_expect(obj, "psi", list, "cocycle"), field, (a.dim, b.dim), a.dim, "psi")
    chi = _entries_from_json(_expect(obj, "chi", list, "cocycle"), field, (b.dim, b.dim), a.dim, "chi")
    return NabCocycle(a, b, phi, psi, chi)


# -- matrices, gauges, extensions, sections -----------------------------------

def _matrix_to_entries(m: Matrix, field: Field) -> List[List]:
    out = []
    for i, row in enumerate(m):
        for j, v in enumerate(row):
            if v != 0:
                out.append([i, j, field.format(v)])
    return out


def matrix_from_entries(rows, field: Field, n_rows: int, n_cols: int, what: str) -> Matrix:
    if not isinstance(rows, list):
        raise FormatError(f"{what} must be a list of [row, col, coeff] entries")
    require_dense_size(what, n_rows, n_cols, 1)
    buf = [[field.zero] * n_cols for _ in range(n_rows)]
    seen = set()
    for row in rows:
        if not isinstance(row, list) or len(row) != 3 or not (_is_int(row[0]) and _is_int(row[1])):
            raise FormatError(f"{what} entry {row!r} must be [row, col, coeff]")
        i, j, coeff = row
        if not (0 <= i < n_rows and 0 <= j < n_cols):
            raise FormatError(f"{what} entry ({i},{j}) out of range {n_rows}x{n_cols}")
        value = _parse_scalar(field, coeff, what)
        if (i, j) in seen:
            raise FormatError(f"{what} entry ({i},{j}) is given twice")
        seen.add((i, j))
        buf[i][j] = value
    return tuple(tuple(r) for r in buf)


def gauge_to_json(beta: GaugeParam, field: Field) -> Dict:
    return {"beta": _matrix_to_entries(beta.matrix, field)}


def gauge_from_json(obj, field: Field, a_dim: int, b_dim: int) -> GaugeParam:
    rows = _expect(obj, "beta", list, "gauge witness")
    return GaugeParam(matrix_from_entries(rows, field, a_dim, b_dim, "beta"))


def extension_to_json(ext: ExtensionPresentation) -> Dict:
    field = ext.E.field
    out = {
        "E": algebra_to_json(ext.E),
        "iota": _matrix_to_entries(ext.iota, field),
        "p": _matrix_to_entries(ext.proj, field),
    }
    if ext.A is not None:
        out["A"] = algebra_to_json(ext.A)
    if ext.B is not None:
        out["B"] = algebra_to_json(ext.B)
    return out


def _infer_dim(rows, axis: int, what: str) -> int:
    """One more than the largest index on ``axis`` among the ``[row, col,
    coeff]`` entries; the entries are checked in full later."""
    found = [r[axis] for r in rows if isinstance(r, list) and len(r) == 3]
    if not found or not all(_is_int(i) for i in found):
        raise FormatError(
            f"cannot infer the {what} dimension: entries must be [row, col, coeff]"
            " with integer indices"
        )
    return max(found) + 1


def extension_from_json(obj) -> ExtensionPresentation:
    e = algebra_from_json(_expect(obj, "E", dict, "extension"))
    a = algebra_from_json(obj["A"]) if "A" in obj else None
    b = algebra_from_json(obj["B"]) if "B" in obj else None
    iota_rows = _expect(obj, "iota", list, "extension")
    proj_rows = _expect(obj, "p", list, "extension")
    a_dim = a.dim if a is not None else _infer_dim(iota_rows, 1, "kernel")
    b_dim = b.dim if b is not None else _infer_dim(proj_rows, 0, "quotient")
    iota = matrix_from_entries(iota_rows, e.field, e.dim, a_dim, "iota")
    proj = matrix_from_entries(proj_rows, e.field, b_dim, e.dim, "p")
    try:
        return ExtensionPresentation(e, iota, proj, a, b)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def section_to_json(s: Section, field: Field) -> Dict:
    return {"s": _matrix_to_entries(s.matrix, field)}


def section_from_json(obj, field: Field, e_dim: int, b_dim: int) -> Section:
    rows = _expect(obj, "s", list, "section")
    return Section(matrix_from_entries(rows, field, e_dim, b_dim, "section"))


# -- reports ------------------------------------------------------------------

def _orbit_to_json(orbit: Orbit, c_field: Field) -> Dict:
    return {
        "representative": orbit.representative,
        "members": list(orbit.members),
        "witnesses": [
            [member, [_matrix_to_entries(b.matrix, c_field) for b in chain]]
            for member, chain in orbit.witnesses
        ],
    }


def report_to_json(report: ClassificationReport, field: Field) -> Dict:
    return {
        "p": report.p,
        "a_dim": report.a_dim,
        "b_dim": report.b_dim,
        "num_candidates": report.num_candidates,
        "num_cocycles": report.num_cocycles,
        "cocycle_indices": list(report.cocycle_indices),
        # a sample has no orbits: it counts no class and lists none
        "num_classes": None if report.orbits is None else len(report.orbits),
        "orbits": [_orbit_to_json(o, field) for o in report.orbits or ()],
    }


def report_to_text(report: ClassificationReport) -> str:
    # a sample is not closed under equivalence, so its orbits are never split
    classes = "not counted on a sample" if report.orbits is None else len(report.orbits)
    lines = [
        f"field                F{report.p}",
        f"dims (kernel, quot)  ({report.a_dim}, {report.b_dim})",
        f"candidates           {report.num_candidates}",
        f"valid cocycles       {report.num_cocycles}",
        f"equivalence classes  {classes}",
    ]
    for orbit in report.orbits or ():
        members = ", ".join(str(m) for m in orbit.members)
        lines.append(f"  class rep {orbit.representative}: members [{members}]")
    return "\n".join(lines) + "\n"

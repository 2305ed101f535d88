"""Command-line driver.

Every verb is defined once, in the table ``_VERBS``: its name, help, arguments
and handler.  The parser tree is built once, at import, and every call parses
with it: parsing never changes a parser, and usage and error text read
``COLUMNS`` when they are printed, so a call leaves nothing behind.

Each handler maps its parsed arguments to ``(document, verdict)``: a JSON
value, or the text of ``census --format text``, and the exit code.  ``main``
writes the document once, to ``--output`` or stdout, and is the one place
where an exception becomes an exit code: a ``ValueError``, which every
refusal of the package is, exits 2, and a ``CrossCheckError`` exits 3.

Exit codes: 0 success / check passed, 1 check failed (witness JSON on
stdout), 2 input or usage error (message on stderr), 3 internal consistency
failure (must never happen; message on stderr): a cross-check failed, such
as the census's cocycle rows differing from the twisted product's
associators, or mc-check's cocycle equations and Maurer-Cartan test
disagreeing on one input, a verdict that still writes its document.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple, Optional, Tuple

from .algebra import Algebra
from .classify import DEFAULT_BUDGET, CandidateSpace, census
from .cochains import circ, gerstenhaber_bracket, hochschild_delta
from .exact_sequences import (
    BrokenExtensionError,
    canonical_section,
    check_extension_equivalence,
    resolved,
    section_cocycle,
    verify_extension,
)
from .fields import Field, PrimeField, Rationals
from .io_json import (
    FormatError,
    algebra_from_json,
    algebra_to_json,
    cocycle_from_json,
    cocycle_to_json,
    dumps_canonical,
    entries_to_json,
    extension_from_json,
    field_to_json,
    gauge_from_json,
    loads,
    map_from_json,
    map_to_json,
    matrix_from_entries,
    report_to_json,
    report_to_text,
    require_dense_size,
    section_from_json,
)
from .nonabelian import (
    CrossCheckError,
    NabCocycle,
    abelian_specialize,
    apply_equivalence,
    build_extension,
    check_cocycle,
    cocycle_from_mc,
    derivation_condition_defect,
    gauge_series,
    mc_context,
)


# Files are opened by name rather than through pathlib: a Path interns each
# component of its name, so a process that reads many files keeps inserting
# into the interpreter's table of interned strings, which then grows and is
# rehashed, and peak memory climbs with the number of calls.  JSON is UTF-8
# (RFC 8259), whatever the locale's encoding.
def _read(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return loads(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _emit(text: str, output: Optional[str]):
    if output:
        try:
            with open(output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise FormatError(f"cannot write {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _parse_field(text: str) -> Field:
    if text == "Q":
        return Rationals()
    if text.startswith("F"):
        try:
            return PrimeField(int(text[1:]))
        except ValueError as exc:
            raise FormatError(f"bad field flag {text!r}: {exc}") from exc
    raise FormatError(f"field flag must be Q or F<p>, got {text!r}")


def _violations_json(violations, field: Field):
    return [
        {
            "which": v.which.value,
            "witness": list(v.witness),
            "discrepancy": [field.format(x) for x in v.discrepancy],
            "detail": v.detail,
        }
        for v in violations
    ]


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_check_assoc(args) -> Tuple[object, int]:
    alg = algebra_from_json(_read(args.algebra))
    witness = alg.associativity_witness()
    if witness is None:
        return {"associative": True}, 0
    assoc = alg.associator(*(alg.basis_vector(i) for i in witness))
    return (
        {
            "associative": False,
            "witness": list(witness),
            "associator": [alg.field.format(v) for v in assoc],
        },
        1,
    )


def _cmd_hochschild_delta(args) -> Tuple[object, int]:
    alg = algebra_from_json(_read(args.algebra))
    m, split = map_from_json(_read(args.map), alg.field)
    require_dense_size("the differential", m.target_dim, alg.dim, m.arity + 1)
    return map_to_json(hochschild_delta(m, alg), split), 0


def _cmd_bracket(args) -> Tuple[object, int]:
    field = _parse_field(args.field)
    f, split = map_from_json(_read(args.left), field)
    g, _ = map_from_json(_read(args.right), field)
    require_dense_size("the bracket", f.target_dim, f.target_dim, f.arity + g.arity - 1)
    return map_to_json(gerstenhaber_bracket(f, g), split), 0


def _require_sum_size(what: str, c: NabCocycle, arity: int) -> None:
    """Refuse, before any work, a result that is a map of ``arity`` slots
    on A + B past :data:`~nabext.io_json.MAX_DENSE_SIZE`."""
    d = c.A.dim + c.B.dim
    require_dense_size(what, d, d, arity)


def _cmd_mc_check(args) -> Tuple[object, int]:
    c = cocycle_from_json(_read(args.cocycle))
    _require_sum_size("the square x o x", c, 3)
    violations = check_cocycle(c)
    x, base, _ = mc_context(c)
    # the associator residual x o x - delta x and the dgLa residual
    # x o x + delta x share their two tensors
    square, dx = circ(x, x), hochschild_delta(x, base)
    valid = not violations
    mc_valid = (square - dx).is_zero()
    payload = {
        "cocycle_valid": valid,
        "mc_valid": mc_valid,
        "dgla_residual_zero": (square + dx).is_zero(),
        "derivation_condition": derivation_condition_defect(c) is None,
        "violations": _violations_json(violations, c.A.field),
    }
    if valid != mc_valid:
        print("internal inconsistency: cocycle and Maurer-Cartan verdicts disagree", file=sys.stderr)
        return payload, 3
    return payload, 0 if valid else 1


def _cmd_build_extension(args) -> Tuple[object, int]:
    c = cocycle_from_json(_read(args.cocycle))
    _require_sum_size("the extension", c, 2)
    ext, split = build_extension(c)
    doc = algebra_to_json(ext)
    doc["split"] = {"a_dim": split.a_dim, "b_dim": split.b_dim}
    return doc, 0


def _cmd_extract_cocycle(args) -> Tuple[object, int]:
    ext = extension_from_json(_read(args.extension))
    try:
        ext = resolved(ext)
    except BrokenExtensionError as exc:
        return {"ok": False, "failures": [str(exc)]}, 1
    failures = verify_extension(ext).failures
    # verify_extension leaves E's associativity to the caller: the census
    # runs it on the symbolic twisted product, associative only at cocycles
    witness = ext.E.associativity_witness()
    if witness is not None:
        failures.append("E is not associative at ({},{},{})".format(*witness))
    if failures:
        return {"ok": False, "failures": failures}, 1
    if args.section:
        section = section_from_json(
            _read(args.section), ext.E.field, ext.E.dim, ext.b_dim
        )
    else:
        section = canonical_section(ext)
    # the extension was verified above
    return cocycle_to_json(section_cocycle(ext, section)), 0


def _cmd_gauge(args) -> Tuple[object, int]:
    c = cocycle_from_json(_read(args.cocycle))
    beta = gauge_from_json(_read(args.witness), c.A.field, c.A.dim, c.B.dim)
    if args.method == "series":
        if c.A.field.characteristic == 2:
            raise FormatError("--method series needs 1/2, which characteristic 2 lacks; pass --method closed")
        _require_sum_size("the Maurer-Cartan element", c, 2)
        x, base, split = mc_context(c)
        result = cocycle_from_mc(gauge_series(x, beta, base, split), c.A, c.B)
    else:
        result = apply_equivalence(c, beta)
    return cocycle_to_json(result), 0


def _cmd_equiv_check(args) -> Tuple[object, int]:
    if args.kind == "cocycle":
        c1 = cocycle_from_json(_read(args.first))
        c2 = cocycle_from_json(_read(args.second))
        beta = gauge_from_json(_read(args.witness), c1.A.field, c1.A.dim, c1.B.dim)
        image = apply_equivalence(c1, beta)
        ok = image == c2
        return {"equivalent": ok}, 0 if ok else 1
    try:
        ext1 = resolved(extension_from_json(_read(args.first)))
        ext2 = resolved(extension_from_json(_read(args.second)))
    except BrokenExtensionError as exc:
        return {"equivalent": False, "failures": [str(exc)]}, 1
    doc = _read(args.witness)
    if not isinstance(doc, dict) or "theta" not in doc:
        raise FormatError("extension witness file must carry a 'theta' matrix")
    theta = matrix_from_entries(doc["theta"], ext1.E.field, ext2.E.dim, ext1.E.dim, "theta")
    ok, failures = check_extension_equivalence(ext1, ext2, theta)
    return {"equivalent": ok, "failures": failures}, 0 if ok else 1


def _line_algebra(field: Field, name: str, square: str) -> Algebra:
    if square == "zero":
        return Algebra.zero_product(field, [name])
    if square == "idem":
        return Algebra.from_products(field, [name], {(0, 0): {0: 1}})
    raise FormatError(f"square spec must be 'zero' or 'idem', got {square!r}")


def _census_space(args) -> CandidateSpace:
    field = _parse_field(args.field or "F2")
    if args.A or args.B:
        if not (args.A and args.B):
            raise FormatError("census needs both --A and --B when files are used")
        a = algebra_from_json(_read(args.A))
        b = algebra_from_json(_read(args.B))
        if args.field and field != a.field:
            raise FormatError(f"--field {field} contradicts the algebra files, which are over {a.field}")
    else:
        if not isinstance(field, PrimeField):
            raise FormatError("census runs over prime fields; pass --field F<p>")
        a = _line_algebra(field, "a", args.a2)
        b = _line_algebra(field, "b", args.b2)
    return CandidateSpace(a, b, budget=args.budget)


def _cmd_census(args) -> Tuple[object, int]:
    if args.jobs < 1:
        raise FormatError(f"--jobs must be at least 1, got {args.jobs}")
    # a negative size is refused by sample_indices, which names the range
    if args.sample == 0:
        raise FormatError("--sample must be at least 1, got 0")
    if args.seed is not None and args.sample is None:
        raise FormatError("--seed needs --sample")
    space = _census_space(args)
    indices = None
    if args.sample is not None:
        indices = space.sample_indices(args.sample, args.seed or 0)
    report = census(space, jobs=args.jobs, indices=indices)
    if args.format == "text":
        return report_to_text(report), 0
    return report_to_json(report, space.A.field), 0


def _cmd_abelianize(args) -> Tuple[object, int]:
    c = cocycle_from_json(_read(args.cocycle))
    _require_sum_size("the square x o x", c, 3)
    if not c.A.has_zero_product():
        raise FormatError("abelianize requires a kernel algebra with zero product")
    violations = check_cocycle(c)
    if violations:
        return {"ok": False, "violations": _violations_json(violations, c.A.field)}, 1
    structure = abelian_specialize(c)
    payload = {
        "ok": True,
        "field": field_to_json(c.A.field),
        "left_action": entries_to_json(structure.left_action),
        "right_action": entries_to_json(structure.right_action),
        "cocycle": entries_to_json(structure.cocycle),
        "delta_chi_zero": True,
    }
    return payload, 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _arg(*flags, **options):
    return flags, options


class _Verb(NamedTuple):
    name: str
    help: str
    handler: Callable[[argparse.Namespace], Tuple[object, int]]
    arguments: Tuple[Tuple[Tuple[str, ...], dict], ...]


_OUTPUT = _arg("--output", help="write the result document here instead of stdout")

#: Every verb, once, in usage order; each also takes ``--output``.
_VERBS = (
    _Verb("check-assoc", "check associativity of an algebra file", _cmd_check_assoc, (
        _arg("algebra"),
    )),
    _Verb("hochschild-delta", "differential of a cochain file", _cmd_hochschild_delta, (
        _arg("map"),
        _arg("algebra"),
    )),
    _Verb("bracket", "Gerstenhaber bracket of two cochain files", _cmd_bracket, (
        _arg("left"),
        _arg("right"),
        _arg("--field", default="Q", help="coefficient field: Q or F<p>"),
    )),
    _Verb("mc-check", "cocycle equations and Maurer-Cartan test", _cmd_mc_check, (
        _arg("cocycle"),
    )),
    _Verb("build-extension", "twisted product algebra of a cocycle", _cmd_build_extension, (
        _arg("cocycle"),
    )),
    _Verb("extract-cocycle", "cocycle of an extension and a section", _cmd_extract_cocycle, (
        _arg("extension"),
        _arg("--section", help="section file; canonical when omitted"),
    )),
    _Verb("gauge", "apply a gauge parameter to a cocycle", _cmd_gauge, (
        _arg("cocycle"),
        _arg("witness"),
        _arg(
            "--method", choices=("closed", "series"), default="closed",
            help="closed: the per-component transform apply_equivalence; "
            "series: the exponential series, which needs 1/2",
        ),
    )),
    _Verb("equiv-check", "verify an equivalence witness", _cmd_equiv_check, (
        _arg("first"),
        _arg("second"),
        _arg("--witness", required=True),
        _arg("--kind", choices=("cocycle", "extension"), default="cocycle"),
    )),
    _Verb("census", "enumerate, classify, and cross-check", _cmd_census, (
        _arg("--A", help="kernel algebra file"),
        _arg("--B", help="quotient algebra file"),
        # F2 for the shorthand census; with --A/--B it must name their field
        _arg("--field"),
        _arg("--a2", default="zero", help="kernel generator square: zero|idem"),
        _arg("--b2", default="idem", help="quotient generator square: zero|idem"),
        _arg("--budget", type=int, default=DEFAULT_BUDGET),
        _arg("--jobs", type=int, default=1),
        _arg("--sample", type=int, help="sample this many candidates instead of sweeping"),
        _arg("--seed", type=int),
        _arg("--format", choices=("json", "text"), default="json"),
    )),
    _Verb("abelianize", "specialize a zero-kernel-product cocycle", _cmd_abelianize, (
        _arg("cocycle"),
    )),
)


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser with a subparser for every verb."""
    parser = argparse.ArgumentParser(
        prog="nabext",
        description="Exact computations with non-abelian extensions of associative algebras.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in _VERBS:
        p = sub.add_parser(verb.name, help=verb.help)
        for flags, options in (*verb.arguments, _OUTPUT):
            p.add_argument(*flags, **options)
        p.set_defaults(handler=verb.handler)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        document, verdict = args.handler(args)
        _emit(document if isinstance(document, str) else dumps_canonical(document), args.output)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrossCheckError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    return verdict


if __name__ == "__main__":
    sys.exit(main())

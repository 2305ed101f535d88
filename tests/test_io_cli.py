import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    canonical_presentation,
    line_algebra,
    line_cocycle,
    rand_cocycle,
    rand_gauge,
    trunc_poly2,
    zero_algebra,
)
import nabext
from nabext import (
    Algebra,
    GaugeParam,
    MultilinearMap,
    NabCocycle,
    SplitSpace,
    apply_equivalence,
    canonical_section,
    cocycle_to_mc,
    direct_sum_space,
)
from nabext.cli import main
from nabext.fields import GF2, GF3, QQ
from nabext.io_json import (
    FormatError,
    algebra_from_json,
    algebra_to_json,
    cocycle_from_json,
    cocycle_to_json,
    dumps_canonical,
    extension_from_json,
    extension_to_json,
    field_from_json,
    field_to_json,
    gauge_from_json,
    gauge_to_json,
    loads,
    map_from_json,
    map_to_json,
    section_from_json,
    section_to_json,
)


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------

def test_field_spec_round_trip():
    assert field_from_json("Q") == QQ
    assert field_from_json({"p": 3}) == GF3
    assert field_to_json(QQ) == "Q"
    assert field_to_json(GF2) == {"p": 2}
    with pytest.raises(FormatError):
        field_from_json({"p": 4})
    with pytest.raises(FormatError):
        field_from_json("R")
    # int() would read 2.5 as F2 and 3.9 as F3; true is no number, and a
    # prime past the bound is refused before any trial division
    for spec in ({"p": 2.5}, {"p": 3.9}, {"p": 3.0}, {"p": True}, {"p": "3"}, {"p": None}, {"p": 2 ** 61 - 1}):
        with pytest.raises(FormatError, match="bad prime field spec"):
            field_from_json(spec)


def test_algebra_round_trip_rational_coefficients():
    alg = trunc_poly2(QQ)
    doc = algebra_to_json(alg)
    assert algebra_from_json(doc).table == alg.table
    # rational strings survive
    custom = algebra_from_json(
        {
            "field": "Q",
            "dim": 1,
            "basis": ["e"],
            "products": [[0, 0, [0, "3/2"]]],
        }
    )
    assert custom.product_row(0, 0)[0] == QQ.parse("3/2")


def test_algebra_unlisted_products_are_zero():
    alg = algebra_from_json(
        {"field": {"p": 2}, "dim": 2, "basis": ["x", "y"], "products": []}
    )
    assert alg.has_zero_product()


def test_algebra_schema_violations():
    with pytest.raises(FormatError):
        algebra_from_json({"field": "Q", "dim": 2, "basis": ["x"], "products": []})
    with pytest.raises(FormatError):
        algebra_from_json(
            {"field": "Q", "dim": 1, "basis": ["x"], "products": [[0, 5, [0, "1"]]]}
        )
    with pytest.raises(FormatError):
        algebra_from_json(
            {"field": "Q", "dim": 1, "basis": ["x"], "products": [[0, 0, [0, "a"]]]}
        )
    with pytest.raises(FormatError):
        algebra_from_json({"field": {"p": 2}, "dim": 1, "basis": ["x"], "products": [[0, 0, [0, "1/2"]]]})
    # a boolean is no number: not a dim, an index or a coefficient, and
    # neither is a float index
    ok = {"field": {"p": 2}, "dim": 1, "basis": ["x"], "products": [[0, 0, [0, "1"]]]}
    assert algebra_from_json(ok).table == (1,)
    for bad in (
        {**ok, "dim": True},
        {**ok, "products": [[0, 0, [0, True]]]},
        {**ok, "products": [[0, 0, [0, 1.0]]]},
        {**ok, "products": [[False, 0, [0, "1"]]]},
        {**ok, "products": [[0, 0, [False, "1"]]]},
        {**ok, "products": [[0, 0.0, [0, "1"]]]},
    ):
        with pytest.raises(FormatError):
            algebra_from_json(bad)


def test_map_round_trip_with_split_header():
    rng = random.Random(61)
    split = SplitSpace(1, 2)
    m = MultilinearMap.from_function(
        GF3, (3, 3), 3, lambda idxs: tuple(GF3.random(rng) for _ in range(3))
    )
    doc = map_to_json(m, split)
    back, split_back = map_from_json(doc, GF3)
    assert back == m
    assert (split_back.a_dim, split_back.b_dim) == (1, 2)
    with pytest.raises(FormatError):
        map_from_json({"arity": 2, "source_dim": 3, "target_dim": 3, "entries": [[0, 0, "1"]]}, GF3)


def test_cocycle_round_trip():
    rng = random.Random(62)
    a = zero_algebra(GF2, 2)
    b = line_algebra(GF2, "idem", "b")
    c = rand_cocycle(rng, a, b)
    assert cocycle_from_json(cocycle_to_json(c)) == c


def test_gauge_round_trip():
    beta = GaugeParam(((QQ.parse("1/2"), QQ.zero), (QQ.one, QQ.parse("-2/3"))))
    doc = gauge_to_json(beta, QQ)
    assert gauge_from_json(doc, QQ, 2, 2) == beta


def test_extension_round_trip_and_inference():
    a, b = line_algebra(GF2, "zero", "a"), line_algebra(GF2, "idem", "b")
    ext = canonical_presentation(line_cocycle(a, b, 1, 1, 1))
    doc = extension_to_json(ext)
    back = extension_from_json(doc)
    assert back.E.table == ext.E.table
    assert back.iota == ext.iota and back.proj == ext.proj
    # minimal document without A/B still loads via dimension inference
    minimal = {k: doc[k] for k in ("E", "iota", "p")}
    inferred = extension_from_json(minimal)
    assert inferred.A is None and inferred.a_dim == 1 and inferred.b_dim == 1


def test_section_round_trip():
    a, b = line_algebra(GF2, "zero", "a"), line_algebra(GF2, "idem", "b")
    ext = canonical_presentation(line_cocycle(a, b, 0, 0, 0))
    s = canonical_section(ext)
    doc = section_to_json(s, GF2)
    assert section_from_json(doc, GF2, ext.E.dim, 1).matrix == s.matrix


def test_canonical_dump_is_deterministic():
    a = trunc_poly2(QQ)
    d1 = dumps_canonical(algebra_to_json(a))
    d2 = dumps_canonical(algebra_from_json(json.loads(d1)) and algebra_to_json(a))
    assert d1 == d2
    assert d1.endswith("\n")


def test_loads_rejects_bad_json():
    with pytest.raises(FormatError):
        loads("{not json")
    # past the interpreter's int-string digit limit, json.loads raises a
    # plain ValueError, not a JSONDecodeError
    with pytest.raises(FormatError, match="^not valid JSON: .*digits"):
        loads("[" + "1" * 5000 + "]")


GOLDEN = Path(__file__).parent / "golden"


def _json_oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _golden_documents():
    """Every parsed file under ``tests/golden``, then every JSON stdout
    that ``tests/golden/cli_q.json`` records."""
    docs = [json.loads(path.read_text()) for path in sorted(GOLDEN.rglob("*.json"))]
    outputs = [call["stdout"] for call in json.loads((GOLDEN / "cli_q.json").read_text())]
    return docs + [json.loads(out) for out in outputs if out.startswith(("{", "["))]


# strings with the characters an escape must get right
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé€\U0001f600')))
_LEAVES = st.one_of(
    _TEXT,
    st.integers(),
    st.integers(min_value=2 ** 64),
    st.integers(max_value=-(2 ** 64)),
    st.booleans(),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=40,
)


@settings(deadline=None, max_examples=300)
@given(_DOCUMENTS)
def test_dumps_canonical_is_json_dumps(doc):
    assert dumps_canonical(doc) == _json_oracle(doc)


def test_dumps_canonical_writes_the_golden_documents_without_the_python_encoder(monkeypatch):
    # json's pure-Python encoder, which an indent selects, builds its
    # generators in _make_iterencode
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    docs = _golden_documents()
    assert len(docs) > 23
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    written = [dumps_canonical(doc) for doc in docs]
    monkeypatch.undo()
    assert written == [_json_oracle(doc) for doc in docs]


def test_dumps_canonical_refuses_a_key_that_is_not_a_string():
    # json.dumps would write the key 1 as "1"
    for doc in ({1: "x"}, {"a": [{2: 0, 1: 0}]}):
        with pytest.raises(TypeError, match="^a document key must be a str, not int$"):
            dumps_canonical(doc)
    # keys of two types do not sort
    with pytest.raises(TypeError):
        dumps_canonical({"b": 0, 2: 0})


# documents with several faults each, and the refusal each reader gave
# before it parsed each coefficient once: the shape, index and scalar of
# each entry are checked in one pass and its range in the next
_LINE = {"field": "Q", "dim": 2, "basis": ["u", "t"], "products": [[0, 0, [0, "1"]], [0, 1, [1, "1"]], [1, 0, [1, "1"]]]}
_COCYCLE = {"A": _LINE, "B": {**_LINE, "dim": 1, "basis": ["b"], "products": []}, "phi": [], "psi": [], "chi": []}
_MAP = {"arity": 1, "source_dim": 2, "target_dim": 2}
_PRECEDENCE = [
    # an out-of-range entry before a bad scalar
    (cocycle_from_json, {**_COCYCLE, "phi": [[5, 0, 0, "1"], [0, 0, 0, "x"]]}, "phi: not a rational scalar: 'x'"),
    (cocycle_from_json, {**_COCYCLE, "psi": [[0, 0, 9, "1"], [0, 0, 0, "1/0"]]}, "psi: not a rational scalar: '1/0'"),
    (map_from_json, {**_MAP, "entries": [[0, 5, "1"], [0, 0, "x"]]}, "map: not a rational scalar: 'x'"),
    (gauge_from_json, {"beta": [[5, 0, "1"], [0, 0, "x"]]}, "beta entry (5,0) out of range 2x1"),
    (gauge_from_json, {"beta": [[0, 0, "x"], [5, 0, "1"]]}, "beta: not a rational scalar: 'x'"),
    # a duplicate slot after an out-of-range entry
    (cocycle_from_json, {**_COCYCLE, "chi": [[0, 0, 7, "1"], [0, 0, 0, "1"], [0, 0, 0, "2"]]}, "chi entry [0, 0, 0] is given twice"),
    (cocycle_from_json, {**_COCYCLE, "chi": [[0, 0, 0, "1"], [0, 0, 0, "2"], [0, 0, 0, "x"]]}, "chi entry [0, 0, 0] is given twice"),
    (map_from_json, {**_MAP, "entries": [[2, 0, "1"], [0, 1, "1"], [0, 1, "2"]]}, "map entry [0, 1] is given twice"),
    (gauge_from_json, {"beta": [[0, 0, "1"], [0, 0, "1"], [0, 7, "1"]]}, "beta entry (0,0) is given twice"),
    # an algebra product out of range before a bad coefficient
    (algebra_from_json, {**_LINE, "products": [[5, 0, [0, "1"]], [0, 0, [0, "x"]]]}, "product row (5,0) out of range for dim 2"),
    (algebra_from_json, {**_LINE, "products": [[0, 0, [7, "1"], [0, "x"]]]}, "output index 7 out of range for dim 2"),
    (algebra_from_json, {**_LINE, "products": [[0, 0, [0, "x"], [7, "1"]]]}, "product (0,0): not a rational scalar: 'x'"),
    (algebra_from_json, {**_LINE, "products": [[0, 0, [0, "1/0"]], [0, 9, [0, "1"]]]}, "product (0,0): not a rational scalar: '1/0'"),
    # an arity mismatch
    (cocycle_from_json, {**_COCYCLE, "phi": [[0, 0, 0, "x"], [0, 0, "1"]]}, "phi: not a rational scalar: 'x'"),
    (cocycle_from_json, {**_COCYCLE, "phi": [[0, 0, "1"], [0, 0, 0, "x"]]}, "phi entry [0, 0, '1'] must be [k, 2 indices, coeff]"),
    (map_from_json, {**_MAP, "arity": 2, "entries": [[0, 0, "1"], [0, 0, 0, "1"]]}, "map entry [0, 0, '1'] must be [k, 2 indices, coeff]"),
    # a bad index before an out-of-range one, and a range fault in an
    # earlier tensor than a bad scalar
    (cocycle_from_json, {**_COCYCLE, "phi": [[0, 0, True, "1"], [9, 0, 0, "x"]]}, "phi entry [0, 0, True, '1'] has non-integer indices"),
    (cocycle_from_json, {**_COCYCLE, "phi": [[9, 0, 0, "1"]], "chi": [[0, 0, 0, "x"]]}, "phi: entry (9, 0, 0, 1) out of range"),
]


@pytest.mark.parametrize("reader,doc,message", _PRECEDENCE)
def test_the_first_refusal_of_a_document_with_several_faults(reader, doc, message):
    args = {map_from_json: (QQ,), gauge_from_json: (QQ, 2, 1)}.get(reader, ())
    with pytest.raises(FormatError) as caught:
        reader(doc, *args)
    assert str(caught.value) == message


_INTEGER_TEXT = st.integers(-9, 9).map(str)
_TEXTS = {
    QQ: st.one_of(_INTEGER_TEXT, st.tuples(st.integers(-9, 9), st.integers(1, 4)).map(lambda nd: f"{nd[0]}/{nd[1]}")),
    GF2: _INTEGER_TEXT,
    GF3: _INTEGER_TEXT,
}


@st.composite
def _entry_lists(draw):
    field = draw(st.sampled_from([QQ, GF2, GF3]))
    arity, source_dim, target_dim = draw(st.integers(0, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    slots = list(itertools.product(range(target_dim), *[range(source_dim)] * arity))
    chosen = draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots)))
    rows = [[*slot, draw(_TEXTS[field])] for slot in chosen]
    return field, {"arity": arity, "source_dim": source_dim, "target_dim": target_dim, "entries": rows}


@settings(deadline=None, max_examples=200)
@given(_entry_lists())
def test_the_reader_builds_the_map_of_the_parsed_coefficients(case):
    field, doc = case
    entries = [(*row[:-1], field.parse(row[-1])) for row in doc["entries"]]
    oracle = MultilinearMap.from_entries(field, (doc["source_dim"],) * doc["arity"], doc["target_dim"], entries)
    assert map_from_json(doc, field) == (oracle, None)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps_canonical(doc))
    return str(path)


@pytest.fixture()
def hand_files(tmp_path):
    a = line_algebra(GF2, "zero", "a")
    b = line_algebra(GF2, "idem", "b")
    valid = line_cocycle(a, b, 1, 1, 1)
    invalid = line_cocycle(a, b, 1, 0, 1)
    files = {
        "valid": _write(tmp_path, "valid.json", cocycle_to_json(valid)),
        "invalid": _write(tmp_path, "invalid.json", cocycle_to_json(invalid)),
        "beta": _write(tmp_path, "beta.json", {"beta": [[0, 0, "1"]]}),
        "alg": _write(tmp_path, "alg.json", algebra_to_json(trunc_poly2(QQ))),
        "tmp": tmp_path,
    }
    return files


def test_cli_check_assoc(hand_files, capsys):
    assert main(["check-assoc", hand_files["alg"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"associative": True}

    bad = _write(
        hand_files["tmp"],
        "bad.json",
        {
            "field": {"p": 2},
            "dim": 2,
            "basis": ["x", "y"],
            "products": [[0, 0, [1, "1"]], [1, 0, [0, "1"]]],
        },
    )
    assert main(["check-assoc", bad]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["associative"] is False and doc["witness"] == [0, 0, 0]


def test_cli_mc_check_exit_codes(hand_files, capsys):
    assert main(["mc-check", hand_files["valid"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cocycle_valid"] and doc["mc_valid"] and doc["violations"] == []

    assert main(["mc-check", hand_files["invalid"]]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert not doc["cocycle_valid"] and not doc["mc_valid"]
    assert doc["violations"]


def test_cli_mc_check_evaluates_each_tensor_once(hand_files, monkeypatch, capsys):
    # x o x and delta x serve both residuals; derivation_condition_defect's
    # own differentials go through nonabelian, not these names
    import nabext.cli as cli

    calls = {"circ": [], "hochschild_delta": []}
    for name, log in calls.items():
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, _real=real, _log=log: _log.append(args) or _real(*args))
    for key in ("valid", "invalid"):
        for log in calls.values():
            log.clear()
        main(["mc-check", hand_files[key]])
        c = cocycle_from_json(loads(Path(hand_files[key]).read_text()))
        x, base = cocycle_to_mc(c), direct_sum_space(c.A, c.B)[0]
        assert calls == {"circ": [(x, x)], "hochschild_delta": [(x, base)]}
    capsys.readouterr()


def test_cli_mc_check_exits_3_when_its_verdicts_disagree(tmp_path, monkeypatch, capsys):
    # cocycle equations that pass a random triple, which the Maurer-Cartan
    # test rejects: the payload is still written, and one line names the
    # disagreement
    import nabext.cli as cli

    c = rand_cocycle(random.Random(30), trunc_poly2(QQ), zero_algebra(QQ, 2, "b"))
    path = _write(tmp_path, "c.json", cocycle_to_json(c))
    monkeypatch.setattr(cli, "check_cocycle", lambda c: [])
    assert main(["mc-check", path]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal inconsistency: cocycle and Maurer-Cartan verdicts disagree\n"
    doc = json.loads(captured.out)
    assert doc["cocycle_valid"] is True and doc["mc_valid"] is False
    assert doc["violations"] == []


def test_cli_q_verbs_tabulate_no_kernel_closures(tmp_path, monkeypatch, capsys):
    # the cochain kernels, the gauge transforms and the block reads walk or
    # copy coefficients instead of tabulating a closure on every basis tuple
    rng = random.Random(12)
    a, b = trunc_poly2(QQ), zero_algebra(QQ, 2, "b")
    c = rand_cocycle(rng, a, b)
    cocycle = _write(tmp_path, "c.json", cocycle_to_json(c))
    witness = _write(tmp_path, "beta.json", gauge_to_json(rand_gauge(rng, a, b), QQ))
    valid = apply_equivalence(NabCocycle.zero(a, b), rand_gauge(rng, a, b))
    extension = _write(tmp_path, "ext.json", extension_to_json(canonical_presentation(valid)))
    tabulated = []
    real = MultilinearMap.from_function.__func__

    def counting(cls, *args, **kwargs):
        tabulated.append(args[1:3])
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(MultilinearMap, "from_function", classmethod(counting))
    assert main(["mc-check", cocycle]) in (0, 1)
    for method in ("series", "closed"):
        assert main(["gauge", cocycle, witness, "--method", method]) == 0
    assert main(["extract-cocycle", extension]) == 0
    assert tabulated == []
    capsys.readouterr()


def test_cli_mc_check_rational_input(tmp_path, capsys):
    a = line_algebra(QQ, "zero", "a")
    b = line_algebra(QQ, "idem", "b")
    c = line_cocycle(a, b, 1, 1, 1)
    path = _write(tmp_path, "q.json", cocycle_to_json(c))
    # never exits 3: the two verdicts agree over every field
    assert main(["mc-check", path]) == 0


def test_cli_build_extension_and_extract_round_trip(hand_files, tmp_path, capsys):
    out = str(tmp_path / "ext_alg.json")
    assert main(["build-extension", hand_files["valid"], "--output", out]) == 0
    built = json.loads(Path(out).read_text())
    assert built["split"] == {"a_dim": 1, "b_dim": 1}

    # wrap into an extension document with canonical maps and extract back
    a = line_algebra(GF2, "zero", "a")
    b = line_algebra(GF2, "idem", "b")
    ext = canonical_presentation(line_cocycle(a, b, 1, 1, 1))
    ext_path = _write(tmp_path, "ext.json", extension_to_json(ext))
    assert main(["extract-cocycle", ext_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert cocycle_from_json(doc) == line_cocycle(a, b, 1, 1, 1)


def test_cli_gauge_and_equiv_check(hand_files, tmp_path, capsys):
    gauged = str(tmp_path / "gauged.json")
    assert main(["gauge", hand_files["valid"], hand_files["beta"], "--output", gauged]) == 0
    assert (
        main(
            [
                "equiv-check",
                hand_files["valid"],
                gauged,
                "--witness",
                hand_files["beta"],
            ]
        )
        == 0
    )
    capsys.readouterr()
    # wrong witness: the zero map does not carry valid to gauged
    zero_beta = _write(hand_files["tmp"], "zero_beta.json", {"beta": []})
    assert (
        main(
            [
                "equiv-check",
                hand_files["valid"],
                gauged,
                "--witness",
                zero_beta,
            ]
        )
        == 1
    )


def test_cli_equiv_check_refuses_cocycles_on_different_spaces(tmp_path, capsys):
    # a Q cocycle on zero(2)/k[t]/t^2, its entries in 0..2, against the
    # zero cocycle on the zero line/k[t]/t^2, against itself on
    # zero(2)/zero(2), and against itself with both fields F3: no verdict,
    # but exit 2 and one error line that names the first end that differs
    c = rand_cocycle(random.Random(7), zero_algebra(GF3, 2), trunc_poly2(GF3))
    doc = cocycle_to_json(c)
    over_q = {**doc, "A": {**doc["A"], "field": "Q"}, "B": {**doc["B"], "field": "Q"}}
    first = _write(tmp_path, "first.json", over_q)
    beta = _write(tmp_path, "beta.json", gauge_to_json(rand_gauge(random.Random(8), c.A, c.B), GF3))
    others = {
        "A": {**over_q, "A": algebra_to_json(line_algebra(QQ, "zero", "a")), "phi": [], "psi": [], "chi": []},
        "B": {**over_q, "B": algebra_to_json(zero_algebra(QQ, 2, "b"))},
        "F3": doc,
    }
    for name, other in others.items():
        second = _write(tmp_path, f"{name}.json", other)
        assert main(["equiv-check", first, second, "--witness", beta]) == 2, name
        end = "quotient algebra B" if name == "B" else "kernel algebra A"
        assert capsys.readouterr() == ("", f"error: the two cocycles live on different spaces: their {end} differs\n")
    assert main(["equiv-check", first, first, "--witness", beta]) == 1
    assert json.loads(capsys.readouterr().out) == {"equivalent": False}


def test_cli_equiv_check_reports_a_broken_extension(tmp_path, capsys):
    # E = k[t]/t^2 with iota = u + t and A omitted: the image of iota is not
    # closed under the product, so the kernel algebra cannot be derived
    broken = _write(
        tmp_path,
        "broken.json",
        {"E": algebra_to_json(trunc_poly2(QQ)), "iota": [[0, 0, "1"], [1, 0, "1"]], "p": [[0, 1, "1"]]},
    )
    theta = _write(tmp_path, "theta.json", {"theta": [[0, 0, "1"], [1, 1, "1"]]})
    assert main(["equiv-check", broken, broken, "--witness", theta, "--kind", "extension"]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["equivalent"] is False and "not closed" in doc["failures"][0]
    assert captured.err == ""


def _dual_numbers_doc(field, **ends):
    """k[t]/t^2 over ``field`` as an extension of k by the ideal (t)."""
    return {"E": algebra_to_json(trunc_poly2(field)), "iota": [[1, 0, "1"]], "p": [[0, 0, "1"]], **ends}


def test_cli_equiv_check_tells_apart_coefficient_fields(tmp_path, capsys):
    # the same presentation over Q and over F2 is not one extension, even
    # though every entry of the identity theta checks out
    over_q = _write(tmp_path, "q.json", _dual_numbers_doc(QQ))
    over_f2 = _write(tmp_path, "f2.json", _dual_numbers_doc(GF2))
    theta = _write(tmp_path, "theta.json", {"theta": [[0, 0, "1"], [1, 1, "1"]]})
    assert main(["equiv-check", over_q, over_q, "--witness", theta, "--kind", "extension"]) == 0
    capsys.readouterr()
    assert main(["equiv-check", over_q, over_f2, "--witness", theta, "--kind", "extension"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "equivalent": False,
        "failures": ["the two extensions live over different fields"],
    }
    assert captured.err == ""


def test_cli_rejects_end_algebras_over_another_field(tmp_path, capsys):
    # a kernel over F2 inside an E over Q: one error line, exit 2
    kernel = algebra_to_json(line_algebra(GF2, "zero", "a"))
    mixed = _write(tmp_path, "mixed.json", _dual_numbers_doc(QQ, A=kernel))
    theta = _write(tmp_path, "theta.json", {"theta": [[0, 0, "1"], [1, 1, "1"]]})
    for argv in (
        ["equiv-check", mixed, mixed, "--witness", theta, "--kind", "extension"],
        ["extract-cocycle", mixed],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the kernel algebra lives over a different field than E\n"


def test_cli_gauge_series_matches_closed_form_over_f3(tmp_path, capsys):
    a = line_algebra(GF3, "zero", "a")
    b = line_algebra(GF3, "idem", "b")
    c = rand_cocycle(random.Random(63), a, b)
    beta = rand_gauge(random.Random(64), a, b)
    from nabext.io_json import gauge_to_json as g2j

    c_path = _write(tmp_path, "c3.json", cocycle_to_json(c))
    b_path = _write(tmp_path, "b3.json", g2j(beta, GF3))
    assert main(["gauge", c_path, b_path, "--method", "series"]) == 0
    series_doc = capsys.readouterr().out
    assert main(["gauge", c_path, b_path, "--method", "closed"]) == 0
    closed_doc = capsys.readouterr().out
    assert series_doc == closed_doc


def test_cli_gauge_series_refuses_f2(hand_files, capsys):
    code = main(["gauge", hand_files["valid"], hand_files["beta"], "--method", "series"])
    assert code == 2
    err = capsys.readouterr().err
    assert "characteristic 2" in err and "pass --method closed" in err
    assert "gauge_closed_form" not in err and err.count("\n") == 1


def test_cli_census_json_and_text(capsys):
    args = ["census", "--field", "F2", "--a2", "zero", "--b2", "idem"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["num_candidates"] == 8
    assert doc["num_cocycles"] == 6
    assert doc["num_classes"] == len(doc["orbits"]) == 4

    assert main(args + ["--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "equivalence classes  4" in text


def test_cli_census_deterministic_bytes(capsys):
    args = ["census", "--field", "F2", "--a2", "idem", "--b2", "idem"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert main(args + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == first


def test_cli_census_sampled(tmp_path, capsys):
    a_doc = algebra_to_json(zero_algebra(GF2, 2))
    b_doc = algebra_to_json(trunc_poly2(GF2))
    a_path = _write(tmp_path, "A.json", a_doc)
    b_path = _write(tmp_path, "B.json", b_doc)
    args = [
        "census", "--A", a_path, "--B", b_path,
        "--sample", "200", "--seed", "7", "--field", "F2",
    ]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    # a sample counts no class and lists no orbit
    assert set(doc) == {
        "p", "a_dim", "b_dim", "num_candidates", "num_cocycles", "cocycle_indices", "num_classes", "orbits"
    }
    assert doc["orbits"] == [] and doc["num_classes"] is None
    assert doc["num_candidates"] == 2 ** 24
    assert doc["num_cocycles"] == len(doc["cocycle_indices"])


def test_cli_census_sampled_text_does_not_count_classes(capsys):
    # a sample is not closed under equivalence, so no orbit is partitioned
    assert main(["census", "--field", "F2", "--sample", "4", "--seed", "1", "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "equivalence classes  not counted on a sample"


def test_cli_census_budget_error(capsys):
    # the default space has 8 candidates; the refusal names the way out
    args = ["census", "--field", "F2", "--budget", "4"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 8 candidates exceed the budget of 4; raise --budget or use sampling (--sample)\n"


def test_cli_census_sample_respects_the_budget(capsys):
    # the default space has 8 candidates
    assert main(["census", "--field", "F2", "--budget", "2", "--sample", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a sample of 8 candidates exceeds the budget of 2\n"
    assert main(["census", "--field", "F2", "--budget", "8", "--sample", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["num_candidates"] == 8


def test_cli_census_field_must_match_the_algebra_files(tmp_path, capsys):
    a = _write(tmp_path, "A.json", algebra_to_json(line_algebra(GF3, "zero", "a")))
    b = _write(tmp_path, "B.json", algebra_to_json(line_algebra(GF3, "idem", "b")))
    files = ["census", "--A", a, "--B", b]
    for field in ("F2", "F5", "Q"):
        assert main([*files, "--field", field]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --field {field} contradicts the algebra files, which are over F3\n"
    assert main([*files, "--field", "F3"]) == 0
    given = capsys.readouterr().out
    assert json.loads(given)["p"] == 3
    assert main(files) == 0
    assert capsys.readouterr().out == given
    # the shorthand census stays over F2
    assert main(["census"]) == 0
    assert json.loads(capsys.readouterr().out)["p"] == 2


@pytest.mark.parametrize(
    "extra,needle",
    [
        (["--sample", "100"], "sample size 100"),
        (["--sample", "-5"], "sample size -5"),
        (["--jobs", "0"], "--jobs"),
        (["--jobs", "-2"], "--jobs"),
        (["--budget", "0"], "budget"),
        (["--budget", "-1", "--sample", "2"], "budget"),
        (["--sample", "0"], "--sample must be at least 1"),
        (["--seed", "3"], "--seed needs --sample"),
        (["--sample", "5", "--seed", "-7"], "seed -7 is negative"),
    ],
)
def test_cli_census_rejects_bad_numbers(extra, needle, capsys):
    # the default space has 8 candidates
    assert main(["census", "--field", "F2", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert needle in captured.err and "Traceback" not in captured.err


def test_cli_census_sample_without_seed_uses_seed_0(capsys):
    assert main(["census", "--sample", "4"]) == 0
    unseeded = capsys.readouterr().out
    assert main(["census", "--sample", "4", "--seed", "0"]) == 0
    assert capsys.readouterr().out == unseeded


def test_cli_abelianize(hand_files, capsys):
    assert main(["abelianize", hand_files["valid"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["delta_chi_zero"] is True
    assert doc["left_action"] == [[0, 0, 0, "1"]]

    assert main(["abelianize", hand_files["invalid"]]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["violations"]


def test_cli_abelianize_rejects_nonzero_kernel_product(tmp_path, capsys):
    a = line_algebra(GF2, "idem", "a")
    b = line_algebra(GF2, "idem", "b")
    path = _write(tmp_path, "unital.json", cocycle_to_json(NabCocycle.zero(a, b)))
    assert main(["abelianize", path]) == 2


def test_cli_hochschild_delta_and_bracket(tmp_path, capsys):
    alg = trunc_poly2(QQ)
    alg_path = _write(tmp_path, "alg.json", algebra_to_json(alg))
    f = MultilinearMap.from_entries(QQ, (2,), 2, [(0, 0, 1), (1, 1, 1)])
    f_path = _write(tmp_path, "f.json", map_to_json(f))
    assert main(["hochschild-delta", f_path, alg_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["arity"] == 2

    assert main(["bracket", f_path, f_path, "--field", "Q"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # [id, id] = id o id - id o id = 0 at arity 1
    assert doc["entries"] == []


def test_cli_input_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["check-assoc", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["check-assoc", str(bad)]) == 2
    not_schema = tmp_path / "not_schema.json"
    not_schema.write_text('{"hello": 1}')
    assert main(["check-assoc", str(not_schema)]) == 2
    capsys.readouterr()
    # maps on the wrong space: one error line, no traceback
    id2_doc = map_to_json(MultilinearMap.from_entries(QQ, (2,), 2, [(0, 0, 1), (1, 1, 1)]))
    id3_doc = map_to_json(MultilinearMap.from_entries(QQ, (3,), 3, [(k, k, 1) for k in range(3)]))
    alg2 = _write(tmp_path, "alg2.json", algebra_to_json(trunc_poly2(QQ)))
    id2 = _write(tmp_path, "id2.json", id2_doc)
    id3 = _write(tmp_path, "id3.json", id3_doc)
    for argv in (["hochschild-delta", id3, alg2], ["bracket", id2, id3, "--field", "Q"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # malformed headers and entry lists, and tensors too large to hold
    # densely (2 x 2^70 coefficients, a 2 x (2^40 + 1) iota): one error
    # line, no traceback, refused before anything of that size is allocated
    bad_maps = [
        {**id2_doc, "split": {"a_dim": -1, "b_dim": 3}},
        {**id2_doc, "split": {"a_dim": 0, "b_dim": 0}},
        {**id2_doc, "arity": -1},
        {**id2_doc, "arity": 70},
    ]
    e_doc = algebra_to_json(trunc_poly2(QQ))
    bad_extensions = [
        {"E": e_doc, "iota": [[0, "x", "1"]], "p": [[0, 1, "1"]]},
        {"E": e_doc, "iota": [[0, 0]], "p": [[0, 1, "1"]]},
        {"E": e_doc, "iota": [[0, 2 ** 40, "1"]], "p": [[0, 1, "1"]]},
    ]
    argvs = []
    for n, doc in enumerate(bad_maps):
        path = _write(tmp_path, f"bad_map{n}.json", doc)
        argvs += [["hochschild-delta", path, alg2], ["bracket", path, path, "--field", "Q"]]
    for n, doc in enumerate(bad_extensions):
        argvs.append(["extract-cocycle", _write(tmp_path, f"bad_ext{n}.json", doc)])
    # a non-associative quotient (x x = y, y y = x): (x x) y = x, x (x y) = 0
    loop = Algebra.from_products(QQ, ["x", "y"], {(0, 0): {1: 1}, (1, 1): {0: 1}})
    twisted_quotient = _write(tmp_path, "loop.json", cocycle_to_json(NabCocycle.zero(zero_algebra(QQ, 1), loop)))
    argvs += [["mc-check", twisted_quotient], ["abelianize", twisted_quotient]]
    # an algebra of dim 102 (102^3 structure constants), and inputs of
    # allowed size whose result would be too large: the differential of a
    # 2 x 2^19 cochain, the bracket of two 2 x 2^11 ones
    big = {"field": "Q", "dim": 102, "basis": [f"e{i}" for i in range(102)], "products": []}
    argvs.append(["check-assoc", _write(tmp_path, "big.json", big)])
    # a prime of 2.5 or 3.9, or a boolean where a number goes, is refused
    # rather than read as F2, F3 or 1, and a prime past the bound before
    # any trial division
    argvs.append(["census", "--field", f"F{2 ** 61 - 1}"])
    # a sample of no candidates is refused, not run as the exhaustive census
    argvs.append(["census", "--sample", "0", "--format", "text"])
    line = {"field": {"p": 2}, "dim": 1, "basis": ["x"], "products": []}
    for n, doc in enumerate(
        (
            {**line, "field": {"p": 2.5}},
            {**line, "field": {"p": 3.9}},
            {**line, "field": {"p": True}},
            {**line, "field": {"p": 2 ** 61 - 1}},
            {**line, "dim": True},
            {**line, "products": [[0, 0, [0, True]]]},
        )
    ):
        path = _write(tmp_path, f"bool_or_float{n}.json", doc)
        argvs += [["census", "--A", path, "--B", path], ["check-assoc", path]]
    cocycle = cocycle_to_json(NabCocycle.zero(zero_algebra(GF2, 1), line_algebra(GF2, "idem", "b")))
    for n, entries in enumerate(([[0, 0, 0, True]], [[True, 0, 0, "1"]], [[0, 0, 0.0, "1"]])):
        argvs.append(["mc-check", _write(tmp_path, f"bool_entry{n}.json", {**cocycle, "chi": entries})])
    # a slot given twice, where the last value used to win: a beta of 1
    # then -1 gauged by -1
    q_doc = cocycle_to_json(line_cocycle(zero_algebra(QQ, 1), line_algebra(QQ, "idem", "b"), 1, 1, 1))
    q_cocycle = _write(tmp_path, "q_cocycle.json", q_doc)
    argvs.append(["gauge", q_cocycle, _write(tmp_path, "beta_twice.json", {"beta": [[0, 0, "1"], [0, 0, "-1"]]})])
    for n, doc in enumerate(
        (
            {**q_doc, "chi": q_doc["chi"] * 2},
            {**q_doc, "B": {**q_doc["B"], "products": q_doc["B"]["products"] * 2}},
        )
    ):
        argvs.append(["mc-check", _write(tmp_path, f"slot_twice{n}.json", doc)])
    top = _write(tmp_path, "arity19.json", {**id2_doc, "arity": 19, "entries": []})
    arity11 = _write(tmp_path, "arity11.json", {**id2_doc, "arity": 11, "entries": []})
    argvs += [["hochschild-delta", top, alg2], ["bracket", arity11, arity11, "--field", "Q"]]
    # 5,000 nested arrays, past the decoder's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    argvs += [["check-assoc", str(deep)], ["census", "--A", str(deep), "--B", str(deep)]]
    for argv in argvs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    # a file that is not UTF-8 (a UTF-16 byte order mark) is named as unreadable
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{}")
    assert main(["mc-check", str(utf16)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {utf16}: ") and captured.err.count("\n") == 1


def test_cli_reads_utf8_whatever_the_locale(tmp_path):
    # under the C locale, open() would decode with ASCII
    alpha = tmp_path / "alpha.json"
    alpha.write_bytes(
        json.dumps({"field": "Q", "dim": 1, "basis": ["\u03b1"], "products": []}, ensure_ascii=False).encode("utf-8")
    )
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{}")
    src = str(Path(nabext.__file__).resolve().parent.parent)
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "PYTHONPATH": src}
    runs = [
        subprocess.run(
            [sys.executable, "-m", "nabext.cli", "check-assoc", str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        for path in (alpha, utf16)
    ]
    assert (runs[0].returncode, runs[0].stdout, runs[0].stderr) == (0, '{\n  "associative": true\n}\n', "")
    assert runs[1].returncode == 2 and runs[1].stdout == ""
    assert runs[1].stderr.startswith(f"error: cannot read {utf16}: ") and runs[1].stderr.count("\n") == 1


def test_cli_refuses_a_huge_integer_and_exponent_notation(tmp_path, capsys):
    # a bare 5,000-digit chi coefficient, and "1e3" over Q: one error line
    # and exit 2, not a traceback's exit 1 (mc-check's "invalid") or a
    # Fraction expanding the exponent
    doc = cocycle_to_json(line_cocycle(zero_algebra(QQ, 1), line_algebra(QQ, "idem", "b"), 1, 1, 1))
    huge = tmp_path / "huge.json"
    huge.write_text(dumps_canonical({**doc, "chi": [[0, 0, 0, "HUGE"]]}).replace('"HUGE"', "1" * 5000))
    exponent = _write(tmp_path, "exponent.json", {**doc, "chi": [[0, 0, 0, "1e3"]]})
    for path, needle in ((str(huge), "not valid JSON"), (exponent, "exponent notation")):
        assert main(["mc-check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert needle in captured.err and "Traceback" not in captured.err


def test_cli_unwritable_output_exits_2(hand_files, capsys):
    # exit 1 is mc-check's "invalid" verdict, so a failed write must not
    # end in a traceback, which also exits 1
    tmp = hand_files["tmp"]
    for output in (str(tmp / "missing" / "x.json"), str(tmp)):
        for key in ("valid", "invalid"):
            assert main(["mc-check", hand_files[key], "--output", output]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: cannot write {output}: ")
            assert captured.err.count("\n") == 1


def _refuse_work(*args):
    raise AssertionError("a refused verb did some work")


def test_the_cocycle_verbs_refuse_a_result_past_the_dense_bound(tmp_path, monkeypatch, capsys):
    # mc-check and abelianize form x o x, d^4 coefficients for d = dim A +
    # dim B, and build-extension and gauge --method series a map of d^3.
    # Zero-product ends and no twist: past the bound each exits 2 with one
    # line and nothing on stdout, before any work; at it, mc-check and
    # abelianize run
    def cocycle(a, b):
        c = NabCocycle.zero(zero_algebra(QQ, a), zero_algebra(QQ, b, "b"))
        return _write(tmp_path, f"zero{a}_{b}.json", cocycle_to_json(c))

    beta = _write(tmp_path, "beta.json", {"beta": []})
    for name in ("check_cocycle", "build_extension", "mc_context"):
        monkeypatch.setattr(nabext.cli, name, _refuse_work)
    square = "the square x o x would hold 33 x 33^3 coefficients, more than 1048576"
    wide = "would hold 102 x 102^2 coefficients, more than 1048576"
    for argv, message in (
        (["mc-check", cocycle(17, 16)], square),
        (["abelianize", cocycle(17, 16)], square),
        (["build-extension", cocycle(51, 51)], f"the extension {wide}"),
        (["gauge", cocycle(51, 51), beta, "--method", "series"], f"the Maurer-Cartan element {wide}"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    monkeypatch.undo()
    for verb in ("mc-check", "abelianize"):
        assert main([verb, cocycle(16, 16)]) == 0
        assert json.loads(capsys.readouterr().out)[{"mc-check": "mc_valid", "abelianize": "ok"}[verb]]


def test_a_repeated_slot_is_refused():
    line = {"field": "Q", "dim": 2, "basis": ["x", "y"]}
    # two rows for one (i, j) with different outputs stay legal
    split = algebra_from_json({**line, "products": [[0, 0, [0, "1"]], [0, 0, [1, "2"]]]})
    joined = algebra_from_json({**line, "products": [[0, 0, [0, "1"], [1, "2"]]]})
    assert split.table == joined.table
    for products in ([[0, 0, [1, "1"], [1, "1"]]], [[0, 0, [1, "1"]], [0, 0, [1, "-1"]]]):
        with pytest.raises(FormatError, match=r"^product \(0,0\) gives output index 1 twice$"):
            algebra_from_json({**line, "products": products})

    a, b = zero_algebra(QQ, 1), line_algebra(QQ, "idem", "b")
    doc = cocycle_to_json(NabCocycle.zero(a, b))
    for key in ("phi", "psi", "chi"):
        with pytest.raises(FormatError, match=rf"^{key} entry \[0, 0, 0\] is given twice$"):
            cocycle_from_json({**doc, key: [[0, 0, 0, "1"], [0, 0, 0, "2"]]})
    entries = [[0, 1, "1"], [0, 1, "1"]]
    with pytest.raises(FormatError, match=r"^map entry \[0, 1\] is given twice$"):
        map_from_json({"arity": 1, "source_dim": 2, "target_dim": 2, "entries": entries}, QQ)
    with pytest.raises(FormatError, match=r"^beta entry \(0,0\) is given twice$"):
        gauge_from_json({"beta": [[0, 0, "1"], [0, 0, "-1"]]}, QQ, 1, 1)
    with pytest.raises(FormatError, match=r"^section entry \(1,0\) is given twice$"):
        section_from_json({"s": [[1, 0, "1"], [1, 0, "1"]]}, QQ, 2, 1)
    ext = extension_to_json(canonical_presentation(NabCocycle.zero(a, b)))
    for key in ("iota", "p"):
        with pytest.raises(FormatError, match=rf"^{key} entry \(\d,\d\) is given twice$"):
            extension_from_json({**ext, key: ext[key] + ext[key][:1]})


_COLD_START = """
import contextlib, io, json, sys
import nabext, nabext.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [nabext.cli.main(["census", "--jobs", "1"]), nabext.cli.main(["mc-check", sys.argv[1]])]
pool_modules = ("multiprocessing", "concurrent.futures.process")
loaded = [name for name in pool_modules if name in sys.modules]
# the names are the ones a pool loads
from concurrent.futures import ProcessPoolExecutor
print(json.dumps([codes, loaded, [name for name in pool_modules if name in sys.modules]]))
"""


def test_a_serial_call_does_not_import_the_process_pool(hand_files):
    # a fresh interpreter, so no other test has loaded the pool's modules
    src = str(Path(nabext.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START, hand_files["valid"]],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    codes, loaded, after_pool = json.loads(done.stdout)
    assert codes == [0, 0]
    assert loaded == []
    assert after_pool == ["multiprocessing", "concurrent.futures.process"]

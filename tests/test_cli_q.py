"""The command line over Q, pinned byte for byte.

Every verb that reads Q input runs on fixed inputs: algebras and cochains
with non-integral coefficients, gauge images of the zero cocycle, random
triples, and the three malformed kinds of cocycle file.  ``q_files`` builds
the inputs from fixed seeds; the golden file holds each call's argv, exit
code, stdout and stderr.  With ``--output`` each call, and the F2 census as
JSON and as text, writes its stdout to the file instead.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    canonical_presentation,
    left_unit2,
    line_algebra,
    rand_cochain,
    rand_cocycle,
    rand_gauge,
    run_cli,
    trunc_poly2,
    upper_triangular2,
    zero_algebra,
)
from nabext import (
    GF2,
    QQ,
    Algebra,
    CandidateSpace,
    GaugeParam,
    NabCocycle,
    apply_equivalence,
    build_extension,
    census,
    cli,
    theta_from_gauge,
)
from nabext.io_json import (
    algebra_to_json,
    cocycle_to_json,
    dumps_canonical,
    extension_to_json,
    gauge_to_json,
    map_to_json,
    report_to_text,
)

GOLDEN_Q = Path(__file__).parent / "golden" / "cli_q.json"
HALF = Fraction(1, 2)


def _gauge(rows) -> GaugeParam:
    return GaugeParam(tuple(tuple(Fraction(v) for v in row) for row in rows))


def q_files():
    """File name -> text of every input the calls read."""
    unit2, left2, zero2, tri3 = trunc_poly2(QQ), left_unit2(QQ), zero_algebra(QQ, 2), upper_triangular2(QQ)
    algebras = {
        "unit2": unit2,
        "scaled1": Algebra.from_products(QQ, ["e"], {(0, 0): {0: HALF}}),
        # (e0 e0) e0 = e1 e0 = e0 / 2, but e0 (e0 e0) = e0 e1 = 0
        "nonassoc2": Algebra.from_products(QQ, ["e0", "e1"], {(0, 0): {1: 1}, (1, 0): {0: HALF}}),
    }
    beta22 = _gauge([["1/2", "-2/3"], ["0", "3"]])
    beta23 = _gauge([["1/3", "0", "-1"], ["2", "1/2", "0"]])
    rng = random.Random(29)
    cocycles = {
        "valid22": apply_equivalence(NabCocycle.zero(unit2, left2), beta22),
        "random22": rand_cocycle(rng, unit2, left2),
        "valid23": apply_equivalence(NabCocycle.zero(zero2, tri3), beta23),
        "random23": rand_cocycle(rng, zero2, tri3),
    }
    cocycles["image22"] = apply_equivalence(cocycles["random22"], beta22)
    docs = {f"{name}.json": algebra_to_json(alg) for name, alg in algebras.items()}
    docs.update({f"{name}.json": cocycle_to_json(c) for name, c in cocycles.items()})
    docs["beta22.json"] = gauge_to_json(beta22, QQ)
    docs["beta23.json"] = gauge_to_json(beta23, QQ)
    docs["rbeta22.json"] = gauge_to_json(rand_gauge(rng, unit2, left2), QQ)
    for name in ("valid22", "random22", "valid23", "image22"):
        docs[f"ext-{name}.json"] = extension_to_json(canonical_presentation(cocycles[name]))
    split = build_extension(cocycles["random22"])[1]
    for name, beta in (("theta22", beta22), ("rtheta22", beta22.negate(QQ))):
        docs[f"{name}.json"] = {"theta": gauge_to_json(GaugeParam(theta_from_gauge(beta, split, QQ)), QQ)["beta"]}
    docs["delta1.json"] = map_to_json(rand_cochain(rng, unit2, 1))
    docs["delta2.json"] = map_to_json(rand_cochain(rng, unit2, 2))
    for kind, coeff in (("out-of-range", "1"), ("out-of-range-half", "1/2"), ("zero-denominator", None)):
        doc = cocycle_to_json(cocycles["valid22"])
        if coeff is None:
            doc["chi"].append([0, 0, 0, "1/0"])
        else:
            doc["phi"].append([0, 0, 2, coeff])
        docs[f"bad-{kind}.json"] = doc
    files = {name: dumps_canonical(doc) for name, doc in docs.items()}
    files["bad-invalid-json.json"] = files["valid22.json"][:-7] + "\n"
    return files


def q_argvs():
    argvs = [["check-assoc", f"{name}.json"] for name in ("unit2", "scaled1", "nonassoc2")]
    argvs += [
        ["hochschild-delta", "delta1.json", "unit2.json"],
        ["hochschild-delta", "delta2.json", "unit2.json"],
        ["bracket", "delta2.json", "delta1.json"],
        ["bracket", "delta2.json", "delta2.json", "--field", "Q"],
    ]
    for name, beta in (("valid22", "beta22"), ("random22", "beta22"), ("valid23", "beta23"), ("random23", "beta23")):
        argvs += [
            ["mc-check", f"{name}.json"],
            ["gauge", f"{name}.json", f"{beta}.json", "--method", "series"],
            ["gauge", f"{name}.json", f"{beta}.json", "--method", "closed"],
            ["build-extension", f"{name}.json"],
            ["abelianize", f"{name}.json"],
        ]
    argvs += [["extract-cocycle", f"ext-{name}.json"] for name in ("valid22", "random22", "valid23")]
    argvs += [
        ["equiv-check", "random22.json", "image22.json", "--witness", "beta22.json"],
        ["equiv-check", "random22.json", "image22.json", "--witness", "rbeta22.json"],
        ["equiv-check", "random22.json", "valid22.json", "--witness", "beta22.json"],
        ["equiv-check", "ext-random22.json", "ext-image22.json", "--witness", "theta22.json", "--kind", "extension"],
        ["equiv-check", "ext-random22.json", "ext-image22.json", "--witness", "rtheta22.json", "--kind", "extension"],
    ]
    argvs += [["mc-check", f"bad-{kind}.json"] for kind in ("out-of-range", "out-of-range-half", "invalid-json", "zero-denominator")]
    return argvs


GOLDEN = json.loads(GOLDEN_Q.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_q")
    for name, text in q_files().items():
        (root / name).write_text(text)
    return root


def test_golden_q_covers_every_case():
    assert [g["argv"] for g in GOLDEN] == q_argvs()


def test_golden_q_covers_every_q_verb():
    # census runs over prime fields only
    verbs = {verb.name for verb in cli._VERBS} - {"census"}
    assert {g["argv"][0] for g in GOLDEN} == verbs
    methods = {g["argv"][-1] for g in GOLDEN if g["argv"][0] == "gauge"}
    assert methods == {"series", "closed"}
    assert {g["exit"] for g in GOLDEN} == {0, 1, 2}


@pytest.mark.parametrize("golden", GOLDEN, ids=[" ".join(g["argv"]) for g in GOLDEN])
def test_cli_q_matches_golden(golden, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    assert run_cli(golden["argv"]) == golden


def _census_f2():
    """``census --field F2`` as JSON and as text, with their stdout."""
    space = CandidateSpace(line_algebra(GF2, "zero", "a"), line_algebra(GF2, "idem", "b"))
    report = census(space)
    json_stdout = (Path(__file__).parent / "golden" / "census" / "F2-zero1-idem1.json").read_text()
    return [
        {"argv": ["census", "--field", "F2"], "exit": 0, "stdout": json_stdout, "stderr": ""},
        {"argv": ["census", "--field", "F2", "--format", "text"], "exit": 0, "stdout": report_to_text(report), "stderr": ""},
    ]


@pytest.mark.parametrize("golden", GOLDEN + _census_f2(), ids=lambda g: " ".join(g["argv"]))
def test_output_file_holds_what_stdout_would(golden, inputs, monkeypatch, tmp_path):
    # every verb, verdicts and refusals alike: the document goes to the
    # file instead of stdout, and the exit code and stderr do not change
    monkeypatch.chdir(inputs)
    output = tmp_path / "out"
    result = run_cli(golden["argv"] + ["--output", str(output)])
    assert (result["exit"], result["stdout"], result["stderr"]) == (golden["exit"], "", golden["stderr"])
    if golden["stdout"]:
        assert output.read_text() == golden["stdout"]
    else:
        assert not output.exists()


def test_extract_cocycle_names_the_triple_check_assoc_reports(inputs, monkeypatch, tmp_path):
    # the twisted product of a triple that is no cocycle is no extension
    monkeypatch.chdir(inputs)
    e_doc = json.loads((inputs / "ext-random22.json").read_text())["E"]
    e_path = tmp_path / "E.json"
    e_path.write_text(dumps_canonical(e_doc))
    assoc = run_cli(["check-assoc", str(e_path)])
    assert assoc["exit"] == 1
    witness = json.loads(assoc["stdout"])["witness"]
    extracted = run_cli(["extract-cocycle", "ext-random22.json"])
    assert extracted["exit"] == 1
    assert json.loads(extracted["stdout"]) == {
        "ok": False,
        "failures": ["E is not associative at ({},{},{})".format(*witness)],
    }

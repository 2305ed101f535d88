"""Mathematical content of CLI results, and the recorded reference answers.

An op is scored by what it says mathematically, not by its bytes: the exit
code, the verdict fields and the output tensors, with scalars in lowest terms
and zero entries dropped.  A change to the report layout (new keys, other
ordering or basis labels) therefore keeps matching, and a wrong answer does
not.  Census answers are kept in full in ``reference.json``; verb answers are
kept as digests of their content.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional

REFERENCE = Path(__file__).resolve().parent / "reference.json"

_MC_VERDICTS = ("cocycle_valid", "mc_valid", "dgla_residual_zero", "derivation_condition")


def _scalar(text) -> str:
    return str(Fraction(text))


def _entries(rows):
    return sorted([*row[:-1], _scalar(row[-1])] for row in rows if Fraction(row[-1]) != 0)


def _algebra(doc):
    products = sorted(
        [row[0], row[1], k, _scalar(c)] for row in doc["products"] for k, c in row[2:] if Fraction(c) != 0
    )
    return {"field": doc["field"], "dim": doc["dim"], "products": products}


def _cocycle(doc):
    out = {name: _entries(doc[name]) for name in ("phi", "psi", "chi")}
    out["A"], out["B"] = _algebra(doc["A"]), _algebra(doc["B"])
    return out


def content(verb: str, rc, stdout: str):
    """The mathematical content of one op's result."""
    if rc not in (0, 1):
        return {"exit": rc}
    doc = json.loads(stdout)
    if verb == "census":
        result = {
            "cocycles": list(doc["cocycle_indices"]),
            "orbits": sorted(sorted(o["members"]) for o in doc["orbits"]),
        }
    elif verb == "mc-check":
        result = {key: doc[key] for key in _MC_VERDICTS}
        result["violations"] = sorted(
            [v["which"], v["witness"], [_scalar(x) for x in v["discrepancy"]]] for v in doc["violations"]
        )
    elif verb in ("gauge-series", "gauge-closed", "extract-cocycle"):
        result = _cocycle(doc)
    elif verb == "build-extension":
        result = {"E": _algebra(doc), "split": doc["split"]}
    elif verb == "equiv-check":
        result = doc["equivalent"]
    else:
        raise ValueError(f"no content rule for verb {verb!r}")
    return {"exit": rc, "result": result}


def fingerprint(verb: str, rc, stdout: str):
    """What the reference stores: census content in full, a digest otherwise."""
    value = content(verb, rc, stdout)
    if verb == "census":
        return value
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:20]


def matches(expected, verb: str, rc, stdout: str) -> Optional[str]:
    """None when the result matches ``expected``, else why not."""
    if expected is None:
        return "no recorded answer"
    try:
        got = fingerprint(verb, rc, stdout)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable result (exit {rc}): {type(exc).__name__}: {exc}"
    if got != expected:
        return f"answer differs from the recorded one (exit {rc})"
    return None


def load_reference() -> Dict:
    return json.loads(REFERENCE.read_text())

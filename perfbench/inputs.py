"""Seeded inputs for the benchmark workloads.

The benchmark's own code builds every input file here, so the program under
test only ever receives JSON files.  A workload is one job, a list of CLI
calls (ops) that the benchmark repeats.  Each op carries the key of its
recorded answer in ``reference.json``.

Census spaces are fixed.  The seed picks, per workload, which recorded
variants to run: census-sampled draws ``SAMPLE_CALLS`` sampling seeds from a
pool of ``SAMPLE_SEEDS``, and verbs-q draws one of ``VARIANTS`` coefficient
sets for every slot.  The slots themselves are fixed, so every seed runs the same mix
of dimensions, algebras and verdicts and costs about the same.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("census-sweep", "census-orbits", "census-sampled", "verbs-q")

# name -> (basis, {(i, j): {k: coeff}}): e_i e_j = sum_k coeff e_k
ALGEBRAS: Dict[str, Tuple[Tuple[str, ...], Dict[Tuple[int, int], Dict[int, int]]]] = {
    "zero1": (("z",), {}),
    "idem1": (("e",), {(0, 0): {0: 1}}),
    "zero2": (("z0", "z1"), {}),
    "nil2": (("t", "t2"), {(0, 0): {1: 1}}),
    "unit2": (("u", "t"), {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}),
    "diag2": (("e1", "e2"), {(0, 0): {0: 1}, (1, 1): {1: 1}}),
    "zero3": (("z0", "z1", "z2"), {}),
    "unit3": (
        ("u", "t", "t2"),
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (0, 2): {2: 1}, (2, 0): {2: 1}, (1, 1): {2: 1}},
    ),
    "tri3": (
        ("e11", "e12", "e22"),
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}},
    ),
    "nil3": (("t", "t2", "t3"), {(0, 0): {1: 1}, (0, 1): {2: 1}, (1, 0): {2: 1}}),
}

# workload -> census calls per job: (p, kernel A, quotient B).  Every call
# takes 10-300 ms, so that a call's best time in a run leaves out the host's
# slowdowns (see run.timed_run).  census-sweep runs spaces where few
# candidates are cocycles, census-orbits spaces where many are.
CENSUS_SPACES = {
    "census-sweep": (
        ("2", "unit2", "idem1"),
        ("2", "diag2", "idem1"),
        ("2", "nil2", "zero1"),
        ("2", "unit2", "zero1"),
        ("2", "diag2", "zero1"),
    ),
    "census-orbits": (
        ("2", "zero1", "zero2"),
        ("2", "zero1", "diag2"),
        ("2", "zero1", "unit2"),
        ("2", "zero1", "idem1"),
        ("3", "zero1", "idem1"),
        ("3", "zero1", "zero1"),
    ),
    "census-sampled": (("2", "zero2", "unit2"),),
}
SAMPLE_SIZE = 100
SAMPLE_SEEDS = 32  # recorded sampling seeds
SAMPLE_CALLS = 16  # sampled census calls per job

# verbs-q inputs: (kernel A, quotient B, kind).  "valid" is a gauge image of
# the zero cocycle, "invalid" a random triple.  The costlier dims (2, 3) are
# kept few, so that the p90 op falls inside the (2, 2) mc-check group rather
# than on the edge between two groups.
_PAIRS_22 = (("zero2", "unit2"), ("nil2", "diag2"), ("diag2", "nil2"), ("unit2", "zero2"), ("diag2", "unit2"), ("nil2", "nil2"))
VERB_INPUTS = tuple((a, b, kind) for a, b in _PAIRS_22 for kind in ("valid", "valid", "invalid")) + (
    ("zero2", "tri3", "valid"),
    ("nil2", "unit3", "invalid"),
    ("diag2", "zero3", "valid"),
    ("unit2", "nil3", "invalid"),
)
# malformed inputs the parser rejects with exit 2
MALFORMED = ("phi-out-of-range", "invalid-json", "zero-denominator")
VARIANTS = 10
_SCALARS = ("1", "-1", "2", "-2", "1/2", "-1/2", "3/2", "-2/3", "1/3")


@dataclass(frozen=True)
class Op:
    key: str  # reference entry
    verb: str  # metric label: census, mc-check, gauge-series, ...
    argv: Tuple[str, ...]


@dataclass
class Workload:
    ops: List[Op]  # one job
    setup_files: List[Tuple[str, str]]  # (kind, path) parsed by setup_probe.py


def _dump(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return str(path)


def algebra_doc(name: str, p: str = "Q") -> Dict:
    basis, products = ALGEBRAS[name]
    rows = [
        [i, j, *([k, str(c)] for k, c in sorted(row.items()))]
        for (i, j), row in sorted(products.items())
    ]
    return {
        "field": "Q" if p == "Q" else {"p": int(p)},
        "dim": len(basis),
        "basis": list(basis),
        "products": rows,
    }


# ---------------------------------------------------------------------------
# exact twist arithmetic over Q, independent of the program under test
# ---------------------------------------------------------------------------

def _table(name: str) -> Dict[Tuple[int, int], Dict[int, Fraction]]:
    return {ij: {k: Fraction(c) for k, c in row.items()} for ij, row in ALGEBRAS[name][1].items()}


def _mul(table, u: List[Fraction], v: List[Fraction], dim: int) -> List[Fraction]:
    out = [Fraction(0)] * dim
    for (i, j), row in table.items():
        w = u[i] * v[j]
        if w:
            for k, c in row.items():
                out[k] += w * c
    return out


def zero_image(a: str, b: str, beta: List[List[Fraction]]):
    """The equivalence image of the zero cocycle under ``beta`` (a x b):
    phi(b, x) = -beta(b) x, psi(x, b) = -x beta(b),
    chi(b1, b2) = beta(b1 b2) + beta(b1) beta(b2)."""
    ad, bd = len(ALGEBRAS[a][0]), len(ALGEBRAS[b][0])
    ta, tb = _table(a), _table(b)
    col = [[beta[i][j] for i in range(ad)] for j in range(bd)]
    unit = [[Fraction(int(t == i)) for t in range(ad)] for i in range(ad)]
    phi, psi, chi = {}, {}, {}
    for j in range(bd):
        for i in range(ad):
            for k, v in enumerate(_mul(ta, col[j], unit[i], ad)):
                phi[(k, j, i)] = -v
            for k, v in enumerate(_mul(ta, unit[i], col[j], ad)):
                psi[(k, i, j)] = -v
    for j1 in range(bd):
        for j2 in range(bd):
            acc = _mul(ta, col[j1], col[j2], ad)
            for l, c in tb.get((j1, j2), {}).items():
                acc = [x + c * y for x, y in zip(acc, col[l])]
            for k, v in enumerate(acc):
                chi[(k, j1, j2)] = v
    return phi, psi, chi


def _entries(m: Dict[Tuple[int, ...], Fraction]) -> List[List]:
    return [[*idx, str(v)] for idx, v in sorted(m.items()) if v]


def cocycle_doc(a: str, b: str, phi, psi, chi) -> Dict:
    return {
        "A": algebra_doc(a),
        "B": algebra_doc(b),
        "phi": _entries(phi),
        "psi": _entries(psi),
        "chi": _entries(chi),
    }


def extension_doc(a: str, b: str, phi, psi, chi) -> Dict:
    """The twisted product on A (+) B with block inclusion and projection."""
    ad, bd = len(ALGEBRAS[a][0]), len(ALGEBRAS[b][0])
    products: Dict[Tuple[int, int], Dict[int, Fraction]] = {}

    def put(i, j, k, v):
        if v:
            products.setdefault((i, j), {})[k] = v

    for (i, j), row in _table(a).items():
        for k, v in row.items():
            put(i, j, k, v)
    for (i, j), row in _table(b).items():
        for k, v in row.items():
            put(ad + i, ad + j, ad + k, v)
    for (k, j, i), v in phi.items():
        put(ad + j, i, k, v)
    for (k, i, j), v in psi.items():
        put(i, ad + j, k, v)
    for (k, j1, j2), v in chi.items():
        put(ad + j1, ad + j2, k, v)
    basis = [f"a_{n}" for n in ALGEBRAS[a][0]] + [f"b_{n}" for n in ALGEBRAS[b][0]]
    return {
        "E": {
            "field": "Q",
            "dim": ad + bd,
            "basis": basis,
            "products": [
                [i, j, *([k, str(v)] for k, v in sorted(row.items()))]
                for (i, j), row in sorted(products.items())
            ],
        },
        "iota": [[i, i, "1"] for i in range(ad)],
        "p": [[j, ad + j, "1"] for j in range(bd)],
        "A": algebra_doc(a),
        "B": algebra_doc(b),
    }


def _random_matrix(rng: random.Random, rows: int, cols: int) -> List[List[Fraction]]:
    return [
        [Fraction(rng.choice(_SCALARS)) if rng.random() < 0.6 else Fraction(0) for _ in range(cols)]
        for _ in range(rows)
    ]


def _random_map(rng: random.Random, shape: Tuple[int, int, int]) -> Dict:
    return {
        (k, x, y): Fraction(rng.choice(_SCALARS))
        for k in range(shape[0])
        for x in range(shape[1])
        for y in range(shape[2])
        if rng.random() < 0.4
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def census_workload(name: str, workdir: Path, sample_seeds: Sequence[int]) -> Workload:
    """Census ops of ``name``; census-sampled makes one call per sampling seed."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops: List[Op] = []
    setup_files = []
    for p, a, b in CENSUS_SPACES[name]:
        pa = _dump(workdir / f"F{p}-{a}.json", algebra_doc(a, p))
        pb = _dump(workdir / f"F{p}-{b}.json", algebra_doc(b, p))
        setup_files += [("algebra", pa), ("algebra", pb)]
        argv = ("census", "--field", f"F{p}", "--A", pa, "--B", pb, "--jobs", "1")
        ops.append(Op(f"{name}.F{p}-{a}-{b}", "census", argv))
    if name == "census-sampled":
        (op,) = ops
        ops = [Op(f"{op.key}.{s}", "census", op.argv + ("--sample", str(SAMPLE_SIZE), "--seed", str(s))) for s in sample_seeds]
    return Workload(ops, sorted(set(setup_files)))


def verb_slots() -> List[str]:
    """Slot ids in run order: ``in<n>`` indexes VERB_INPUTS, ``bad-<kind>`` is malformed."""
    return [f"in{n}" for n in range(len(VERB_INPUTS))] + [f"bad-{kind}" for kind in MALFORMED]


def write_verb_input(slot: str, variant: int, workdir: Path) -> List[Op]:
    """Write variant ``variant`` of one verbs-q slot and return its ops."""
    rng = random.Random(f"{slot}:{variant}")
    stem = workdir / f"{slot}-{variant}"
    key = f"verbs-q.{slot}.{variant}"
    if slot.startswith("bad-"):
        kind = slot[len("bad-"):]
        a, b, _ = VERB_INPUTS[variant % len(VERB_INPUTS)]
        beta = _random_matrix(rng, len(ALGEBRAS[a][0]), len(ALGEBRAS[b][0]))
        doc = cocycle_doc(a, b, *zero_image(a, b, beta))
        path = Path(f"{stem}-c.json")
        if kind == "phi-out-of-range":
            doc["phi"].append([0, 0, len(ALGEBRAS[a][0]), "1"])
        elif kind == "zero-denominator":
            doc["chi"].append([0, 0, 0, "1/0"])
        if kind == "invalid-json":
            path.write_text(json.dumps(doc, sort_keys=True)[:-7] + "\n")
        else:
            _dump(path, doc)
        return [Op(f"{key}.mc-check", "mc-check", ("mc-check", str(path)))]

    a, b, kind = VERB_INPUTS[int(slot[len("in"):])]
    ad, bd = len(ALGEBRAS[a][0]), len(ALGEBRAS[b][0])
    beta = _random_matrix(rng, ad, bd)
    if kind == "valid":
        beta0 = _random_matrix(rng, ad, bd)
        twist = zero_image(a, b, beta0)
        total = [[x + y for x, y in zip(r0, r)] for r0, r in zip(beta0, beta)]
        image = zero_image(a, b, total)
    else:
        twist = (_random_map(rng, (ad, bd, ad)), _random_map(rng, (ad, ad, bd)), _random_map(rng, (ad, bd, bd)))
        image = zero_image(a, b, beta)
    c = _dump(Path(f"{stem}-c.json"), cocycle_doc(a, b, *twist))
    c2 = _dump(Path(f"{stem}-c2.json"), cocycle_doc(a, b, *image))
    w = _dump(
        Path(f"{stem}-beta.json"),
        {"beta": [[i, j, str(v)] for i, row in enumerate(beta) for j, v in enumerate(row) if v]},
    )
    ops = [
        Op(f"{key}.mc-check", "mc-check", ("mc-check", c)),
        Op(f"{key}.gauge-series", "gauge-series", ("gauge", c, w, "--method", "series")),
        Op(f"{key}.gauge-closed", "gauge-closed", ("gauge", c, w, "--method", "closed")),
        Op(f"{key}.build-extension", "build-extension", ("build-extension", c)),
        Op(f"{key}.equiv-check", "equiv-check", ("equiv-check", c, c2, "--witness", w)),
    ]
    if kind == "valid":
        e = _dump(Path(f"{stem}-ext.json"), extension_doc(a, b, *twist))
        ops.append(Op(f"{key}.extract-cocycle", "extract-cocycle", ("extract-cocycle", e)))
    return ops


def _verbs_workload(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    job: List[Op] = []
    setup_files = []
    for slot in verb_slots():
        ops = write_verb_input(slot, rng.randrange(VARIANTS), workdir)
        if not slot.startswith("bad-"):
            setup_files.append(("cocycle", ops[0].argv[1]))
        job += ops
    return Workload(job, setup_files)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "verbs-q":
        return _verbs_workload(seed, workdir)
    return census_workload(name, workdir, random.Random(seed).sample(range(SAMPLE_SEEDS), SAMPLE_CALLS))

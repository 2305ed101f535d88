"""Self-tests of the benchmark:  python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _fresh(name: str) -> Path:
    path = run.WORKDIR / "selftest" / name
    shutil.rmtree(path, ignore_errors=True)
    return path


def _files(workload, root: Path):
    ops = [(op.key, op.verb, tuple(a.replace(str(root), "<dir>") for a in op.argv)) for op in workload.ops]
    return ops, {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_same_seed_same_inputs(name):
    first = _files(inputs.build(name, 7, _fresh("a")), run.WORKDIR / "selftest" / "a")
    second = _files(inputs.build(name, 7, _fresh("b")), run.WORKDIR / "selftest" / "b")
    assert first == second


def test_other_seed_other_verb_inputs():
    first = _files(inputs.build("verbs-q", 7, _fresh("a")), run.WORKDIR / "selftest" / "a")
    second = _files(inputs.build("verbs-q", 8, _fresh("b")), run.WORKDIR / "selftest" / "b")
    assert first[1] != second[1]


def test_verb_job_has_enough_ops_for_p90():
    assert len(inputs.build("verbs-q", 7, _fresh("a")).ops) >= 100


def test_metric_names():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(inputs.WORKLOADS)


def _result(workload: str, trace: int, seed: int = 3) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result("census-orbits", 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for spec in BENCHMARK["end_to_end"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert result["metrics"][spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", ["census-orbits", "verbs-q"])
def test_traced_runs_repeat_counts(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    assert first["correct"] and second["correct"]
    assert sorted(first["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    exact = [n for n in first["metrics"] if n.endswith(".calls")] + ["classify.cocycle_yield"]
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}
    assert first["metrics"]["trace.absent"]["value"] == 0


def _bindings():
    return {
        (name, key): value
        for name, mod in list(sys.modules.items())
        if name == "nabext" or name.startswith("nabext.")
        for key, value in vars(mod).items()
    }


def test_tracer_restores_every_attribute_and_survives_missing_targets(monkeypatch):
    cli = run.import_program()
    import nabext.classify as classify
    from nabext.cochains import MultilinearMap

    before = _bindings()
    methods = dict(vars(classify.CandidateSpace)), dict(vars(MultilinearMap))
    monkeypatch.setitem(spans.TARGETS, "classify", spans.TARGETS["classify"] + ("no_such_function",))
    monkeypatch.setitem(spans.TARGETS, "no_such_module", ("anything",))
    tracer = spans.Tracer()
    try:
        absent = tracer.install()
        assert classify.is_valid_cocycle is not before[("nabext.classify", "is_valid_cocycle")]
        rc, out, _ = run.invoke(cli.main, ["census", "--field", "F2"])
    finally:
        tracer.uninstall()
    assert rc == 0 and json.loads(out)["num_cocycles"] > 0
    assert absent == ["classify.no_such_function", "no_such_module.anything"]
    assert tracer.layer_metrics()["classify.candidate.calls"][0] > 0
    assert _bindings() == before
    assert (dict(vars(classify.CandidateSpace)), dict(vars(MultilinearMap))) == methods

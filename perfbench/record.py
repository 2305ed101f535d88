"""Record the reference answers that every benchmark run is scored against.

    python3 perfbench/record.py

Runs once every op that any seed can select (the fixed census spaces, every
census-sampled sampling seed and every verbs-q variant) and writes the
mathematical content of each answer to ``reference.json``.  Record only on a
commit whose answers are trusted; later commits are scored against it.
"""

from __future__ import annotations

import json
import shutil
import sys

import answers
import inputs
import run


def all_ops(workdir):
    ops = []
    for name in inputs.WORKLOADS:
        if name != "verbs-q":
            ops += inputs.census_workload(name, workdir / name, range(inputs.SAMPLE_SEEDS)).ops
    verbs_dir = workdir / "verbs-q"
    verbs_dir.mkdir(parents=True, exist_ok=True)
    for slot in inputs.verb_slots():
        for variant in range(inputs.VARIANTS):
            ops += inputs.write_verb_input(slot, variant, verbs_dir)
    return ops


def expected_exits(key: str):
    """Exit codes the recorded commit must give: malformed inputs are
    rejected, and every op on a gauge image of zero succeeds."""
    slot = key.split(".")[1]
    if slot.startswith("bad-"):
        return (2,)
    if slot.startswith("in") and inputs.VERB_INPUTS[int(slot[len("in"):])][2] == "valid":
        return (0,)
    return (0, 1)


def main() -> int:
    cli = run.import_program()
    workdir = run.WORKDIR / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    reference = {}
    for op in {op.key: op for op in all_ops(workdir)}.values():
        rc, out, err = run.invoke(cli.main, op.argv)
        expected = expected_exits(op.key)
        if rc not in expected:
            print(f"record: {op.key} exited {rc!r}, expected one of {expected}: {err}", file=sys.stderr)
            return 1
        reference[op.key] = answers.fingerprint(op.verb, rc, out)
    lines = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}" for key, value in sorted(reference.items())]
    answers.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(reference)} answers in {answers.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

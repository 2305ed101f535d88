"""Mutants of the census's checks, each with the tests expected to kill it.

A mutant is one exact edit of one file: a check weakened or a rule broken.
Run from anywhere, with the test requirements installed::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each mutant is applied to its own copy of the tree in a temporary
directory.  The copy runs the mutant's killing tests, then, if they all
pass, the full suite, each run stopping at its first failure.  A mutant is
reported "killed" with the first failing test, or "survived": a surviving
mutant points to a missing test.  The command exits 1 if any survives.
With about 10-60 s a mutant it runs outside tier-1; tier-1 checks only that
each old text occurs exactly once in its file, so a change to the anchored
code updates its mutant in the same commit.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    killers: Tuple[str, ...]  # pytest node ids expected to fail


_CLASSIFY = "src/nabext/classify.py"
_TESTS = "tests/test_classify.py::"

MUTANTS = (
    Mutant(
        "signed-key-without-sign",
        _CLASSIFY,
        "    if 2 * min(terms)[1] > p:\n",
        "    if False:\n",
        (_TESTS + "test_a_route_identity_key_is_a_polynomial_up_to_sign",),
    ),
    Mutant(
        "sample-appends-0-for-1",
        _CLASSIFY,
        "        d = space._digits(i) + [1]\n",
        "        d = space._digits(i) + [0]\n",
        (_TESTS + "test_the_row_test_is_the_unstaged_oracle_on_every_candidate_of_the_benchmark_spaces",),
    ),
    Mutant(
        "census-without-range-check",
        _CLASSIFY,
        "        _check_range(space, indices)\n    space.check_route_identity()\n",
        "    space.check_route_identity()\n",
        (_TESTS + "test_an_out_of_range_index_raises_before_anything_compiles",),
    ),
    Mutant(
        "stage-from-the-first-variable",
        _CLASSIFY,
        "                s = stage_of[top]\n",
        "                s = stage_of[terms[0][1]]\n",
        (_TESTS + "test_each_row_is_solved_at_the_earliest_stage_that_can_take_it",),
    ),
    Mutant(
        "every-row-waits-for-the-chi-stage",
        _CLASSIFY,
        "                s = stage_of[top]\n",
        "                s = 2\n",
        (
            _TESTS + "test_each_row_is_solved_at_the_earliest_stage_that_can_take_it",
            _TESTS + "test_census_solves_each_stage_an_exact_number_of_times",
        ),
    ),
    Mutant(
        "degree-two-in-the-unknowns-allowed",
        _CLASSIFY,
        "                if max(terms)[0] >= los[s]:\n",
        "                if False:\n",
        (_TESTS + "test_each_row_is_solved_at_the_earliest_stage_that_can_take_it",),
    ),
    Mutant(
        "parameter-row-guard-reads-one-row",
        _CLASSIFY,
        "        if not _rows_vanish(self.parameter_rows, (*params, 1), field.p):\n",
        "        if not _rows_vanish(self.parameter_rows[:1], (*params, 1), field.p):\n",
        (_TESTS + "test_census_solves_each_stage_an_exact_number_of_times",),
    ),
    Mutant(
        # passes the three checks of orbit_partition: every orbit is a
        # point fixed by the whole group
        "every-beta-compiled-as-the-identity",
        _CLASSIFY,
        "            moves.append((beta, tuple(moved)))\n",
        "            moves.append((beta, ()))\n",
        (
            _TESTS + "test_the_orbit_stage_is_the_numeric_sweep",
            _TESTS + "test_each_compiled_move_is_apply_equivalence_at_every_candidate",
        ),
    ),
    Mutant(
        "beta-only-constant-dropped",
        _CLASSIFY,
        "                    moved.append((q, affine.pop(-1, 0), tuple(affine.items())))\n",
        "                    moved.append((q, affine.pop(-1, 0) * 0, tuple(affine.items())))\n",
        (
            _TESTS + "test_the_orbit_stage_is_the_numeric_sweep",
            _TESTS + "test_each_compiled_move_is_apply_equivalence_at_every_candidate",
        ),
    ),
    Mutant(
        "orbit-stabilizer-check-removed",
        _CLASSIFY,
        "            if len(witnesses) * stabilizer != group_order:\n",
        "            if False:\n",
        (_TESTS + "test_orbit_partition_rejects_a_miscounted_orbit",),
    ),
)


def apply(root: Path, mutant: Mutant) -> None:
    """Write ``mutant`` into its file under ``root``; raise
    :class:`ValueError` unless its old text occurs there exactly once."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _first_failure(root: Path, tests: Tuple[str, ...]) -> str:
    """The first failing test of ``pytest -x`` on ``tests`` (all when
    empty) in the tree at ``root``, or ``""`` if every test passes."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    if done.returncode == 0:
        return ""
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return failed[0].split(" - ")[0].partition(" ")[2] if failed else f"pytest exit {done.returncode}"


def run(mutant: Mutant) -> str:
    """``killed by <test>`` or ``survived``, on a mutated copy of the tree."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(
            ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
        )
        apply(copy, mutant)
        for tests in (mutant.killers, ()):
            failure = _first_failure(copy, tests)
            if failure:
                return f"killed by {failure}"
    return "survived"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survived = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        verdict = run(mutant)
        survived += verdict == "survived"
        print(f"{mutant.name}: {verdict}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

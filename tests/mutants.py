"""Mutants of the package's checks and kernels, each with the tests expected
to kill it.

A mutant is one exact edit of one file: a check weakened, a rule broken or
a sign flipped.
Run from anywhere, with the test requirements installed::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each mutant is applied to its own copy of the tree in a temporary
directory.  The copy runs the mutant's killing tests, then, if they all
pass, the full suite, each run stopping at its first failure.  A mutant is
reported "killed" with the first failing test, or "survived": a surviving
mutant points to a missing test.  A last line counts the mutants killed and
survived and the seconds the run took.  The command exits 1 if any
survives.
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
import time
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
_NONABELIAN = "src/nabext/nonabelian.py"
_COCHAINS = "src/nabext/cochains.py"
_CHECK_GOLDEN = "tests/test_nonabelian.py::test_check_cocycle_matches_golden"
_SHORT_CIRCUIT = "tests/test_nonabelian.py::test_is_valid_cocycle_stops_at_the_first_nonzero_residual"
_CIRC_SIGNS = "tests/test_cochains.py::test_circ_signs_two_arity_two_maps"

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
        "            s = stage_of[max([l for _, l, _ in terms])]\n",
        "            s = stage_of[terms[0][1]]\n",
        (_TESTS + "test_each_row_is_solved_at_the_earliest_stage_that_can_take_it",),
    ),
    Mutant(
        "every-row-waits-for-the-chi-stage",
        _CLASSIFY,
        "            s = stage_of[max([l for _, l, _ in terms])]\n",
        "            s = 2\n",
        (
            _TESTS + "test_each_row_is_solved_at_the_earliest_stage_that_can_take_it",
            _TESTS + "test_census_solves_each_stage_an_exact_number_of_times",
        ),
    ),
    Mutant(
        "degree-two-in-the-unknowns-allowed",
        _CLASSIFY,
        "            if max(terms)[0] >= los[s]:\n",
        "            if False:\n",
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
        "                    moved.append((q, -affine.pop(n, 0) % p, tuple(affine.items())))\n",
        "                    moved.append((q, -affine.pop(n, 0) * 0, tuple(affine.items())))\n",
        (
            _TESTS + "test_the_orbit_stage_is_the_numeric_sweep",
            _TESTS + "test_each_compiled_move_is_apply_equivalence_at_every_candidate",
        ),
    ),
    Mutant(
        "r0-column-keeps-the-sign",
        _CLASSIFY,
        "                grouped.setdefault((k, l), []).append((start + hi, -c))\n",
        "                grouped.setdefault((k, l), []).append((start + hi, c))\n",
        (_TESTS + "test_stage_systems_are_the_probes_of_their_generators",),
    ),
    Mutant(
        "workers-derive-the-solve-grouping",
        _CLASSIFY,
        "            stage.by_param, stage.parameter_rows\n",
        "            stage.parameter_rows\n",
        (_TESTS + "test_census_derives_the_solve_grouping_once_per_stage_in_the_parent",),
    ),
    Mutant(
        "layout-identity-reads-the-layout-twice",
        _CLASSIFY,
        "            self._symbolic_extension.table,\n",
        "            laid_out,\n",
        (_TESTS + "test_a_swapped_layout_fails_the_layout_identity",),
    ),
    Mutant(
        "census-accepts-repeated-indices",
        _CLASSIFY,
        "        if len(set(indices)) != len(indices):\n",
        "        if False:\n",
        (_TESTS + "test_census_refuses_a_repeated_index",),
    ),
    Mutant(
        "a-sample-reports-empty-orbits",
        _CLASSIFY,
        "        orbits=orbit_partition(space, cocycles) if indices is None else None,\n",
        "        orbits=orbit_partition(space, cocycles) if indices is None else [],\n",
        (_TESTS + "test_sampled_census_has_no_orbit_stage",),
    ),
    Mutant(
        # an iterator of indices is used up by the duplicate check
        "census-indices-not-copied",
        _CLASSIFY,
        "        indices = tuple(indices)\n        if len(set(indices)) != len(indices):\n",
        "        if len(set(indices)) != len(indices):\n",
        (_TESTS + "test_an_out_of_range_index_raises_before_anything_compiles",),
    ),
    Mutant(
        # a key up to a scalar: 2P and P share one
        "monic-route-key",
        _CLASSIFY,
        "    if 2 * min(terms)[1] > p:\n"
        "        return frozenset((m, p - c) for m, c in terms)\n"
        "    return frozenset(terms)\n",
        "    inverse = pow(min(terms)[1], -1, p)\n"
        "    return frozenset((m, c * inverse % p) for m, c in terms)\n",
        (_TESTS + "test_the_route_identity_holds_up_to_sign_not_up_to_a_scalar",),
    ),
    Mutant(
        "orbit-stabilizer-check-removed",
        _CLASSIFY,
        "            if len(witnesses) * stabilizer != group_order:\n",
        "            if False:\n",
        (_TESTS + "test_orbit_partition_rejects_a_miscounted_orbit",),
    ),
    Mutant(
        # the same residual over F2, where every sign is +1
        "eq5-term-on-the-wrong-side",
        _NONABELIAN,
        "        added = ((b_rows[j1][j2], chi_2[j3]), (chi_1[j1][j2], psi_b[j3]))\n"
        "        subtracted = ((chi_1[j2][j3], phi_b[j1]), (b_rows[j2][j3], chi_1[j1]))\n",
        "        added = ((b_rows[j1][j2], chi_2[j3]), (chi_1[j1][j2], psi_b[j3]), (b_rows[j2][j3], chi_1[j1]))\n"
        "        subtracted = ((chi_1[j2][j3], phi_b[j1]),)\n",
        (_CHECK_GOLDEN, "tests/test_nonabelian.py::test_residuals_are_their_two_sided_form"),
    ),
    Mutant(
        "residual-kernel-adds-the-subtracted-side",
        _NONABELIAN,
        "    for op, parts in ((field.add, added), (field.sub, subtracted)):\n",
        "    for op, parts in ((field.add, added), (field.add, subtracted)):\n",
        (_CHECK_GOLDEN,),
    ),
    Mutant(
        "validity-test-draws-every-residual",
        _NONABELIAN,
        "    return all(is_zero_vector(r[2]) for r in cocycle_residuals(c))\n",
        "    return all([is_zero_vector(r[2]) for r in cocycle_residuals(c)])\n",
        (_SHORT_CIRCUIT,),
    ),
    Mutant(
        "curvature-read-before-the-first-residual",
        _NONABELIAN,
        "    left, right = _columns(A.product_row, a, a)\n",
        "    left, right = _columns(A.product_row, a, a)\n"
        "    chi_1, chi_2 = _columns(lambda j1, j2: c.chi.column((j1, j2)), B.dim, B.dim)\n"
        "    b_rows, _ = _columns(B.product_row, B.dim, B.dim)\n",
        (_SHORT_CIRCUIT,),
    ),
    Mutant(
        "associator-adds-the-subtracted-term",
        "src/nabext/algebra.py",
        "                out[t] = sub(out[t], mul(c, v))\n",
        "                out[t] = add(out[t], mul(c, v))\n",
        ("tests/test_algebra.py::test_is_associative_matches_random_triples",),
    ),
    Mutant(
        "rational-product-keeps-integral-fractions",
        "src/nabext/fields.py",
        "        r = x * y\n        return r if type(r) is int else _canonical(r)\n",
        "        r = x * y\n        return r\n",
        ("tests/test_fields.py::test_rational_results_are_canonical_and_exact",),
    ),
    Mutant(
        "zero-test-reads-all",
        "src/nabext/linalg.py",
        "    return not any(x)\n",
        "    return not all(x)\n",
        (_CHECK_GOLDEN,),
    ),
    Mutant(
        "second-insertion-of-circ-unsigned",
        _COCHAINS,
        "    slots = [_insertion_terms(f, g, i, odd + n * (i + 1)) for i in range(1, f.arity + 1)]\n",
        "    slots = [_insertion_terms(f, g, i, odd + n * (i + 1) * (i != 2)) for i in range(1, f.arity + 1)]\n",
        (_CIRC_SIGNS, "tests/test_cli_q.py::test_cli_q_matches_golden"),
    ),
    Mutant(
        "insertion-sign-never-applied",
        _COCHAINS,
        "            plugs[t].append((inner * tail_size, neg(v) if odd % 2 else v))\n",
        "            plugs[t].append((inner * tail_size, v))\n",
        (_CIRC_SIGNS,),
    ),
    Mutant(
        "bracket-sign-test-inverted",
        _COCHAINS,
        "_insertion_sum_terms(g, f, 1 + f.degree * g.degree)",
        "_insertion_sum_terms(g, f, f.degree * g.degree)",
        (
            "tests/test_cli_q.py::test_cli_q_matches_golden",
            "tests/test_cochains.py::test_circ_and_bracket_are_their_sums_of_insertion_maps",
        ),
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
    start = time.perf_counter()
    killed = survived = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        verdict = run(mutant)
        survived += verdict == "survived"
        killed += verdict != "survived"
        print(f"{mutant.name}: {verdict}", flush=True)
    print(f"{killed} killed, {survived} survived, in {time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

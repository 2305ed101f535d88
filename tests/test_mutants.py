"""The mutant list of ``tests/mutants.py`` stays anchored to the tree: each
mutant's old text occurs exactly once in its file, and each of its killing
tests exists.  Running the mutants is a separate command."""

import re

import pytest

import mutants


def test_mutant_names_are_distinct():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_anchors_on_one_place_in_its_file(mutant):
    text = (mutants.ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.killers
    for killer in mutant.killers:
        path, _, test = killer.partition("::")
        name = re.sub(r"\[.*\]$", "", test)
        assert f"\ndef {name}(" in (mutants.ROOT / path).read_text(encoding="utf-8")


def test_a_mutant_whose_anchor_moved_is_refused(tmp_path):
    mutant = mutants.MUTANTS[0]
    (tmp_path / mutant.path).parent.mkdir(parents=True)
    (tmp_path / mutant.path).write_text(mutant.old * 2, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{mutant.name}: the old text occurs 2 times"):
        mutants.apply(tmp_path, mutant)

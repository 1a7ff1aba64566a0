"""The mutant table of tests/mutants.py: every row a mutant changes is flagged by a detector."""

from pathlib import Path

import pytest

import mutants

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", [None, *mutants.MUTANTS])
def test_every_changed_row_is_flagged(name):
    # None is the control: the closed forms as they stand pass every detector on every row
    rows = mutants.survey(name)
    flags = mutants.MUTANTS[name].flags if name else {}
    assert len(rows) == 108 and 0 not in flags.values()
    assert mutants.counts(rows) == {d: flags.get(d, 0) for d in mutants.DETECTORS}
    assert [row for row in rows if not (row.equivalent or row.flagged)] == []
    # an equivalent row computes what the closed forms compute, so no detector can flag it
    assert [row for row in rows if row.equivalent and row.flagged] == []


def test_readme_carries_the_table():
    assert mutants.table() in README.read_text(encoding="utf-8")

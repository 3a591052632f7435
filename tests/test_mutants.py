"""The mutant ledger stays applicable between runs of tests/mutants.py."""

from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT, failed_ids


def test_ledger_names_are_unique():
    """The runner selects mutants by name."""
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names), sorted({n for n in names if names.count(n) > 1})


def test_failed_ids_read_a_spaced_parametrization_whole():
    """pytest separates an id from its message by " - "; the id itself
    may hold spaces."""
    spaced = ("tests/test_execute.py::test_run_sequence_by_columns_hand_built"
              "[column node downstream of a cycle-False]")
    row = "tests/test_hostile.py::test_hostile_input[snap-position-ties]"
    summary = (f"FAILED {spaced} - assert [[2.0, 24.0]] == [[2.0, 6.0]]\n"
               f"ERROR {row}\n"
               "1 failed, 1 error in 0.50s\n")
    assert failed_ids(summary) == {spaced, row}


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_ledger_entry_applies(mutant):
    """Its old text occurs once in its file, and each test it names
    exists; a [...] parametrization suffix is not part of the name."""
    assert (ROOT / "src" / "pcgp" / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for test_id in mutant.tests:
        path, name = test_id.split("::")
        name = name.partition("[")[0]
        assert f"\ndef {name}(" in Path(ROOT, path).read_text(), test_id

"""The mutant ledger stays applicable between runs of tests/mutants.py."""

from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


def test_ledger_names_are_unique():
    """The runner selects mutants by name."""
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names), sorted({n for n in names if names.count(n) > 1})


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

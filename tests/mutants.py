"""A ledger of planted defects (mutants) and a runner that checks the
tests named for each one catch it.

Each entry names a file under src/pcgp, an exact old text that occurs
there once, the new text that replaces it and the ids of the tests that
must fail on the result; an id without a parameter part stands for all
its parametrizations.  The runner copies src/ and tests/ to a temporary
directory, plants one mutant there and runs only its tests, with
--hypothesis-seed=0.  It reports a mutant as

- stale, when its old text no longer occurs exactly once;
- surviving, when one of its tests passes or is not found;

and exits non-zero if any mutant is stale or survives, so a refactor
carries its mutants along.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME...    # the named ones
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str           # under src/pcgp
    old: str
    new: str
    tests: tuple        # ids that must fail, relative to the repository root


EVOLVE = "tests/test_evolve.py::"

MUTANTS = [
    Mutant("best-only-on-strict-improvement", "evolve.py",
           "        if fits[gen_best] >= best_fit:\n",
           "        if fits[gen_best] > best_fit:\n",
           (EVOLVE + "test_neutral_drift_replaces_parent_on_ties",
            EVOLVE + "test_drawn_configs_match_the_reference_pipeline")),
    Mutant("one-plus-lambda-parent-first", "evolve.py",
           "    return (), fresh, fresh_graphs, (parent,)\n",
           "    return (parent,), fresh, fresh_graphs, ()\n",
           (EVOLVE + "test_neutral_drift_replaces_parent_on_ties",
            EVOLVE + "test_list_selection_matches_reference_under_ties",
            EVOLVE + "test_drawn_configs_match_the_reference_pipeline")),
    # vary decodes into a copy, as if the kept slots' graphs were
    # gathered before it ran
    Mutant("kept-slots-gathered-before-vary", "evolve.py",
           "= vary(params, generation, pop, fits, graphs, stream)\n",
           "= vary(params, generation, pop, fits, graphs[:], stream)\n",
           (EVOLVE + "test_loops_decode_each_individual_at_most_once",)),
    Mutant("mutant-carries-a-graph-not-its-own", "evolve.py",
           "child_graphs.append(graphs[i] if child is parent else None)",
           "child_graphs.append(graphs[i])",
           (EVOLVE + "test_active_node_count_matches_survivor",
            EVOLVE + "test_drawn_configs_match_the_reference_pipeline")),
    Mutant("ga-without-a-child-accepted", "evolve.py",
           'if self.algorithm == "ga" and sum(_channel_sizes(self)[1:3]) == 0:',
           "if False:",
           (EVOLVE + "test_ga_generation_without_a_child_is_rejected",)),
]


def plant(mutant: Mutant, root: Path) -> bool:
    """Plant mutant in root's copy of src/pcgp; False if its old text is stale."""
    path = root / "src" / "pcgp" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def caught(test_id: str, failed: set) -> bool:
    return any(f == test_id or f.startswith(test_id + "[") for f in failed)


def run(mutant: Mutant) -> str:
    """'killed', 'stale' or a description of how the mutant survived."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", root / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", root)
        if not plant(mutant, root):
            return "stale"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *mutant.tests]
        try:
            done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"             # a test that hangs does not pass
    if done.returncode not in (0, 1):
        return f"survived: pytest exited {done.returncode}\n{done.stdout[-2000:]}"
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE))
    missed = [t for t in mutant.tests if not caught(t, failed)]
    return "survived: " + ", ".join(missed) + " did not fail" if missed else "killed"


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    bad = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        outcome = run(mutant)
        bad += outcome != "killed"
        print(f"{mutant.name}: {outcome}", flush=True)
    print(f"{bad} of {len(names or MUTANTS)} mutants stale or surviving")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

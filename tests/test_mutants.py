"""The mutation corpus matches the code, and its runner tells caught from survived.

The whole corpus runs as `python tests/mutants.py`; tier-1 runs two of its
mutants and one that changes nothing.
"""
from __future__ import annotations

import pytest

from mutants import MUTANTS, ROOT, Mutant, run, snippet_count

BY_NAME = {mutant.name: mutant for mutant in MUTANTS}


def test_names_are_distinct():
    assert len(BY_NAME) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once(mutant):
    assert snippet_count(mutant) == 1
    assert mutant.replacement != mutant.snippet
    for arg in mutant.selection:
        assert (ROOT / arg.split("::")[0]).is_file(), arg


@pytest.mark.parametrize("name", ["sweep-order-ignores-values", "cover-count-at-the-cap"])
def test_mutant_is_caught(name):
    assert run(BY_NAME[name]) == "caught"


def test_equivalent_edit_survives_and_a_stale_snippet_fails():
    at_the_cap = BY_NAME["cover-count-at-the-cap"]
    selection = ("tests/test_cli.py::TestCoverCommand::test_later_step_at_the_cap_is_built",)
    same = at_the_cap._replace(replacement=f"({at_the_cap.snippet})", selection=selection)
    assert run(same) == "survived (pytest exit 0)"
    stale = Mutant("stale", "cli.py", "no such source text", "x", selection)
    assert run(stale) == "snippet occurs 0 times"

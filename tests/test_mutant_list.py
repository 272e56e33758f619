"""The mutation gate's list stays applicable to the source it mutates."""

from __future__ import annotations

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_exactly_once(mutant):
    text = (ROOT / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.reason


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_compiles_and_keeps_the_indentation(mutant):
    # A mutant must be killed by a test, not by a syntax error. An old text
    # that opens with indentation starts at a line start: one that starts
    # inside deeper indentation would leave the rest of it in front of the
    # next line.
    text = (ROOT / mutant.file).read_text()
    start = text.index(mutant.old)
    if mutant.old.startswith(" "):
        assert start == 0 or text[start - 1] == "\n"
    compile(text.replace(mutant.old, mutant.new), mutant.file, "exec")


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)

"""The mutation gate's list stays applicable to the source it mutates."""

from __future__ import annotations

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_exactly_once(mutant):
    text = (ROOT / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.reason


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)

"""CLI-facing registry strings that callers and scripts match on.

The cross-family ``KeyError`` hints are pinned: the unified
``(problem, name)`` resolver must keep producing them byte-for-byte.
"""

import pytest

from repro.algorithms.registry import get_engine_solver, get_solver


class TestPinnedHintsSurviveVerbatim:
    """The cross-family redirect hints are CLI-facing pinned strings;
    the unified resolver must reproduce them byte-for-byte."""

    def test_solver_hints(self):
        with pytest.raises(KeyError) as exc:
            get_solver("msr", "mp")
        assert "('mp' is a BMR solver)" in str(exc.value)
        with pytest.raises(KeyError) as exc:
            get_solver("bmr", "lmg-all")
        assert "('lmg-all' is a MSR solver)" in str(exc.value)
        # the hint names no getter: there is one getter for both families
        assert "get_" not in str(exc.value)

    def test_engine_hints(self):
        with pytest.raises(KeyError) as exc:
            get_engine_solver("msr", "mp")
        assert "('mp' is a BMR engine solver)" in str(exc.value)
        with pytest.raises(KeyError) as exc:
            get_engine_solver("bmr", "lmg")
        assert "('lmg' is a MSR engine solver)" in str(exc.value)

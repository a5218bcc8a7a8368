"""The documented examples run as written."""

import doctest
from pathlib import Path

import dcbasis.laurent

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_laurent_doctests():
    result = doctest.testmod(dcbasis.laurent)
    assert result.attempted > 0
    assert result.failed == 0

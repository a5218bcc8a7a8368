"""Rules that hold across the whole package."""

import io
import tokenize
from pathlib import Path

import dcbasis

ROOT = Path(__file__).resolve().parents[1]


def _used_names() -> set[str]:
    """Every identifier that the modules of the package (not its
    ``__init__``) and the tests use in code.  Strings, so ``__all__``
    entries, and comments do not count, nor does the name that a ``def``
    or ``class`` statement defines."""
    files = [path for path in (ROOT / "src" / "dcbasis").glob("*.py")
             if path.name != "__init__.py"]
    files += (ROOT / "tests").glob("*.py")
    used = set()
    for path in files:
        previous = None
        for token in tokenize.generate_tokens(
                io.StringIO(path.read_text()).readline):
            if token.type == tokenize.NAME and previous not in ("def",
                                                                 "class"):
                used.add(token.string)
            previous = token.string
    return used


def test_every_public_name_has_a_caller_or_a_test():
    used = _used_names()
    assert [name for name in dcbasis.__all__ if name not in used] == []

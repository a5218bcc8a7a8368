"""Rules that hold across the whole package."""

import ast
import io
import subprocess
import sys
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


def _unused_imports(source: str) -> list[str]:
    """The names that a module imports and never uses: not in code, and
    not in ``__all__``, so a re-export counts as a use."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: _unused_imports(path.read_text())
              for path in (ROOT / "src" / "dcbasis").glob("*.py")
              if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


_PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
"""


def test_a_failing_property_test_lets_the_run_go_on(tmp_path):
    # Under the repository's warning filters a failing hypothesis test must
    # report its falsifying example and let later tests run: exit 1, not
    # an internal error (exit 3) from a warning raised while reporting.
    (tmp_path / "test_probe.py").write_text(_PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "Falsifying example: test_fails(" in out
    assert "1 failed, 1 passed" in out

"""A mutation gate: one-line source mutants of the basis core, each run
against a small battery of verification suites.

Each mutant is applied to a fresh copy of ``src/`` and the battery runs in
its own interpreter on that copy: ``triangular`` at degree 5, ``eqrei`` and
``positivity`` at degree 4, and ``minors``, ``oracle`` and ``frank`` at their
defaults.  The outcome of every (mutant, suite) pair is pinned: ``pass``,
``fail``, or the name of the exception the suite raised.  Every mutant must
fail some suite.  A pinned ``pass`` is a known gap, named with what closes it.
Where eqrei fails, the battery also runs the reference eqrei body of
``test_checks`` (which divides out U(m, n)) and eqrei on each pair alone,
and pins how many pairs the reference fails and that eqrei fails the same.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

BATTERY = """
import json, sys
import dcbasis
from dcbasis.checks import SUITES
assert dcbasis.__file__.startswith(sys.argv[1]), dcbasis.__file__
args = {"triangular": (5,), "eqrei": (4,), "positivity": (4,),
        "minors": (), "oracle": (), "frank": ()}
out = {}
for name, a in args.items():
    try:
        out[name] = "pass" if SUITES[name](*a).ok else "fail"
    except Exception as exc:
        out[name] = type(exc).__name__
if out["eqrei"] == "fail":
    from dcbasis.canonical import BasisCache
    from dcbasis.checks import _degree_pairs, check_eqrei
    from test_checks import _failing_cases, _old_eqrei_failures
    old = list(_old_eqrei_failures(4, BasisCache()))
    new = _failing_cases(check_eqrei, "_degree_pairs", _degree_pairs(4), 4,
                         BasisCache())
    out["eqrei pairs"] = [len(old), new == old]
print(json.dumps(out))
"""

SUITES = ("triangular", "eqrei", "positivity", "minors", "oracle", "frank")
RAISES = dict.fromkeys(SUITES, "InvariantError")
FAILS = dict.fromkeys(SUITES, "fail")

# (name, file, target, replacement, pinned outcomes).
MUTANTS = [
    ("adjacent pairing exponent -1 -> 1", "algebra.py",
     "kk = -1 if hs == le + 1 else 0", "kk = 1 if hs == le + 1 else 0",
     RAISES),
    # Known gap: triangular checks no bar-invariance (ROADMAP item 2).
    ("linked rewrite sign flipped", "algebra.py",
     "y, low = x - (x << k2), off - kk - 1",
     "y, low = (x << k2) - x, off - kk - 1",
     FAILS | {"triangular": "pass", "eqrei pairs": [22, True]}),
    ("backward exponent + 2", "canonical.py",
     "backward = b_form(one, rest) - 1", "backward = b_form(one, rest) + 1",
     RAISES),
    # mu = b(rest, s) read as 0 in the forward exponent only; every suite
    # but minors meets an aux numerator that does not divide.
    # Known gap, with no item to close it yet: a minor's segments start at
    # distinct rows, so no label that minors asks for repeats a segment.
    ("mu read as 0", "canonical.py",
     "forward = b_form(rest, one) + 1", "forward = 1",
     dict.fromkeys(SUITES, "ExactDivisionError") | {"minors": "pass"}),
    # Known gap: triangular checks no bar-invariance (ROADMAP item 2).
    ("symmetric part mirrors only e < -1", "laurent.py",
     "        if e:\n            t += c << k * (-e - base)",
     "        if e < -1:\n            t += c << k * (-e - base)",
     FAILS | {"triangular": "pass", "eqrei pairs": [153, True]}),
]


@pytest.mark.parametrize("name, module, target, replacement, pinned",
                         MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_outcomes_pinned(tmp_path, name, module, target,
                                replacement, pinned):
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "dcbasis" / module
    text = path.read_text()
    assert text.count(target) == 1, (module, target)
    path.write_text(text.replace(target, replacement))
    done = subprocess.run(
        [sys.executable, "-c", BATTERY, str(src)],
        env={"PYTHONPATH": f"{src}{os.pathsep}{TESTS}",
             "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    outcomes = json.loads(done.stdout)
    assert outcomes == pinned
    assert any(outcomes[suite] != "pass" for suite in SUITES)

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
Candidate mutants that pass every suite are pinned as known gaps, each
with the reason no suite sees it.  A mutant whose broken basis raises in
the core fails the cases it breaks, and ``verify`` reports each by name.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from dcbasis.checks import _degree_pairs

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
FAILS = dict.fromkeys(SUITES, "fail")

# (name, file, target, replacement, pinned outcomes).
MUTANTS = [
    ("adjacent pairing exponent -1 -> 1", "algebra.py",
     "kk = -1 if hs == le + 1 else 0", "kk = 1 if hs == le + 1 else 0",
     FAILS | {"eqrei pairs": [181, True]}),
    # Known gap: triangular checks no bar-invariance (ROADMAP item 2).
    ("linked rewrite sign flipped", "algebra.py",
     "y, low = x - (x << k2), off - kk - 1",
     "y, low = (x << k2) - x, off - kk - 1",
     FAILS | {"triangular": "pass", "eqrei pairs": [22, True]}),
    ("backward exponent + 2", "canonical.py",
     "backward = mu - 1 + sum(", "backward = mu + 1 + sum(",
     FAILS | {"eqrei pairs": [289, True]}),
    # mu = b(rest, s) read as 0 in the forward exponent only; every suite
    # but minors meets an aux numerator that does not divide.
    # Known gap, with no item to close it yet: a minor's segments start at
    # distinct rows, so no label that minors asks for repeats a segment.
    ("mu read as 0", "canonical.py",
     "forward = mu + 1", "forward = 1",
     FAILS | {"minors": "pass", "eqrei pairs": [196, True]}),
    # A row copied from its translate at the wrong shift misses its own
    # label, which the copy's diagonal check reports.
    ("translate shifted one too far", "canonical.py",
     "d = anchor - labels[j].segments[0].start",
     "d = anchor - labels[j].segments[0].start + 1",
     FAILS | {"eqrei pairs": [251, True]}),
    # Known gap: triangular checks no bar-invariance (ROADMAP item 2).
    ("symmetric part mirrors only e < -1", "laurent.py",
     "        if e:\n            t += c << k * (-e - base)",
     "        if e < -1:\n            t += c << k * (-e - base)",
     FAILS | {"triangular": "pass", "eqrei pairs": [153, True]}),
    # A stricter dominates puts true support outside the cone.  Known gap:
    # minors, oracle and frank check no cone.  eqrei checks the cone on the
    # support of G*(m) G*(n), which holds that of U(m, n), so it fails the
    # 117 pairs that the reference fails and 6 more.
    ("dominates with r >= 0", "multisegment.py",
     "                if r > 0:", "                if r >= 0:",
     FAILS | {"minors": "pass", "oracle": "pass", "frank": "pass",
              "eqrei pairs": [117, False]}),
]

# Candidate mutants that every suite of the battery passes, with why.
GAPS = [
    # A cone check tests inclusion only, so no suite can see a looser
    # dominates.
    ("dominates with r > 1", "multisegment.py",
     "                if r > 0:", "                if r > 1:"),
    ("dominates with i < j", "multisegment.py",
     "            if i <= j:", "            if i < j:"),
    # No battery case reaches the band of bounds that a looser _fits admits.
    ("_fits with bound >> (k - 1)", "laurent.py",
     "return not bound >> (k - 2)", "return not bound >> (k - 1)"),
]


def _mutated(tmp_path, module, target, replacement):
    """A copy of src/ with target replaced in the given module."""
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "dcbasis" / module
    text = path.read_text()
    assert text.count(target) == 1, (module, target)
    path.write_text(text.replace(target, replacement))
    return src


def _run(src, *args):
    """Python run with args on the package at src."""
    return subprocess.run(
        [sys.executable, *args],
        env={"PYTHONPATH": f"{src}{os.pathsep}{TESTS}",
             "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("name, module, target, replacement, pinned",
                         MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_outcomes_pinned(tmp_path, name, module, target,
                                replacement, pinned):
    src = _mutated(tmp_path, module, target, replacement)
    done = _run(src, "-c", BATTERY, str(src))
    assert done.returncode == 0, done.stderr
    outcomes = json.loads(done.stdout)
    assert outcomes == pinned
    assert any(outcomes[suite] != "pass" for suite in SUITES)


@pytest.mark.parametrize("name, module, target, replacement", GAPS,
                         ids=[g[0] for g in GAPS])
def test_known_gaps_pass_every_suite(tmp_path, name, module, target,
                                     replacement):
    src = _mutated(tmp_path, module, target, replacement)
    done = _run(src, "-c", BATTERY, str(src))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == dict.fromkeys(SUITES, "pass")


@pytest.mark.parametrize("name, failures, first", [
    ("adjacent pairing exponent -1 -> 1", 181,
     "[0] | 2[0]+[1]: InvariantError: G*(2[0]+[1]) has coefficient "
     "1 + v^-2 + v^-4 at 2[0]+[1], not 1"),
    ("backward exponent + 2", 289,
     "[0] | [0]: InvariantError: G*(2[0]) has coefficient 0 at 2[0], not 1"),
    ("mu read as 0", 196,
     "[0] | [0]: ExactDivisionError: 1 - v^-1 is not divisible by v - v^-1"),
    ("translate shifted one too far", 251,
     "[0] | [1]: InvariantError: G*([1]) has coefficient 0 at [1], not 1"),
])
def test_verify_names_each_case_that_a_broken_basis_breaks(
        tmp_path, name, failures, first):
    """Four mutants break the basis so that the core raises: verify still
    prints its report, with one failure for each case it breaks, named in
    walk order, and exits 1."""
    module, target, replacement = next(m[1:4] for m in MUTANTS
                                       if m[0] == name)
    done = _run(_mutated(tmp_path, module, target, replacement), "-m",
                "dcbasis.cli", "verify", "--suite", "eqrei", "--json")
    assert (done.returncode, done.stderr) == (1, "")
    report = json.loads(done.stdout)
    assert (report["cases"], len(report["failures"])) == (289, failures)
    assert report["failures"][0] == first
    names = [f.split(": ")[0] for f in report["failures"]]
    walk = [f"{m} | {n}" for m, n in _degree_pairs(4)]
    assert names == [case for case in walk if case in names]

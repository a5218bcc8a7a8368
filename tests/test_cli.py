"""End-to-end tests of the command-line interface (in-process)."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from dcbasis.algebra import AlgebraElement, InvariantError
from dcbasis.canonical import BasisCache, dcb_table, structure_constants
from dcbasis.checks import SUITES, _degree_pairs
from dcbasis import canonical, checks, cli, criteria
from dcbasis.cli import _suite_defaults, main
from dcbasis.laurent import LaurentPoly
from dcbasis.multisegment import (
    Multisegment,
    enumerate_by_weight,
    parse_multisegment,
    parse_weight,
)
from test_canonical import DCB_JSON_SHA256


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- dcb ------------------------------------------------------------------------


def test_dcb_two_label_class(capsys):
    code, out, err = run_cli(capsys, "dcb", "--weight", "0:1,1:1")
    assert code == 0
    assert err == ""
    assert out == ("G*([0]+[1]) = E*([0]+[1]) - v E*([0,1])\n"
                   "G*([0,1]) = E*([0,1])\n")


def test_dcb_negative_positions(capsys):
    code, out, err = run_cli(capsys, "dcb", "--weight", "-1:1,0:1")
    assert (code, err) == (0, "")
    assert out == ("G*([-1]+[0]) = E*([-1]+[0]) - v E*([-1,0])\n"
                   "G*([-1,0]) = E*([-1,0])\n")


def test_dcb_singleton_class(capsys):
    code, out, _ = run_cli(capsys, "dcb", "--weight", "5:1")
    assert code == 0
    assert out == "G*([5]) = E*([5])\n"


def test_dcb_worked_class(capsys):
    code, out, _ = run_cli(capsys, "dcb", "--weight", "0:1,1:2,2:1")
    assert code == 0
    assert out.splitlines() == [
        "G*([0]+2[1]+[2]) = E*([0]+2[1]+[2]) - v^2 E*([0]+[1]+[1,2])"
        " - v^2 E*([0,1]+[1]+[2]) + (v^3 - v) E*([0,1]+[1,2])"
        " + v^2 E*([1]+[0,2])",
        "G*([0]+[1]+[1,2]) = E*([0]+[1]+[1,2]) - v E*([0,1]+[1,2])",
        "G*([0,1]+[1]+[2]) = E*([0,1]+[1]+[2]) - v E*([0,1]+[1,2])",
        "G*([0,1]+[1,2]) = E*([0,1]+[1,2]) - v E*([1]+[0,2])",
        "G*([1]+[0,2]) = E*([1]+[0,2])",
    ]


def test_dcb_json_matches_the_table(capsys):
    code, out, _ = run_cli(capsys, "dcb", "--weight", "0:1,1:1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == dcb_table(parse_weight("0:1,1:1"),
                                BasisCache()).to_json_obj()
    assert payload["basis"][0] == {
        "label": "[0]+[1]",
        "expansion": [
            {"label": "[0]+[1]", "coef": [[0, 1]]},
            {"label": "[0,1]", "coef": [[1, -1]]},
        ],
    }


# The largest class of the benchmark ladder (235 labels).
LADDER_TOP = "0:1,1:2,2:2,3:2,4:2,5:1"


@pytest.mark.parametrize("weight", [
    "0:1,1:2,2:2,3:1", "0:1,1:2,2:2,3:2,4:1", "0:1,1:2,2:3,3:2,4:1",
    "0:1,1:2,2:3,3:3,4:1", LADDER_TOP, "0:1,1:2,2:3,3:3,4:2,5:1", "5:1",
])
def test_dcb_json_writer_matches_json_dumps(weight):
    # The five ladder classes, the 522-label class and a one-label class.
    table = dcb_table(parse_weight(weight), BasisCache())
    obj = _table_obj(table)
    assert table.to_json() == json.dumps(obj, indent=2)
    assert table.to_json_obj() == obj


def _table_obj(table):
    """Reference ``dcb --json`` object, built from the table's rows."""
    names = {m: str(m) for m in table.labels}
    return {
        "weight": str(table.weight),
        "basis": [
            {
                "label": names[m],
                "expansion": [
                    {"label": names[n],
                     "coef": [list(p) for p in c.items()]}
                    for n, c in table.row(m)
                ],
            }
            for m in table.labels
        ],
    }


def test_dcb_output_digest_pinned(capsys):
    # The digests of what cmd_dcb prints, not only of the table it builds.
    code, out, err = run_cli(capsys, "dcb", "--weight", LADDER_TOP, "--json")
    assert (code, err) == (0, "")
    json_text = out.removesuffix("\n")
    assert (hashlib.sha256(json_text.encode()).hexdigest()
            == DCB_JSON_SHA256[LADDER_TOP])
    code, out, err = run_cli(capsys, "dcb", "--weight", LADDER_TOP)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 235
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f0733cfa3f5963b9987c8d798b5a32efa21394df0670bcac7291b16235fa7a86")


def test_dcb_builds_only_the_output_it_prints(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("built output that is not printed")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "render_combination", refuse)
        code, out, _ = run_cli(capsys, "dcb", "--weight", "0:1,1:1", "--json")
    assert code == 0
    assert json.loads(out)["weight"] == "0:1,1:1"
    with monkeypatch.context() as patch:
        patch.setattr(canonical.DcbTable, "to_json", refuse)
        patch.setattr(canonical.DcbTable, "to_json_obj", refuse)
        code, out, _ = run_cli(capsys, "dcb", "--weight", "0:1,1:1")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_dcb_text_renders_each_label_and_coefficient_once(monkeypatch,
                                                         capsys):
    calls = {"label": 0, "coefficient": 0}
    label_str, coefficient_items = Multisegment.__str__, LaurentPoly.items

    def counted_str(self):
        calls["label"] += 1
        return label_str(self)

    def counted_items(self):
        calls["coefficient"] += 1
        return coefficient_items(self)

    monkeypatch.setattr(Multisegment, "__str__", counted_str)
    monkeypatch.setattr(LaurentPoly, "items", counted_items)
    code, out, _ = run_cli(capsys, "dcb", "--weight", "0:1,1:2,2:2,3:1")
    assert code == 0
    # 18 labels, 97 entries
    assert (len(out.splitlines()), out.count("E*(")) == (18, 97)
    assert calls == {"label": 18, "coefficient": 97}


@pytest.mark.parametrize("argv, unused", [
    (("decompose", "--m", "[1]+[2,3]", "--n", "[2]+[3,4]"), "_coef_json"),
    (("minor", "--rows", "1,2,4", "--cols", "2,3,5"), "_coef_json"),
    (("minor", "--rows", "1,2,4", "--cols", "2,3,5", "--json"),
     "render_combination"),
    (("irred", "--alpha", "4,2", "--beta", "2,2,1", "--b", "1", "--json"),
     "_pattern_text"),
], ids=["decompose", "minor", "minor-json", "irred-json"])
def test_commands_build_only_the_output_they_print(monkeypatch, capsys,
                                                   argv, unused):
    def refuse(*args, **kwargs):
        raise AssertionError("built output that is not printed")

    monkeypatch.setattr(cli, unused, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_minor_sorts_its_expansion_once(monkeypatch, capsys, json_flag):
    calls = []
    items = AlgebraElement.items

    def counting(x):
        calls.append(x)
        return items(x)

    monkeypatch.setattr(AlgebraElement, "items", counting)
    code, _, _ = run_cli(capsys, "minor", "--rows", "1,2,4", "--cols",
                         "2,3,5", *json_flag)
    assert code == 0
    assert len(calls) == 1


def test_dcb_long_rest_chain_under_the_default_recursion_limit():
    """600 segments: each prefix G*(rest) waits for its row on the explicit
    stack of the cache's run, so the Python stack does not grow with them.
    A fresh interpreter keeps the default limit."""
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "dcbasis.cli", "dcb", "--weight", "0:600",
         "--max-class-size", "1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "G*(600[0]) = E*(600[0])\n"


def test_dcb_has_no_cache_dir_option(tmp_path, capsys):
    directory = tmp_path / "d"
    with pytest.raises(SystemExit) as excinfo:
        main(["dcb", "--weight", "0:1,1:1", "--cache-dir", str(directory)])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err
    assert not directory.exists()


def test_dcb_malformed_weight(capsys):
    code, _, err = run_cli(capsys, "dcb", "--weight", "abc")
    assert code == 2
    assert err == "error: malformed weight entry 'abc'\n"


def test_dcb_repeated_weight_position(capsys):
    code, out, err = run_cli(capsys, "dcb", "--weight", "0:1,0:2")
    assert (code, out) == (2, "")
    assert err == "error: repeated position 0 in weight\n"


def test_dcb_class_size_guard(capsys):
    code, _, err = run_cli(capsys, "dcb", "--weight", "0:1,1:2,2:1",
                           "--max-class-size", "4")
    assert code == 2
    assert err == ("error: weight class 0:1,1:2,2:1 has more than 4 labels; "
                   "raise --max-class-size\n")


@pytest.mark.parametrize("argv", [
    ("dcb", "--weight", "0:1,1:1"),
    ("decompose", "--m", "[0]", "--n", "[1]"),
])
def test_a_negative_class_size_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--max-class-size", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --max-class-size must be at least 0\n"


# 1,767,200 labels, far too many to enumerate in a test.
HUGE_WEIGHT = ("-3:1,-2:1,-1:2,0:2,1:2,2:2,3:1,4:1,5:1,6:1,7:2,8:2,9:2,10:2,"
               "11:1,12:1")
HUGE_PAIR = ("[0,4]+[-1,2]+[-2,-1]+[-3]", "[8,12]+[7,10]+[6,7]+[5]")


@pytest.mark.parametrize("argv", [
    ("dcb", "--weight", HUGE_WEIGHT),
    ("decompose", "--m", HUGE_PAIR[0], "--n", HUGE_PAIR[1]),
])
def test_class_guard_refuses_before_any_work(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == (f"error: weight class {HUGE_WEIGHT} has more than 5000 "
                   "labels; raise --max-class-size\n")


def test_dcb_class_at_the_size_cap(capsys):
    # The 65-label class memoizes 154 labels; the cap bounds the class only.
    code, capped, err = run_cli(capsys, "dcb", "--weight",
                                "0:1,1:2,2:2,3:2,4:1", "--max-class-size",
                                "65", "--json")
    assert (code, err) == (0, "")
    code, default, _ = run_cli(capsys, "dcb", "--weight",
                               "0:1,1:2,2:2,3:2,4:1", "--json")
    assert code == 0
    assert capped == default
    assert len(json.loads(capped)["basis"]) == 65


# -- decompose --------------------------------------------------------------------


def test_decompose_simple_pair(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--m", "[0]", "--n", "[2]")
    assert code == 0
    assert out == ("G*([0]) * G*([2]) =\n"
                   "  1  G*([0]+[2])   [multiplicity 1]\n"
                   "SIMPLE\n")


def test_decompose_worked_product(capsys):
    code, out, _ = run_cli(capsys, "decompose",
                           "--m", "[1]+[2,3]", "--n", "[2]+[3,4]")
    assert code == 0
    assert out.splitlines() == [
        "G*([1]+[2,3]) * G*([2]+[3,4]) =",
        "  v^-1  G*([1]+[2]+[2,3]+[3,4])   [multiplicity 1]",
        "  1  G*([1]+[2]+[3]+[2,4])   [multiplicity 1]",
        "  1  G*([1,2]+[2,3]+[3,4])   [multiplicity 1]",
        "  v  G*([1,2]+[3]+[2,4])   [multiplicity 1]",
        "  1  G*([1,3]+[2,4])   [multiplicity 1]",
        "NOT SIMPLE",
    ]


def test_decompose_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--m", "[1]+[2,3]",
                           "--n", "[2]+[3,4]", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == "[1]+[2,3]"
    assert payload["simple"] is False
    rebuilt = {
        parse_multisegment(row["label"]):
            LaurentPoly({e: c for e, c in row["coef"]})
        for row in payload["factors"]
    }
    assert rebuilt == structure_constants(
        parse_multisegment("[1]+[2,3]"), parse_multisegment("[2]+[3,4]"),
        BasisCache())
    assert all(row["multiplicity"] >= 1 for row in payload["factors"])


def test_decompose_label_budget(capsys):
    # The product's class (weight 0:2,1:1) has 2 labels.
    code, _, err = run_cli(capsys, "decompose", "--m", "[0]+[1]",
                           "--n", "[0]", "--max-class-size", "1")
    assert code == 2
    assert err == ("error: weight class 0:2,1:1 has more than 1 labels; "
                   "raise --max-class-size\n")


def test_decompose_class_at_the_size_cap(capsys):
    # The class has 7 labels; the computation memoizes more than that.
    argv = ("decompose", "--m", "[0]+[1]+[2]", "--n", "[1]+[2]")
    code, capped, err = run_cli(capsys, *argv, "--max-class-size", "7")
    assert (code, err) == (0, "")
    code, default, _ = run_cli(capsys, *argv)
    assert capped == default
    code, _, err = run_cli(capsys, *argv, "--max-class-size", "6")
    assert code == 2
    assert err == ("error: weight class 0:1,1:2,2:2 has more than 6 labels; "
                   "raise --max-class-size\n")


def test_decompose_enumerates_no_class(capsys):
    enumerate_by_weight.cache_clear()
    code, _, _ = run_cli(capsys, "decompose",
                         "--m", "[1]+[2,3]", "--n", "[2]+[3,4]")
    assert code == 0
    assert enumerate_by_weight.cache_info().currsize == 0


# sha256 of the ``decompose --json`` outputs of every pair of
# _degree_pairs(5), in order, as the expansion of the product G*(m) * G*(n)
# printed them before structure constants were computed on packed words.
DECOMPOSE_JSON_SHA256 = (
    "2fc2846ed2f5fc764981e287da073ea1f72973f295ecdb2e7d5bf103fff51610")


def test_decompose_json_digest_pinned(capsys):
    digest = hashlib.sha256()
    pairs = 0
    for m, n in _degree_pairs(5):
        code, out, err = run_cli(capsys, "decompose", "--m", str(m),
                                 "--n", str(n), "--json")
        assert (code, err) == (0, ""), (m, n)
        digest.update(out.encode())
        pairs += 1
    assert pairs == 2477
    assert digest.hexdigest() == DECOMPOSE_JSON_SHA256


def test_decompose_malformed_label(capsys):
    code, _, err = run_cli(capsys, "decompose", "--m", "[2,1]", "--n", "[0]")
    assert code == 2
    assert err.startswith("error:")


# -- irred -------------------------------------------------------------------------


def test_irred_irreducible(capsys):
    code, out, _ = run_cli(capsys, "irred", "--alpha", "3", "--beta", "3")
    assert code == 0
    assert out == "IRREDUCIBLE\n"


def test_irred_reducible_with_verification(capsys):
    code, out, _ = run_cli(capsys, "irred", "--alpha", "5,4,2,1", "--b", "8",
                           "--beta", "5,4,2,1", "--verify")
    assert code == 0
    assert out == "REDUCIBLE pattern -3 < 5 < 6\n"


def test_irred_json(capsys):
    code, out, _ = run_cli(capsys, "irred", "--alpha", "5,4,2,1", "--b", "8",
                           "--beta", "5,4,2,1", "--json")
    assert code == 0
    assert json.loads(out) == {
        "alpha": [5, 4, 2, 1], "a": 0, "beta": [5, 4, 2, 1], "b": 8,
        "irreducible": False, "pattern": [-3, 5, 6]}


def test_irred_four_term_pattern_json(capsys):
    code, out, _ = run_cli(capsys, "irred", "--alpha", "3,1", "--beta", "2",
                           "--b", "0", "--json")
    assert code == 0
    assert json.loads(out) == {
        "alpha": [3, 1], "a": 0, "beta": [2], "b": 0,
        "irreducible": False, "pattern": [-1, 0, 2, 3]}


def test_irred_verified_json(capsys):
    code, out, _ = run_cli(capsys, "irred", "--alpha", "2", "--beta", "1,1",
                           "--b", "2", "--verify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["irreducible"] is True
    assert payload["pattern"] is None
    assert payload["verified"] is True


@pytest.mark.parametrize("b", [10**18, -10**18])
def test_irred_far_apart_shifts(capsys, b):
    code, out, err = run_cli(capsys, "irred", "--alpha", "3", "--beta", "3",
                             "--b", str(b))
    assert (code, out, err) == (0, "IRREDUCIBLE\n", "")
    code, out, err = run_cli(capsys, "irred", "--alpha", "4,2",
                             "--beta", "2,2,1", "--b", str(b), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "alpha": [4, 2], "a": 0, "beta": [2, 2, 1], "b": b,
        "irreducible": True, "pattern": None}


def test_irred_has_no_class_size_option(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["irred", "--alpha", "3", "--beta", "3",
              "--max-class-size", "10"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --max-class-size 10" in \
        capsys.readouterr().err


def test_irred_empty_partition(capsys):
    code, _, err = run_cli(capsys, "irred", "--alpha", "", "--beta", "1")
    assert code == 2
    assert err == "error: empty partition literal\n"


def test_irred_malformed_partition(capsys):
    code, _, err = run_cli(capsys, "irred", "--alpha", "3,-1", "--beta", "1")
    assert code == 2
    assert err == "error: malformed partition '3,-1'\n"


# -- scan --------------------------------------------------------------------------


def test_scan_small(capsys):
    code, out, _ = run_cli(capsys, "scan", "--alpha", "2", "--beta", "1,1",
                           "--range", "-2:2")
    assert code == 0
    assert out == ("b-a = -2: IRREDUCIBLE\n"
                   "b-a = -1: REDUCIBLE\n"
                   "b-a = +0: IRREDUCIBLE\n"
                   "b-a = +1: IRREDUCIBLE\n"
                   "b-a = +2: IRREDUCIBLE\n"
                   "reducible shifts: -1\n")


def test_scan_worked_pair(capsys):
    code, out, _ = run_cli(capsys, "scan", "--alpha", "4,2",
                           "--beta", "2,2,1", "--range", "-8:8")
    assert code == 0
    assert out.splitlines()[-1] == "reducible shifts: -3, -2, -1, 1, 3, 4, 6"


@pytest.mark.parametrize("alpha, beta, digest", [
    ("5,4,2,1", "3,3,1",
     "44227c2d652aa1021eed5d114af77ec818cb4e7f68b7d16e5cc3eb2b3c394788"),
    ("9", "1,1,1,1,1,1,1,1,1",
     "0616bb20bedb94970b3284c9ce8d033d53c4ca353b152a1ad4eca4a42fdfde04"),
])
def test_scan_json_digest_pinned(capsys, alpha, beta, digest):
    code, out, err = run_cli(capsys, "scan", "--alpha", alpha, "--beta", beta,
                             "--range", "-40:40", "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("lo", [10**18 - 1, -10**18])
def test_scan_far_apart_shifts(capsys, lo):
    span = f"{lo}:{lo + 1}"
    code, out, err = run_cli(capsys, "scan", "--alpha", "3", "--beta", "3",
                             "--range", span)
    assert (code, err) == (0, "")
    assert out == (f"b-a = {lo:+d}: IRREDUCIBLE\n"
                   f"b-a = {lo + 1:+d}: IRREDUCIBLE\n"
                   "reducible shifts: none\n")
    code, out, err = run_cli(capsys, "scan", "--alpha", "4,2",
                             "--beta", "2,2,1", "--range", span, "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["verdicts"] == [
        {"shift": s, "irreducible": True, "pattern": None}
        for s in (lo, lo + 1)]
    assert payload["reducible_shifts"] == []


def test_scan_and_irred_build_the_differences_once(capsys, monkeypatch):
    """One _differences call per verdict, far apart shifts included (they
    return None from it): 17 for the scan, then one for irred."""
    calls = []
    differences = criteria._differences

    def counting(*args):
        calls.append(args)
        return differences(*args)

    monkeypatch.setattr(criteria, "_differences", counting)
    code, _, _ = run_cli(capsys, "scan", "--alpha", "4,2", "--beta", "2,2,1",
                         "--range", "-8:8", "--json")
    assert (code, len(calls)) == (0, 17)
    code, _, _ = run_cli(capsys, "irred", "--alpha", "4,2", "--beta", "2,2,1",
                         "--b", "3")
    assert (code, len(calls)) == (0, 18)


def test_scan_verified(capsys):
    code, out, _ = run_cli(capsys, "scan", "--alpha", "2", "--beta", "1,1",
                           "--range", "-2:2", "--verify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["reducible_shifts"] == [-1]
    assert all(row["verified"] for row in payload["verdicts"])


def test_scan_range_errors(capsys):
    code, _, err = run_cli(capsys, "scan", "--alpha", "1", "--beta", "1",
                           "--range", "5:1")
    assert code == 2
    assert err == "error: empty range '5:1'\n"
    code, _, err = run_cli(capsys, "scan", "--alpha", "1", "--beta", "1",
                           "--range", "x:y")
    assert code == 2
    assert err == "error: range 'x:y' must be integer:integer\n"


def test_a_malformed_negative_value_reaches_its_parser(capsys):
    # A value that starts with '-' and a digit is glued to its flag, so the
    # flag's own parser, not argparse, says what is wrong with it.
    code, _, err = run_cli(capsys, "scan", "--alpha", "1", "--beta", "1",
                           "--range", "-8:x")
    assert code == 2
    assert err == "error: range '-8:x' must be integer:integer\n"
    code, _, err = run_cli(capsys, "minor", "--rows", "-1,x",
                           "--cols", "1,2")
    assert code == 2
    assert err == "error: expected comma-separated integers, got '-1,x'\n"


def _row_list_scan(alpha, beta, lo, hi, verify):
    """The scan that the one-pass scan replaced, as the oracle: every row is
    kept in a list, then the whole payload is rendered.  Returns the JSON
    and the text output."""
    alpha = criteria.parse_partition(alpha)
    beta = criteria.parse_partition(beta)
    cache = BasisCache() if verify else None
    rows = []
    for shift in range(lo, hi + 1):
        verdict, witness = criteria._verdict(alpha, 0, beta, shift)
        row = {
            "shift": shift,
            "irreducible": verdict,
            "pattern": list(witness) if witness is not None else None,
        }
        if cache is not None:
            product = (cache.dual_canonical(
                criteria.evaluation_multisegment(alpha, 0))
                * cache.dual_canonical(
                    criteria.evaluation_multisegment(beta, shift)))
            algebraic = canonical.membership_up_to_power(
                product, cache) is not None
            row["verified"] = algebraic == verdict
        rows.append(row)
    reducible = [row["shift"] for row in rows if not row["irreducible"]]
    payload = {
        "alpha": list(alpha.parts),
        "beta": list(beta.parts),
        "range": [lo, hi],
        "verdicts": rows,
        "reducible_shifts": reducible,
    }
    lines = [f"b-a = {row['shift']:+d}: "
             + ("IRREDUCIBLE" if row["irreducible"] else "REDUCIBLE")
             for row in rows]
    lines.append("reducible shifts: "
                 + (", ".join(str(s) for s in reducible) if reducible
                    else "none"))
    return json.dumps(payload, indent=2) + "\n", "\n".join(lines) + "\n"


@pytest.mark.parametrize("verify", [(), ("--verify",)], ids=["", "verify"])
@pytest.mark.parametrize("alpha, beta, lo, hi", [
    ("2", "1,1", -3, 3),
    ("3,1", "2", -6, 6),        # four-term patterns at shift 0
    ("4,2", "2,2,1", -1, -1),   # one shift
    ("3", "3", 40, 44),         # far apart: no reducible shift
])
def test_one_pass_scan_matches_the_row_list(capsys, alpha, beta, lo, hi,
                                            verify):
    want_json, want_text = _row_list_scan(alpha, beta, lo, hi, verify)
    argv = ("scan", "--alpha", alpha, "--beta", beta, "--range",
            f"{lo}:{hi}", *verify)
    assert run_cli(capsys, *argv, "--json") == (0, want_json, "")
    assert run_cli(capsys, *argv) == (0, want_text, "")


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def test_scan_memory_does_not_grow_with_the_range(monkeypatch):
    """200,001 shifts in well under 1 MiB: no row is kept once written."""
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        code = main(["scan", "--alpha", "3", "--beta", "3",
                     "--range", "0:200000", "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2**20


def _run_interleaved(*argv):
    """Exit code and the lines of stdout and stderr, in the order written."""
    both = io.StringIO()
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        code = main(list(argv))
    return code, both.getvalue().splitlines()


def _flip(monkeypatch, module):
    """Make module's product_membership contradict every answer."""
    membership = module.product_membership

    def flipped(labels, cache):
        return (None if membership(labels, cache) is not None
                else (0, Multisegment()))

    monkeypatch.setattr(module, "product_membership", flipped)


@pytest.fixture
def flipped_membership(monkeypatch):
    """Make the algebraic oracle contradict every verdict."""
    _flip(monkeypatch, cli)


def test_irred_verification_failure(flipped_membership):
    code, lines = _run_interleaved("irred", "--alpha", "2", "--beta", "1,1",
                                   "--b", "2", "--verify", "--json")
    assert code == 1
    assert json.loads("\n".join(lines[:-1]))["verified"] is False
    assert lines[-1] == ("verification failed: separation says True, "
                         "membership says False")


def test_scan_verification_failure(flipped_membership):
    code, lines = _run_interleaved("scan", "--alpha", "2", "--beta", "1,1",
                                   "--range", "-2:2", "--verify", "--json")
    assert code == 1
    payload = json.loads("\n".join(lines[:-1]))
    assert [row["verified"] for row in payload["verdicts"]] == [False] * 5
    assert lines[-1] == "verification failed at shifts [-2, -1, 0, 1, 2]"


@pytest.mark.parametrize("argv, factors, rows", [
    (("irred", "--alpha", "6,5,4,3,2", "--beta", "5,4,3", "--b", "2",
      "--verify"), [("6,5,4,3,2", 0), ("5,4,3", 2)], 75),
    (("scan", "--alpha", "3,2,1", "--beta", "2,2", "--range", "-6:6",
      "--verify"), [("3,2,1", 0)] + [("2,2", b) for b in range(-6, 7)], 58),
], ids=["irred", "scan"])
def test_verify_finishes_only_the_rows_of_the_factors(capsys, monkeypatch,
                                                      argv, factors, rows):
    """Membership is decided from the factors' rows: the run finishes the
    rows a cache that computed only the factors finishes, no row of a
    product, and decodes no vector."""
    caches = []

    class Recording(BasisCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    monkeypatch.setattr(cli, "BasisCache", Recording)
    assert run_cli(capsys, *argv)[0] == 0
    (cache,) = caches
    factors_only = BasisCache()
    for parts, shift in factors:
        factors_only.dual_canonical(criteria.evaluation_multisegment(
            criteria.parse_partition(parts), shift))
    assert cache.labels_computed() == factors_only.labels_computed() == rows
    assert cache._memo == {}


def test_verify_oracle_fails_when_the_membership_tests_disagree(
        capsys, monkeypatch):
    _flip(monkeypatch, checks)
    code, out, err = run_cli(capsys, "verify", "--suite", "oracle", "--json")
    payload = json.loads(out)
    assert (code, err, payload["cases"], payload["ok"]) == (1, "", 81, False)
    assert len(payload["failures"]) == 81
    assert all(f.startswith("membership of the product gives ")
               for f in payload["failures"])


@pytest.mark.parametrize("argv, digest", [
    (("verify", "--suite", "oracle", "--json"),
     "15221026399c4a8152c7ad5081036c10f351310162723d446ddc4323e486e62c"),
    (("verify", "--suite", "frank", "--json"),
     "266a185f13833f7534f2783284fa99c071c10d0d8b8993bcc0d030ff5d074270"),
    (("verify", "--suite", "frank", "--samples", "200", "--seed", "3",
      "--json"),
     "4fee8e653ea4a3a1e4fe86e3c4e0391cfa6f6cead6b31659ca87f3bab096ccef"),
    (("scan", "--alpha", "4,3,2", "--beta", "3,2,1", "--range", "-8:8",
      "--verify", "--json"),
     "246ed7681df41ddd8ea8becdd10189aa5b565bc9483c19b278ceb999c56bef18"),
], ids=["oracle", "frank", "frank-200", "scan"])
def test_membership_outputs_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- verify ------------------------------------------------------------------------


def test_verify_hooks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "hooks",
                           "--max-part-sum", "3", "--shift-range", "-4:4")
    assert code == 0
    assert out == "PASS hooks: 54 case(s)\n"


def test_verify_hooks_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "hooks",
                           "--max-part-sum", "2", "--shift-range", "-3:3",
                           "--json")
    assert code == 0
    assert json.loads(out) == {
        "suite": "hooks", "cases": 21, "ok": True, "failures": []}


def test_verify_hooks_shift_range_is_the_range_given(capsys):
    # The one partition of size 1 at shifts -8..-2: seven cases.
    code, out, _ = run_cli(capsys, "verify", "--suite", "hooks",
                           "--max-part-sum", "1", "--shift-range", "-8:-2")
    assert code == 0
    assert out == "PASS hooks: 7 case(s)\n"


@pytest.mark.parametrize("suite, flag, value", [
    ("oracle", "--max-degree", "9"),
    ("eqrei", "--seed", "4"),
    ("hooks", "--index-range", "1:3"),
    ("minors", "--shift-range", "-1:1"),
])
def test_verify_flag_the_suite_does_not_take(capsys, suite, flag, value):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} does not apply to suite {suite}\n"


def test_verify_max_n_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "minors", "--max-n", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-n" in capsys.readouterr().err


def test_verify_minors_window(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "minors",
                           "--index-range", "1:3")
    assert code == 0
    assert out == "PASS minors: 19 case(s)\n"


@pytest.mark.parametrize("suite, flag, value", [
    ("minors", "--max-cols", "0"),
    ("eqrei", "--max-degree", "-1"),
    ("oracle", "--max-part-sum", "-1"),
    ("hooks", "--max-part-sum", "0"),
    ("triangular", "--max-degree", "0"),
])
def test_verify_bounds_that_select_no_case(capsys, suite, flag, value):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: the bounds select no case of suite {suite}\n"


def test_verify_refuses_a_negative_sample_count(capsys, monkeypatch):
    # Refused before the suite runs: it would pass on its fixed families.
    monkeypatch.setitem(SUITES, "frank", lambda samples=40, max_factors=3,
                        max_entry=6, seed=0: pytest.fail("the suite ran"))
    code, out, err = run_cli(capsys, "verify", "--suite", "frank",
                             "--samples", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --samples must be at least 0\n"


def test_verify_defaults_from_suite_signatures():
    assert {name: _suite_defaults(suite)
            for name, suite in SUITES.items()} == {
        "eqrei": {"max_degree": 4},
        "positivity": {"max_degree": 4},
        "triangular": {"max_degree": 5},
        "oracle": {"max_part_sum": 2, "shift_range": (-4, 4)},
        "minors": {"index_range": (1, 4), "max_cols": None},
        "frank": {"samples": 40, "max_factors": 3, "max_entry": 6,
                  "seed": 0},
        "hooks": {"max_part_sum": 6, "shift_range": (-12, 12)},
    }


def test_verify_defines_one_flag_per_suite_parameter():
    # _SUITE_FLAGS is read from the suite signatures; the verify parser
    # gives each name one --flag and has no other suite flag.
    assert sorted(cli._SUITE_FLAGS) == sorted(
        set().union(*map(_suite_defaults, SUITES.values())))
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    flags = [action.option_strings
             for action in subparsers.choices["verify"]._actions
             if action.dest not in ("help", "suite", "json")]
    assert flags == [[f"--{name.replace('_', '-')}"]
                     for name in cli._SUITE_FLAGS]


def test_verify_help_writes_what_a_none_default_means(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--help"])
    out = capsys.readouterr().out
    assert excinfo.value.code == 0
    assert "None" not in out
    assert "minors (no bound)" in out


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--suite", "nonsense"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_missing_required_argument(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["dcb"])
    assert excinfo.value.code == 2
    capsys.readouterr()


# -- minor -------------------------------------------------------------------------


def test_minor_basic(capsys):
    code, out, _ = run_cli(capsys, "minor", "--rows", "1,2", "--cols", "2,3")
    assert code == 0
    assert out == ("minor = E*([1]+[2]) - v E*([1,2])\n"
                   "label: [1]+[2]\n"
                   "confirmed equal to G*([1]+[2]): yes\n")


def test_minor_zero(capsys):
    code, out, _ = run_cli(capsys, "minor", "--rows", "2", "--cols", "1")
    assert code == 0
    assert out == "0\n"


def test_minor_negative_indices(capsys):
    code, out, _ = run_cli(capsys, "minor", "--rows", "-1,0",
                           "--cols", "1,4")
    assert code == 0
    assert out == ("minor = E*([-1,0]+[0,3]) - v E*([0]+[-1,3])\n"
                   "label: [-1,0]+[0,3]\n"
                   "confirmed equal to G*([-1,0]+[0,3]): yes\n")


def test_minor_index_errors(capsys):
    code, _, err = run_cli(capsys, "minor", "--rows", "1,2", "--cols", "3")
    assert code == 2
    assert err == "error: row and column index lists must have equal length\n"
    code, _, err = run_cli(capsys, "minor", "--rows", "2,1", "--cols", "1,2")
    assert code == 2
    assert err == "error: row indices must be strictly increasing\n"
    code, _, err = run_cli(capsys, "minor", "--rows", "1,2", "--cols", "3,3")
    assert code == 2
    assert err == "error: column indices must be strictly increasing\n"


def test_minor_json(capsys):
    code, out, _ = run_cli(capsys, "minor", "--rows", "1,2", "--cols", "2,3",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["zero"] is False
    assert payload["label"] == "[1]+[2]"
    assert payload["confirmed"] is True
    assert payload["expansion"] == [
        {"label": "[1]+[2]", "coef": [[0, 1]]},
        {"label": "[1,2]", "coef": [[1, -1]]},
    ]


# -- exit codes ----------------------------------------------------------------


@pytest.mark.parametrize("fault", [
    RecursionError("maximum recursion depth exceeded"),
    ZeroDivisionError("division by zero"),
])
def test_internal_fault_has_its_own_exit_code(capsys, monkeypatch, fault):
    def broken(args):
        raise fault

    monkeypatch.setattr(cli, "cmd_irred", broken)
    code, out, err = run_cli(capsys, "irred", "--alpha", "3", "--beta", "3")
    assert (code, out) == (cli.INTERNAL_ERROR, "")
    assert cli.INTERNAL_ERROR == 3
    assert err == f"internal error: {type(fault).__name__}: {fault}\n"


@pytest.mark.parametrize("argv, attr", [
    (("irred", "--alpha", "3", "--beta", "3"), "_verdict"),
    (("scan", "--alpha", "2", "--beta", "1", "--range", "0:1"), "_verdict"),
    (("dcb", "--weight", "0:1,1:1"), "dcb_table"),
    (("decompose", "--m", "[0]", "--n", "[1]"), "structure_constants"),
    (("minor", "--rows", "1,2", "--cols", "2,3"), "quantum_minor"),
])
def test_value_error_inside_a_computation_is_internal(capsys, monkeypatch,
                                                      argv, attr):
    def broken(*args, **kwargs):
        raise ValueError("join relation needs disjoint sets")

    monkeypatch.setattr(cli, attr, broken)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (cli.INTERNAL_ERROR, "")
    assert err == ("internal error: ValueError: join relation needs "
                   "disjoint sets\n")


def _plant(monkeypatch, fault):
    """Make the structure constants of the pair [0] | [1] raise fault."""
    def planted(m, n, cache):
        if (str(m), str(n)) == ("[0]", "[1]"):
            raise fault
        return structure_constants(m, n, cache)

    monkeypatch.setattr(checks, "structure_constants", planted)


def test_core_fault_in_a_verify_case_fails_that_case(capsys, monkeypatch):
    """A broken basis in one case is a property failure that names the
    case, and the suite runs its other cases."""
    _plant(monkeypatch, InvariantError("planted"))
    code, out, err = run_cli(capsys, "verify", "--suite", "positivity",
                             "--max-degree", "2", "--json")
    assert (code, err) == (cli.PROPERTY_FAILURE, "")
    assert json.loads(out) == {
        "suite": "positivity", "cases": 3, "ok": False,
        "failures": ["[0] | [1]: InvariantError: planted"]}


def test_other_fault_in_a_verify_case_is_internal(capsys, monkeypatch):
    _plant(monkeypatch, ZeroDivisionError("planted"))
    code, out, err = run_cli(capsys, "verify", "--suite", "positivity",
                             "--max-degree", "2", "--json")
    assert (code, out) == (cli.INTERNAL_ERROR, "")
    assert err == "internal error: ZeroDivisionError: planted\n"


@pytest.mark.parametrize("flag, value", [
    ("--max-factors", "1"),
    ("--max-entry", "0"),
])
def test_verify_frank_argument_errors(capsys, flag, value):
    code, out, err = run_cli(capsys, "verify", "--suite", "frank", flag, value)
    assert (code, out) == (2, "")
    assert err == ("error: random families need --max-factors of at least 2 "
                   "and --max-entry of at least 1\n")


def test_irred_partition_that_does_not_decrease(capsys):
    code, out, err = run_cli(capsys, "irred", "--alpha", "1,3", "--beta", "1")
    assert (code, out) == (2, "")
    assert err == "error: partition parts must weakly decrease: (1, 3)\n"


# -- entry points -------------------------------------------------------------------


def test_module_entry_point():
    # The same main as the console script, runnable without installing it.
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "dcbasis.cli", "dcb", "--weight", "5:1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "G*([5]) = E*([5])\n"


def test_a_closed_pipe_exits_141_quietly():
    # The reader takes one line and leaves.  The scan writes about 148 KB,
    # more than a pipe holds, so it meets the closed pipe.
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "dcbasis.cli", "scan", "--alpha", "3",
         "--beta", "2", "--range", "-3000:3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.readline() == "b-a = -3000: IRREDUCIBLE\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == cli.BROKEN_PIPE == 141
    assert proc.stderr.read() == ""
    proc.stderr.close()


@pytest.mark.skipif(shutil.which("dcbasis") is None,
                    reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(["dcbasis", "dcb", "--weight", "5:1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "G*([5]) = E*([5])\n"


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))

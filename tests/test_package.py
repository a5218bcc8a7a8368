"""Rules that hold across the whole package."""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

import dcbasis

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dcbasis"


def _names_in_code(source: str) -> set[str]:
    """Every identifier that the source uses in code.  Strings, so
    ``__all__`` entries, and comments do not count, nor does the name that
    a ``def`` or ``class`` statement defines."""
    used, previous = set(), None
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME and previous not in ("def", "class"):
            used.add(token.string)
        previous = token.string
    return used


def _exports(sources: dict[str, str]) -> dict[str, list[str]]:
    """The public names of each module but ``__init__.py``, by file name:
    those its ``__all__`` lists."""
    out = {name: [] for name in sources if name != "__init__.py"}
    for name in out:
        for node in ast.parse(sources[name]).body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                out[name] += ast.literal_eval(node.value)
    return out


def _uncalled(sources: dict[str, str], tested: set[str]) -> list[str]:
    """Each public name of a module that no other module of the package
    (``__init__.py`` aside) uses in code and that no test names."""
    used = {name: _names_in_code(source) for name, source in sources.items()
            if name != "__init__.py"}
    return sorted(f"{module}:{name}"
                  for module, names in _exports(sources).items()
                  for name in set(names)
                  if name not in tested and not any(
                      name in found for other, found in used.items()
                      if other != module))


def _sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in PACKAGE.glob("*.py")}


def test_every_public_name_has_a_caller_or_a_test():
    """Every name of each module's __all__ is used in code by another
    module of the package, __init__.py aside, or is named in a test."""
    tested = set().union(*(_names_in_code(path.read_text())
                           for path in (ROOT / "tests").glob("*.py")))
    assert _uncalled(_sources(), tested) == []
    # A use inside the module that exports the name does not count.
    assert _uncalled({"a.py": '__all__ = ["f"]\ndef f(): pass\nf()\n',
                      "b.py": "g = 1\n"}, set()) == ["a.py:f"]


# The modules that dcbasis re-exports, in the order __init__.py joins them.
_API_MODULES = ("laurent", "multisegment", "algebra", "canonical",
                "criteria", "tableaux")


def test_the_package_api_is_the_modules_all_joined():
    """dcbasis.__all__ is the six modules' __all__ lists joined in order,
    with no name twice, and each name is bound to the module's object."""
    joined = [name for module in _API_MODULES
              for name in getattr(dcbasis, module).__all__]
    assert dcbasis.__all__ == joined
    assert len(joined) == len(set(joined))
    for module in _API_MODULES:
        for name in getattr(dcbasis, module).__all__:
            assert getattr(dcbasis, name) is getattr(
                getattr(dcbasis, module), name), name


def test_each_public_name_is_listed_by_one_module():
    exports = _exports(_sources())
    owners: dict[str, list[str]] = {}
    for module, names in sorted(exports.items()):
        for name in names:
            owners.setdefault(name, []).append(module)
    assert {name: found for name, found in owners.items()
            if len(found) > 1} == {}
    assert set(exports) >= {f"{module}.py" for module in _API_MODULES}


# Every name that dcbasis exported while __init__.py restated the list.
_EARLIER_API = """
AlgebraElement BasisCache CoFiniteSet DcbTable ExactDivisionError LaurentPoly
Multisegment Partition Segment Tableau Weight b_form cartan_pairing dcb_table
dominates dual_pbw enumerate_by_weight evaluation_multisegment evaluation_set
expand_in_dcb frank_condition hook_irreducible irreducible_family
irreducible_pair join_related kl_matrix linked main1_pattern main1_witness
membership_up_to_power product_membership minor_multisegment n_pi
parse_multisegment parse_partition parse_segment parse_weight product_word
quantum_integer quantum_minor render_combination rs_p_tableau
segment_intersection segment_key segment_pairing segment_union separated
strongly_separated structure_constants unit
""".split()


def test_every_earlier_package_name_still_imports():
    assert len(_EARLIER_API) == 50
    assert set(_EARLIER_API) <= set(dcbasis.__all__)
    assert set(dcbasis.__all__) - set(_EARLIER_API) == {
        "EMPTY", "InvariantError", "ONE", "V", "ZERO", "basis_product"}
    namespace: dict = {}
    exec("from dcbasis import *", namespace)
    assert set(_EARLIER_API) <= set(namespace)


def _private_methods(source: str, cls: str) -> set[str]:
    """The underscore methods, dunders aside, that class cls defines."""
    body = next(node.body for node in ast.parse(source).body
                if isinstance(node, ast.ClassDef) and node.name == cls)
    return {node.name for node in body if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_") and not node.name.endswith("__")}


def _attribute_uses(source: str, module: str, names: set[str]) -> list[str]:
    """Each line of the module that reads an attribute named in names."""
    return [f"{module}:{node.lineno} .{node.attr}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in names]


def test_only_canonical_reaches_into_a_basis_cache():
    """Runs, widenings and packed steps are canonical's to open: no other
    module of the package calls an underscore method of BasisCache."""
    names = _private_methods((PACKAGE / "canonical.py").read_text(),
                             "BasisCache")
    assert {"_run", "_check", "_row", "_correct"} <= names
    assert [use for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "canonical.py"
            for use in _attribute_uses(path.read_text(), path.name,
                                       names)] == []
    assert _attribute_uses("cache._run(step)\n", "checks.py", names) == [
        "checks.py:1 ._run"]


def test_only_criteria_reads_a_bitset():
    """The bits of a co-finite set or a partition are criteria's encoding:
    no other module of the package reads ``._bits``."""
    assert [use for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "criteria.py"
            for use in _attribute_uses(path.read_text(), path.name,
                                       {"_bits"})] == []
    assert _attribute_uses("x = s._bits >> 1\n", "checks.py",
                           {"_bits"}) == ["checks.py:1 ._bits"]


def _scopes_naming(source: str, attr: str) -> list[str]:
    """The dotted name of the class or function around each place in the
    source that reads an attribute called attr, in source order."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                found.append(".".join(scope))
            walk(child, scope)

    walk(ast.parse(source), ())
    return found


def test_only_the_run_finishes_a_row():
    """A packed step that meets a missing row yields its id, and the run
    puts the row's _correct on its stack: BasisCache._run is the one
    place in the package that names _correct, so no step finishes a row
    by a call down into another."""
    assert [f"{path.name}:{scope}" for path in sorted(PACKAGE.glob("*.py"))
            for scope in _scopes_naming(path.read_text(), "_correct")] == [
        "canonical.py:BasisCache._run"]
    assert _scopes_naming(
        "class C:\n    def _aux(self):\n        self._correct(0)\n"
        "x = c._correct\n", "_correct") == ["C._aux", ""]


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
              for path in PACKAGE.glob("*.py")
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


# A coefficient dict, LaurentPoly._c or AlgebraElement._terms, is shared:
# the basis cache hands one LaurentPoly per distinct coefficient to every
# vector it returns.  So each dict is stored only where it is made.
_OWNERS = {
    "_c": {("laurent.py", "LaurentPoly.__init__"), ("laurent.py", "_wrap")},
    "_terms": {("algebra.py", "AlgebraElement.__init__"),
               ("algebra.py", "_wrap")},
}
_MUTATORS = {"pop", "popitem", "update", "setdefault", "clear"}


def _is_owned_dict(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in _OWNERS


def _coefficient_dict_writes(source: str, module: str) -> list[str]:
    """Each line of the module that stores ``._c`` or ``._terms`` outside
    their owners, or stores into, deletes from, or calls a mutating method
    of either dict.  Writes through an alias are not seen."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        writes = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
        if ((writes and _is_owned_dict(node)
             and (module, scope) not in _OWNERS[node.attr])
                or (writes and isinstance(node, ast.Subscript)
                    and _is_owned_dict(node.value))
                or (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS
                    and _is_owned_dict(node.func.value))):
            found.append(f"{module}:{node.lineno} in {scope or '<module>'}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_no_code_writes_a_coefficient_dict():
    files = [*PACKAGE.glob("*.py"),
             *(ROOT / "tests").glob("*.py")]
    assert [line for path in sorted(files)
            for line in _coefficient_dict_writes(path.read_text(),
                                                 path.name)] == []


_WRITES = """
class LaurentPoly:
    def __init__(self, coeffs):
        self._c = dict(coeffs)


def f(p, x):
    p._c = {}
    p._c[0] = 1
    p._c[1] += 1
    del p._terms[x]
    p._terms.update({})
    p._c.pop(0)
    p._c.setdefault(0, 1)
    x._terms.clear()
    return p._c.get(0), dict(x._terms)
"""


def test_the_write_rule_sees_each_kind_of_write():
    assert _coefficient_dict_writes(_WRITES, "laurent.py") == [
        f"laurent.py:{line} in f" for line in range(8, 16)]
    # The constructor stores _c only in its own module.
    assert _coefficient_dict_writes(_WRITES, "algebra.py")[0] == (
        "algebra.py:4 in LaurentPoly.__init__")

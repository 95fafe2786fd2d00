"""Every module of the library and of the tests uses each name it imports,
every library module imports each name from the module that defines it,
and uses each private function and class it defines.

A name counts as used when it appears anywhere in the module's code.  The
modules use ``from __future__ import annotations``, so annotations are code
and need no quotes.  ``__init__`` is left out of the first check: its
imports are the package's public names.  The test modules and their
reference implementations are held to the first check too, so an oracle
moved into the tests brings no dead import with it.  The second check covers every
module: a ``from .mod import name`` must name a public function, class or
assigned name of ``mod`` itself, not one that ``mod`` only imports.  The
third check covers every module too: no other module may import a private
name, so one its own module never uses is dead code.  The fourth check
keeps every import of the library at the top of its module: the package
imports each module up front, so an import inside a function defers
nothing.  The last two checks keep the stored forms of ``Mat`` and
``MultiPoly`` inside their modules: no library module imports a private
name of the package in any spelling, relative or absolute, and no code but
``matrices`` and ``polynomials`` reads the private slots of the two
classes (the demos and the benchmark included); the other modules go
through ``Mat.int_rows`` and ``poly_matrix``.  The next check keeps
``dataclasses`` out of the library: its records build on
``hodgecalc.records`` and generate no code at import.  The last one keeps
the lattice layer, ``cones`` and ``monomial``, on integer rows: they read
no ``GaussianRational`` view of a ``Mat``.  The reachability check keeps
dead library code out: each public function, class and method of the
library is named by some code of the library, the demos or the benchmark
outside its own definition, or is bound by name in the benchmark's tracer,
unless ``UNREACHED`` gives the reason it stays.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hodgecalc"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))
FORM_OWNERS = {"matrices.py", "polynomials.py"}
FORM_READERS = ([p for p in ALL_MODULES if p.name not in FORM_OWNERS]
                + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))


def unused_imports(source: str):
    """(line, name) of each name an import statement binds that the module never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES + TEST_MODULES,
                         ids=[p.stem for p in MODULES] + [f"tests/{p.stem}" for p in TEST_MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from .rationals import ZERO, ONE\n"
              "def f() -> ONE:\n"
              "    return os.sep, ZERO\n")
    assert unused_imports(source) == [(2, "system")]


def defined_names(source: str):
    """The names a module binds at top level other than by importing them."""
    names = set()
    statements = list(ast.parse(source).body)
    while statements:
        node = statements.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.For)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        for field in ("body", "orelse", "finalbody", "handlers"):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                statements.extend(getattr(node, field, []))
    return names


def misplaced_imports(source: str, defined):
    """(line, module, name) of each ``from .module import name`` whose name
    is private or is not defined in that module; `defined(module)` gives the
    names a module defines."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            names = defined(node.module)
            out += [(node.lineno, node.module, alias.name) for alias in node.names
                    if alias.name.startswith("_") or alias.name not in names]
    return sorted(out)


def _package_names(module: str):
    return defined_names((PACKAGE / f"{module}.py").read_text())


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_module_imports_public_names_from_their_home(path):
    assert misplaced_imports(path.read_text(), _package_names) == []


def test_the_check_finds_misplaced_imports():
    modules = {"matrices": "from .rationals import ZERO\ndef rank(m): pass\n_cache = {}\n",
               "rationals": "ZERO = 0\n"}

    def defined(module):
        return defined_names(modules[module])
    source = ("from .matrices import rank, ZERO\n"
              "from .matrices import _cache\n"
              "from .rationals import ZERO\n")
    assert misplaced_imports(source, defined) == [(1, "matrices", "ZERO"),
                                                  (2, "matrices", "_cache")]


def unused_private_definitions(source: str):
    """(line, name) of each module-level private function or class that the
    rest of the module never uses; a use inside its own body does not count."""
    body = ast.parse(source).body
    out = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name.startswith("_") and not node.name.startswith("__"):
            used = {n.id for other in body if other is not node
                    for n in ast.walk(other) if isinstance(n, ast.Name)}
            if node.name not in used:
                out.append((node.lineno, node.name))
    return out


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_module_uses_every_private_definition(path):
    assert unused_private_definitions(path.read_text()) == []


def test_the_check_finds_unused_private_definitions():
    source = ("def _unused(x):\n    return x\n"
              "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
              "def _used():\n    return _Helper()\n"
              "class _Helper:\n    pass\n"
              "class _Dead:\n    pass\n"
              "def __getattr__(name):\n    raise AttributeError(name)\n"
              "def public():\n    return _used()\n")
    assert unused_private_definitions(source) == [(1, "_unused"), (3, "_recursive"),
                                                  (9, "_Dead")]


def function_imports(source: str):
    """(line, function) of each import statement inside a function body."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += [(inner.lineno, node.name) for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return sorted(out)


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_module_imports_only_at_its_top(path):
    assert function_imports(path.read_text()) == []


def test_the_check_finds_imports_in_functions():
    source = ("import os\n"
              "def f():\n    import sys\n    return sys\n"
              "class C:\n    def g(self):\n        def h():\n"
              "            from .rationals import ZERO\n        return h\n"
              "if os:\n    from math import gcd\n")
    assert function_imports(source) == [(3, "f"), (8, "g"), (8, "h")]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str):
    """(line, name) of each private name imported from the package:
    ``from .mod import _x``, ``from . import _x``, ``from hodgecalc.mod
    import _x`` or ``import hodgecalc._x``; dunder names are not private."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "hodgecalc"):
            out += [(node.lineno, alias.name) for alias in node.names if _private(alias.name)]
        elif isinstance(node, ast.Import):
            out += [(node.lineno, alias.name) for alias in node.names
                    if alias.name.split(".")[0] == "hodgecalc"
                    and any(map(_private, alias.name.split(".")[1:]))]
    return sorted(out)


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_module_imports_no_private_name_of_the_package(path):
    assert private_imports(path.read_text()) == []


def test_the_check_finds_private_imports():
    source = ("from .matrices import Mat, _ZI\n"
              "from . import _helpers\n"
              "from hodgecalc.polynomials import _make\n"
              "import hodgecalc._version, hodgecalc.rationals\n"
              "from fractions import _gcd\n"
              "from hodgecalc import __version__\n")
    assert private_imports(source) == [(1, "_ZI"), (2, "_helpers"), (3, "_make"),
                                       (4, "hodgecalc._version")]


PRIVATE_SLOTS = {"_num", "_den", "_ring", "_entries", "_terms"}


def private_slot_reads(source: str):
    """(line, attribute) of each access to a private slot of Mat or MultiPoly."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in PRIVATE_SLOTS)


@pytest.mark.parametrize("path", FORM_READERS, ids=[str(p.relative_to(ROOT)) for p in FORM_READERS])
def test_only_the_owners_read_the_stored_forms(path):
    assert private_slot_reads(path.read_text()) == []


def test_the_check_finds_private_slot_reads():
    source = ("def f(m, p):\n"
              "    rows = m._num\n"
              "    return rows, m._den, p._terms.items(), m.rows, m.int_rows()\n"
              "def g(m):\n    return m._ring, m._entries, m._other\n")
    assert private_slot_reads(source) == [(2, "_num"), (3, "_den"), (3, "_terms"),
                                          (5, "_entries"), (5, "_ring")]


BANNED_IMPORTS = {"dataclasses"}


def banned_imports(source: str):
    """(line, module) of each import of a module the library does without:
    the records of ``hodgecalc.records`` replace ``dataclasses``, whose
    decorator compiles new methods for every class at import."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [(node.lineno, name) for name in names if name.split(".")[0] in BANNED_IMPORTS]
    return sorted(out)


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_module_imports_no_dataclasses(path):
    assert banned_imports(path.read_text()) == []


def test_the_check_finds_dataclasses_imports():
    source = ("import os, dataclasses\n"
              "from dataclasses import dataclass, field\n"
              "import dataclasses as dc\n"
              "from .records import Record\n"
              "def f():\n    from dataclasses import fields\n    return fields\n"
              "from .dataclasses import helper\n")
    assert banned_imports(source) == [(1, "dataclasses"), (2, "dataclasses"),
                                      (3, "dataclasses"), (6, "dataclasses")]


INT_ROW_READERS = [PACKAGE / "cones.py", PACKAGE / "monomial.py"]
GAUSS_VIEWS = {"row", "row_list", "col", "vec", "entries", "mat_vec", "from_rows", "from_json"}


def gauss_view_reads(source: str):
    """(line, what) of each read of a ``GaussianRational`` view of a ``Mat``:
    an attribute in GAUSS_VIEWS (``m.row(i)``, ``Mat.from_rows(...)``, ...)
    or a subscript with a two-element index (``m[i, j]``)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in GAUSS_VIEWS:
            out.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
              and len(node.slice.elts) == 2):
            out.append((node.lineno, "[i, j]"))
    return sorted(out)


@pytest.mark.parametrize("path", INT_ROW_READERS, ids=[p.stem for p in INT_ROW_READERS])
def test_the_lattice_layer_reads_integer_rows(path):
    """`cones` and `monomial` work on primitive integer vectors: they read a
    Mat through ``int_rows`` and build one with ``Mat.from_int_rows``."""
    assert gauss_view_reads(path.read_text()) == []


def test_the_check_finds_gauss_view_reads():
    source = ("def f(m, v, k):\n"
              "    a = m.row(0), m.row_list(), m.col(1)\n"
              "    b = m.vec(), m.entries, m.mat_vec(v)\n"
              "    c = Mat.from_rows([v]), Mat.from_json([[1]]), m[0, 1]\n"
              "    return m.int_rows(), Mat.from_int_rows([v], 1), v[0], v[1:2], k[(0, 1, 2)]\n")
    assert gauss_view_reads(source) == [(2, "col"), (2, "row"), (2, "row_list"),
                                        (3, "entries"), (3, "mat_vec"), (3, "vec"),
                                        (4, "[i, j]"), (4, "from_json"), (4, "from_rows")]


READERS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
TRACING = ROOT / "perfbench" / "tracing.py"

# Public names that no subcommand, demo or benchmark reaches, with the reason each stays.
UNREACHED = {
    "polynomials.MultiPoly.partial_derivative": "the Chern-form partials of ROADMAP item 8",
    "normpos.trace_form_power_vanishes": "the test of c_1^q = 0 of ROADMAP item 7",
    "orbit.MetricMatrix.full": "the determinant of the whole metric matrix, acceptance criterion 2",
    "normpos.NormPositivityModel.apply": "the normpos test oracle reads models through it",
    "schemas.render_problem": "the document writer that README names",
}


def _references(node) -> Counter:
    """How often each name occurs in the code under node, as a name or as
    an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def bound_names(source: str):
    """The names in the string bindings of ``SPANS``: ("matrices",
    "Mat.__matmul__") gives matrices, Mat and __matmul__."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            out.update(part for n in ast.walk(node.value)
                       if isinstance(n, ast.Constant) and isinstance(n.value, str)
                       for part in n.value.split("."))
    return out


def unreached_definitions(modules: dict, readers=(), bound=frozenset()):
    """"module.name" or "module.Class.method" of each public function, class
    and method defined at the top of the sources in `modules` (module name ->
    source) that neither `bound` nor any code of `modules` or `readers`
    names outside its own definition."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    total = sum((_references(t) for t in trees.values()), Counter())
    total += sum((_references(ast.parse(source)) for source in readers), Counter())
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for qualname, d in defs:
                name = qualname.split(".")[-1]
                if not name.startswith("_") and name not in bound \
                        and total[name] == _references(d)[name]:
                    out.append(f"{module}.{qualname}")
    return sorted(out)


def test_every_public_name_of_the_library_is_reached():
    unreached = unreached_definitions({p.stem: p.read_text() for p in ALL_MODULES},
                                      [p.read_text() for p in READERS],
                                      bound_names(TRACING.read_text()))
    assert unreached == sorted(UNREACHED)


def test_the_check_finds_unreached_definitions():
    modules = {"cones": ("def dead(v):\n    return dead(v)\n"
                         "def used(v):\n    return v\n"
                         "def traced(v):\n    return v\n"
                         "class Cone:\n"
                         "    def rays(self):\n        return used(self)\n"
                         "    def _hidden(self):\n        return 0\n"
                         "def _private():\n    return Cone().rays\n"),
               "cli": "from .cones import dead\n"}
    tracing = "SPANS = {'cones.dd': [('cones', 'traced')]}\nOTHER = ['dead']\n"
    assert unreached_definitions(modules, [], bound_names(tracing)) == ["cones.dead"]
    assert unreached_definitions(modules, ["f = cones.dead"], bound_names(tracing)) == []

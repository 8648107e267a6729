"""Every name imported by the package and the tests is read somewhere in
the importing file.  Names listed in ``__all__`` count as read, and
``from __future__`` imports are skipped.  Every module-level name of the
package is read by some other statement of it, an import or ``__all__``
included, or is documented API (``DOCUMENTED_API``), so removing a helper's
last caller removes the helper too.  The package imports from scipy only
the banded LU routines and the verdict LP, each inside a function, so that
``import nlpflow`` loads no scipy."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/nlpflow/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scanner_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os, sys as system\n"
              "from math import pi, tau\nimport a.b\n__all__ = ['tau']\nprint(system, a.b)\n")
    assert unused_imports(source) == [(2, "os"), (3, "pi")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# public names the package itself never reads, each with where it is documented
DOCUMENTED_API = [
    ("src/nlpflow/problems.py", "check_derivatives"),   # README, demos/04
]


def reads(stmt):
    """The names a statement loads and the attribute names it reads, with
    the names it imports and those an ``__all__`` it assigns lists."""
    names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
             if isinstance(n, ast.Attribute)
             or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    if isinstance(stmt, ast.ImportFrom):
        names.update(alias.name for alias in stmt.names)
    elif isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
        names.update(ast.literal_eval(stmt.value))
    return names


def unreferenced_names(sources):
    """(file, name) of each module-level name other than a dunder that no
    other top-level statement of ``sources`` ({file: text}) reads; a helper
    that only calls itself counts as unreferenced."""
    defined, statements = [], []
    for file, source in sources.items():
        for stmt in ast.parse(source).body:
            statements.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            else:
                targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            defined += [(file, name, stmt) for name in names if not name.startswith("__")]
    read_by = [(stmt, reads(stmt)) for stmt in statements]
    return sorted((file, name) for file, name, stmt in defined
                  if not any(name in names for other, names in read_by if other is not stmt))


def package_sources():
    return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
            for p in sorted(ROOT.glob("src/nlpflow/*.py"))}


def test_scanner_finds_an_unreferenced_helper():
    sources = {"a.py": "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _f()\n"
                       "class _C:\n    pass\ndef g():\n    return _A\n",
               "b.py": "from a import g\nimport a\nprint(a._C)\n"}
    assert unreferenced_names(sources) == [("a.py", "_B"), ("a.py", "_f")]


def test_scanner_finds_an_unreferenced_public_name():
    # h is read through __all__, k through an import, m by another statement
    sources = {"a.py": "__all__ = ['h']\ndef h():\n    return m()\ndef k():\n    pass\n"
                       "def m():\n    pass\nclass Left:\n    pass\n"
                       "def flow_jacobian(res):\n    return flow_jacobian(res.rows)\n",
               "b.py": "from a import k\nVALUE = 1\n"}
    assert unreferenced_names(sources) == [("a.py", "Left"), ("a.py", "flow_jacobian"),
                                           ("b.py", "VALUE")]


def test_no_unreferenced_private_names():
    assert [(file, name) for file, name in unreferenced_names(package_sources())
            if name.startswith("_")] == []


def test_no_unreferenced_public_names():
    assert [(file, name) for file, name in unreferenced_names(package_sources())
            if not name.startswith("_")] == DOCUMENTED_API


def setattr_outside_post_init(source):
    """Lines of the ``object.__setattr__`` calls outside a ``__post_init__``.
    A frozen dataclass sets its own fields there; an attribute set anywhere
    else is one that ``dataclasses.replace`` drops."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
              for node in ast.walk(fn)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object" and id(node) not in inside]


def test_scanner_finds_a_setattr_outside_post_init():
    source = ("class A:\n    def __post_init__(self):\n        object.__setattr__(self, 'x', 1)\n"
              "def f(a):\n    object.__setattr__(a, 'y', 2)\n")
    assert setattr_outside_post_init(source) == [5]


def test_no_setattr_outside_post_init():
    assert {str(p.relative_to(ROOT)): setattr_outside_post_init(p.read_text(encoding="utf-8"))
            for p in FILES} == {str(p.relative_to(ROOT)): [] for p in FILES}


# scipy serves only the banded solves and the verdict LP; dense systems run on numpy
SCIPY_NAMES = {"scipy.linalg.lapack.dgbtrf", "scipy.linalg.lapack.dgbcon",
               "scipy.linalg.lapack.dgbtrs", "scipy.optimize.linprog"}


def scipy_imports(source):
    """(line, dotted name, inside a function body) of each name imported
    from scipy."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for stmt in fn.body for node in ast.walk(stmt)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [(node.lineno, name, id(node) in inside) for name in names
                  if name.split(".")[0] == "scipy"]
    return found


def test_scanner_finds_scipy_imports():
    source = ("import scipy.linalg\nfrom scipy.optimize import linprog\n"
              "def f():\n    from scipy.linalg.lapack import dgbtrf, dgetrf\n"
              "    import numpy, scipy\n    from . import scipy as x\n")
    assert scipy_imports(source) == [
        (1, "scipy.linalg", False), (2, "scipy.optimize.linprog", False),
        (4, "scipy.linalg.lapack.dgbtrf", True), (4, "scipy.linalg.lapack.dgetrf", True),
        (5, "scipy", True)]


def test_scipy_only_for_bands_and_the_verdict_lp():
    found = {str(p.relative_to(ROOT)): [(line, name) for line, name, local
                                          in scipy_imports(p.read_text(encoding="utf-8"))
                                          if name not in SCIPY_NAMES or not local]
             for p in sorted(ROOT.glob("src/nlpflow/*.py"))}
    assert found == {file: [] for file in found}

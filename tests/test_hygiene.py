"""Source hygiene: no module of the package or of the tests imports a name
it never uses, or holds a Cyrillic letter (such as the look-alike of the
composition sign that once stood for it), no toolkit module imports a
sibling, no package module imports anything outside the standard library
and the package itself, no package module holds an `assert` statement, which
`python -O` strips: its re-checks raise toolkit errors instead, and every
private top-level function or class of the package is named somewhere in
the package outside its own definition.

Package ``__init__.py`` files are skipped, because their imports are
re-exports.  A name counts as used when it appears as an identifier
anywhere in the module or inside a string annotation.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for pattern in ("src/cuspk/*.py", "tests/*.py")
                 for p in ROOT.glob(pattern) if p.name != "__init__.py")
PACKAGE = sorted((ROOT / "src" / "cuspk").glob("*.py"))
# each suite's module stands on the shared modules alone, so a suite loads
# only what it runs
TOOLKIT = ("wittlab", "cyclicbar", "simplicialx", "polytopelab")
SHARED = {"errors", "semigroup", "homlinalg", "exactlp"}


def imported_names(tree):
    """(bound name, line) of every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def used_names(tree):
    nodes = list(ast.walk(tree))
    for note in annotations(tree):
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            nodes += ast.walk(ast.parse(note.value, mode="eval"))
    return {node.id for node in nodes if isinstance(node, ast.Name)}


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree)
            if name not in used]


def test_scan_sees_the_sources():
    names = {p.name for p in SOURCES}
    assert {"wittlab.py", "cli.py", "test_hygiene.py"} <= names


def test_scan_flags_an_unused_import():
    source = ("from math import gcd, isqrt\nimport os.path\n"
              "import json as js\n\ndef f(x: 'Path') -> int:\n"
              "    return isqrt(x)\n")
    assert unused_imports(source) == [("gcd", 1), ("os", 2), ("js", 3)]
    assert unused_imports("from pathlib import Path\n" + source)[0] == ("gcd", 2)


def cyrillic(source):
    """(line, character) of every code point from U+0400 to U+04FF."""
    return [(n, ch) for n, line in enumerate(source.splitlines(), 1)
            for ch in line if "\u0400" <= ch <= "\u04ff"]


def test_scan_flags_a_cyrillic_letter():
    assert cyrillic("d \u2218 d\nd \u043e d = 0\n") == [(2, "\u043e")]


def package_imports(source):
    """(module, line) of every cuspk module a source imports, in the
    absolute (`cuspk.x`) and the relative (`.x`) form."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "cuspk" and rest:
                    yield rest.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                module = node.module
            elif node.level == 0 and node.module.split(".")[0] == "cuspk":
                module = node.module.partition(".")[2] or None
            else:
                continue
            if module is None:
                for alias in node.names:
                    yield alias.name, node.lineno
            else:
                yield module.split(".")[0], node.lineno


def sibling_imports(source):
    return [(name, line) for name, line in package_imports(source)
            if name not in SHARED]


def test_scan_flags_a_sibling_import():
    source = ("from .errors import CuspkError\nfrom .cyclicbar import bar_basis\n"
              "from cuspk.homlinalg import homology\nimport cuspk.wittlab\n"
              "from cuspk import semigroup, polytopelab\n"
              "from . import simplicialx\nfrom math import gcd\n")
    assert sibling_imports(source) == [("cyclicbar", 2), ("wittlab", 4),
                                       ("polytopelab", 5), ("simplicialx", 6)]


@pytest.mark.parametrize("name", TOOLKIT)
def test_toolkit_imports_only_shared_modules(name):
    source = (ROOT / "src" / "cuspk" / f"{name}.py").read_text(encoding="utf-8")
    assert sibling_imports(source) == []


def foreign_imports(source):
    """(module, line) of every import of a top-level module that is
    neither in the standard library nor `cuspk`; relative imports are the
    package's own."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        else:
            continue
        for top in tops:
            if top != "cuspk" and top not in sys.stdlib_module_names:
                yield top, node.lineno


def test_scan_flags_a_foreign_import():
    source = ("from __future__ import annotations\nimport os.path, mpmath\n"
              "from .errors import CuspkError\nfrom cuspk.semigroup import ell\n"
              "from numpy.linalg import norm\nimport cuspk.exactlp\n"
              "from fractions import Fraction\n")
    assert list(foreign_imports(source)) == [("mpmath", 2), ("numpy", 5)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_package_imports_only_the_standard_library(path):
    # the package installs with no dependency, so a command runs wherever
    # Python does; mpmath is a test-only oracle
    assert list(foreign_imports(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_cyrillic(path):
    assert cyrillic(path.read_text(encoding="utf-8")) == []


def assert_lines(source):
    """Line of every `assert` statement."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_scan_flags_an_assert():
    source = ("def f(x):\n    assert x > 0\n    if x < 0:\n"
              "        raise ValueError('assert x')\n    assert (x,\n        1)\n")
    assert assert_lines(source) == [2, 5]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_assert(path):
    # a re-check that `python -O` strips leaves a certificate unchecked, and
    # a failing one is an AssertionError, which no sweep turns into a row
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def identifiers(node):
    """Names, attribute names and string-annotation names under a node."""
    nodes = list(ast.walk(node))
    for note in annotations(node):
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            nodes += ast.walk(ast.parse(note.value, mode="eval"))
    for sub in nodes:
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unnamed_private(sources):
    """(module, name, line) of every private top-level function or class
    of the {module: source} map that no module names, a definition's own
    body (recursion) not counting."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    named = set()
    defined = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            named.update(n for n in identifiers(stmt) if n != own)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and stmt.name.startswith("_") \
                    and not stmt.name.startswith("__"):
                defined.append((mod, stmt.name, stmt.lineno))
    return [d for d in defined if d[1] not in named]


def test_scan_flags_an_unnamed_private_helper():
    sources = {
        "a": ("def _used():\n    return 1\n\n"
              "def _unused():\n    return _used()\n\n"
              "def _self(n):\n    return _self(n - 1) if n else 0\n\n"
              "class _Cls:\n    pass\n\n"
              "def __getattr__(name):\n    return name\n"),
        "b": ("from a import _Cls, _self\nimport a\n\n"
              "def f() -> '_Cls':\n    return a._used()\n"),
    }
    assert unnamed_private(sources) == [("a", "_unused", 4), ("a", "_self", 7)]


def test_every_private_helper_is_named():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unnamed_private(sources) == []

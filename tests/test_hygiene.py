"""Source hygiene: no module of the package or of the tests imports a name
it never uses, or holds a Cyrillic letter (such as the look-alike of the
composition sign that once stood for it), no toolkit module imports a
sibling, no package module imports anything outside the standard library
and the package itself, no package module holds an `assert` statement, which
`python -O` strips: its re-checks raise toolkit errors instead, no package
module reads an environment variable, so a command is configured by its
arguments alone, and every top-level function or class of the package, and every public method, is
named somewhere in the package outside its own definition: the package
keeps only what its commands run.  The names that `perfbench/tracer.py`
wraps are exempt, since the tracer needs them to exist.  Every subclass
of `CuspkError` in `errors.py` is raised somewhere in the package, so an
error class that nothing raises any more leaves with its last raise.

Package ``__init__.py`` files are skipped, because their imports are
re-exports.  A name counts as used when it appears as an identifier
anywhere in the module or inside a string annotation.
"""

import ast
import sys
from collections import Counter
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


ENVIRON = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source):
    """(name, line) of every read of the environment: an `environ` or
    `getenv` attribute of a name bound to `os`, or either name imported
    from `os`, sorted by line."""
    tree = ast.parse(source)
    aliases = {alias.asname or "os" for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name.split(".")[0] == "os"
               and (alias.asname is None or alias.name == "os")}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRON \
                and isinstance(node.value, ast.Name) and node.value.id in aliases:
            found.append((f"{node.value.id}.{node.attr}", node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(alias.name, node.lineno) for alias in node.names
                      if alias.name in ENVIRON]
    return sorted(found, key=lambda hit: hit[1])


def test_scan_flags_an_environment_read():
    source = ("import os\nimport os as system\nimport os.path\n"
              "from os import environ, path\nfrom os import getenv as ge\n"
              "jobs = os.environ.get('JOBS', '1')\nhome = system.getenv('HOME')\n"
              "cwd = os.getcwd()\nname = os.path.join('os.environ', path.sep)\n")
    assert environment_reads(source) == [("environ", 4), ("getenv", 5),
                                         ("os.environ", 6), ("system.getenv", 7)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_environment_read(path):
    assert environment_reads(path.read_text(encoding="utf-8")) == []


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


def test_every_tracer_target_exists():
    # perfbench/tracer.py wraps these by name and install() calls getattr
    # on each, so removing one breaks every traced benchmark run; the
    # source is executed from its text, so nothing is written beside it
    path = ROOT / "perfbench" / "tracer.py"
    tracer = {"__name__": "tracer"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer)
    targets = tracer["_targets"]()
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in targets if not hasattr(owner, attr)]
    assert targets and missing == []


def tracer_targets():
    """(module, qualified name) of every name that perfbench/tracer.py wraps;
    the source is executed from its text, as above."""
    path = ROOT / "perfbench" / "tracer.py"
    tracer = {"__name__": "tracer"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer)
    out = set()
    for owner, attr, _, _ in tracer["_targets"]():
        if isinstance(owner, type):
            out.add((owner.__module__.rpartition(".")[2], f"{owner.__name__}.{attr}"))
        else:
            out.add((owner.__name__.rpartition(".")[2], attr))
    return out


def public(name):
    return not name.startswith("_")


def attribute_names(node):
    return (sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def unnamed_public(sources, exempt=frozenset()):
    """(module, qualified name, line) of every public top-level function or
    class, and every public method of a top-level class, of the {module:
    source} map that no module names outside the definition itself, the
    (module, qualified name) pairs of exempt aside.  A method counts as
    named only where an attribute reads it: a local variable of the same
    name is no call."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    names = Counter(n for tree in trees.values() for n in identifiers(tree))
    attrs = Counter(n for tree in trees.values() for n in attribute_names(tree))
    defined = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if public(stmt.name):
                defined.append((mod, stmt.name, stmt, names, identifiers))
            if isinstance(stmt, ast.ClassDef):
                defined += [(mod, f"{stmt.name}.{sub.name}", sub, attrs, attribute_names)
                            for sub in stmt.body
                            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and public(sub.name)]
    return [(mod, qualname, node.lineno)
            for mod, qualname, node, seen, scan in defined
            if seen[node.name] - Counter(scan(node))[node.name] <= 0
            and (mod, qualname) not in exempt]


def test_scan_flags_an_unnamed_public_name():
    sources = {
        "a": ("def used():\n    return 1\n\n"
              "def unused():\n    return used()\n\n"
              "def self_only(n):\n    return self_only(n - 1) if n else 0\n\n"
              "class Cls:\n    def run(self):\n        return self.helper()\n\n"
              "    def helper(self):\n        return 0\n\n"
              "    def idle(self):\n        return self.idle()\n\n"
              "    def shadowed(self):\n        return 0\n\n"
              "    def _private(self):\n        return 0\n\n"
              "    def __len__(self):\n        return 0\n\n"
              "def traced():\n    return 0\n"),
        "b": ("from a import Cls\n\ndef main() -> 'Cls':\n"
              "    shadowed = Cls().run()\n    return shadowed\n"),
    }
    assert unnamed_public(sources, {("a", "traced")}) == [
        ("a", "unused", 4), ("a", "self_only", 7), ("a", "Cls.idle", 17),
        ("a", "Cls.shadowed", 20), ("b", "main", 3)]


def test_every_public_name_is_named():
    # generator_cycle is the degree-2 generator of the rank-one regime,
    # which the acceptance tests check; no suite reports it yet
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    exempt = tracer_targets() | {("simplicialx", "generator_cycle")}
    assert unnamed_public(sources, exempt) == []


def unraised_errors(errors_source, sources, base="CuspkError"):
    """(name, line) of every class of errors_source that derives from base,
    directly or through another such class, and that no `raise` statement
    of the sources names, called or bare, as a name or as an attribute."""
    derived, found = {base}, []
    for stmt in ast.parse(errors_source).body:
        if isinstance(stmt, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in derived for b in stmt.bases):
            derived.add(stmt.name)
            found.append((stmt.name, stmt.lineno))
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return [(name, line) for name, line in found if name not in raised]


def test_scan_flags_an_unraised_error_class():
    errors = ("class Base(Exception):\n    pass\n\n"
              "class Called(Base):\n    pass\n\n"
              "class Bare(Called):\n    pass\n\n"
              "class Caught(Base):\n    pass\n\n"
              "class Other(ValueError):\n    pass\n")
    source = ("import errors\nfrom errors import Called, Caught\n\n"
              "def f(x):\n    try:\n        raise Called('x')\n"
              "    except Caught:\n        raise errors.Bare from None\n")
    assert unraised_errors(errors, [source], base="Base") == [("Caught", 10)]
    assert unraised_errors(errors, [], base="Base") == [
        ("Called", 4), ("Bare", 7), ("Caught", 10)]


def test_every_error_class_is_raised():
    errors = (ROOT / "src" / "cuspk" / "errors.py").read_text(encoding="utf-8")
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE]
    assert unraised_errors(errors, sources) == []

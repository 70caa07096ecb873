"""Lint: no module of the package or of the tests imports a name it never
uses, and no private helper or public method of the package is left without
a caller.

Both checks are AST scans.  A name bound by ``import`` or
``from ... import`` counts as used when it appears as a ``Name`` anywhere in
the module; a name used only inside a quoted annotation does not count.
Package ``__init__`` modules re-export their imports, so they are exempt,
and so is ``from __future__ import ...``.  A private helper is a top-level
function or class, or a method of a top-level class, whose name starts with
``_`` and is not a dunder; it counts as referenced when its name appears as
a ``Name``, an attribute or an imported name anywhere in ``src/`` or
``tests/``.  A public method of a top-level class, whose name has no leading
``_``, must be referenced the same way, except that a method that is not a
property and whose name is also assigned as an attribute somewhere
(``self.cells = ...``) counts as referenced only by a call ``x.name(...)``:
reading the attribute says nothing of the method.  A top-level public
function may be API that only the package namespace exports, so it is not
scanned.  What the package namespace exports (``orbitrewire.__all__``,
submodules aside) must be referenced the same way by a package module other
than ``__init__``, or be imported by the acceptance tests: no export serves
the unit tests alone.
The coded errors of the certified bounds are raised in ``certify.py`` alone,
so each bound is stated in one place.
"""

import ast
import types
from pathlib import Path

import pytest

import orbitrewire

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "orbitrewire").glob("*.py"))
ALL_FILES = [*PACKAGE, *sorted((ROOT / "tests").glob("*.py"))]
MODULES = [p for p in ALL_FILES if p.name != "__init__.py"]


def imported_names(tree: ast.Module) -> dict[str, int]:
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_helpers(tree: ast.Module) -> dict[str, int]:
    """Private top-level functions and classes, and private methods of
    top-level classes, by name (``Class.method`` for methods)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = {}
    for node in tree.body:
        if isinstance(node, defs) and _is_private(node.name):
            out[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and _is_private(item.name):
                    out[f"{node.name}.{item.name}"] = item.lineno
    return out


def referenced_names(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


PROPERTY_DECORATORS = {"property", "cached_property", "setter"}


def public_methods(tree: ast.Module) -> dict[str, tuple[int, bool]]:
    """Public methods of top-level classes, as ``Class.method``: their line
    and whether they are properties."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    prop = any((d.id if isinstance(d, ast.Name) else getattr(d, "attr", None))
                               in PROPERTY_DECORATORS for d in item.decorator_list)
                    out[f"{node.name}.{item.name}"] = item.lineno, prop
    return out


def name_uses(trees: list[ast.Module]) -> tuple[set[str], set[str], set[str]]:
    """Over ``trees``: the referenced names, the attribute names called as
    ``x.name(...)``, and those assigned as ``x.name = ...``."""
    references, called, assigned = set(), set(), set()
    for tree in trees:
        references |= referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                assigned.add(node.attr)
    return references, called, assigned


def uncalled_methods(tree: ast.Module, uses) -> list[tuple[int, str]]:
    """(line, ``Class.method``) of the public methods of ``tree`` that the
    ``name_uses`` ``uses`` do not reference."""
    references, called, assigned = uses
    dead = []
    for name, (line, prop) in public_methods(tree).items():
        method = name.rpartition(".")[2]
        if method not in (called if method in assigned and not prop else references):
            dead.append((line, name))
    return sorted(dead)


@pytest.fixture(scope="module")
def uses() -> tuple[set[str], set[str], set[str]]:
    return name_uses([ast.parse(path.read_text(encoding="utf-8")) for path in ALL_FILES])


@pytest.fixture(scope="module")
def references(uses) -> set[str]:
    return uses[0]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_dead_private_helpers(path, references):
    helpers = private_helpers(ast.parse(path.read_text(encoding="utf-8")))
    dead = sorted((line, name) for name, line in helpers.items()
                  if name.rpartition(".")[2] not in references)
    assert not dead, f"{path.name}: private helpers nothing references " + ", ".join(
        f"{name} (line {line})" for line, name in dead)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_uncalled_public_methods(path, uses):
    dead = uncalled_methods(ast.parse(path.read_text(encoding="utf-8")), uses)
    assert not dead, f"{path.name}: public methods nothing references " + ", ".join(
        f"{name} (line {line})" for line, name in dead)


LABELING_CELLS = """
class Labeling:
    def cells(self):
        return [self.codes == a for a in range(len(self.alphabet))]

    @property
    def size(self):
        return len(self.codes)
"""

ORACLE_WITH_CELLS = """
class Oracle:
    def __init__(self, phi):
        self.cells = [phi.codes == a for a in range(3)]
        self.size = phi.size
"""


def test_a_method_named_like_an_assigned_attribute_needs_a_call():
    # Labeling.cells once passed only because an unrelated oracle assigned
    # self.cells; the property size is read, not called, and stays referenced
    labeling, oracle = ast.parse(LABELING_CELLS), ast.parse(ORACLE_WITH_CELLS)
    assert uncalled_methods(labeling, name_uses([labeling, oracle])) == [(3, "Labeling.cells")]
    caller = ast.parse("def use(phi):\n    return phi.cells()\n")
    assert uncalled_methods(labeling, name_uses([labeling, oracle, caller])) == []


def test_every_export_has_a_caller_or_an_acceptance_test():
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    used = set(imported_names(acceptance))
    for path in PACKAGE:
        if path.name != "__init__.py":
            used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    exports = [name for name in orbitrewire.__all__
               if not isinstance(getattr(orbitrewire, name), types.ModuleType)]
    unused = sorted(set(exports) - used)
    assert not unused, "exports without a caller or an acceptance test: " + ", ".join(unused)


CERTIFIED_ERRORS = {"BudgetViolated", "DefectBoundViolated", "FinalDiscrepancyExceeded",
                    "CoverageBelowFloor"}


def raised_names(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every ``raise Name`` or ``raise Name(...)``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.append((node.lineno, exc.id))
    return out


def test_certified_bounds_are_raised_only_in_certify():
    stray = [f"{path.name}:{line} raises {name}" for path in PACKAGE if path.name != "certify.py"
             for line, name in sorted(raised_names(ast.parse(path.read_text(encoding="utf-8"))))
             if name in CERTIFIED_ERRORS]
    assert not stray, "certified bounds raised outside certify.py: " + ", ".join(stray)

"""The package's public surface: every public name serves the library or its
tools, and the package's re-export list is the one list of re-exports.

A public name is a module-level function or class of src/teleportsim/*.py
whose name does not start with an underscore. Each must be named somewhere
outside its own definition: in another part of src/, in perfbench/ (its own
tests excluded), in tools/ or in README.md. A re-export in __init__.py does
not count, and neither do the tests, so a helper that only tests call fails
here and belongs in the tests. The same holds for each public method and
property of a public class.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

import teleportsim

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "teleportsim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _definitions(path):
    """(name, first line, last line) of each public module-level def or class, 1-based."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno


def _elsewhere():
    """The text of every non-test file outside src/ that may name a public name."""
    files = [ROOT / "README.md", *sorted((ROOT / "tools").glob("*.py"))]
    files += [p for p in sorted((ROOT / "perfbench").rglob("*.py")) if "tests" not in p.relative_to(ROOT).parts]
    return "\n".join(p.read_text() for p in files)


PUBLIC = [(path, *d) for path in MODULES for d in _definitions(path)]


@pytest.mark.parametrize("path,name,first,last", PUBLIC, ids=[f"{p.stem}.{n}" for p, n, _, _ in PUBLIC])
def test_every_public_name_is_used_outside_its_definition(path, name, first, last):
    lines = path.read_text().splitlines()
    own = "\n".join(lines[: first - 1] + lines[last:])
    others = "\n".join(p.read_text() for p in MODULES if p != path)
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    assert pattern.search("\n".join([own, others, _elsewhere()])), (
        f"{path.stem}.{name} is named only in its own definition, __init__.py or the tests"
    )


def _members(path):
    """(class, name, first line, last line, is a property) of each public method of a public class."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    prop = any(isinstance(d, ast.Name) and d.id == "property" for d in item.decorator_list)
                    yield node.name, item.name, first, item.end_lineno, prop


MEMBERS = [(path, *m) for path in MODULES for m in _members(path)]


@pytest.mark.parametrize(
    "path,cls,name,first,last,prop", MEMBERS, ids=[f"{p.stem}.{c}.{n}" for p, c, n, _, _, _ in MEMBERS]
)
def test_every_public_method_is_used_outside_its_definition(path, cls, name, first, last, prop):
    """A method is named as an attribute, .name; a property is read as one, so
    .name followed by a call, such as tuple.index(...), does not count for it."""
    lines = path.read_text().splitlines()
    own = "\n".join(lines[: first - 1] + lines[last:])
    others = "\n".join(p.read_text() for p in MODULES if p != path)
    pattern = re.compile(rf"\.{re.escape(name)}\b" + (r"(?!\s*\()" if prop else ""))
    assert pattern.search("\n".join([own, others, _elsewhere()])), (
        f"{path.stem}.{cls}.{name} is named only in its own definition or the tests"
    )


def _reexports():
    """(module, name, bound name) of every import in __init__.py."""
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


REEXPORTS = list(_reexports())


@pytest.mark.parametrize("module,name,bound", REEXPORTS, ids=[b for _, _, b in REEXPORTS])
def test_reexport_is_the_module_attribute(module, name, bound):
    assert getattr(teleportsim, bound) is getattr(importlib.import_module(f"teleportsim.{module}"), name)


def test_import_list_is_the_one_list_of_reexports():
    """No __all__, and every public non-module attribute of the package is imported in __init__.py."""
    assert not hasattr(teleportsim, "__all__")
    public = {
        name for name, value in vars(teleportsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {bound for _, _, bound in REEXPORTS}

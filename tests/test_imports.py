"""Package structure: a module's private names stay inside it, every
exported name exists, and the package never reaches into the tests."""
import ast
import importlib
import pathlib

import pytest

import sechprolate

PACKAGE = pathlib.Path(sechprolate.__file__).parent
ORACLES = pathlib.Path(__file__).parent / "oracles"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def imports(path):
    return [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def private_names(path, reaches_into):
    """'file:line: name' for each private name that an import of path takes
    from a module that reaches_into(node) says is another one's."""
    return [f"{path.name}:{node.lineno}: {alias.name}"
            for node in imports(path)
            if isinstance(node, ast.ImportFrom) and reaches_into(node)
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


def test_no_module_imports_another_modules_private_name():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += private_names(path, lambda node: node.level > 0)
    assert not found, found


def test_no_oracle_imports_a_private_name():
    """The oracles use the package and each other through public names only,
    also by absolute `from sechprolate.x import _name`."""
    found = []
    for path in sorted(ORACLES.glob("*.py")):
        found += private_names(path, lambda node: node.level > 0 or (
            node.module or "").split(".")[0] == "sechprolate")
    assert not found, found


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_every_exported_name_exists(name):
    module = (sechprolate if name == "__init__"
              else importlib.import_module(f"sechprolate.{name}"))
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


def test_no_package_module_imports_the_tests():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in imports(path):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module or ""] if node.level == 0 else [])
            found += [f"{path.name}:{node.lineno}: {n}" for n in names
                      if n.split(".")[0] in ("oracles", "tests")]
    assert not found, found

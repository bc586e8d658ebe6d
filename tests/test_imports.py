"""Package structure: a module's private names stay inside it."""
import ast
import pathlib

import sechprolate

PACKAGE = pathlib.Path(sechprolate.__file__).parent


def test_no_module_imports_another_modules_private_name():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}:{node.lineno}: {alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")
                          and not alias.name.endswith("__")]
    assert not found, found

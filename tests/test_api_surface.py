"""Every public name of the package is used by the library, the benchmark or the tools."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tensorstep"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name
                  for node in tree.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def names_used_in_code():
    """``ast.Name`` ids and ``ast.Attribute`` attrs outside the package's ``__init__``."""
    files = [f for f in PACKAGE.glob("*.py") if f.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").rglob("*.py")) + sorted((ROOT / "tools").rglob("*.py"))
    used = set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


USED = names_used_in_code()


@pytest.mark.parametrize("name", exported_names())
def test_export_is_used_outside_the_tests(name):
    assert name in USED, f"{name} is exported but only the tests use it"

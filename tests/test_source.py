"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "fedsim"
# __init__.py imports to re-export, so its names are used by its importers
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module):
    """Names bound by the module's imports that no expression reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import inspect\nimport os\nfrom typing import Optional, "
                     "List\n\ndef f(x: List[int]):\n    return os.sep\n")
    assert unused_imports(tree) == [(1, "inspect"), (3, "Optional")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []

"""Static checks on the package source."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "fedsim"
# __init__.py imports to re-export, so its names are used by its importers
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# lines of src/fedsim/*.py (as ``wc -l`` counts them) that the package may
# not exceed; a change that leaves fewer lines lowers it
SOURCE_LINES = 3398


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


def unresolved_imports(tree: ast.Module):
    """``module.name`` for each ``from fedsim... import name`` whose module
    has no such attribute."""
    return [f"{node.module}.{alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "fedsim"
            for alias in node.names
            if not hasattr(importlib.import_module(node.module), alias.name)]


def test_the_check_sees_a_stranded_import():
    tree = ast.parse("import os\nfrom fedsim.diagnostics import (\n"
                     "    norm_bound_sweep, TransferMatrix)\n"
                     "from fedsim import Quadratic\n")
    assert unresolved_imports(tree) == ["fedsim.diagnostics.TransferMatrix"]


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    assert unresolved_imports(ast.parse(path.read_text())) == []


def test_a_mistyped_marker_fails_collection(tmp_path):
    """Under the project's pytest settings a marker that is not registered,
    such as ``slwo`` for ``slow``, is an error, not a warning that lets the
    test run under ``-m "not slow"``."""
    test = tmp_path / "test_typo.py"
    test.write_text("import pytest\n\n@pytest.mark.slwo\ndef test_x():\n"
                    "    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(test)],
        capture_output=True, text=True, timeout=120)
    assert run.returncode != 0
    assert "'slwo' not found in `markers`" in run.stdout + run.stderr


def test_source_size_ratchet():
    lines = sum(p.read_text().count("\n") for p in SOURCE.glob("*.py"))
    assert lines <= SOURCE_LINES, \
        f"src/fedsim has {lines} lines, more than the {SOURCE_LINES} allowed"


def test_readme_artifact_columns_are_the_csv_headers():
    """README's "Artifacts" section lists each file's columns as its CSV
    header writes them."""
    from fedsim.harness import RECORD_HEADER, SWEEP_HEADER

    section = (ROOT / "README.md").read_text().split("### Artifacts", 1)[1]
    section = section.split("\n### ", 1)[0]
    columns = re.findall(r"^- `(\w+)\.csv` / `\1\.json`:[^`]*`([^`]+)`",
                         section, re.M)
    assert columns == [("records", RECORD_HEADER), ("sweep", SWEEP_HEADER)]

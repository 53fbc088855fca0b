"""The dependency list in pyproject.toml is what the code imports, no more and no less."""

import ast
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent


def _third_party(paths):
    """Top-level names the files import, counting ``importorskip`` arguments,
    less the standard library and first-party names."""
    first_party = {"hankelbody"} | {path.stem for path in TESTS.glob("*.py")}
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "importorskip"):
                names.add(node.args[0].value)
    return {name.split(".")[0] for name in names} - set(sys.stdlib_module_names) - first_party


def _requirement_names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in requirements}


def test_pyproject_lists_what_the_code_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    runtime = _requirement_names(project["dependencies"])
    test_extra = _requirement_names(project["optional-dependencies"]["test"])
    assert runtime == {"numpy"}
    assert _third_party((REPO / "src" / "hankelbody").glob("*.py")) == runtime
    assert _third_party(TESTS.glob("*.py")) == runtime | test_extra

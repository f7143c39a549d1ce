"""Static checks on the package source that need no linter installed."""

import ast
from pathlib import Path

import pytest

import padic_forms

SRC = Path(padic_forms.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module, lines: list[str]) -> dict:
    """Name bound by each import statement -> its line, skipping
    statements marked `# noqa: F401`."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name == "annotations" and getattr(node, "module", None) == "__future__":
                continue
            name = alias.asname or alias.name.split(".")[0]
            out[name] = node.lineno
    return out


def _used(tree: ast.Module) -> set:
    """Every name read in the module, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg | ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            annotations.append(node.returns)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"engine.py", "flat.py", "solver.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    text = path.read_text()
    tree = ast.parse(text)
    unused = {name: line for name, line in _imported(tree, text.splitlines()).items()
              if name not in _used(tree)}
    assert not unused, f"{path.name}: imported but never used: {unused}"

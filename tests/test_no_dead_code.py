"""Every function, class and method in ``src/hqoc`` is used in ``src/`` or ``tests/``."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hqoc"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions():
    """(label, path, node) of each top-level function and class, and of each class method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                yield node.name, path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    # dunder methods are called by the language, not by name
                    if isinstance(item, FUNCTIONS) and not item.name.startswith("__"):
                        yield f"{node.name}.{item.name}", path, item


def references():
    """name -> [(path, line)] of each name, attribute and import in the code (not comments)."""
    refs = defaultdict(list)
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs[node.attr].append((path, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    refs[alias.name].append((path, node.lineno))
    return refs


def test_every_definition_is_used():
    refs = references()
    unused = [
        f"{path.name}: {label}"
        for label, path, node in definitions()
        if all(p == path and node.lineno <= i <= node.end_lineno for p, i in refs[node.name])
    ]
    assert unused == []

"""Every name a virtres module imports is used in that module, and every
private function or method is used somewhere in the package."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "virtres"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds the name a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and methods that no code outside their
    own body refers to, as "file:name" for each {file: source}."""
    defs = []  # (file, node)
    refs: Counter = Counter()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            scope = node.body if isinstance(node, ast.ClassDef) else [node]
            for d in scope:
                if (
                    isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and d.name.startswith("_")
                    and not d.name.endswith("__")
                ):
                    defs.append((name, d))
        refs.update(_referenced_names(tree))
    return [
        f"{name}:{d.name}"
        for name, d in defs
        if refs[d.name] - sum(_referenced_names(s)[d.name] for s in d.body) == 0
    ]


def _referenced_names(tree: ast.AST) -> Counter:
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import Any, Sequence\nx: Sequence") == [
        "os (line 1)",
        "Any (line 2)",
    ]


def test_no_unreferenced_private_code():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


def test_guard_sees_unreferenced_private_code():
    a = (
        "def _used():\n    pass\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class C:\n    def _orphan(self):\n        pass\n"
        "    def _called(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n"
    )
    b = "from a import _used\nC()._called()\n"
    assert unreferenced_private_defs({"a.py": a, "b.py": b}) == ["a.py:_recursive", "a.py:_orphan"]

"""No module under src/ or tests/ imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing in the module reads.
    ``from __future__`` imports and ``*`` imports bind nothing to check."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_checker_finds_an_unused_import():
    src = "import os\nimport sys\nfrom a import b, c as d\nprint(sys, d)\n"
    assert unused_imports(src) == ["line 1: os", "line 3: b"]


def test_no_unused_imports():
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        bad = unused_imports(path.read_text(encoding="utf-8"))
        if bad:
            found[str(path.relative_to(ROOT))] = bad
    assert not found, found

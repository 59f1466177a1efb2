"""No function under src/ takes a binder depth.

A bound variable of a canonical node is an index, so a canonical node is
canonical wherever it sits, and no pass that steps, moves or
canonicalises a node needs to know how many binders are above it.  This
test fails when a function or lambda under ``src/addlam`` takes a
parameter whose name says it is a depth, or when ``relevel`` or
``_POSITIONAL``, the machinery of the level-named binders that indices
replaced, is defined again.  The allowlist names each function that may
take a depth, with its reason."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "addlam"

ALLOWED = {
    "corpus.random_term": "its depth bounds the nesting of a generated term, not a binder depth",
    "corpus.random_type": "its depth bounds the nesting of a generated type, not a binder depth",
}
GONE = ("relevel", "_POSITIONAL")


def offences(package: Path) -> tuple[list[str], set[str]]:
    """Each function of the modules in package that takes a depth or
    defines a name of GONE, as ``module.function: what``, and the
    functions that take a depth whatever the allowlist says."""
    found, takers = [], set()

    def visit(node: ast.AST, where: str):
        for child in ast.iter_child_nodes(node):
            name = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{where}.{getattr(child, 'name', '<lambda>')}"
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
                if any("depth" in p for p in params):
                    takers.add(name)
                    if name not in ALLOWED:
                        found.append(f"{name}: takes a depth")
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name in GONE:
                found.append(f"{where}.{child.name}: defined")
            if isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                found.extend(f"{where}.{t.id}: defined" for t in targets
                             if isinstance(t, ast.Name) and t.id in GONE)
            visit(child, name)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found, takers


def test_no_function_takes_a_binder_depth():
    found, takers = offences(PACKAGE)
    assert not found, found
    # an allowlist entry that nothing needs any more goes
    assert takers == set(ALLOWED), takers

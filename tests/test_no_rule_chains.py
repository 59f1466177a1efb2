"""No function under src/ re-lists the typing rules.

Each system's rule table (rule -> premise count, fields, constructor) is
the one place that knows a rule's fields, and ``System.rebuild`` builds a
node of any system again through it, in its own system or in another.
So a function that compares a node's ``.rule`` with five or more
derivation rule names is a per-rule chain that the table should replace.
This test fails when a function under ``src/addlam`` does; the allowlist
names each function that may, with its reason."""

import ast
from pathlib import Path

from addlam.derivation import ADD
from addlam.structured import SADD
from addlam.sysf import F

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "addlam"

RULES = set(ADD.rules) | set(SADD.rules) | set(F.rules)
LIMIT = 5

ALLOWED = {
    "translation._trans_node": "it gives the F construction of each rule, which no rule table holds",
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _is_rule(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "rule"


def _names(node: ast.AST) -> set[str]:
    """The rule names among the string constants node is or lists."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.Constant) and node.value in RULES:
        return {node.value}
    return set()


def _compared(fn: ast.AST) -> set[str]:
    """The rule names that fn's own body compares a ``.rule`` with, in a
    comparison or a match statement; nested functions are their own."""
    out, todo = set(), list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, _SCOPES):
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_rule, operands)):
                out |= set().union(*map(_names, operands))
        elif isinstance(node, ast.Match) and _is_rule(node.subject):
            out |= {p.value.value for p in ast.walk(node) if isinstance(p, ast.MatchValue)
                    and isinstance(p.value, ast.Constant) and p.value.value in RULES}
        todo.extend(ast.iter_child_nodes(node))
    return out


def chains(source: str, module: str) -> dict[str, set[str]]:
    """Each function of source that compares ``.rule`` with LIMIT or more
    rule names, as ``module.function``, with the names it compares."""
    found = {}

    def visit(node: ast.AST, where: str):
        for child in ast.iter_child_nodes(node):
            name = where
            if isinstance(child, _SCOPES):
                name = f"{where}.{getattr(child, 'name', '<lambda>')}"
                if not isinstance(child, ast.ClassDef) and len(names := _compared(child)) >= LIMIT:
                    found[name] = names
            visit(child, name)

    visit(ast.parse(source), module)
    return found


def test_no_function_re_lists_the_rules():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found.update(chains(path.read_text(encoding="utf-8"), path.stem))
    assert not set(found) - set(ALLOWED), {k: sorted(v) for k, v in found.items() if k not in ALLOWED}
    # an allowlist entry that nothing needs any more goes
    assert set(found) == set(ALLOWED), set(found)


def test_a_chain_is_found_in_comparisons_and_in_match_statements():
    source = '''
def chain(d):
    if d.rule == "ax":
        return 0
    if d.rule in ("ax0", "arrI"):
        return 1
    return 2 if "plusI" == d.rule else {"forallI": 3}.get(d.rule, d.rule != "arrE")

def short(d):
    def inner(n):
        return n.rule in ("forallI", "forallE")
    return d.rule in ("ax", "ax0", "arrI") or inner(d)

def matched(d):
    match d.rule:
        case "Ax" | "UnitI":
            return 0
        case "ArrI" | "ArrE" | "ProdI":
            return 1
'''
    assert chains(source, "m") == {"m.chain": {"ax", "ax0", "arrI", "arrE", "plusI"},
                                   "m.matched": {"Ax", "UnitI", "ArrI", "ArrE", "ProdI"}}

"""Every top-level function and class under src/ is reachable from the
program's entry point, ``cli.main``, or is allowlisted here with the reason
it stays."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "addlam"
ENTRY = "cli.main"

# Unreached on purpose: each stays for the reason given.
ALLOWED = {
    "translation.equiv_coercion": "the coercion between equivalent rigid types; a simulation "
                                  "of a step that changes the rigid type is to check it",
    "translation.CoercionUnsupported": "what equiv_coercion raises on a pair it cannot coerce",
    "structured.sadd_to_add": "the converse of add_to_sadd; test_structured checks with it "
                              "that conversion keeps the sequent, which no suite checks",
}

_DEF = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreached(sources: dict[str, str], entry: str) -> list[str]:
    """``module.name`` of each top-level def or class of the modules in
    sources (module name -> source) that nothing reaches from entry or from
    a module-level statement.  A bare name resolves through its module's
    top-level definitions and ``from .m import x`` lines.  An attribute, or
    a string constant (as ``getattr`` takes), reaches the methods of that
    name of the classes reached; a reached class reaches its dunders."""
    defs: dict[str, dict[str, ast.AST]] = {}
    imports: dict[str, dict[str, tuple[str, str]]] = {}
    todo: list[tuple[str, ast.AST]] = []
    for m, src in sources.items():
        defs[m], imports[m] = {}, {}
        for node in ast.parse(src).body:
            if isinstance(node, _DEF):
                defs[m][node.name] = node
                continue
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    imports[m][a.asname or a.name] = (node.module, a.name)
            todo.append((m, node))

    def resolve(m: str, name: str):
        for _ in range(len(sources) + 1):  # an import cycle resolves to nothing
            if m not in defs:
                return None
            if name in defs[m]:
                return m, name
            if name not in imports[m]:
                return None
            m, name = imports[m][name]
        return None

    reached: set[tuple[str, str]] = set()
    methods: list[tuple[str, ast.AST]] = []  # of reached classes, not yet scanned
    attrs: set[str] = set()

    def reach(m: str, name: str):
        if (m, name) in reached:
            return
        reached.add((m, name))
        node = defs[m][name]
        if not isinstance(node, ast.ClassDef):
            todo.append((m, node))
            return
        todo.extend((m, n) for n in node.decorator_list + node.bases + node.keywords)
        for n in node.body:
            (methods if isinstance(n, _DEF) else todo).append((m, n))

    m, name = entry.split(".")
    reach(m, name)
    while todo:
        while todo:
            m, node = todo.pop()
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and (hit := resolve(m, n.id)):
                    reach(*hit)
                elif isinstance(n, ast.Attribute):
                    attrs.add(n.attr)
                elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                    attrs.add(n.value)
        waiting = []
        for m, fn in methods:
            called = fn.name in attrs or (fn.name.startswith("__") and fn.name.endswith("__"))
            (todo if called else waiting).append((m, fn))
        methods = waiting
    return sorted(f"{m}.{n}" for m in defs for n in defs[m] if (m, n) not in reached)


def test_the_scan_finds_what_nothing_reaches():
    sources = {
        "a": "from .b import helper\n"
             "BOX = Box()\n"
             "def main():\n    return helper().go()\n"
             "def dead():\n    return dead()\n"
             "class Box:\n    def __init__(self):\n        pass\n",
        "b": "def helper():\n    return K()\n"
             "class K:\n"
             "    def go(self):\n        return getattr(self, 'named')()\n"
             "    def named(self):\n        return used()\n"
             "    def uncalled(self):\n        return orphan()\n"
             "def used():\n    pass\n"
             "def go():\n    pass\n"
             "def orphan():\n    pass\n",
    }
    # dead calls only itself; b.go shares a reached method's name; orphan is
    # named only by a method nothing calls
    assert unreached(sources, "a.main") == ["a.dead", "b.go", "b.orphan"]


def test_the_entry_point_is_the_installed_script():
    assert 'addlam = "addlam.cli:main"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


def test_every_definition_is_reachable_from_the_entry_point():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    dead = unreached(sources, ENTRY)
    unlisted = [d for d in dead if d not in ALLOWED]
    assert not unlisted, f"unreachable from {ENTRY}: {', '.join(unlisted)}"
    stale = sorted(set(ALLOWED) - set(dead))
    assert not stale, f"allowlisted, but reached or gone: {stale}"

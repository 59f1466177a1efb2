"""Every function the traced benchmark wraps exists under that name, so a
rename in the package cannot leave a per-layer metric silently empty."""

import ast
import importlib
import inspect
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _traced() -> tuple[str, ...]:
    """The TRACED tuple of the benchmark's workloads, read without running it."""
    for node in ast.parse(WORKLOADS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED in {WORKLOADS}")


def test_every_traced_name_is_a_function_of_the_package():
    names = _traced()
    assert len(names) == len(set(names)) > 0
    for name in names:
        module, function = name.split(".")
        fn = getattr(importlib.import_module(f"addlam.{module}"), function, None)
        assert inspect.isfunction(fn), f"perfbench traces {name}, which is not a function"
        assert fn.__module__ == f"addlam.{module}", f"{name} is defined in {fn.__module__}"

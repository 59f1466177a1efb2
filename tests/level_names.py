"""The level-named form of a node: each nameless binder named ``_d`` at
its depth d and each index by its binder's name.  Canonical nodes held
this form before they held indices, and the frozen references of the
oracle tests read only named nodes.  This file is not a test: pytest
collects only ``test_*.py``."""

from addlam.binders import _BINDER, _SUM, _VAR


def levels(t, names=()):
    """t in level-named form; names holds the names of the binders above
    t, outermost first."""
    role, cls = t._role, type(t)
    if role == _VAR:
        return cls(names[-1 - t.name]) if isinstance(t.name, int) else t
    if role == _BINDER:
        x = t.var or f"_{len(names)}"
        return cls(x, levels(t.body, (*names, x)))
    if role == _SUM:
        return cls(tuple(levels(p, names) for p in t.parts))
    kids = t._kids()
    return cls(*(levels(c, names) for c in kids)) if kids else t

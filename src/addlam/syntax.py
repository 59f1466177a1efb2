"""Terms of the source calculus, kept in AC-canonical form.

A term is a variable, an abstraction, an application, an n-ary sum, or
the impossible computation ``zero``.  Sums are flattened multisets held
in a deterministic, alpha-invariant order, so alpha-AC-equivalent terms
have one representation and can be compared with ``==``.

The nodes, their caches, canonical forms, the contraction of a redex and
the printer come from ``binders``; this module adds the term rule that
sums keep ``zero`` and the terms' table of forms.
"""

from __future__ import annotations

from .binders import Node, canonical, show, sort_key


class Term(Node):
    """A term keeps the entry of ``binders.redexes`` (``_redexes``) and
    the redex ``normalize`` contracts next (``_pick``) once they are
    computed; both are unset until then."""

    __slots__ = ("_redexes", "_pick")

    def __str__(self) -> str:
        return show_term(self)


class Var(Term, var=True):
    __slots__ = ("name",)


class Abs(Term, binds=Var):
    __slots__ = ("var", "body")


class App(Term):
    __slots__ = ("fun", "arg")


def merge_sum(parts) -> Term:
    """Canonical sum of canonical terms: flattens nested sums and sorts by
    the cached keys, without re-canonicalising the parts, so it is safe on
    open subterms.  A unary
    sum collapses.  Zero summands are kept: ``t + 0 -> t`` is a reduction
    step, not a term equivalence."""
    flat: list[Term] = []
    for p in parts:
        if p.__class__ is Sum:
            flat.extend(p.parts)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=sort_key)
    return Sum(tuple(flat))


class Sum(Term, merge=merge_sum):
    __slots__ = ("parts",)  # length >= 2, no nested Sum once canonical


class _Zero(Term):
    __slots__ = ()


Zero = _Zero()


def canonicalize(t: Term) -> Term:
    """Unique representative modulo alpha and AC of +.  Idempotent, and
    O(1) on a term it returned before."""
    return canonical(t)


def mk_sum(parts) -> Term:
    """Canonical sum of the given terms (flattens; unary collapses)."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("empty sum")
    if len(parts) == 1:
        return canonicalize(parts[0])
    return canonicalize(Sum(parts))


def summands(t: Term) -> tuple[Term, ...]:
    """The summand multiset of a canonical term (singleton if not a sum)."""
    return t.parts if isinstance(t, Sum) else (t,)


def is_value(t: Term) -> bool:
    """Values are variables and abstractions."""
    return isinstance(t, (Var, Abs))


# --- printing ------------------------------------------------------------

# the concrete syntax of each term node, for ``binders.show``
_FORMS = {Var: None, _Zero: "zero", Abs: "\\", Sum: (1, " + ", 2), App: (2, "{} {}", (2, 3))}


def show_term(t: Term) -> str:
    return show(canonicalize(t), _FORMS, "xyzwuvst")

"""Terms of the source calculus, kept in AC-canonical form.

A term is a variable, an abstraction, an application, an n-ary sum, or
the impossible computation ``zero``.  Sums are flattened multisets held
in a deterministic, alpha-invariant order, so alpha-AC-equivalent terms
have one representation and can be compared with ``==``.

The nodes, their caches, canonical forms, substitution and the
contraction of a redex at its own binder depth come from ``binders``;
this module adds the term rule that sums keep ``zero``.
"""

from __future__ import annotations

from .binders import Node, canonical, fresh_name, free_vars, sort_key, subst


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
    """Canonical sum of terms that are canonical at one binder depth:
    flattens nested sums and sorts by the cached keys, without
    re-canonicalising the parts, so it is safe on open subterms.  A unary
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


def substitute(t: Term, x: str, v: Term) -> Term:
    """Capture-avoiding substitution of v for x; result canonical."""
    return canonicalize(subst(t, x, v))


def is_value(t: Term) -> bool:
    """Values are variables and abstractions."""
    return isinstance(t, (Var, Abs))


# --- printing ------------------------------------------------------------

_NICE = "xyzwuvst"


def _display_names(t: Term) -> dict[int, str]:
    """Readable names for positional binders, avoiding free variables."""
    taken = set(free_vars(t))
    names: dict[int, str] = {}

    def depth_of(u: Term, d: int, maxd: list[int]):
        match u:
            case Abs(_, b):
                maxd[0] = max(maxd[0], d + 1)
                depth_of(b, d + 1, maxd)
            case App(f, a):
                depth_of(f, d, maxd)
                depth_of(a, d, maxd)
            case Sum(ps):
                for p in ps:
                    depth_of(p, d, maxd)

    maxd = [0]
    depth_of(t, 0, maxd)
    for d in range(maxd[0]):
        base = _NICE[d % len(_NICE)]
        nm = fresh_name(base, taken)
        taken.add(nm)
        names[d] = nm
    return names


def show_term(t: Term) -> str:
    t = canonicalize(t)
    names = _display_names(t)

    def go(u: Term, level: int, env: dict[str, str], d: int) -> str:
        match u:
            case Var(x):
                return env.get(x, x)
            case _Zero():
                return "zero"
            case Abs(x, b):
                nm = names.get(d, x)
                s = f"\\{nm}. {go(b, 0, {**env, x: nm}, d + 1)}"
                return f"({s})" if level > 0 else s
            case Sum(ps):
                s = " + ".join(go(p, 2, env, d) for p in ps)
                return f"({s})" if level > 1 else s
            case App(f, a):
                s = f"{go(f, 2, env, d)} {go(a, 3, env, d)}"
                return f"({s})" if level > 2 else s
        raise TypeError(f"not a term: {u!r}")

    return go(t, 0, {}, 0)


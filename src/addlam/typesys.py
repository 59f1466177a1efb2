"""The additive type grammar, its equivalence and substitution.

Types are sums of *unit types* (variables, arrows, foralls) plus the
zero type.  Two layers coexist:

* canonical types: sums flattened, sorted and zero-free, bound
  variables as indices -- the unique representative of an equivalence
  class;
* raw types: binary, order-preserving sums, used by the structured
  system where no equivalence is available.

The nodes, canonical forms, substitution, the alpha test on raw types and
the printer come from ``binders``; this module adds the type rules (sums
drop the zero type, and only unit types substitute for type variables)
and the types' table of forms.
"""

from __future__ import annotations

from .binders import Node, alpha_eq, canonical, show, sort_key, subst


class Type(Node):
    __slots__ = ()

    def __str__(self) -> str:
        return show_type(self)


class TVar(Type, var=True):
    __slots__ = ("name",)


class TArrow(Type):
    __slots__ = ("dom", "cod")  # dom is always a unit type


class TForall(Type, binds=TVar):
    __slots__ = ("var", "body")  # a unit type only when its body is one (is_unit)


def _merge_types(parts) -> Type:
    """Canonical sum of canonical types: flattened, sorted and zero-free,
    since zero is neutral for + under the equivalence."""
    flat: list[Type] = []
    for p in parts:
        if p.__class__ is TSum:
            flat.extend(p.parts)
        elif p is not TZero:
            flat.append(p)
    if len(flat) < 2:
        return flat[0] if flat else TZero
    flat.sort(key=sort_key)
    return TSum(tuple(flat))


class TSum(Type, merge=_merge_types):
    __slots__ = ("parts",)


class _TZero(Type):
    __slots__ = ()


TZero = _TZero()


def is_unit(t: Type) -> bool:
    """Unit types are variables, arrows and ``forall X. U`` for a unit U."""
    while isinstance(t, TForall):
        t = t.body
    return isinstance(t, (TVar, TArrow))


def type_canonicalize(t: Type) -> Type:
    """Unique representative of the equivalence class of t.  Idempotent,
    and O(1) on a type it returned before; a type built from such types
    walks nothing below them."""
    return canonical(t)


def type_equiv(a: Type, b: Type) -> bool:
    return type_canonicalize(a) == type_canonicalize(b)


def type_summands(t: Type) -> tuple[Type, ...]:
    """Unit summands of a canonical type; () for the zero type."""
    if isinstance(t, _TZero):
        return ()
    if isinstance(t, TSum):
        return t.parts
    return (t,)


def sum_of_units(parts) -> Type:
    """Canonical sum of the given types (empty -> zero type)."""
    parts = tuple(parts)
    if not parts:
        return TZero
    return type_canonicalize(TSum(parts)) if len(parts) > 1 else type_canonicalize(parts[0])


def raw_subst(t: Type, x: str, u: Type) -> Type:
    """Capture-avoiding substitution preserving sum structure."""
    if not is_unit(u):
        raise ValueError(f"only unit types substitute for type variables: {u}")
    return subst(t, x, u)


def raw_subst_vec(t: Type, xs, us) -> Type:
    """Simultaneous substitution: later variables occurring inside
    earlier replacements are not re-substituted."""
    if len(xs) != len(us):
        raise ValueError("substitution vectors differ in length")
    # detour through placeholder names no surface type can mention
    holes = [f"#{i}" for i in range(len(xs))]
    for x, h in zip(xs, holes):
        t = raw_subst(t, x, TVar(h))
    for h, u in zip(holes, us):
        t = raw_subst(t, h, u)
    return t


def type_subst(t: Type, x: str, u: Type) -> Type:
    """Substitution on canonical types; result canonical."""
    return type_canonicalize(raw_subst(t, x, u))


def type_subst_vec(t: Type, xs, us) -> Type:
    """Sequential (left-to-right) vector substitution; result canonical."""
    return type_canonicalize(raw_subst_vec(t, xs, us))


# structural equality up to renaming of bound type variables
raw_alpha_eq = alpha_eq


def to_raw(t: Type) -> Type:
    """Left-associated binary view of a canonical type, applied at
    every level (for the structured system, which has rigid binary
    sums)."""

    def go(u: Type) -> Type:
        match u:
            case TSum(ps):
                out = go(ps[0])
                for p in ps[1:]:
                    out = TSum((out, go(p)))
                return out
            case TArrow(a, b):
                return TArrow(go(a), go(b))
            case TForall(x, b):
                return TForall(x, go(b))
            case _:
                return u

    return go(type_canonicalize(t))


# --- printing ---------------------------------------------------------------

# the concrete syntax of each type node, for ``binders.show``
_FORMS = {TVar: None, _TZero: "void", TForall: "forall ", TSum: (1, " + ", 2),
          TArrow: (2, "{} -> {}", (3, 2))}


def show_type(t: Type) -> str:
    return show(t, _FORMS, "XYZWVU")

"""System F with pairs and unit: the target calculus. Terms, types,
typing rules, full (non-deterministic) reduction including both eta
rules, and bounded reachability search.  Each typing rule is defined
once, by the constructor of its derivation nodes (``f_ax`` ...
``f_forall_e``); the checker accepts a node when that constructor
rebuilds it from the node's premises.  The module knows nothing of
the source calculus: the translation (``translation.py``) builds its pairs
and projections from rigid source types."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .binders import Context, Node, alpha_eq, canonical, free_vars, subst


# --- types -------------------------------------------------------------------


class FType(Node):
    __slots__ = ()

    def __str__(self) -> str:
        return show_ftype(self)


class FTVar(FType, var=True):
    __slots__ = ("name",)


class FArrow(FType):
    __slots__ = ("dom", "cod")


class FForall(FType, binds=FTVar):
    __slots__ = ("var", "body")


class _FUnit(FType):
    __slots__ = ()


class FProd(FType):
    __slots__ = ("left", "right")


FUnit = _FUnit()


# --- terms -------------------------------------------------------------------


class FTerm(Node):
    """The repr keeps the dataclass form ``FAbs(var='x', body=FVar(name='x'))``,
    because ``f_reaches`` orders reducts by it."""

    __slots__ = ()


class FVar(FTerm, var=True):
    __slots__ = ("name",)


class FAbs(FTerm, binds=FVar):
    __slots__ = ("var", "body")


class FApp(FTerm):
    __slots__ = ("fun", "arg")


class _Star(FTerm):
    __slots__ = ()


class FPair(FTerm):
    __slots__ = ("fst", "snd")


class FProjL(FTerm):
    __slots__ = ("body",)


class FProjR(FTerm):
    __slots__ = ("body",)


Star = _Star()


def f_canonicalize(t: FTerm) -> FTerm:
    """Positional renaming of binders; canonical forms are equal iff the
    terms are alpha-equivalent.  Idempotent, and O(1) on a term it
    returned before."""
    return canonical(t)


def f_alpha_eq(a: FTerm, b: FTerm) -> bool:
    return f_canonicalize(a) == f_canonicalize(b)


# F-types have no sums, so this walk agrees with comparing canonical forms;
# it allocates nothing, which matters for the raw types derivations hold
f_type_alpha_eq = alpha_eq


def show_fterm(t: FTerm) -> str:
    def go(t: FTerm, level: int) -> str:
        match t:
            case FVar(x):
                return x
            case _Star():
                return "star"
            case FPair(f, s):
                return f"<{go(f, 0)}, {go(s, 0)}>"
            case FAbs(x, b):
                s = f"\\{x}. {go(b, 0)}"
                return f"({s})" if level > 0 else s
            case FApp(f, a):
                s = f"{go(f, 1)} {go(a, 2)}"
                return f"({s})" if level > 1 else s
            case FProjL(b):
                s = f"proj_l {go(b, 2)}"
                return f"({s})" if level > 1 else s
            case FProjR(b):
                s = f"proj_r {go(b, 2)}"
                return f"({s})" if level > 1 else s
        raise TypeError(f"not a term: {t!r}")

    return go(t, 0)


def show_ftype(t: FType) -> str:
    def go(t: FType, level: int) -> str:
        match t:
            case FTVar(x):
                return x
            case _FUnit():
                return "1"
            case FForall(x, b):
                s = f"forall {x}. {go(b, 0)}"
                return f"({s})" if level > 0 else s
            case FArrow(a, b):
                s = f"{go(a, 2)} -> {go(b, 1)}"
                return f"({s})" if level > 1 else s
            case FProd(a, b):
                s = f"{go(a, 2)} * {go(b, 2)}"
                return f"({s})" if level > 1 else s
        raise TypeError(f"not a type: {t!r}")

    return go(t, 0)


# --- reduction ---------------------------------------------------------------


def _immediate_freducts(t: FTerm) -> list[FTerm]:
    out = []
    match t:
        case FApp(FAbs(x, b), a):
            out.append(subst(b, x, a))
        case FProjL(FPair(f, _)):
            out.append(f)
        case FProjR(FPair(_, s)):
            out.append(s)
    match t:
        case FAbs(x, FApp(f, FVar(y))) if y == x and x not in free_vars(f):
            out.append(f)
        case FPair(FProjL(p), FProjR(q)) if p == q:
            # t is a subterm of a canonical term, so p and q sit at one
            # binder depth and are alpha-equivalent iff they are equal;
            # canonicalising them on their own would capture the binders
            # above them
            out.append(p)
    return out


def _raw_freducts(t: FTerm) -> list[FTerm]:
    out = list(_immediate_freducts(t))

    def inside(build, sub):
        out.extend(build(u) for u in _raw_freducts(sub))

    match t:
        case FAbs(x, b):
            inside(lambda u: FAbs(x, u), b)
        case FApp(f, a):
            inside(lambda u: FApp(u, a), f)
            inside(lambda u: FApp(f, u), a)
        case FPair(f, s):
            inside(lambda u: FPair(u, s), f)
            inside(lambda u: FPair(f, u), s)
        case FProjL(b):
            inside(FProjL, b)
        case FProjR(b):
            inside(FProjR, b)
    return out


def f_reducts(t: FTerm) -> frozenset[FTerm]:
    """All one-step reducts at all positions: full beta, projections and
    both eta rules.  t is canonicalised first (O(1) when it already is).
    Reducts are rebuilt raw and each whole reduct is canonicalised once:
    canonicalising a reduct of an open subterm on its own would capture
    the binders above it."""
    return frozenset(f_canonicalize(u) for u in _raw_freducts(canonical(t)))


def f_reaches(t: FTerm, u: FTerm, budget: int = 10000):
    """Bounded breadth-first search for a reduction path t ->* u.
    Returns the path as a term list, or None within the budget."""
    t, u = f_canonicalize(t), f_canonicalize(u)
    if t == u:
        return [t]
    seen = {t: None}
    queue = deque([t])
    expanded = 0
    while queue and expanded < budget:
        cur = queue.popleft()
        expanded += 1
        for nxt in sorted(f_reducts(cur), key=repr):
            if nxt in seen:
                continue
            seen[nxt] = cur
            if nxt == u:
                path = [nxt]
                while path[-1] is not None and seen[path[-1]] is not None:
                    path.append(seen[path[-1]])
                return list(reversed(path))
            queue.append(nxt)
    return None


# --- typing ------------------------------------------------------------------


@dataclass(frozen=True)
class FDerivation:
    rule: str  # Ax UnitI ArrI ArrE ProdI ProdEl ProdEr ForallI ForallE
    ctx: Context
    term: FTerm
    ty: FType
    premises: tuple["FDerivation", ...] = ()
    binder: str | None = None  # ArrI / ForallI
    inst_ty: FType | None = None  # ForallE

    def describe(self) -> str:
        return f"{self.rule}: {self.ctx} |- {show_fterm(self.term)} : {show_ftype(self.ty)}"


class FRuleViolation(Exception):
    def __init__(self, path, message):
        self.path = path
        self.message = message
        at = ".".join(map(str, path)) or "root"
        super().__init__(f"at {at}: {message}")


def _ffail(msg):
    raise FRuleViolation((), msg)


def f_ax(ctx: Context, name: str) -> FDerivation:
    ty = ctx.get(name)
    if ty is None:
        _ffail(f"variable {name} not in context")
    return FDerivation("Ax", ctx, FVar(name), ty)


def f_unit_i(ctx: Context) -> FDerivation:
    return FDerivation("UnitI", ctx, Star, FUnit)


def f_arr_i(d: FDerivation, binder: str) -> FDerivation:
    ty = d.ctx.get(binder)
    if ty is None:
        _ffail(f"binder {binder} not in premise context")
    return FDerivation(
        "ArrI", d.ctx.remove(binder), FAbs(binder, d.term),
        FArrow(ty, d.ty), (d,), binder=binder,
    )


def f_arr_e(d1: FDerivation, d2: FDerivation) -> FDerivation:
    if d1.ctx != d2.ctx:
        _ffail("application premises typed in different contexts")
    if not isinstance(d1.ty, FArrow):
        _ffail(f"applying a non-arrow of type {show_ftype(d1.ty)}")
    if not f_type_alpha_eq(d1.ty.dom, d2.ty):
        _ffail(
            f"argument type {show_ftype(d2.ty)} differs from the domain "
            f"{show_ftype(d1.ty.dom)}"
        )
    return FDerivation("ArrE", d1.ctx, FApp(d1.term, d2.term), d1.ty.cod, (d1, d2))


def f_prod_i(d1: FDerivation, d2: FDerivation) -> FDerivation:
    if d1.ctx != d2.ctx:
        _ffail("pair premises typed in different contexts")
    return FDerivation(
        "ProdI", d1.ctx, FPair(d1.term, d2.term), FProd(d1.ty, d2.ty), (d1, d2)
    )


def f_proj_l(d: FDerivation) -> FDerivation:
    if not isinstance(d.ty, FProd):
        _ffail(f"projecting from a non-product of type {show_ftype(d.ty)}")
    return FDerivation("ProdEl", d.ctx, FProjL(d.term), d.ty.left, (d,))


def f_proj_r(d: FDerivation) -> FDerivation:
    if not isinstance(d.ty, FProd):
        _ffail(f"projecting from a non-product of type {show_ftype(d.ty)}")
    return FDerivation("ProdEr", d.ctx, FProjR(d.term), d.ty.right, (d,))


def f_forall_i(d: FDerivation, binder: str) -> FDerivation:
    if binder in d.ctx.free_tvars():
        _ffail(f"{binder} occurs free in the context")
    return FDerivation(
        "ForallI", d.ctx, d.term, FForall(binder, d.ty), (d,), binder=binder
    )


def f_forall_e(d: FDerivation, ty: FType) -> FDerivation:
    if not isinstance(d.ty, FForall):
        _ffail(f"instantiating a non-quantified type {show_ftype(d.ty)}")
    return FDerivation(
        "ForallE", d.ctx, d.term, subst(d.ty.body, d.ty.var, ty), (d,),
        inst_ty=ty,
    )


# per rule: the number of premises, the other fields, and the constructor
_F_RULES = {
    "Ax": (0, (), lambda d: f_ax(d.ctx, d.term.name)),
    "UnitI": (0, (), lambda d: f_unit_i(d.ctx)),
    "ArrI": (1, ("binder",), lambda d, p: f_arr_i(p, d.binder)),
    "ArrE": (2, (), lambda d, p1, p2: f_arr_e(p1, p2)),
    "ProdI": (2, (), lambda d, p1, p2: f_prod_i(p1, p2)),
    "ProdEl": (1, (), lambda d, p: f_proj_l(p)),
    "ProdEr": (1, (), lambda d, p: f_proj_r(p)),
    "ForallI": (1, ("binder",), lambda d, p: f_forall_i(p, d.binder)),
    "ForallE": (1, ("inst_ty",), lambda d, p: f_forall_e(p, d.inst_ty)),
}


def _f_check_node(d: FDerivation, path):
    """d is valid when its rule's constructor rebuilds its conclusion
    from its premises and fields: the same context, and the same term and
    type up to the renaming of bound variables."""

    def bad(msg):
        raise FRuleViolation(path, msg)

    if d.rule not in _F_RULES:
        bad(f"unknown rule {d.rule!r}")
    arity, fields, build = _F_RULES[d.rule]
    if len(d.premises) != arity:
        bad(f"{d.rule} takes {arity} premises, not {len(d.premises)}")
    if d.rule == "Ax" and not isinstance(d.term, FVar):
        bad("axiom subject is not a variable")
    for f in fields:
        if getattr(d, f) is None:
            bad(f"{d.rule} node lacks its {f}")
    try:
        want = build(d, *d.premises)
    except FRuleViolation as e:
        bad(e.message)
    if want.ctx != d.ctx:
        bad(f"context {d.ctx} is not the rule's {want.ctx}")
    if not f_alpha_eq(want.term, d.term):
        bad(f"subject {show_fterm(d.term)} is not the rule's {show_fterm(want.term)}")
    if not f_type_alpha_eq(want.ty, d.ty):
        bad(f"type {show_ftype(d.ty)} is not the rule's {show_ftype(want.ty)}")


def f_check(d: FDerivation, path: tuple[int, ...] = ()):
    """Validate every node; raises FRuleViolation at the offending node."""
    for i, p in enumerate(d.premises):
        f_check(p, path + (i,))
    _f_check_node(d, path)

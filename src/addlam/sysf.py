"""System F with pairs and unit: the target calculus. Terms, types, a
derivation checker, full (non-deterministic) reduction including both
eta rules, and bounded reachability search.  It knows nothing of the
source calculus: the translation (``translation.py``) builds its pairs
and projections from rigid source types."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .binders import Node, alpha_eq, canonical, free_vars, subst


# --- types -------------------------------------------------------------------


class FType(Node):
    __slots__ = ()


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


class FContext:
    """Immutable name-sorted typing context for the target calculus."""

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        self.entries: tuple[tuple[str, FType], ...] = tuple(
            sorted(dict(entries).items())
        )

    def get(self, name):
        for k, v in self.entries:
            if k == name:
                return v
        return None

    def __contains__(self, name):
        return self.get(name) is not None

    def extend(self, name, ty):
        return FContext(dict(self.entries) | {name: ty})

    def remove(self, name):
        return FContext((k, v) for k, v in self.entries if k != name)

    def items(self):
        return self.entries

    def free_tvars(self):
        out = frozenset()
        for _, v in self.entries:
            out |= free_vars(v)
        return out

    def __eq__(self, other):
        return isinstance(other, FContext) and all(
            x == y and f_type_alpha_eq(a, b)
            for (x, a), (y, b) in zip(self.entries, other.entries)
        ) and len(self.entries) == len(other.entries)

    def __hash__(self):
        return hash(tuple(k for k, _ in self.entries))

    def __str__(self):
        return ", ".join(f"{k}: {show_ftype(v)}" for k, v in self.entries) or "-"

    def __repr__(self):
        return f"FContext({self.entries!r})"


@dataclass(frozen=True)
class FDerivation:
    rule: str  # Ax UnitI ArrI ArrE ProdI ProdEl ProdEr ForallI ForallE
    ctx: FContext
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


def f_ax(ctx: FContext, name: str) -> FDerivation:
    ty = ctx.get(name)
    if ty is None:
        _ffail(f"variable {name} not in context")
    return FDerivation("Ax", ctx, FVar(name), ty)


def f_unit_i(ctx: FContext) -> FDerivation:
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


def _f_check_node(d: FDerivation, path):
    def bad(msg):
        raise FRuleViolation(path, msg)

    ps = d.premises
    if d.rule == "Ax":
        ty = d.ctx.get(d.term.name) if isinstance(d.term, FVar) else None
        if ty is None or not f_type_alpha_eq(ty, d.ty):
            bad("axiom does not read its type off the context")
    elif d.rule == "UnitI":
        if d.term is not Star or d.ty is not FUnit:
            bad("the unit axiom must type star with 1")
    elif d.rule == "ArrI":
        (p,) = ps
        dom = p.ctx.get(d.binder or "")
        if dom is None or p.ctx.remove(d.binder) != d.ctx:
            bad("abstraction context mismatch")
        if not f_alpha_eq(d.term, FAbs(d.binder, p.term)):
            bad("abstraction subject mismatch")
        if not f_type_alpha_eq(d.ty, FArrow(dom, p.ty)):
            bad("abstraction type mismatch")
    elif d.rule == "ArrE":
        p1, p2 = ps
        if p1.ctx != d.ctx or p2.ctx != d.ctx:
            bad("application context mismatch")
        if not isinstance(p1.ty, FArrow) or not f_type_alpha_eq(p1.ty.dom, p2.ty):
            bad("application premises do not compose")
        if not f_alpha_eq(d.term, FApp(p1.term, p2.term)):
            bad("application subject mismatch")
        if not f_type_alpha_eq(d.ty, p1.ty.cod):
            bad("application result type mismatch")
    elif d.rule == "ProdI":
        p1, p2 = ps
        if p1.ctx != d.ctx or p2.ctx != d.ctx:
            bad("pair context mismatch")
        if not f_alpha_eq(d.term, FPair(p1.term, p2.term)):
            bad("pair subject mismatch")
        if not f_type_alpha_eq(d.ty, FProd(p1.ty, p2.ty)):
            bad("pair type mismatch")
    elif d.rule in ("ProdEl", "ProdEr"):
        (p,) = ps
        if p.ctx != d.ctx or not isinstance(p.ty, FProd):
            bad("projection premise is not a product")
        want_tm = FProjL(p.term) if d.rule == "ProdEl" else FProjR(p.term)
        want_ty = p.ty.left if d.rule == "ProdEl" else p.ty.right
        if not f_alpha_eq(d.term, want_tm) or not f_type_alpha_eq(d.ty, want_ty):
            bad("projection conclusion mismatch")
    elif d.rule == "ForallI":
        (p,) = ps
        if p.ctx != d.ctx or not f_alpha_eq(p.term, d.term):
            bad("generalisation changes the subject")
        if d.binder in d.ctx.free_tvars():
            bad(f"{d.binder} occurs free in the context")
        if not f_type_alpha_eq(d.ty, FForall(d.binder, p.ty)):
            bad("generalised type mismatch")
    elif d.rule == "ForallE":
        (p,) = ps
        if p.ctx != d.ctx or not f_alpha_eq(p.term, d.term):
            bad("instantiation changes the subject")
        if not isinstance(p.ty, FForall) or d.inst_ty is None:
            bad("instantiation premise is not quantified")
        if not f_type_alpha_eq(d.ty, subst(p.ty.body, p.ty.var, d.inst_ty)):
            bad("instantiated type mismatch")
    else:
        bad(f"unknown rule {d.rule!r}")


def f_check(d: FDerivation, path: tuple[int, ...] = ()):
    """Validate every node; raises FRuleViolation at the offending node."""
    for i, p in enumerate(d.premises):
        f_check(p, path + (i,))
    _f_check_node(d, path)

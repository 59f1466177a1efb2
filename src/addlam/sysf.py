"""System F with pairs and unit: the target calculus. Terms, types,
typing rules, full (non-deterministic) reduction including both eta
rules, and bounded reachability search.

Reduction is named steps at paths, as in ``reduction.py``: ``_fredexes``
lists each redex of a canonical term as (path, rule) in one walk, and
``f_step`` contracts one at its own binder depth, rebuilding only the
spine above it.  A canonical term keeps its reducts on the node, and a
raw term its canonical form, so the reducts of each term are computed
once however many searches pass through it.

Each typing rule is defined once, by the constructor of its derivation
nodes (``f_ax`` ... ``f_forall_e``); the checker accepts a node when that
constructor rebuilds it from the node's premises.  The module knows
nothing of the source calculus: the translation (``translation.py``)
builds its pairs and projections from rigid source types."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .binders import (
    Context,
    Node,
    alpha_eq,
    canonical,
    free_name,
    free_vars,
    instantiate,
    kind,
    mark_canonical,
    relevel,
    step_at,
    subst,
)


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
    because ``f_reaches`` orders reducts by it.  A canonical term keeps
    its one-step reducts, in that order, once they are computed, and a
    raw term its canonical form."""

    __slots__ = ("_reducts", "_cform")


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
    returned or was given before: a raw term keeps its canonical form, so
    every search from it starts at one node and finds the reducts kept
    there."""
    if t._canonical:
        return t
    try:
        return t._cform
    except AttributeError:
        out = canonical(t)
        if out is not t:  # a raw term that was canonical is marked instead
            t._cform = out
        return out


def f_alpha_eq(a: FTerm, b: FTerm) -> bool:
    # equal raw terms are alpha-equivalent, and == costs O(1) when they
    # share their children, as a rebuilt conclusion does
    return a == b or f_canonicalize(a) == f_canonicalize(b)


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


class StaleFRedex(Exception):
    """The F-redex does not address a matching subterm of the given term."""


def _eta_body(u: FAbs) -> FTerm | None:
    """f when u is \\x. f x with x not free in f, else None."""
    b = u.body
    if b.__class__ is FApp and b.arg.__class__ is FVar and b.arg.name == u.var \
            and u.var not in free_vars(b.fun):
        return b.fun
    return None


def _fredexes(t: FTerm) -> list[tuple[tuple[int, ...], str]]:
    """The redexes of t, a subterm of a canonical term, as (path, rule)
    in the order of one left-to-right walk; paths start at t.  The rules
    are beta, proj-l, proj-r, eta and surjective pairing (surj)."""
    out = []

    def walk(u: FTerm, path: tuple[int, ...]):
        match u:
            case FApp(f, a):
                if f.__class__ is FAbs:
                    out.append((path, "beta"))
                walk(f, path + (0,))
                walk(a, path + (1,))
            case FAbs(_, b):
                if _eta_body(u) is not None:
                    out.append((path, "eta"))
                walk(b, path + (0,))
            case FPair(f, s):
                if f.__class__ is FProjL and s.__class__ is FProjR and f.body == s.body:
                    # p and q sit at one binder depth of a canonical term,
                    # so they are alpha-equivalent iff they are equal;
                    # canonicalising them on their own would capture the
                    # binders above them
                    out.append((path, "surj"))
                walk(f, path + (0,))
                walk(s, path + (1,))
            case FProjL(b) | FProjR(b):
                if b.__class__ is FPair:
                    out.append((path, "proj-l" if u.__class__ is FProjL else "proj-r"))
                walk(b, path + (0,))

    walk(t, ())
    return out


def _fcontract(u: FTerm, rule: str, depth: int) -> FTerm:
    """Canonical contractum of the redex u, which sits at binder depth
    ``depth`` of a canonical term: beta moves the body's binders up one
    level and puts the argument, moved to where it lands, for the bound
    variable; eta moves f up one level; a projection and surjective
    pairing return the subterm they keep."""
    match rule, u:
        case "beta", FApp(FAbs(x, b), a):
            return instantiate(b, x, a, depth)
        case "proj-l", FProjL(FPair(f, _)):
            return f
        case "proj-r", FProjR(FPair(_, s)):
            return s
        case "eta", FAbs():
            f = _eta_body(u)
            if f is not None:
                return relevel(f, depth + 1, depth)
        case "surj", FPair(FProjL(p), FProjR(q)) if p == q:
            return p
    raise StaleFRedex(f"rule {rule!r} does not match {kind(u)}")


def f_step(t: FTerm, r: tuple[tuple[int, ...], str]) -> FTerm:
    """Canonical contractum of the redex r = (path, rule) of t, which is
    canonicalised first (O(1) when it already is).  Only the path from
    the redex to the root is rebuilt; every other subterm is shared with
    t.  A path that leaves t, or a rule that does not match the node it
    reaches, raises StaleFRedex."""
    path, rule = r
    return mark_canonical(step_at(f_canonicalize(t), path, 0,
                                  lambda u, depth: _fcontract(u, rule, depth), StaleFRedex))


def _freducts(t: FTerm) -> tuple[FTerm, ...]:
    """The distinct one-step reducts of the canonical term t, ordered by
    repr; computed once and kept on t."""
    try:
        return t._reducts
    except AttributeError:
        out = t._reducts = tuple(sorted({f_step(t, r) for r in _fredexes(t)}, key=repr))
        return out


def f_reducts(t: FTerm) -> frozenset[FTerm]:
    """All one-step reducts at all positions: full beta, projections and
    both eta rules.  t is canonicalised first (O(1) when it already is)."""
    return frozenset(_freducts(f_canonicalize(t)))


def f_reaches(t: FTerm, u: FTerm, budget: int = 10000, log: list | None = None):
    """Bounded breadth-first search for a reduction path t ->* u.
    Returns the path as a term list, or None within the budget.  When
    log is a list, the search appends to it the number of terms it
    expanded and whether it stopped at the budget without a path."""
    t, u = f_canonicalize(t), f_canonicalize(u)
    seen = {t: None}
    queue = deque([t])
    expanded = 0
    found = t == u
    while not found and queue and expanded < budget:
        cur = queue.popleft()
        expanded += 1
        for nxt in _freducts(cur):
            if nxt in seen:
                continue
            seen[nxt] = cur
            if nxt == u:
                found = True
                break
            queue.append(nxt)
    if log is not None:
        log.append((expanded, not found and bool(queue)))
    if not found:
        return None
    path = [u]
    while seen[path[-1]] is not None:
        path.append(seen[path[-1]])
    return path[::-1]


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
    return FDerivation("Ax", ctx, FVar(free_name(name)), ty)


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

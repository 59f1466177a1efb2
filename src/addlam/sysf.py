"""System F with pairs and unit: the target calculus. Terms, types,
typing rules, full (non-deterministic) reduction including both eta
rules, and bounded reachability search.

Reduction is two tables for the one reduction engine in ``binders``, as
in ``reduction.py``: ``_TESTS`` finds the redexes at each of the five
node classes where a rule may fire (an application, an abstraction, a
pair and the two projections), and ``_RULES`` contracts each of the five
rules (beta, proj-l, proj-r, eta and surjective pairing) by name,
rebuilding only the spine above it.  A canonical term keeps its reducts
on the node, and a raw term its canonical form (``binders.canonical``),
so the reducts of each term are computed once however many searches pass
through it.  Terms and types print through the one
printer in ``binders``, by this module's two tables of forms.

Each typing rule is defined once, by the constructor of its derivation
nodes (``f_ax`` ... ``f_forall_e``), and ``F``'s rule table names them.
F is the third ``System`` of the derivation kernel in ``binders.py``,
beside the two source systems: ``f_check`` is the kernel's checker, which
accepts a node when its constructor rebuilds it from the node's premises
and raises ``RuleViolation`` at its path otherwise.  The module knows
nothing of the source calculus: the translation (``translation.py``)
builds its pairs and projections from rigid source types."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .binders import (
    Context,
    DerivationNode,
    Node,
    Redex,
    System,
    alpha_eq,
    canonical,
    check_derivation,
    free_vars,
    instantiate,
    open_binder,
    redexes,
    refuse,
    show,
    step_at,
    var_name,
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
    its one-step reducts, in that order, once they are computed.
    ``binders.redexes`` keeps its entry on the term as well."""

    __slots__ = ("_reducts", "_redexes")

    def __str__(self) -> str:
        return show_fterm(self)


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
    """Bound variables as indices; canonical forms are equal iff the
    terms are alpha-equivalent.  Idempotent, and O(1) on a term it
    returned or was given before: a raw term keeps its canonical form, so
    every search from it starts at one node and finds the reducts kept
    there."""
    return canonical(t)


def f_alpha_eq(a: FTerm, b: FTerm) -> bool:
    # equal raw terms are alpha-equivalent, and == costs O(1) when they
    # share their children, as a rebuilt conclusion does
    return a == b or f_canonicalize(a) == f_canonicalize(b)


# F-types have no sums, so this walk agrees with comparing canonical forms;
# it allocates nothing, which matters for the raw types derivations hold
f_type_alpha_eq = alpha_eq


# the concrete syntax of each F-term and F-type node, for ``binders.show``; a pair is
# bracketed, so it takes the top level and is never put in parentheses
_FORMS = {FVar: None, _Star: "star", FAbs: "\\", FApp: (1, "{} {}", (1, 2)),
          FPair: (2, "<{}, {}>", (0, 0)), FProjL: (1, "proj_l {}", (2,)),
          FProjR: (1, "proj_r {}", (2,))}
_TFORMS = {FTVar: None, _FUnit: "1", FForall: "forall ", FArrow: (1, "{} -> {}", (2, 1)),
           FProd: (1, "{} * {}", (2, 2))}


def show_fterm(t: FTerm) -> str:
    return show(t, _FORMS, "xyzwuvst")


def show_ftype(t: FType) -> str:
    return show(t, _TFORMS, "XYZWVU")


# --- reduction ---------------------------------------------------------------


def _app_redexes(u: FApp, out: list[Redex]):
    if u.fun.__class__ is FAbs:
        out.append(Redex((), "beta"))


def _abs_redexes(u: FAbs, out: list[Redex]):
    b = u.body  # eta: \x. f x with x, the index 0, not free in f
    if b.__class__ is FApp and b.arg.__class__ is FVar and b.arg.name == 0 \
            and 0 not in free_vars(b.fun):
        out.append(Redex((), "eta"))


def _pair_redexes(u: FPair, out: list[Redex]):
    f, s = u.fst, u.snd
    if f.__class__ is FProjL and s.__class__ is FProjR and f.body == s.body:
        # p and q are canonical, so they are alpha-equivalent iff equal
        out.append(Redex((), "surj"))


def _proj_redexes(u: FProjL | FProjR, out: list[Redex]):
    if u.body.__class__ is FPair:
        out.append(Redex((), "proj-l" if u.__class__ is FProjL else "proj-r"))


_TESTS = {FApp: _app_redexes, FAbs: _abs_redexes, FPair: _pair_redexes,
          FProjL: _proj_redexes, FProjR: _proj_redexes}


# The contraction of each rule: the canonical contractum of the redex r at
# u, a subterm of a canonical term.  beta opens the body with the
# argument; eta opens f too, which does not mention the binder, so any
# argument only lowers its indices past the binder; a projection and
# surjective pairing return the subterm they keep.
_RULES = {
    "beta": lambda u, r: instantiate(u.fun.body, u.arg),
    "proj-l": lambda u, r: u.body.fst,
    "proj-r": lambda u, r: u.body.snd,
    "eta": lambda u, r: instantiate(u.body.fun, Star),
    "surj": lambda u, r: u.fst.body,
}


def _freducts(t: FTerm) -> tuple[FTerm, ...]:
    """The distinct one-step reducts of the canonical term t, ordered by
    repr; computed once and kept on t."""
    try:
        return t._reducts
    except AttributeError:
        rs = redexes(t, _TESTS)
        # each redex comes from the walk, so it needs no check
        out = t._reducts = tuple(sorted({step_at(t, r, _RULES) for r in rs}, key=repr))
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
class FDerivation(DerivationNode):
    """A node of an F-derivation: the kernel's node, with F's rules."""


def f_ax(ctx: Context, name: str) -> FDerivation:
    ty = ctx.get(name)
    if ty is None:
        refuse(f"variable {name} not in context")
    return FDerivation("Ax", ctx, FVar(name), ty)


def f_unit_i(ctx: Context) -> FDerivation:
    return FDerivation("UnitI", ctx, Star, FUnit)


def f_arr_i(d: FDerivation, binder: str) -> FDerivation:
    ty = d.ctx.get(binder)
    if ty is None:
        refuse(f"binder {binder} not in premise context")
    return FDerivation(
        "ArrI", d.ctx.remove(binder), FAbs(binder, d.term),
        FArrow(ty, d.ty), (d,), binder=binder,
    )


def f_arr_e(d1: FDerivation, d2: FDerivation) -> FDerivation:
    if d1.ctx != d2.ctx:
        refuse("application premises typed in different contexts")
    if not isinstance(d1.ty, FArrow):
        refuse(f"applying a non-arrow of type {d1.ty}")
    if not f_type_alpha_eq(d1.ty.dom, d2.ty):
        refuse(f"argument type {d2.ty} differs from the domain {d1.ty.dom}")
    return FDerivation("ArrE", d1.ctx, FApp(d1.term, d2.term), d1.ty.cod, (d1, d2))


def f_prod_i(d1: FDerivation, d2: FDerivation) -> FDerivation:
    if d1.ctx != d2.ctx:
        refuse("pair premises typed in different contexts")
    return FDerivation(
        "ProdI", d1.ctx, FPair(d1.term, d2.term), FProd(d1.ty, d2.ty), (d1, d2)
    )


def f_proj_l(d: FDerivation) -> FDerivation:
    if not isinstance(d.ty, FProd):
        refuse(f"projecting from a non-product of type {d.ty}")
    return FDerivation("ProdEl", d.ctx, FProjL(d.term), d.ty.left, (d,))


def f_proj_r(d: FDerivation) -> FDerivation:
    if not isinstance(d.ty, FProd):
        refuse(f"projecting from a non-product of type {d.ty}")
    return FDerivation("ProdEr", d.ctx, FProjR(d.term), d.ty.right, (d,))


def f_forall_i(d: FDerivation, binder: str) -> FDerivation:
    if binder in d.ctx.free_tvars():
        refuse(f"{binder} occurs free in the context")
    return FDerivation(
        "ForallI", d.ctx, d.term, FForall(binder, d.ty), (d,), binder=binder
    )


def f_forall_e(d: FDerivation, ty: FType) -> FDerivation:
    if not isinstance(d.ty, FForall):
        refuse(f"instantiating a non-quantified type {d.ty}")
    return FDerivation(
        "ForallE", d.ctx, d.term, open_binder(d.ty, ty), (d,),
        inst_ty=ty,
    )


class FSystem(System):
    """System F with pairs: types are compared up to the renaming of
    bound variables."""

    eq = staticmethod(f_type_alpha_eq)
    rules = {
        "Ax": (0, (), lambda s, n, ctx: f_ax(ctx, var_name(n.term))),
        "UnitI": (0, (), lambda s, n, ctx: f_unit_i(ctx)),
        "ArrI": (1, ("binder",), lambda s, n, ctx, p: f_arr_i(p, n.binder)),
        "ArrE": (2, (), lambda s, n, ctx, p1, p2: f_arr_e(p1, p2)),
        "ProdI": (2, (), lambda s, n, ctx, p1, p2: f_prod_i(p1, p2)),
        "ProdEl": (1, (), lambda s, n, ctx, p: f_proj_l(p)),
        "ProdEr": (1, (), lambda s, n, ctx, p: f_proj_r(p)),
        "ForallI": (1, ("binder",), lambda s, n, ctx, p: f_forall_i(p, n.binder)),
        "ForallE": (1, ("inst_ty",), lambda s, n, ctx, p: f_forall_e(p, n.inst_ty)),
    }


F = FSystem(FDerivation)


def f_check(d: FDerivation, path: tuple[int, ...] = ()):
    """Validate every node of an F-derivation; raises RuleViolation at the
    offending node."""
    check_derivation(d, path)

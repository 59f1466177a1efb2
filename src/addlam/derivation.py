"""Typing derivations of the source calculus, elaboration from
annotated terms, and the derivation transformations behind subject
reduction (substitution lemmas, one-step reduction of derivations).

The paper presents one type system twice: the additive system here,
typed up to type equivalence, and the structured system of
``structured.py``, whose sum types are rigid binary trees.  The
transformations are written once.  Each derivation class names its
``SourceSystem``, and the members of the two instances are the only
places where the presentations differ.

Each typing rule is defined once, by its node constructor
(``SourceSystem.ax`` ... ``SourceSystem.arr_e``), which the system's rule
table names.  Checking is the derivation kernel of ``binders.py``, shared
with System F: a node is valid when its rule's constructor rebuilds it
from its premises and fields, and the transformations build every node
they return the same way."""

from __future__ import annotations

from dataclasses import dataclass, field

from .binders import (
    Context,
    DerivationNode,
    RuleViolation,
    System,
    Redex,
    body_path,
    check_derivation,
    free_vars,
    fresh_name,
    names,
    open_binder,
    refuse,
    sort_key,
    var_name,
)
from .reduction import step
from .syntax import (
    Abs,
    App,
    Sum,
    Var,
    Zero,
    canonicalize,
    is_value,
    mk_sum,
    show_term,
    summands,
)
from .typesys import (
    TArrow,
    TForall,
    TSum,
    TVar,
    TZero,
    Type,
    is_unit,
    show_type,
    sum_of_units,
    type_canonicalize,
    type_equiv,
    type_subst,
    type_subst_vec,
    type_summands,
)


class ElaborationError(Exception):
    def __init__(self, location: str, message: str):
        self.location = location
        self.message = message
        super().__init__(f"at {location}: {message}")


class UnsupportedDerivationShape(Exception):
    """The derivation mixes rules in an order the transformation does
    not normalise; surfaced rather than silently mishandled."""


def forall_close(xs, u: Type) -> Type:
    for x in reversed(tuple(xs)):
        u = TForall(x, u)
    return u


def _map_key(m) -> tuple:
    """A witness map as a hashable key: a dict by its sorted (address,
    value) items, any other map as the tuple of its entries."""
    return tuple(sorted(m.items())) if isinstance(m, dict) else tuple(m)


# --- the two systems ---------------------------------------------------------


class SourceSystem(System):
    """One presentation of the source type system.  The node constructors
    below validate one node, assuming valid premises, and are shared; the
    rule table names them, so ``rebuild`` makes a node of either
    presentation again in the other (the conversions of ``structured.py``
    add only what differs).  A subclass supplies what differs:

    * the ``equiv`` rule, if it has one, and ``unit_hypotheses`` (must an
      axiom's hypothesis be a unit type);
    * ``norm``, ``eq``, ``subst``: normal form, equality and unit
      substitution of types (an instantiation opens the quantifier's body
      and takes its normal form);
    * ``retype(d, ty)``: d re-derived at an equal type ``ty``;
    * ``fail(msg)``: reject the premises of a transformation;
    * ``wit_values``/``wit_map``: read and rewrite an ``arrE`` witness map;
    * ``app_witness``: check application premise types against the
      witnesses; returns the stored witnesses and the result type.  The
      engine calls it through ``witness``, which computes it once per
      distinct input;
    * ``beta_vector``: the instantiation vector of a unit-typed redex;
    * ``focus_dist``, ``drop_zero``, ``descend_sum``: split a derivation
      of a sum for the distributivity rules, the zero-summand rule and a
      step inside one summand."""

    unit_hypotheses = False
    rules = {
        "ax": (0, (), lambda s, n, ctx: s.ax(ctx, var_name(n.term))),
        "ax0": (0, (), lambda s, n, ctx: s.ax0(ctx)),
        "arrI": (1, ("binder",), lambda s, n, ctx, p: s.arr_i(p, n.binder)),
        "plusI": (2, (), lambda s, n, ctx, p1, p2: s.plus_i(p1, p2)),
        "forallI": (1, ("binder",), lambda s, n, ctx, p: s.forall_i(p, n.binder)),
        "forallE": (1, ("inst_ty",), lambda s, n, ctx, p: s.forall_e(p, n.inst_ty)),
        "arrE": (2, ("arr_u", "arr_ts", "arr_vs", "arr_xs"), lambda s, n, ctx, p1, p2:
                 s.arr_e(p1, p2, n.arr_u, n.arr_ts, n.arr_vs, n.arr_xs)),
    }

    def __init__(self, cls: type):
        super().__init__(cls)
        self._witnesses = {}

    def witness(self, fun_ty, arg_ty, u, ts, vs, xs):
        """``app_witness(fun_ty, arg_ty, u, ts, vs, xs)``, computed once per
        distinct input in a process.  A witness map given as a dict is
        keyed by its sorted items, the form a node stores.  A failure is
        not kept: it raises again on every call."""
        key = (fun_ty, arg_ty, u, _map_key(ts), _map_key(vs), tuple(xs))
        try:
            return self._witnesses[key]
        except KeyError:
            out = self._witnesses[key] = self.app_witness(fun_ty, arg_ty, u, ts, vs, xs)
            return out

    def ax(self, ctx: Context, name: str):
        u = ctx.get(name)
        if u is None:
            refuse(f"variable {name} not in context")
        if self.unit_hypotheses and not is_unit(u):
            refuse(f"hypothesis {name} is not unit-typed")
        return self.cls("ax", ctx, Var(name), u)

    def ax0(self, ctx: Context):
        return self.cls("ax0", ctx, Zero, TZero)

    def arr_i(self, d, binder: str):
        u = d.ctx.get(binder)
        if u is None:
            refuse(f"abstraction binder {binder} not in premise context")
        term = canonicalize(Abs(binder, d.term))
        ty = self.norm(TArrow(u, d.ty))
        return self.cls("arrI", d.ctx.remove(binder), term, ty, (d,), binder=binder)

    def plus_i(self, d1, d2):
        if d1.ctx != d2.ctx:
            refuse("sum premises typed in different contexts")
        term = mk_sum((d1.term, d2.term))
        return self.cls("plusI", d1.ctx, term, self.norm(TSum((d1.ty, d2.ty))), (d1, d2))

    def forall_i(self, d, binder: str):
        if not is_unit(self.norm(d.ty)):
            refuse(f"generalisation over a non-unit type {show_type(d.ty)}")
        if binder in d.ctx.free_tvars():
            refuse(f"{binder} occurs free in the context")
        ty = self.norm(TForall(binder, d.ty))
        return self.cls("forallI", d.ctx, d.term, ty, (d,), binder=binder)

    def forall_e(self, d, v: Type):
        v = self.norm(v)
        if not is_unit(v):
            refuse(f"instantiation with a non-unit type {show_type(v)}")
        c = self.norm(d.ty)
        if not isinstance(c, TForall):
            refuse(f"instantiating a non-quantified type {show_type(d.ty)}")
        return self.cls("forallE", d.ctx, d.term, self.norm(open_binder(c, v)), (d,), inst_ty=v)

    def arr_e(self, d1, d2, u: Type, ts, vs, xs=()):
        xs = tuple(xs)
        if d1.ctx != d2.ctx:
            refuse("application premises typed in different contexts")
        u, ts, vs, res = self.witness(d1.ty, d2.ty, u, ts, vs, xs)
        term = canonicalize(App(d1.term, d2.term))
        return self.cls(
            "arrE", d1.ctx, term, res, (d1, d2),
            arr_u=u, arr_ts=ts, arr_vs=vs, arr_xs=xs,
        )


@dataclass(frozen=True)
class Derivation(DerivationNode):
    """One node of a source typing derivation: the kernel's node, plus the
    witnesses of ``arrE``."""

    arr_u: Type | None = None  # arrE: shared arrow domain U
    arr_ts: tuple | None = None  # arrE: the T's, one per function summand
    arr_vs: tuple | None = None  # arrE: V vectors, one per argument summand
    arr_xs: tuple[str, ...] | None = None  # arrE: generalised variables
    # the translation of a structured node keeps its F-derivation, which
    # depends only on the node and its premises
    _ftrans: object = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class AddDerivation(Derivation):
    """A derivation of the additive system: types are canonical and
    ``arr_ts``/``arr_vs`` list T_i (alpha of them) and V vectors (beta)."""

    @property
    def alpha(self) -> int:
        return len(self.arr_ts) if self.arr_ts is not None else 0

    @property
    def beta(self) -> int:
        return len(self.arr_vs) if self.arr_vs is not None else 0


class AdditiveSystem(SourceSystem):
    """Types compared up to equivalence; an ``equiv`` node retypes."""

    rules = {**SourceSystem.rules,
             "equiv": (1, (), lambda s, n, ctx, p: s.retype(p, n.ty))}
    norm = staticmethod(type_canonicalize)
    eq = staticmethod(type_equiv)
    subst = staticmethod(type_subst)

    def fail(self, msg: str):
        refuse(msg)

    def retype(self, d: AddDerivation, ty: Type) -> AddDerivation:
        ty = type_canonicalize(ty)
        if not type_equiv(d.ty, ty):
            refuse(f"equiv between inequivalent types {show_type(d.ty)} and {show_type(ty)}")
        if d.rule == "equiv":  # fuse consecutive equivalence nodes
            d = d.premises[0]
        if d.ty == ty:
            return d
        return AddDerivation("equiv", d.ctx, d.term, ty, (d,))

    def wit_values(self, m):
        return m

    def wit_map(self, fn, m):
        return tuple(fn(v) for v in m)

    def app_witness(self, fun_ty, arg_ty, u, ts, vs, xs):
        u = type_canonicalize(u)
        ts = tuple(type_canonicalize(t) for t in ts)
        vs = tuple(tuple(type_canonicalize(v) for v in vec) for vec in vs)
        if not is_unit(u):
            refuse(f"arrow domain {show_type(u)} is not a unit type")
        for vec in vs:
            if len(vec) != len(xs):
                refuse("instantiation vector length mismatch")
            if not all(is_unit(v) for v in vec):
                refuse("instantiation vectors must hold unit types")
        want = sum_of_units(forall_close(xs, TArrow(u, t)) for t in ts)
        if not type_equiv(fun_ty, want):
            refuse(f"function premise has type {show_type(fun_ty)}, expected {show_type(want)}")
        want = sum_of_units(type_subst_vec(u, xs, vec) for vec in vs)
        if not type_equiv(arg_ty, want):
            refuse(f"argument premise has type {show_type(arg_ty)}, expected {show_type(want)}")
        res = sum_of_units(type_subst_vec(t, xs, vec) for t in ts for vec in vs)
        return u, ts, vs, res

    def beta_vector(self, core: AddDerivation):
        return core.arr_vs[0] if core.alpha == 1 and core.beta == 1 else None

    def focus_dist(self, core: AddDerivation, part: int, side: int) -> AddDerivation:
        prem, other = core.premises[side], core.premises[1 - side]
        pieces = decompose_sum(prem)
        left, rest = pieces[part], _rebuild_sum(pieces[:part] + pieces[part + 1:])
        u, ts, vs, xs = core.arr_u, core.arr_ts, core.arr_vs, core.arr_xs
        if side == 0:
            expected = [type_canonicalize(forall_close(xs, TArrow(u, t))) for t in ts]
            kl = _match_units(left.ty, expected)
            kr = [k for k in range(len(ts)) if k not in kl]
            dl = self.arr_e(left, other, u, tuple(ts[k] for k in kl), vs, xs)
            dr = self.arr_e(rest, other, u, tuple(ts[k] for k in kr), vs, xs)
        else:
            expected = [type_canonicalize(type_subst_vec(u, xs, vec)) for vec in vs]
            kl = _match_units(left.ty, expected)
            kr = [k for k in range(len(vs)) if k not in kl]
            dl = self.arr_e(other, left, u, ts, tuple(vs[k] for k in kl), xs)
            dr = self.arr_e(other, rest, u, ts, tuple(vs[k] for k in kr), xs)
        return self.plus_i(dl, dr)

    def drop_zero(self, core: AddDerivation, part: int) -> AddDerivation:
        pieces = decompose_sum(core)
        return _rebuild_sum(pieces[:part] + pieces[part + 1:])

    def descend_sum(self, core: AddDerivation, head: int, fn) -> AddDerivation:
        pieces = decompose_sum(core)
        pieces[head] = fn(pieces[head])
        return self.retype(_rebuild_sum(pieces), core.ty)


ADD = AdditiveSystem(AddDerivation)
ax = ADD.ax
ax0 = ADD.ax0
equiv = ADD.retype
arr_i = ADD.arr_i
plus_i = ADD.plus_i
forall_i = ADD.forall_i
forall_e = ADD.forall_e
arr_e = ADD.arr_e


def check_add(d: AddDerivation, path: tuple[int, ...] = ()):
    """Validate every node of an additive derivation; raises RuleViolation
    at the offending node."""
    check_derivation(d, path)


# --- annotated terms and elaboration ---------------------------------------


class ATerm:
    __slots__ = ()


@dataclass(frozen=True)
class AVar(ATerm):
    name: str


@dataclass(frozen=True)
class AZero(ATerm):
    pass


@dataclass(frozen=True)
class AAbs(ATerm):
    var: str
    ann: Type
    body: ATerm


@dataclass(frozen=True)
class AApp(ATerm):
    fun: ATerm
    arg: ATerm
    wit: "AppWitness | None" = None


@dataclass(frozen=True)
class ASum(ATerm):
    parts: tuple[ATerm, ...]


@dataclass(frozen=True)
class AGen(ATerm):
    tvar: str
    body: ATerm


@dataclass(frozen=True)
class AInst(ATerm):
    body: ATerm
    ty: Type


@dataclass(frozen=True)
class AppWitness:
    u: Type
    ts: tuple[Type, ...]
    vs: tuple[tuple[Type, ...], ...]
    xs: tuple[str, ...] = ()


def elaborate(a: ATerm, ctx: Context, loc: str = "term") -> AddDerivation:
    """Build a derivation whose erasure is a; fails on the first witness
    that cannot be satisfied."""

    def err(msg):
        raise ElaborationError(loc, msg)

    match a:
        case AVar(x):
            if x not in ctx:
                err(f"unbound variable {x}")
            return ax(ctx, x)
        case AZero():
            return ax0(ctx)
        case AAbs(x, u, b):
            if x in ctx:
                err(f"binder {x} shadows a context variable")
            u = type_canonicalize(u)
            if not is_unit(u):
                err(f"binder annotation {show_type(u)} is not a unit type")
            d = elaborate(b, ctx.extend(x, u), loc + ".body")
            return arr_i(d, x)
        case ASum(ps):
            ds = [elaborate(p, ctx, f"{loc}.{i}") for i, p in enumerate(ps)]
            out = ds[0]
            for d in ds[1:]:
                out = plus_i(out, d)
            return out
        case AGen(x, b):
            d = elaborate(b, ctx, loc + ".body")
            try:
                return forall_i(d, x)
            except RuleViolation as e:
                err(e.message)
        case AInst(b, v):
            d = elaborate(b, ctx, loc + ".body")
            try:
                return forall_e(d, v)
            except RuleViolation as e:
                err(e.message)
        case AApp(f, u, wit):
            d1 = elaborate(f, ctx, loc + ".fun")
            d2 = elaborate(u, ctx, loc + ".arg")
            if wit is None:
                c = type_canonicalize(d1.ty)
                if isinstance(c, TArrow) and type_equiv(d2.ty, c.dom):
                    wit = AppWitness(c.dom, (c.cod,), ((),), ())
                else:
                    err("application needs an explicit witness block")
            try:
                return arr_e(d1, d2, wit.u, wit.ts, wit.vs, wit.xs)
            except RuleViolation as e:
                err(e.message)
    raise TypeError(f"not an annotated term: {a!r}")


# --- structural helpers for the transformations -----------------------------


def strip_wrappers(d: Derivation):
    """Peel equiv/forallI/forallE nodes; returns (core, wrappers) with
    the wrapper nodes listed root-first."""
    wrappers = []
    while d.rule in ("equiv", "forallI", "forallE"):
        wrappers.append(d)
        d = d.premises[0]
    return d, wrappers


def reapply_wrappers(d: Derivation, wrappers) -> Derivation:
    """The wrapper nodes of ``strip_wrappers`` rebuilt over d."""
    system = d.system
    for w in reversed(wrappers):
        d = system.rebuild(w, (d,))
    return d


def _all_tvars(d: Derivation) -> set[str]:
    """Every type variable name written in d, free or bound, its
    generalised and witness variables included."""
    out: set[str] = set()
    wit_values = d.system.wit_values
    todo = [d]
    while todo:
        n = todo.pop()
        todo.extend(n.premises)
        tys = [n.ty, n.inst_ty, n.arr_u, *(v for _, v in n.ctx.items())]
        tys += wit_values(n.arr_ts or ())
        tys += [v for vec in wit_values(n.arr_vs or ()) for v in vec]
        for t in tys:
            if t is not None:
                out |= names(t)
        if n.rule == "forallI":
            out.add(n.binder)
        out.update(n.arr_xs or ())
    return out


def rename_var(d: Derivation, old: str, new: str) -> Derivation:
    """Rename a free term variable throughout a derivation."""
    if old not in d.ctx and old not in free_vars(d.term):
        return d
    system = d.system

    def go(n: Derivation) -> Derivation:
        ctx = Context(
            ((new if k == old else k), v) for k, v in n.ctx.items()
        )
        if n.rule == "ax":
            nm = n.term.name
            return system.retype(system.ax(ctx, new if nm == old else nm), n.ty)
        if n.rule == "arrI" and n.binder in (old, new):
            raise UnsupportedDerivationShape(
                f"binder {n.binder} collides while renaming {old} to {new}"
            )
        return system.rebuild(n, map(go, n.premises), ctx)

    return go(d)


def weaken(d: Derivation, name: str, ty: Type) -> Derivation:
    """Add an unused hypothesis to every context of a derivation."""
    system = d.system
    ty = system.norm(ty)
    if name in d.ctx:
        raise UnsupportedDerivationShape(f"{name} already hypothesised")
    new_tv = free_vars(ty)

    def go(n: Derivation) -> Derivation:
        if not n.premises:
            return system.rebuild(n, (), n.ctx.extend(name, ty))
        if n.rule == "arrI" and n.binder == name:
            p, b = n.premises[0], n.binder
            avoid = set(p.ctx.names()) | free_vars(p.term) | {name}
            nb = fresh_name(b, avoid)
            return system.arr_i(go(rename_var(p, b, nb)), nb)
        if n.rule == "forallI" and n.binder in new_tv:
            p, b = n.premises[0], n.binder
            nb = fresh_name(b, _all_tvars(p) | new_tv)
            return system.forall_i(go(type_subst_derivation(p, b, TVar(nb))), nb)
        return system.rebuild(n, map(go, n.premises))

    return go(d)


# --- the substitution lemmas -------------------------------------------------


def type_subst_derivation(d: Derivation, x: str, u: Type) -> Derivation:
    """Substitute a unit type for a type variable throughout a
    derivation: contexts, conclusion types and witnesses."""
    system = d.system
    u = system.norm(u)
    if not is_unit(u):
        system.fail("only unit types substitute for type variables")
    fv_u = free_vars(u)
    wit_map = system.wit_map

    def sub(t: Type | None):
        return None if t is None else system.subst(t, x, u)

    def go(n: Derivation) -> Derivation:
        if not n.premises:
            return system.rebuild(n, (), n.ctx.map_types(sub))
        if n.rule == "equiv":
            return system.retype(go(n.premises[0]), sub(n.ty))
        if n.rule == "forallI":
            p, b = n.premises[0], n.binder
            if b == x:
                # x is shadowed below this node; nothing to substitute
                return n
            if b in fv_u:
                nb = fresh_name(b, _all_tvars(p) | fv_u | {x})
                p = type_subst_derivation(p, b, TVar(nb))
                b = nb
            return system.forall_i(go(p), b)
        if n.rule == "forallE":
            return system.forall_e(go(n.premises[0]), sub(n.inst_ty))
        if n.rule == "arrE":
            xs = n.arr_xs or ()
            arr_u, ts = n.arr_u, n.arr_ts
            p1, p2 = go(n.premises[0]), go(n.premises[1])
            vs = wit_map(lambda vec: tuple(sub(v) for v in vec), n.arr_vs)
            if x in xs:
                # x is bound inside the witness schema; only instantiate
                # the free occurrences (premises and vectors)
                return system.arr_e(p1, p2, arr_u, ts, vs, xs)
            clash = [y for y in xs if y in fv_u]
            if clash:
                ren = {}
                avoid = _all_tvars(n) | fv_u | {x}
                for y in clash:
                    ny = fresh_name(y, avoid)
                    avoid.add(ny)
                    ren[y] = ny
                xs = tuple(ren.get(y, y) for y in xs)
                for y, ny in ren.items():
                    arr_u = system.subst(arr_u, y, TVar(ny))
                    ts = wit_map(lambda t: system.subst(t, y, TVar(ny)), ts)
            return system.arr_e(p1, p2, sub(arr_u), wit_map(sub, ts), vs, xs)
        return system.rebuild(n, map(go, n.premises))

    return go(d)


def subst_derivation(d: Derivation, x: str, dv: Derivation) -> Derivation:
    """From derivations of G,x:U |- t:T and G |- v:U, a derivation of
    G |- t[v/x] : T."""
    system = d.system
    u = d.ctx.get(x)
    if u is None:
        system.fail(f"{x} is not hypothesised")
    if dv.ctx != d.ctx.remove(x):
        system.fail("value premise context mismatch")
    if not system.eq(dv.ty, u):
        system.fail("value premise type differs from the hypothesis")
    if not is_value(canonicalize(dv.term)):
        system.fail("only values substitute for term variables")

    def go(n: Derivation, dv: Derivation) -> Derivation:
        if n.rule == "ax" and n.term.name == x:
            return system.retype(dv, n.ty)
        if not n.premises:
            return system.rebuild(n, (), n.ctx.remove(x))
        if n.rule == "arrI":
            p, b = n.premises[0], n.binder
            if b == x:
                raise UnsupportedDerivationShape("binder shadows the substituted variable")
            return system.arr_i(go(p, weaken(dv, b, p.ctx.get(b))), b)
        return system.rebuild(n, [go(p, dv) for p in n.premises])

    return go(d, dv)


# --- one-step reduction of derivations ---------------------------------------


def decompose_sum(d: AddDerivation) -> list[AddDerivation]:
    """Split a derivation of a sum into one derivation per canonical
    component, listed in component order."""
    if not isinstance(canonicalize(d.term), Sum):
        return [d]
    if d.rule == "equiv":
        return decompose_sum(d.premises[0])
    if d.rule == "plusI":
        ps = decompose_sum(d.premises[0]) + decompose_sum(d.premises[1])
    elif d.rule in ("forallI", "forallE"):
        ps = decompose_sum(d.premises[0])
        live = [i for i, p in enumerate(ps) if type_canonicalize(p.ty) is not TZero]
        if len(live) != 1:
            raise UnsupportedDerivationShape(
                "quantifier rule over a sum without a unique non-zero component"
            )
        k = live[0]
        ps[k] = d.system.rebuild(d, (ps[k],))
    else:
        raise UnsupportedDerivationShape(f"rule {d.rule} concludes a sum")
    ps.sort(key=lambda p: sort_key(p.term))
    parts = summands(canonicalize(d.term))
    if tuple(p.term for p in ps) != parts:
        raise UnsupportedDerivationShape("sum components do not line up")
    return ps


def _rebuild_sum(pieces: list[AddDerivation]) -> AddDerivation:
    out = pieces[0]
    for p in pieces[1:]:
        out = plus_i(out, p)
    return out


def _beta_subst_plan(wrappers, xs, vec) -> list[tuple[str, Type]]:
    """Read the type substitution performed by a redex off the
    quantifier nodes between an abstraction and its application."""
    binders: list[str] = []
    subs: list[tuple[str, Type]] = []

    def pop(v: Type):
        if not binders:
            raise UnsupportedDerivationShape("instantiation without a matching generalisation")
        x0 = binders.pop(0)
        fv = free_vars(v)
        if any(b in fv for b in binders):
            raise UnsupportedDerivationShape("instantiation would capture a pending generalisation")
        subs.append((x0, v))

    for w in reversed(wrappers):  # abstraction-to-application order
        if w.rule == "forallI":
            if w.binder in binders:
                raise UnsupportedDerivationShape("repeated generalisation binder")
            binders.insert(0, w.binder)
        elif w.rule == "forallE":
            pop(w.inst_ty)
    if len(binders) != len(xs) or len(vec) != len(xs):
        raise UnsupportedDerivationShape("generalisation arity differs from the witness")
    for v in vec:
        pop(v)
    return subs


def _match_units(piece_ty: Type, expected: list[Type]) -> list[int]:
    """Indices of expected (canonical unit) types covered by a sum
    component's type, consuming duplicates left to right."""
    used: list[int] = []
    for un in type_summands(type_canonicalize(piece_ty)):
        for k, e in enumerate(expected):
            if k not in used and e == un:
                used.append(k)
                break
        else:
            raise UnsupportedDerivationShape("sum component type not among the witnesses")
    return sorted(used)


def _focus_beta(core: Derivation) -> Derivation:
    system = core.system
    p1, p2 = core.premises
    vec = system.beta_vector(core)
    if vec is None:
        raise UnsupportedDerivationShape("redex premises are not unit-typed")
    c1, w1 = strip_wrappers(p1)
    if c1.rule != "arrI":
        raise UnsupportedDerivationShape(f"abstraction derived by {c1.rule}")
    subs = _beta_subst_plan(w1, core.arr_xs, vec)
    body = c1.premises[0]
    for x, v in subs:
        body = type_subst_derivation(body, x, v)
    want_u = body.ctx.get(c1.binder)
    if want_u is None or body.ctx.remove(c1.binder) != core.ctx:
        raise UnsupportedDerivationShape("substituted body context mismatch")
    if not system.eq(p2.ty, want_u):
        raise UnsupportedDerivationShape("argument type differs from the instantiated domain")
    return system.retype(subst_derivation(body, c1.binder, p2), core.ty)


def _focus(core: Derivation, r: Redex) -> Derivation:
    system = core.system
    if r.rule == "sum-zero":
        return system.retype(system.drop_zero(core, r.part), core.ty)
    if core.rule != "arrE":
        raise UnsupportedDerivationShape(f"redex derived by {core.rule}")
    if r.rule == "beta":
        return _focus_beta(core)
    if r.rule in ("dist-right", "dist-left"):
        side = 0 if r.rule == "dist-right" else 1
        return system.retype(system.focus_dist(core, r.part, side), core.ty)
    if not system.eq(core.ty, TZero):
        raise UnsupportedDerivationShape("vanishing application is not zero-typed")
    return system.ax0(core.ctx)


def _descend(core: Derivation, r: Redex) -> Derivation:
    system = core.system
    head, rest = r.path[0], r.path[1:]
    if core.rule == "arrE":
        ps = list(core.premises)
        ps[head] = _reduce(ps[head], Redex(rest, r.rule, r.part))
        return system.rebuild(core, ps)
    if core.rule == "arrI":
        # the premise's term is the body before it moved under the binder,
        # so the path and the summand a rule splits off are mapped back
        tail = {
            "dist-right": (0, r.part),
            "dist-left": (1, r.part),
            "sum-zero": (r.part,),
        }.get(r.rule, ())
        p = core.premises[0]
        full = body_path(core.term, p.term, core.binder, rest + tail)
        new_path = full[: len(full) - len(tail)]
        sub = _reduce(p, Redex(new_path, r.rule, full[-1] if tail else None))
        return system.rebuild(core, (sub,))
    if core.rule == "plusI":
        return system.descend_sum(
            core, head, lambda piece: _reduce(piece, Redex(rest, r.rule, r.part))
        )
    raise UnsupportedDerivationShape(f"cannot follow the redex through {core.rule}")


def _reduce(d: Derivation, r: Redex) -> Derivation:
    """d with the redex r of its term contracted, rebuilt through the rule
    constructors along r's path; r is known to address d's term."""
    core, wrappers = strip_wrappers(d)
    new_core = _focus(core, r) if r.path == () else _descend(core, r)
    return d.system.retype(reapply_wrappers(new_core, wrappers), d.ty)


def reduce_derivation(d: Derivation, r: Redex) -> Derivation:
    """Subject reduction, constructively, in the system of d: from a
    derivation of t and a redex t -> u, a derivation of u with the same
    context and type.  The term is stepped once, which raises StaleRedex
    when r does not address t, and compared once, at the root, with the
    rebuilt conclusion: every constructor builds its term from its
    premises' terms, so a wrong term below would change the root's."""
    new_term = step(d.term, r)
    out = _reduce(d, r)
    if canonicalize(out.term) != new_term:
        raise UnsupportedDerivationShape(
            f"derivation stepped to {show_term(out.term)}, term to {show_term(new_term)}"
        )
    return out


def step_derivation(d: AddDerivation, r: Redex) -> AddDerivation:
    """Subject reduction in the additive system; the result may insert
    equiv nodes to keep the type."""
    return reduce_derivation(d, r)

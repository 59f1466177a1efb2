"""Translation of structured derivations into System F with pairs,
the partial reverse translation, the isomorphism terms for dropping a
zero summand, and the simulation of source reduction steps.

A rigid type's tree becomes nested pairs, built with ``fold_tree``; the
leaf at address w (a word over l/r) is reached by the projection chain
``proj_path_derivation`` builds and ``_strip_projections`` reads back.  Only this
module and ``structured.py`` know that address format."""

from __future__ import annotations

from dataclasses import dataclass

from .binders import Context, Redex
from .structured import (
    ExcludedRule,
    SaddDerivation,
    fold_tree,
    leaves,
    step_sadd_derivation,
)
from .syntax import Abs, App, Sum, Term, Var, Zero, canonicalize, show_term
from .typesys import (
    TArrow,
    TForall,
    TSum,
    TVar,
    TZero,
    Type,
    is_unit,
    raw_alpha_eq,
    show_type,
)
from .sysf import (
    FAbs,
    FApp,
    FArrow,
    FDerivation,
    FForall,
    FPair,
    FProd,
    FProjL,
    FProjR,
    FTVar,
    FTerm,
    FType,
    FUnit,
    FVar,
    Star,
    f_arr_e,
    f_arr_i,
    f_alpha_eq,
    f_ax,
    f_canonicalize,
    f_forall_e,
    f_forall_i,
    f_prod_i,
    f_proj_l,
    f_proj_r,
    f_reaches,
    f_unit_i,
)


# --- forward translation -------------------------------------------------------


def trans_type(t: Type) -> FType:
    """Types: sums become products, the zero type becomes the unit."""
    match t:
        case TVar(x):
            return FTVar(x)
        case _ if t is TZero:
            return FUnit
        case TArrow(a, b):
            return FArrow(trans_type(a), trans_type(b))
        case TForall(x, b):
            return FForall(x, trans_type(b))
        case TSum((l, r)):
            return FProd(trans_type(l), trans_type(r))
        case TSum(_):
            raise ValueError(f"sum is not binary: {show_type(t)}")
    raise TypeError(f"not a type: {t!r}")


def trans_ctx(ctx: Context) -> Context:
    return ctx.map_types(trans_type)


@dataclass(frozen=True)
class TranslationResult:
    fterm: FTerm
    ftype: FType
    fderivation: FDerivation


def _trans(sd: SaddDerivation) -> FDerivation:
    """The F-derivation of one node, kept on the node: it depends only on
    the node and its premises, so a stepped derivation translates only
    the spine the step rebuilt and shares its premises' F-derivations."""
    fd = sd._ftrans
    if fd is None:
        fd = _trans_node(sd)
        object.__setattr__(sd, "_ftrans", fd)
    return fd


def _trans_node(sd: SaddDerivation) -> FDerivation:
    if sd.rule == "ax":
        return f_ax(trans_ctx(sd.ctx), sd.term.name)
    if sd.rule == "ax0":
        return f_unit_i(trans_ctx(sd.ctx))
    if sd.rule == "plusI":
        return f_prod_i(_trans(sd.premises[0]), _trans(sd.premises[1]))
    if sd.rule == "arrI":
        return f_arr_i(_trans(sd.premises[0]), sd.binder)
    if sd.rule == "forallI":
        return f_forall_i(_trans(sd.premises[0]), sd.binder)
    if sd.rule == "forallE":
        return f_forall_e(_trans(sd.premises[0]), trans_type(sd.inst_ty))
    if sd.rule == "arrE":
        # the grafted tree as nested pairs: at leaf w of the function's
        # tree, leaf v of the argument's, the application of the w
        # projection, instantiated at vector v, to the v projection
        d1, d2 = _trans(sd.premises[0]), _trans(sd.premises[1])
        vs, star = dict(sd.arr_vs), f_unit_i(d1.ctx)

        def graft(w, _):
            dw = proj_path_derivation(d1, w)

            def app(v, _):
                chain = dw
                for inst in vs[v]:
                    chain = f_forall_e(chain, trans_type(inst))
                return f_arr_e(chain, proj_path_derivation(d2, v))

            return fold_tree(sd.premises[1].ty, app, star, f_prod_i)

        return fold_tree(sd.premises[0].ty, graft, star, f_prod_i)
    raise TypeError(f"not a structured rule: {sd.rule!r}")


def trans_term(sd: SaddDerivation) -> TranslationResult:
    """Derivation-indexed term translation; the returned derivation
    concludes the translated context, term and type."""
    fd = _trans(sd)
    return TranslationResult(fd.term, fd.ty, fd)


# --- reverse translation --------------------------------------------------------


def rev_type(a: FType) -> Type | None:
    """Partial inverse on types; None marks the undefined cases."""
    match a:
        case FTVar(x):
            return TVar(x)
        case _ if a is FUnit:
            return TZero
        case FProd(l, r):
            rl, rr = rev_type(l), rev_type(r)
            return None if rl is None or rr is None else TSum((rl, rr))
        case FForall(x, b):
            rb = rev_type(b)
            return TForall(x, rb) if rb is not None and is_unit(rb) else None
        case FArrow(d, c):
            rd, rc = rev_type(d), rev_type(c)
            if rd is None or rc is None or not is_unit(rd):
                return None
            return TArrow(rd, rc)
    return None


def proj_path_derivation(d: FDerivation, w: str) -> FDerivation:
    """Project a tree-typed derivation down to the component at address
    w: the first letter of w is the innermost projection, so the
    outermost one is the last (the mirror-word convention)."""
    for c in w:
        d = f_proj_l(d) if c == "l" else f_proj_r(d)
    return d


def _strip_projections(t: FTerm) -> tuple[FTerm, str]:
    """Peel a projection chain, the inverse of proj_path_derivation; the
    returned word lists the innermost projection first (the address the
    chain selects)."""
    letters = []
    while isinstance(t, (FProjL, FProjR)):
        letters.append("l" if isinstance(t, FProjL) else "r")
        t = t.body
    return t, "".join(reversed(letters))


def _f_leaves(t: FTerm, w: str = "") -> dict[str, FTerm]:
    """The leaves of t's maximal pair tree by address, left to right;
    star leaves are left out."""
    if t is Star:
        return {}
    if isinstance(t, FPair):
        return _f_leaves(t.fst, w + "l") | _f_leaves(t.snd, w + "r")
    return {w: t}


def _match_app_tree(t: FTerm) -> tuple[FTerm, FTerm] | None:
    """Recognise a tree of projected applications over one consistent
    function/argument pair; the image of the structured application."""
    parts = _f_leaves(t)
    if not parts:
        return None
    t0 = u0 = None
    for addr, leaf in parts.items():
        if not isinstance(leaf, FApp):
            return None
        pl, w = _strip_projections(leaf.fun)
        pr, v = _strip_projections(leaf.arg)
        if w + v != addr:
            return None
        if t0 is None:
            t0, u0 = pl, pr
        elif pl != t0 or pr != u0:
            # t is a subterm of a canonical term, so the parts sit at one
            # binder depth and are alpha-equivalent iff they are equal
            return None
    return t0, u0


def rev_term(t: FTerm) -> Term | None:
    """Partial inverse on terms. A pair is read back as an application
    when it is a consistent tree of projected applications, and as a
    sum otherwise.  t is canonicalised once, first: canonicalising an
    open subterm on its own would capture the binders above it."""
    return _rev(f_canonicalize(t))


def _rev(t: FTerm) -> Term | None:
    match t:
        case FVar(x):
            return Var(x)
        case _ if t is Star:
            return Zero
        case FAbs(x, b):
            rb = _rev(b)
            return None if rb is None else Abs(x, rb)
        case FPair(_, _) | FApp(_, _):
            hit = _match_app_tree(t)
            if hit is not None:
                rf, ra = _rev(hit[0]), _rev(hit[1])
                return None if rf is None or ra is None else App(rf, ra)
            if isinstance(t, FPair):
                rl, rr = _rev(t.fst), _rev(t.snd)
                return None if rl is None or rr is None else Sum((rl, rr))
            return None
    return None


@dataclass(frozen=True)
class RoundTrip:
    ok: bool
    detail: str = ""


def round_trip(sd: SaddDerivation) -> RoundTrip:
    """Translate, reverse, and compare with the source sequent."""
    res = trans_term(sd)
    rt = rev_term(res.fterm)
    if rt is None or canonicalize(rt) != canonicalize(sd.term):
        got = "undefined" if rt is None else show_term(rt)
        return RoundTrip(False, f"term: {got} != {show_term(sd.term)}")
    rty = rev_type(res.ftype)
    if rty is None or not raw_alpha_eq(rty, sd.ty):
        got = "undefined" if rty is None else show_type(rty)
        return RoundTrip(False, f"type: {got} != {show_type(sd.ty)}")
    for x, u in sd.ctx.items():
        ru = rev_type(trans_type(u))
        if ru is None or not raw_alpha_eq(ru, u):
            return RoundTrip(False, f"hypothesis {x} does not survive the round trip")
    return RoundTrip(True, "same-sequent")


# --- isomorphism and coercion terms ----------------------------------------------


def epsilon_derivations(t: Type, ctx: Context = Context()) -> tuple[FDerivation, FDerivation]:
    ft = trans_type(t)
    c1 = ctx.extend("x", FProd(ft, FUnit))
    down = f_arr_i(f_proj_l(f_ax(c1, "x")), "x")
    c2 = ctx.extend("x", ft)
    up = f_arr_i(f_prod_i(f_ax(c2, "x"), f_unit_i(c2)), "x")
    return down, up


class CoercionUnsupported(Exception):
    """The two types differ below the sum structure."""


def equiv_coercion(t1: Type, t2: Type, ctx: Context = Context()) -> FDerivation:
    """A pair-shuffling term of type [[t1]] -> [[t2]] for rigid types
    equal up to reordering and zero summands: each leaf of t2's tree is
    fetched from a matching leaf of t1 by a projection chain."""
    pool = leaves(t1)
    cx = ctx.extend("x", trans_type(t1))
    dx = f_ax(cx, "x")
    fetched: dict[str, FDerivation] = {}
    for v, unit in leaves(t2).items():
        for w, cand in pool.items():
            if raw_alpha_eq(cand, unit):
                fetched[v] = proj_path_derivation(dx, w)
                del pool[w]
                break
        else:
            raise CoercionUnsupported(
                f"no leaf of {show_type(t1)} matches {show_type(unit)}"
            )
    body = fold_tree(t2, lambda v, _: fetched[v], f_unit_i(cx), f_prod_i)
    return f_arr_i(body, "x")


# --- simulation of source reduction -----------------------------------------------


@dataclass(frozen=True)
class Simulation:
    derivation: SaddDerivation  # of the contracted term, same sequent
    path: list[FTerm] | None  # translated source, ..., translated target
    source: TranslationResult
    target: TranslationResult

    @property
    def found(self) -> bool:
        """A path was found. When source and target translate to distinct
        terms it has at least one step; the zero rules can collapse both
        sides to the same term, where the one-vertex path is the witness."""
        if self.path is None or not self.path:
            return False
        if not f_alpha_eq(self.source.fterm, self.target.fterm):
            return len(self.path) >= 2
        return True


def simulate_step(sd: SaddDerivation, r: Redex, budget: int = 10000,
                  log: list | None = None) -> Simulation:
    """Mirror one source reduction step in the target calculus: step the
    derivation, translate both sides, and search for the connecting
    reduction path.  log is handed to ``f_reaches``."""
    if r.rule == "sum-zero":
        raise ExcludedRule("the zero-summand rule is handled by the epsilon terms")
    sd2 = step_sadd_derivation(sd, r)
    src = trans_term(sd)
    tgt = trans_term(sd2)
    path = f_reaches(src.fterm, tgt.fterm, budget, log)
    return Simulation(sd2, path, src, tgt)

"""The structured variant of the type system, where sum types are rigid
binary trees and the application rule composes them syntactically
instead of reasoning up to equivalence.  A rigid type is its own tree:
a binary ``TSum`` is a node, ``TZero`` a zero leaf and a unit type a
labelled leaf, and ``fold_tree`` is the one walk over that shape.
The rules are the node constructors of ``derivation.SourceSystem`` run
with the ``StructuredSystem`` below, whose types are equal only up to the
renaming of bound variables.  A node is valid when its constructor
rebuilds it: checking is the derivation kernel of ``binders.py``, and the
derivation transformations are those of ``derivation.py``."""

from __future__ import annotations

from dataclasses import dataclass

from .binders import Redex, RuleViolation, check_derivation, free_vars, open_binder, refuse
from .derivation import (
    ADD,
    AddDerivation,
    Derivation,
    SourceSystem,
    UnsupportedDerivationShape,
    arr_e,
    forall_close,
    reduce_derivation,
)
from .syntax import Sum, canonicalize, summands
from .typesys import (
    TArrow,
    TForall,
    TSum,
    TVar,
    TZero,
    Type,
    is_unit,
    raw_alpha_eq,
    raw_subst,
    raw_subst_vec,
    show_type,
    to_raw,
    type_canonicalize,
)


class ConversionFailure(Exception):
    """The derivation has no direct structured counterpart."""


class ExcludedRule(Exception):
    """The redex uses the one rule the structured system cannot track."""


# --- rigid types as trees ---------------------------------------------------


def fold_tree(t: Type, leaf, zero, pair, w: str = ""):
    """The one walk over a rigid type as a binary tree: ``leaf(w, u)`` at
    the unit leaf u of address w (a word over l/r, root first), ``zero``
    at the zero type and ``pair(l, r)`` at a binary sum, over the folded
    halves.  Raises ValueError on a sum that is not binary or a leaf that
    is not a unit type."""
    if t is TZero:
        return zero
    if isinstance(t, TSum):
        if len(t.parts) != 2:
            raise ValueError(f"sum is not binary: {show_type(t)}")
        l, r = t.parts
        return pair(fold_tree(l, leaf, zero, pair, w + "l"),
                    fold_tree(r, leaf, zero, pair, w + "r"))
    if not is_unit(t):
        raise ValueError(f"leaf is not a unit type: {show_type(t)}")
    return leaf(w, t)


def leaves(t: Type) -> dict[str, Type]:
    """The unit leaves of a rigid type by address, left to right."""
    return dict(fold_tree(t, lambda w, u: ((w, u),), (), tuple.__add__))


def _tsum(l: Type, r: Type) -> Type:
    return TSum((l, r))


# --- structured derivations ---------------------------------------------------


@dataclass(frozen=True)
class SaddDerivation(Derivation):
    """A structured derivation: contexts hold rigid unit types, ``ty`` is
    rigid (compared syntactically up to bound renaming), and the ``arrE``
    witnesses are sorted (address, T_w) and (address, vector) pairs."""


def _struct_result(d1_ty, d2_ty, u, ts, vs, xs):
    """The grafted conclusion type, after checking the premise trees
    against the witness maps: a copy of the argument's tree at every
    leaf w of the function's tree, its leaf v labelled T_w[vector_v]."""
    lab1, lab2 = leaves(d1_ty), leaves(d2_ty)
    if set(lab1) != set(ts):
        refuse("function labels do not cover the tree")
    if set(lab2) != set(vs):
        refuse("argument labels do not cover the tree")
    for w, t in ts.items():
        want = forall_close(xs, TArrow(u, t))
        if not raw_alpha_eq(lab1[w], want):
            refuse(f"leaf {w or 'e'}: {show_type(lab1[w])} is not {show_type(want)}")
    for v, vec in vs.items():
        if len(vec) != len(xs):
            refuse("instantiation vector length mismatch")
        want = raw_subst_vec(u, xs, vec)
        if not raw_alpha_eq(lab2[v], want):
            refuse(f"leaf {v or 'e'}: {show_type(lab2[v])} is not {show_type(want)}")

    def graft(w, _):
        return fold_tree(d2_ty, lambda v, _: raw_subst_vec(ts[w], xs, vs[v]), TZero, _tsum)

    return fold_tree(d1_ty, graft, TZero, _tsum)


def _s_root_split(prem: SaddDerivation, target):
    """Check that one side of the root sum node is exactly the split
    summand."""
    if prem.rule != "plusI":
        raise UnsupportedDerivationShape(f"sum premise derived by {prem.rule}")
    for p in prem.premises:
        if not isinstance(canonicalize(p.term), Sum) and canonicalize(p.term) == target:
            return
    raise UnsupportedDerivationShape("split does not follow the rigid sum structure")


def _sub_labels(m: dict, side: str) -> dict:
    return {w[1:]: t for w, t in m.items() if w.startswith(side)}


def _s_replace_piece(n: SaddDerivation, target, rank: int, fn) -> SaddDerivation:
    """Apply fn to the rank-th occurrence of the sum component equal to
    target, preserving the rigid sum structure around it."""
    if not isinstance(canonicalize(n.term), Sum):
        return fn(n)
    if n.rule != "plusI":
        raise UnsupportedDerivationShape(f"sum derived by {n.rule}")
    p0, p1 = n.premises
    c0 = sum(1 for s in summands(canonicalize(p0.term)) if s == target) \
        if isinstance(canonicalize(p0.term), Sum) else int(canonicalize(p0.term) == target)
    if rank < c0:
        return splus_i(_s_replace_piece(p0, target, rank, fn), p1)
    return splus_i(p0, _s_replace_piece(p1, target, rank - c0, fn))


class StructuredSystem(SourceSystem):
    """Rigid types up to bound renaming and no equivalence: a
    transformation that would change a type is refused."""

    unit_hypotheses = True
    eq = staticmethod(raw_alpha_eq)
    subst = staticmethod(raw_subst)

    @staticmethod
    def norm(t: Type) -> Type:
        return t

    def fail(self, msg: str):
        raise UnsupportedDerivationShape(msg)

    def wit_values(self, m):
        return [v for _, v in m]

    def wit_map(self, fn, m):
        return tuple((w, fn(v)) for w, v in m)

    def app_witness(self, fun_ty, arg_ty, u, ts, vs, xs):
        if not is_unit(u):
            refuse(f"arrow domain {show_type(u)} is not a unit type")
        ts, vs = dict(ts), dict(vs)
        res = _struct_result(fun_ty, arg_ty, u, ts, vs, xs)
        return u, tuple(sorted(ts.items())), tuple(sorted(vs.items())), res

    def beta_vector(self, core: SaddDerivation):
        ts, vs = dict(core.arr_ts), dict(core.arr_vs)
        return vs[""] if set(ts) == {""} and set(vs) == {""} else None

    def focus_dist(self, core: SaddDerivation, part: int, side: int) -> SaddDerivation:
        prem, other = core.premises[side], core.premises[1 - side]
        flat = summands(canonicalize(prem.term))
        _s_root_split(prem, flat[part])
        if side == 1 and not is_unit(core.premises[0].ty):
            raise UnsupportedDerivationShape(
                "argument split under a sum-typed function changes the rigid type"
            )
        u, ts, vs, xs = core.arr_u, dict(core.arr_ts), dict(core.arr_vs), core.arr_xs

        def half(k: int) -> SaddDerivation:
            p = prem.premises[k]
            if side == 0:
                return self.arr_e(p, other, u, _sub_labels(ts, "lr"[k]), vs, xs)
            return self.arr_e(other, p, u, ts, _sub_labels(vs, "lr"[k]), xs)

        return self.plus_i(half(0), half(1))

    def drop_zero(self, core: SaddDerivation, part: int):
        raise ExcludedRule("the rule dropping a zero summand has no rigid counterpart")

    def descend_sum(self, core: SaddDerivation, head: int, fn) -> SaddDerivation:
        flat = summands(canonicalize(core.term))
        target = flat[head]
        rank = sum(1 for s in flat[:head] if s == target)
        return _s_replace_piece(core, target, rank, fn)


SADD = StructuredSystem(SaddDerivation)
sax = SADD.ax
sax0 = SADD.ax0
sarr_i = SADD.arr_i
splus_i = SADD.plus_i
sforall_i = SADD.forall_i
sforall_e = SADD.forall_e
struct_arr_e = SADD.arr_e


def check_sadd(d: SaddDerivation, path: tuple[int, ...] = ()):
    """Validate every node of a structured derivation."""
    check_derivation(d, path)


def step_sadd_derivation(d: SaddDerivation, r: Redex) -> SaddDerivation:
    """One-step subject reduction in the structured system, keeping the
    rigid type unchanged; raises ExcludedRule for the zero-summand rule
    and UnsupportedDerivationShape where no same-type derivation exists."""
    return reduce_derivation(d, r)


# --- conversions ---------------------------------------------------------------


def _peel_closure(lab: Type, xs, u: Type) -> Type:
    """Extract T from lab =alpha= forall xs. u -> T, renaming the bound
    variables of lab to xs; None when the shapes disagree."""
    cur = lab
    for x in xs:
        if not isinstance(cur, TForall) or cur.var != x and x in free_vars(cur.body):
            return None
        cur = open_binder(cur, TVar(x))
    if not isinstance(cur, TArrow) or not raw_alpha_eq(cur.dom, u):
        return None
    return cur.cod


def add_to_sadd(d: AddDerivation) -> SaddDerivation:
    """Replay a derivation in the structured system. Partial: nodes
    whose types only fit their rule up to equivalence have no direct
    counterpart and raise ConversionFailure, with the message of the
    structured rule that refuses them."""
    ps = [add_to_sadd(p) for p in d.premises]
    if d.rule not in SADD.rules:
        raise ConversionFailure(f"unknown rule {d.rule!r}")
    try:
        if d.rule == "forallE":
            return sforall_e(ps[0], to_raw(d.inst_ty))
        if d.rule == "arrE":
            return struct_arr_e(*ps, *_sadd_witness(d, *ps))
        return SADD.rebuild(d, ps, d.ctx.map_types(to_raw))
    except RuleViolation as e:
        raise ConversionFailure(e.message)


def _sadd_witness(d: AddDerivation, p1: SaddDerivation, p2: SaddDerivation):
    """The witness of d's ``arrE`` node read off the converted premises."""
    xs = d.arr_xs
    u = to_raw(d.arr_u)
    try:
        lab1, lab2 = leaves(p1.ty), leaves(p2.ty)
    except ValueError as e:
        raise ConversionFailure(str(e))
    ts: dict[str, Type] = {}
    for w, unit in lab1.items():
        t = _peel_closure(unit, xs, u)
        if t is None:
            raise ConversionFailure(
                f"function leaf {w or 'e'} does not fit the witness: {show_type(unit)}"
            )
        ts[w] = t
    vs: dict[str, tuple[Type, ...]] = {}
    pool = [tuple(to_raw(x) for x in vec) for vec in d.arr_vs]
    for v, unit in lab2.items():
        for k, vec in enumerate(pool):
            if vec is not None and raw_alpha_eq(raw_subst_vec(u, xs, vec), unit):
                vs[v] = vec
                pool[k] = None
                break
        else:
            raise ConversionFailure(
                f"argument leaf {v or 'e'} matches no instantiation vector"
            )
    return u, ts, vs, xs


def sadd_to_add(d: SaddDerivation) -> AddDerivation:
    """Read a structured derivation back as an ordinary one; total."""
    if d.rule not in SADD.rules:
        raise ConversionFailure(f"unknown rule {d.rule!r}")
    ps = [sadd_to_add(p) for p in d.premises]
    if d.rule == "arrE":
        # the additive witnesses are the structured ones' values in
        # address order
        ts, vs = (tuple(v for _, v in sorted(dict(m).items())) for m in (d.arr_ts, d.arr_vs))
        return arr_e(*ps, d.arr_u, ts, vs, d.arr_xs)
    return ADD.rebuild(d, ps, d.ctx.map_types(type_canonicalize))

"""The one fold over rigid types against the tree walks it replaced.

A rigid sum type used to be copied into a tree of its own (``Leaf``,
``ZeroLeaf``, ``Node``) and a dict of leaf labels before anything walked
it.  The classes and walks below are those of the commit before
``fold_tree``, kept here so the oracle does not run the code it checks:
``tree_of_type``, ``tree_compose``, ``label_tree`` and ``_f_as_tree``
verbatim, and ``ftree_derivation`` with the tree ``Node`` under its own
name instead of the alias ``TreeNode``.  ``_struct_result``, ``_trans``
and ``equiv_coercion`` are the parent's, which built on them.
"""

import random
from dataclasses import dataclass

import pytest

from addlam.binders import Context
from addlam.corpus import generate_corpus
from addlam.derivation import RuleViolation, UnsupportedDerivationShape, forall_close
from addlam.reduction import enumerate_redexes
from addlam.structured import (
    ExcludedRule,
    SaddDerivation,
    _struct_result,
    fold_tree,
    leaves,
    step_sadd_derivation,
)
from addlam.sysf import (
    FApp,
    FDerivation,
    FPair,
    FTerm,
    Star,
    f_arr_e,
    f_arr_i,
    f_ax,
    f_canonicalize,
    f_forall_e,
    f_forall_i,
    f_prod_i,
    f_unit_i,
)
from addlam.translation import (
    CoercionUnsupported,
    _f_leaves,
    equiv_coercion,
    proj_path_derivation,
    trans_ctx,
    trans_term,
    trans_type,
)
from addlam.typesys import (
    TArrow,
    TForall,
    TSum,
    TVar,
    TZero,
    Type,
    is_unit,
    raw_alpha_eq,
    raw_subst_vec,
    show_type,
)


# --- the parent's trees ---------------------------------------------------------


class TypeTree:
    __slots__ = ()


@dataclass(frozen=True)
class Leaf(TypeTree):
    def __str__(self):
        return "leaf"


@dataclass(frozen=True)
class ZeroLeaf(TypeTree):
    def __str__(self):
        return "zero"


@dataclass(frozen=True)
class Node(TypeTree):
    left: TypeTree
    right: TypeTree

    def __str__(self):
        return f"({self.left} | {self.right})"


LEAF = Leaf()
ZLEAF = ZeroLeaf()


def tree_of_type(t: Type) -> tuple[TypeTree, dict[str, Type]]:
    """Tree shape and leaf labelling of a rigid (binary-sum) type."""
    match t:
        case _ if t is TZero:
            return ZLEAF, {}
        case TSum((l, r)):
            tl, ml = tree_of_type(l)
            tr, mr = tree_of_type(r)
            lab = {"l" + w: u for w, u in ml.items()}
            lab.update({"r" + w: u for w, u in mr.items()})
            return Node(tl, tr), lab
        case TSum(_):
            raise ValueError(f"sum is not binary: {show_type(t)}")
        case _:
            if not is_unit(t):
                raise ValueError(f"leaf is not a unit type: {show_type(t)}")
            return LEAF, {"": t}


def label_tree(a: TypeTree, lab: dict[str, Type], prefix: str = "") -> Type:
    """Rebuild the rigid type from a tree shape and its leaf labels."""
    match a:
        case Leaf():
            return lab[prefix]
        case ZeroLeaf():
            return TZero
        case Node(l, r):
            return TSum((label_tree(l, lab, prefix + "l"), label_tree(r, lab, prefix + "r")))
    raise TypeError(f"not a tree: {a!r}")


def tree_compose(a: TypeTree, a2: TypeTree) -> TypeTree:
    """Graft a copy of a2 onto every labelled leaf of a."""
    match a:
        case Leaf():
            return a2
        case ZeroLeaf():
            return ZLEAF
        case Node(l, r):
            return Node(tree_compose(l, a2), tree_compose(r, a2))
    raise TypeError(f"not a tree: {a!r}")


def ftree_derivation(a: TypeTree, taud: dict[str, FDerivation], ctx: Context) -> FDerivation:
    """Pair up leaf derivations along a tree shape."""
    match a:
        case Leaf():
            return taud[""]
        case ZeroLeaf():
            return f_unit_i(ctx)
        case Node(l, r):
            dl = ftree_derivation(l, {w[1:]: d for w, d in taud.items() if w.startswith("l")}, ctx)
            dr = ftree_derivation(r, {w[1:]: d for w, d in taud.items() if w.startswith("r")}, ctx)
            return f_prod_i(dl, dr)
    raise TypeError(f"not a tree: {a!r}")


def _f_as_tree(t: FTerm) -> tuple[TypeTree, dict[str, FTerm]]:
    """Maximal pair-tree decomposition of an F term."""
    if t is Star:
        return ZLEAF, {}
    if isinstance(t, FPair):
        tl, ml = _f_as_tree(t.fst)
        tr, mr = _f_as_tree(t.snd)
        leaves = {"l" + w: u for w, u in ml.items()}
        leaves.update({"r" + w: u for w, u in mr.items()})
        return Node(tl, tr), leaves
    return LEAF, {"": t}


# --- the parent's users of the trees --------------------------------------------


def ref_struct_result(d1_ty, d2_ty, u, ts, vs, xs):
    a, lab1 = tree_of_type(d1_ty)
    a2, lab2 = tree_of_type(d2_ty)
    if set(lab1) != set(ts):
        raise RuleViolation((), "function labels do not cover the tree")
    if set(lab2) != set(vs):
        raise RuleViolation((), "argument labels do not cover the tree")
    for w, t in ts.items():
        want = forall_close(xs, TArrow(u, t))
        if not raw_alpha_eq(lab1[w], want):
            raise RuleViolation(
                (), f"leaf {w or 'e'}: {show_type(lab1[w])} is not {show_type(want)}"
            )
    for v, vec in vs.items():
        if len(vec) != len(xs):
            raise RuleViolation((), "instantiation vector length mismatch")
        want = raw_subst_vec(u, xs, vec)
        if not raw_alpha_eq(lab2[v], want):
            raise RuleViolation(
                (), f"leaf {v or 'e'}: {show_type(lab2[v])} is not {show_type(want)}"
            )
    lab = {
        w + v: raw_subst_vec(ts[w], xs, vec)
        for w in ts
        for v, vec in vs.items()
    }
    return label_tree(tree_compose(a, a2), lab)


def ref_trans(sd: SaddDerivation) -> FDerivation:
    fctx = trans_ctx(sd.ctx)
    if sd.rule == "ax":
        return f_ax(fctx, sd.term.name)
    if sd.rule == "ax0":
        return f_unit_i(fctx)
    if sd.rule == "plusI":
        return f_prod_i(ref_trans(sd.premises[0]), ref_trans(sd.premises[1]))
    if sd.rule == "arrI":
        return f_arr_i(ref_trans(sd.premises[0]), sd.binder)
    if sd.rule == "forallI":
        return f_forall_i(ref_trans(sd.premises[0]), sd.binder)
    if sd.rule == "forallE":
        return f_forall_e(ref_trans(sd.premises[0]), trans_type(sd.inst_ty))
    if sd.rule == "arrE":
        d1, d2 = ref_trans(sd.premises[0]), ref_trans(sd.premises[1])
        a, _ = tree_of_type(sd.premises[0].ty)
        a2, _ = tree_of_type(sd.premises[1].ty)
        ts, vs = dict(sd.arr_ts), dict(sd.arr_vs)
        leaves: dict[str, FDerivation] = {}
        for w in ts:
            dw = proj_path_derivation(d1, w)
            for v, vec in vs.items():
                chain = dw
                for inst in vec:
                    chain = f_forall_e(chain, trans_type(inst))
                leaves[w + v] = f_arr_e(chain, proj_path_derivation(d2, v))
        return ftree_derivation(tree_compose(a, a2), leaves, fctx)
    raise TypeError(f"not a structured rule: {sd.rule!r}")


def ref_equiv_coercion(t1: Type, t2: Type, ctx: Context = Context()) -> FDerivation:
    _, lab1 = tree_of_type(t1)
    a2, lab2 = tree_of_type(t2)
    cx = ctx.extend("x", trans_type(t1))
    dx = f_ax(cx, "x")
    pool = dict(lab1)
    leaves: dict[str, FDerivation] = {}
    for v, unit in lab2.items():
        for w, cand in pool.items():
            if raw_alpha_eq(cand, unit):
                leaves[v] = proj_path_derivation(dx, w)
                del pool[w]
                break
        else:
            raise CoercionUnsupported(
                f"no leaf of {show_type(t1)} matches {show_type(unit)}"
            )
    body = ftree_derivation(a2, leaves, cx)
    return f_arr_i(body, "x")


# --- inputs ---------------------------------------------------------------------


def _nodes(d):
    yield d
    for p in d.premises:
        yield from _nodes(p)


@pytest.fixture(scope="module")
def derivations() -> list[SaddDerivation]:
    """The structured corpus of seeds 1 and 2, and every derivation its
    redexes step to in the rigid system."""
    out = []
    for seed, count in ((1, 500), (2, 200)):
        for sd in generate_corpus(seed, 20, count).structured:
            out.append(sd)
            for r in enumerate_redexes(sd.term):
                try:
                    out.append(step_sadd_derivation(sd, r))
                except (ExcludedRule, UnsupportedDerivationShape):
                    pass
    return out


def _random_rigid(rng: random.Random, depth: int) -> Type:
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice([TVar("X"), TVar("Y"), TArrow(TVar("X"), TVar("Y")),
                           TForall("Z", TArrow(TVar("Z"), TVar("Z")))])
    if roll < 0.4:
        return TZero
    return TSum((_random_rigid(rng, depth - 1), _random_rigid(rng, depth - 1)))


# --- agreement ------------------------------------------------------------------


def test_leaves_and_rebuild_agree_on_random_rigid_types():
    rng = random.Random(11)
    for _ in range(500):
        t = _random_rigid(rng, 4)
        tree, lab = tree_of_type(t)
        assert list(leaves(t).items()) == list(lab.items())
        assert fold_tree(t, lambda w, u: u, TZero, lambda l, r: TSum((l, r))) == t
        assert fold_tree(t, lambda w, u: LEAF, ZLEAF, Node) == tree
        assert label_tree(tree, leaves(t)) == t


@pytest.mark.parametrize("bad", [
    TSum((TVar("X"), TVar("Y"), TZero)),
    TSum((TSum((TVar("X"), TZero)), TSum((TVar("X"), TVar("Y"), TVar("Y"))))),
    TSum((TSum((TVar("X"), TVar("Y"), TZero)), TSum((TVar("X"), TVar("Y"), TVar("Y"))))),
])
def test_the_fold_refuses_what_the_tree_reader_refused(bad):
    with pytest.raises(ValueError) as want:
        tree_of_type(bad)
    with pytest.raises(ValueError) as got:
        leaves(bad)
    assert str(got.value) == str(want.value)


def test_every_grafted_type_agrees(derivations):
    n = 0
    for sd in derivations:
        for d in _nodes(sd):
            if d.rule != "arrE":
                continue
            n += 1
            p1, p2 = d.premises
            args = (p1.ty, p2.ty, d.arr_u, dict(d.arr_ts), dict(d.arr_vs), d.arr_xs)
            want = ref_struct_result(*args)
            assert _struct_result(*args) == want
            assert d.ty == want
    assert n > 100


def test_every_translation_agrees(derivations):
    for sd in derivations:
        assert trans_term(sd).fderivation == ref_trans(sd), show_type(sd.ty)


def test_every_self_coercion_agrees(derivations):
    for sd in derivations:
        assert equiv_coercion(sd.ty, sd.ty) == ref_equiv_coercion(sd.ty, sd.ty)


def _coerce(fn, t1, t2):
    try:
        return fn(t1, t2)
    except CoercionUnsupported as e:
        return f"unsupported: {e}"


def test_coercions_between_reordered_types_agree():
    rng = random.Random(12)
    for _ in range(300):
        t1 = _random_rigid(rng, 3)
        if rng.random() < 0.5:
            t2 = _random_rigid(rng, 3)
        else:  # t1 with some of its sums' halves swapped
            t2 = fold_tree(t1, lambda w, u: u, TZero,
                           lambda l, r: TSum((r, l) if rng.random() < 0.5 else (l, r)))
        assert _coerce(equiv_coercion, t1, t2) == _coerce(ref_equiv_coercion, t1, t2)


def test_every_application_tree_reads_the_same_leaves(derivations):
    n = 0
    for sd in derivations:
        stack = [f_canonicalize(trans_term(sd).fterm)]
        while stack:
            t = stack.pop()
            stack.extend(t._kids())
            if isinstance(t, (FPair, FApp)):
                # the inputs _rev hands to _match_app_tree, and more
                n += 1
                assert list(_f_leaves(t).items()) == list(_f_as_tree(t)[1].items())
    assert n > 100

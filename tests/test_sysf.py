"""The polymorphic pair calculus: reduction, typing, and rigid trees read
as pairs and projections."""

from dataclasses import replace

import pytest

import addlam.binders as binders
import addlam.sysf as sysf
from addlam.binders import Context, Redex, RuleViolation, StaleRedex, redexes, step
from addlam.corpus import generate_corpus
from addlam.derivation import UnsupportedDerivationShape
from addlam.reduction import enumerate_redexes
from addlam.structured import ExcludedRule, fold_tree, step_sadd_derivation
from addlam.syntax import canonicalize
from addlam.sysf import (
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
    FUnit,
    FVar,
    Star,
    f_arr_e,
    f_arr_i,
    f_ax,
    f_canonicalize,
    f_check,
    f_forall_e,
    f_forall_i,
    f_prod_i,
    f_proj_l,
    f_proj_r,
    f_reaches,
    f_reducts,
    f_type_alpha_eq,
    f_unit_i,
)
from addlam.translation import _strip_projections, proj_path_derivation, trans_term
from addlam.typesys import TSum, TVar, TZero
from test_check_oracle import malformed_nodes_fail_at_their_paths, nodes

A = FTVar("A")


def test_beta_and_projections():
    t = FApp(FAbs("x", FVar("x")), FVar("y"))
    assert f_canonicalize(FVar("y")) in f_reducts(t)
    p = FPair(FVar("a"), FVar("b"))
    assert f_canonicalize(FVar("a")) in f_reducts(FProjL(p))
    assert f_canonicalize(FVar("b")) in f_reducts(FProjR(p))


def test_reducts_under_a_binder_do_not_capture():
    # \a.(\x.\y.a) b reduces to \a.\y.a; a reduct of the open body,
    # canonicalised on its own, would turn a into the inner binder
    t = f_canonicalize(FAbs("a", FApp(FAbs("x", FAbs("y", FVar("a"))), FVar("b"))))
    want = f_canonicalize(FAbs("a", FAbs("y", FVar("a"))))
    assert f_reducts(t) == {want}


def test_eta_contraction_needs_a_fresh_variable():
    t = FAbs("x", FApp(FVar("f"), FVar("x")))
    assert f_canonicalize(FVar("f")) in f_reducts(t)
    u = FAbs("x", FApp(FVar("x"), FVar("x")))
    assert f_canonicalize(FVar("x")) not in f_reducts(u)


def test_surjective_pairing():
    p = FVar("p")
    t = FPair(FProjL(p), FProjR(p))
    assert f_canonicalize(p) in f_reducts(t)
    q = FPair(FProjL(FVar("p")), FProjR(FVar("q")))
    assert f_canonicalize(FVar("p")) not in f_reducts(q)


def test_surjective_pairing_under_binders_does_not_capture():
    # the two projected terms differ (\z.x and \z.z), so the pair is not
    # an eta redex; compared after canonicalising each alone, x became z
    t = f_canonicalize(
        FAbs("x", FAbs("y", FPair(FProjL(FAbs("z", FVar("x"))), FProjR(FAbs("z", FVar("z"))))))
    )
    assert f_reducts(t) == frozenset()
    u = f_canonicalize(FAbs("x", FPair(FProjL(FVar("x")), FProjR(FVar("x")))))
    assert f_reducts(u) == {f_canonicalize(FAbs("x", FVar("x")))}


def test_a_free_name_of_the_old_positional_form_stays_free():
    # _0 was the name the binder at depth 0 took, so \x._0 turned into the
    # identity until such names were refused; a binder names no variable now
    c = f_canonicalize(FAbs("x", FVar("_0")))
    assert c == FAbs("", FVar("_0")) and c != f_canonicalize(FAbs("x", FVar("x")))


def test_a_stale_redex_is_refused_by_name():
    """A path that leaves the term, a rule that does not match the node the
    path reaches, or a rule of the source calculus raises StaleRedex, never
    an IndexError, a KeyError or the like."""
    t = f_canonicalize(FAbs("a", FPair(FApp(FAbs("x", FVar("x")), FVar("a")),
                                       FProjL(FPair(FVar("a"), Star)))))
    assert redexes(t, sysf._TESTS) == (Redex((0, 0), "beta"), Redex((0, 1), "proj-l"))
    for r in (
        Redex((1,), "beta"),  # an abstraction has one child
        Redex((0, 2), "beta"),  # a pair has two
        Redex((0, 0, 0, 0, 0), "beta"),  # a variable has none
        Redex((0, 1, 0, 1, 0), "beta"),  # nor has star
        Redex((0, "0"), "beta"),  # a child is named by an int
        Redex((0, 0), "proj-l"),  # the rule of another redex
        Redex((0, 1), "proj-r"),
        Redex((), "eta"),  # \a.<...> is no eta redex
        Redex((0,), "surj"),  # the projected terms differ
        Redex((0, 0), "gamma"),  # no such rule
        # rules of the source calculus
        Redex((0, 0), "dist-left", 0),
        Redex((0, 0), "zero-fun"),
        Redex((0, 0), "zero-arg"),
        Redex((0,), "sum-zero", 0),
    ):
        with pytest.raises(StaleRedex):
            step(t, r, sysf._TESTS, sysf._RULES)
    assert step(t, Redex((0, 0), "beta"), sysf._TESTS, sysf._RULES) == f_canonicalize(
        FAbs("a", FPair(FVar("a"), FProjL(FPair(FVar("a"), Star)))))


def test_an_axiom_may_name_a_variable_of_the_old_positional_form():
    ctx = Context([("_0", FUnit)])
    d = f_ax(ctx, "_0")
    assert d.term == FVar("_0")
    f_check(FDerivation("Ax", ctx, FVar("_0"), FUnit))


def test_checking_a_translation_canonicalises_nothing(monkeypatch):
    """Each node's conclusion, rebuilt from its premises, shares its
    children with the node, so == decides the comparison.  The patch sees
    the kernel's calls: a subject that differs in a bound name is
    canonicalised."""
    fds = [trans_term(sd).fderivation for sd in generate_corpus(1, 20, 100).structured]
    calls = []
    real = binders.canonical
    monkeypatch.setattr(binders, "canonical", lambda t: calls.append(t) or real(t))
    for fd in fds:
        f_check(fd)
    assert len(fds) > 20 and calls == []
    d = f_arr_i(f_ax(Context((("x", A),)), "x"), "x")
    f_check(replace(d, term=FAbs("y", FVar("y"))))
    assert calls


def test_each_f_node_is_checked_once(monkeypatch):
    """The translations of a derivation and of its steps share nodes, since
    a structured node keeps its F-derivation.  f_check marks a node once it
    and its premises passed, so it checks each distinct node once."""
    fds = []
    for sd in generate_corpus(3, 20, 100).structured:
        fds.append(trans_term(sd).fderivation)
        for r in sorted(enumerate_redexes(canonicalize(sd.term)), key=repr):
            try:
                fds.append(trans_term(step_sadd_derivation(sd, r)).fderivation)
            except (ExcludedRule, UnsupportedDerivationShape, StaleRedex):
                continue
    walked = [n for fd in fds for _, n in nodes(fd)]
    distinct = {id(n) for n in walked}
    checked = []  # keeps each checked node alive, so no two share an id
    real = binders._check_node
    monkeypatch.setattr(binders, "_check_node", lambda d, path: checked.append(d) or real(d, path))
    for fd in fds:
        f_check(fd)
    assert len(walked) > 2 * len(distinct) > 500
    assert len(checked) == len(distinct) == len({id(n) for n in checked})


def test_a_second_search_from_a_raw_term_computes_no_reduct(monkeypatch):
    """A raw term keeps its canonical form, and each canonical term the
    first search expanded keeps its reducts."""
    calls = []
    real = sysf.redexes
    monkeypatch.setattr(sysf, "redexes", lambda t, tests: calls.append(t) or real(t, tests))
    src = FApp(FAbs("x", FPair(FProjL(FPair(FVar("x"), Star)), FVar("x"))), FVar("v"))
    tgt = FPair(FVar("v"), FVar("v"))
    first = f_reaches(src, tgt)
    assert len(first) == 3 and len(calls) >= 2
    assert f_canonicalize(src) is f_canonicalize(src) is first[0]
    n = len(calls)
    assert f_reaches(src, tgt) == first and f_reducts(src) == set(sysf._freducts(first[0]))
    assert len(calls) == n


def test_a_search_logs_what_it_used_of_its_budget():
    # <proj_l <a, b>, b> takes one step to <a, b>, and proj_l (proj_l
    # <<a, b>, b>) two to a
    a, b = FVar("a"), FVar("b")
    log = []
    assert f_reaches(FPair(FProjL(FPair(a, b)), b), FPair(a, b), 10, log) is not None
    assert f_reaches(a, a, 10, log) == [a]
    assert f_reaches(FProjL(FProjL(FPair(FPair(a, b), b))), a, 1, log) is None
    assert f_reaches(FProjL(FPair(a, b)), b, 10, log) is None
    assert log == [(1, False), (0, False), (1, True), (2, False)]


def test_normalisation_of_a_pair_program():
    t = FProjR(FPair(FVar("a"), FApp(FAbs("x", FVar("x")), FVar("b"))))
    assert f_reaches(t, FVar("b")) is not None


def test_reaches_returns_a_connected_path():
    src = FApp(FAbs("x", FPair(FVar("x"), FVar("x"))), FVar("v"))
    tgt = FPair(FVar("v"), FVar("v"))
    path = f_reaches(src, tgt)
    assert path is not None and len(path) == 2
    assert path[-1] == f_canonicalize(tgt)


def test_typing_of_abstraction_and_application():
    ctx = Context((("v", A),))
    d = f_arr_i(f_ax(ctx.extend("x", A), "x"), "x")
    assert f_type_alpha_eq(d.ty, FArrow(A, A))
    app = f_arr_e(d, f_ax(ctx, "v"))
    f_check(app)
    assert f_type_alpha_eq(app.ty, A)


def test_typing_of_pairs_and_projections():
    ctx = Context((("v", A), ("w", FUnit)))
    d = f_prod_i(f_ax(ctx, "v"), f_unit_i(ctx))
    assert f_type_alpha_eq(d.ty, FProd(A, FUnit))
    f_check(f_proj_l(d))
    assert f_type_alpha_eq(f_proj_r(d).ty, FUnit)


def test_typing_of_quantifiers():
    ctx = Context()
    d = f_forall_i(f_arr_i(f_ax(ctx.extend("x", FTVar("B")), "x"), "x"), "B")
    assert f_type_alpha_eq(d.ty, FForall("C", FArrow(FTVar("C"), FTVar("C"))))
    inst = f_forall_e(d, FProd(A, A))
    f_check(inst)
    assert f_type_alpha_eq(inst.ty, FArrow(FProd(A, A), FProd(A, A)))


def test_generalisation_needs_a_fresh_type_variable():
    ctx = Context((("v", A),))
    with pytest.raises(RuleViolation):
        f_forall_i(f_ax(ctx, "v"), "A")


def test_checker_rejects_a_forged_projection():
    ctx = Context((("v", A),))
    d = f_ax(ctx, "v")
    forged = type(d)("projL", ctx, FProjL(d.term), A, (d,))
    with pytest.raises(RuleViolation):
        f_check(forged)


def test_a_malformed_node_fails_at_its_path():
    """An unknown rule, a wrong number of premises or a lost field is a
    RuleViolation at the node, under every rule of F."""
    ctx = Context((("v", A),))
    b = FTVar("B")
    poly = f_forall_i(f_arr_i(f_ax(ctx.extend("x", b), "x"), "x"), "B")
    pair = f_prod_i(f_arr_e(f_forall_e(poly, A), f_ax(ctx, "v")), f_unit_i(ctx))
    d = f_prod_i(f_proj_l(pair), f_proj_r(pair))
    f_check(d)
    assert {n.rule for _, n in nodes(d)} == {
        "Ax", "UnitI", "ArrI", "ArrE", "ProdI", "ProdEl", "ProdEr", "ForallI", "ForallE"
    }
    assert malformed_nodes_fail_at_their_paths(d, f_check, RuleViolation) == 61


def test_projection_path_nests_innermost_first():
    ctx = Context((("u1", A), ("u2", A), ("u3", A)))
    u1, u2, u3 = (f_ax(ctx, u) for u in ("u1", "u2", "u3"))
    d = f_prod_i(f_prod_i(u1, f_prod_i(u2, u3)), f_unit_i(ctx))
    t = d.term
    # the leaf at address l,r,r is reached by projecting left first
    got = proj_path_derivation(d, "lrr")
    f_check(got)
    assert f_reaches(got.term, FVar("u3")) is not None
    assert got.term == FProjR(FProjR(FProjL(t)))
    assert _strip_projections(got.term) == (t, "lrr")


def test_tree_term_places_stars_at_zero_leaves():
    tree = TSum((TSum((TVar("X"), TZero)), TVar("Y")))
    tau = {"ll": FVar("a"), "r": FVar("b")}
    t = fold_tree(tree, lambda w, _: tau[w], Star, FPair)
    assert t == FPair(FPair(FVar("a"), Star), FVar("b"))


def test_tree_derivation_assembles_products():
    ctx = Context((("v", A),))
    tree = TSum((TVar("X"), TZero))
    d = fold_tree(tree, lambda w, _: f_ax(ctx, "v"), f_unit_i(ctx), f_prod_i)
    f_check(d)
    assert f_type_alpha_eq(d.ty, FProd(A, FUnit))
    back = proj_path_derivation(d, "l")
    f_check(back)
    assert f_type_alpha_eq(back.ty, A)

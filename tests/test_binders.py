"""The shared binder core: what a node declaration generates, and the
operations every language gets from it."""

import pytest

from addlam.binders import Node, alpha_eq, canonical, free_vars, rebuild, subst
from addlam.parser import parse_term, parse_type
from addlam.syntax import Abs, App, Sum, Var
from addlam.sysf import FAbs, FApp, FVar
from addlam.typesys import TArrow, TForall, TSum, TVar, TZero


def test_a_declaration_must_have_the_fields_of_its_kind():
    class Lang(Node):
        __slots__ = ()

    class V(Lang, var=True):
        __slots__ = ("name",)

    with pytest.raises(TypeError, match="fields"):
        class Lam(Lang, binds=V):  # noqa: F841 - the declaration is the test
            __slots__ = ("x", "body")


def test_generated_methods_follow_the_declaration():
    t = TForall("X", TArrow(TVar("X"), TVar("Y")))
    assert TForall.__match_args__ == ("var", "body")
    assert hash(t) == hash((2, "X", hash((1, hash((0, "X")), hash((0, "Y"))))))
    assert t == TForall("X", TArrow(TVar("X"), TVar("Y")))
    assert t != TForall("Y", TArrow(TVar("Y"), TVar("Y")))
    assert repr(TSum((TVar("X"), TZero))) == "TSum(parts=(TVar(name='X'), TZero))"


def test_one_substitution_avoids_capture_in_every_language():
    # [y/x] under a binder of y renames the binder, and only when x occurs
    t = TForall("Y", TArrow(TVar("X"), TVar("Y")))
    u = subst(t, "X", TVar("Y"))
    assert u.var != "Y" and u.body == TArrow(TVar("Y"), TVar(u.var))
    assert subst(TForall("Y", TVar("Y")), "X", TVar("Y")) == TForall("Y", TVar("Y"))
    f = subst(FAbs("y", FApp(FVar("x"), FVar("y"))), "x", FVar("y"))
    assert alpha_eq(f, FAbs("z", FApp(FVar("y"), FVar("z"))))
    assert free_vars(f) == {"y"}


def test_rebuild_gives_an_equal_unmarked_copy():
    c = canonical(TForall("X", TSum((TVar("X"), TVar("Y")))))
    r = rebuild(c)
    assert r == c and r is not c and not r._canonical
    assert canonical(r) == c


def test_the_walk_puts_back_the_names_a_binder_hid():
    # (\x.x) x: the argument is the free x, outside the binder's scope
    assert canonical(parse_term(r"(\x.x) x")) == App(Abs("_0", Var("_0")), Var("x"))
    # \x.(\x.x) x: the inner binder hides the outer x, the argument sees it again
    assert canonical(parse_term(r"\x.(\x.x) x")) == Abs(
        "_0", App(Abs("_1", Var("_1")), Var("_0")))
    # a binder's scope ends at its summand: the sibling x is free
    assert canonical(Sum((Abs("x", Sum((Var("x"), Var("x")))), Var("x")))) == Sum(
        (Var("x"), Abs("_0", Sum((Var("_0"), Var("_0"))))))
    assert canonical(parse_type("forall A. (forall A. A) -> A")) == TForall(
        "_0", TArrow(TForall("_1", TVar("_1")), TVar("_0")))


def test_positional_names_reach_past_any_fixed_depth():
    t = TVar("A")
    for _ in range(200):
        t = TForall("A", TArrow(TVar("A"), t))
    c = canonical(t)
    for d in range(200):
        assert c.var == f"_{d}" and c.body.dom == TVar(f"_{d}")
        c = c.body.cod
    assert c == TVar("_199")


def test_canonicalising_a_rebuilt_copy_runs_the_full_walk():
    sum_free = TForall("X", TArrow(TVar("X"), TForall("Y", TArrow(TVar("Y"), TVar("Z")))))
    with_sum = TForall("X", TSum((TVar("Y"), TArrow(TVar("X"), TVar("X")))))
    for t in (sum_free, with_sum):
        c = canonical(t)
        shown, key, body = repr(c), hash(c), c.body
        r = rebuild(c)
        out = canonical(r)
        assert out == c and out._canonical and out is not c
        assert c.body is body and repr(c) == shown and hash(c) == key and c._canonical
        # a copy without a sum is its own canonical form, so the walk hands
        # it back, marked; a sum is merged again
        assert (out is r) == (t is sum_free)


def test_the_walk_returns_the_nodes_it_does_not_change():
    free = TArrow(TVar("B"), TVar("C"))  # binder-free: its canonical form is itself
    t = TForall("A", TArrow(TVar("A"), free))
    c = canonical(t)
    assert c is not t and c.body.cod is free and not free._canonical
    f = FApp(FVar("f"), FVar("a"))
    assert canonical(FAbs("x", FApp(FVar("x"), f))).body.arg is f
    named = TForall("_0", TArrow(TVar("_0"), free))  # already positional
    assert canonical(named) is named and named._canonical

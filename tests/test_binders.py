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
    out = canonical(r)
    # the raw copy keeps, in the slot that marks canonical nodes, the form
    # its walk produced, so a second call walks nothing
    assert out == c and r._canonical is out and canonical(r) is out


def test_the_walk_puts_back_the_names_a_binder_hid():
    # (\x.x) x: the argument is the free x, outside the binder's scope
    assert canonical(parse_term(r"(\x.x) x")) == App(Abs("", Var(0)), Var("x"))
    # \x.(\x.x) x: the inner binder hides the outer x, the argument sees it again
    assert canonical(parse_term(r"\x.(\x.x) x")) == Abs(
        "", App(Abs("", Var(0)), Var(0)))
    # a binder's scope ends at its summand: the sibling x is free
    assert canonical(Sum((Abs("x", Sum((Var("x"), Var("x")))), Var("x")))) == Sum(
        (Var("x"), Abs("", Sum((Var(0), Var(0))))))
    assert canonical(parse_type("forall A. (forall A. A) -> A")) == TForall(
        "", TArrow(TForall("", TVar(0)), TVar(0)))
    # an index counts the binders between a variable and its own
    assert canonical(parse_term(r"\x.\y. x (\z. y)")) == Abs("", Abs("", App(
        Var(1), Abs("", Var(1)))))


def test_indices_reach_past_any_fixed_depth():
    t = TVar("A")
    for _ in range(200):
        t = TForall("A", TArrow(TVar("A"), t))
    c = canonical(t)
    for _ in range(200):
        assert c.var == "" and c.body.dom == TVar(0)
        # every node of the canonical form is canonical where it sits
        assert canonical(c.body) is c.body and c.body._canonical is True
        c = c.body.cod
    assert c == TVar(0)


def test_a_binder_over_canonical_parts_walks_only_what_mentions_its_name():
    body = canonical(parse_term(r"x (\z. z) (a + b)"))
    shared = body.fun.arg, body.arg
    c = canonical(Abs("x", body))
    assert c.body.fun.fun == Var(0)
    assert c.body.fun.arg is shared[0] and c.body.arg is shared[1]
    # a body that does not mention the binder is shared whole
    closed = canonical(parse_term(r"(\z. z) a"))
    assert canonical(Abs("y", closed)).body is closed


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
    assert c is not t and c.body.cod is free and free._canonical is True
    f = FApp(FVar("f"), FVar("a"))
    assert canonical(FAbs("x", FApp(FVar("x"), f))).body.arg is f
    nameless = TForall("", TArrow(TVar(0), free))  # already canonical
    assert canonical(nameless) is nameless and nameless._canonical is True

"""The shared binder core: what a node declaration generates, and the
operations every language gets from it."""

import pytest

from addlam.binders import Node, alpha_eq, canonical, free_vars, rebuild, subst
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

"""Canonical forms and alpha-equivalence for source terms."""

import random

import pytest

from addlam.corpus import random_term
from addlam.binders import free_vars, rebuild, subst
from addlam.suites import _rename_binders, _shuffle_sums
from addlam.syntax import (
    Abs,
    App,
    Sum,
    Var,
    Zero,
    canonicalize,
    is_value,
    show_term,
    summands,
)


def test_canonical_flattens_and_sorts_sums():
    t = Sum((Var("b"), Sum((Var("a"), Zero))))
    c = canonicalize(t)
    assert isinstance(c, Sum)
    assert len(c.parts) == 3
    assert Zero in c.parts  # the empty computation stays a summand


def test_canonical_is_idempotent():
    # canonicalize returns its own output at once, so the full walk is
    # checked on a fresh copy of that output
    rng = random.Random(7)
    for _ in range(200):
        t = random_term(rng)
        c = canonicalize(t)
        assert canonicalize(c) is c
        copy = rebuild(c)
        assert copy is Zero or not copy._canonical
        assert canonicalize(copy) == c


def test_sum_order_is_irrelevant():
    a, b = App(Var("f"), Var("x")), Abs("y", Var("y"))
    assert canonicalize(Sum((a, b))) == canonicalize(Sum((b, a)))


def test_alpha_equivalent_terms_share_a_canonical_form():
    t1 = Abs("x", App(Var("x"), Var("z")))
    t2 = Abs("w", App(Var("w"), Var("z")))
    assert canonicalize(t1) == canonicalize(t2)


def test_alpha_respects_free_variables():
    assert canonicalize(Abs("x", Var("y"))) != canonicalize(Abs("x", Var("z")))


def test_substitute_avoids_capture():
    t = Abs("y", App(Var("x"), Var("y")))
    r = subst(t, "x", Var("y"))
    assert isinstance(r, Abs)
    assert r.var != "y"
    assert free_vars(r) == {"y"}


def test_substitution_on_random_terms_never_captures():
    rng = random.Random(11)
    for _ in range(200):
        t = random_term(rng, 3)
        r = subst(t, "x", Abs("k", Var("y")))
        assert "x" not in free_vars(r), show_term(t)
        assert free_vars(r) <= (free_vars(t) - {"x"}) | {"y"}


def test_values_are_variables_and_abstractions():
    assert is_value(Var("x"))
    assert is_value(Abs("x", Var("x")))
    assert not is_value(Zero)
    assert not is_value(Sum((Var("x"), Var("y"))))
    assert not is_value(App(Var("f"), Var("x")))


def test_summands_of_a_non_sum_is_a_singleton():
    assert summands(Var("x")) == (Var("x"),)


def test_a_free_positional_name_is_refused():
    # _0 is the name the binder at depth 0 takes, so \x._0 would turn into
    # the identity
    with pytest.raises(ValueError, match="'_0'"):
        canonicalize(Abs("x", Var("_0")))
    assert canonicalize(Abs("x", Var("_a"))) == Abs("_0", Var("_a"))


def test_canonical_form_ignores_sum_order_and_binder_names():
    rng = random.Random(13)
    for _ in range(100):
        t = canonicalize(random_term(rng, 3))
        shuffled = canonicalize(_rename_binders(_shuffle_sums(t, rng), rng))
        assert shuffled == t


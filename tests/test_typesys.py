"""Type equivalence, canonical types, and substitution machinery."""

import random

from addlam.corpus import random_type
from addlam.binders import Context, rebuild
from addlam.typesys import (
    TArrow,
    TForall,
    TSum,
    TVar,
    TZero,
    is_unit,
    raw_alpha_eq,
    raw_subst_vec,
    to_raw,
    type_subst_vec,
    type_canonicalize,
    type_equiv,
    type_subst,
    type_summands,
)

X, Y, Z = TVar("X"), TVar("Y"), TVar("Z")


def test_zero_is_neutral_for_sums():
    assert type_equiv(TSum((X, TZero)), X)
    assert type_equiv(TSum((TZero, TSum((X, TZero)))), X)


def test_sum_of_zeros_is_zero():
    assert type_equiv(TSum((TZero, TZero)), TZero)


def test_sums_are_commutative_and_associative():
    assert type_equiv(TSum((X, TSum((Y, Z)))), TSum((TSum((Z, X)), Y)))


def test_canonical_type_is_idempotent_on_random_types():
    rng = random.Random(5)
    for _ in range(300):
        t = random_type(rng)
        c = type_canonicalize(t)
        # type_canonicalize returns its own output at once, so the full
        # walk is checked on a fresh copy of that output
        assert type_canonicalize(c) is c
        copy = rebuild(c)
        assert copy is TZero or not copy._canonical
        out = type_canonicalize(copy)
        assert out == c
        # the copy is marked when it is its own canonical form, and else it
        # keeps the form its walk produced
        assert copy._canonical is (True if out is copy else out)


def test_a_free_name_of_the_old_positional_form_stays_free():
    # the free _0 was captured by the binder X once X was renamed _0; a
    # binder names no variable now
    c = type_canonicalize(TForall("X", TArrow(TVar("_0"), X)))
    assert c == TForall("", TArrow(TVar("_0"), TVar(0)))
    assert c != type_canonicalize(TForall("X", TArrow(X, X)))


def test_units_are_not_sums():
    assert is_unit(X)
    assert is_unit(TArrow(X, TSum((X, Y))))
    assert is_unit(TForall("X", X))
    assert is_unit(TForall("X", TForall("Y", TArrow(X, Y))))
    assert not is_unit(TForall("X", TSum((X, Y))))
    assert not is_unit(TForall("X", TZero))
    assert not is_unit(TSum((X, Y)))
    assert not is_unit(TZero)


def test_equivalence_reaches_under_arrows():
    a = TArrow(X, TSum((Y, TZero)))
    b = TArrow(X, Y)
    assert type_equiv(a, b)


def test_alpha_renaming_of_quantifiers():
    a = TForall("X", TArrow(X, X))
    b = TForall("Y", TArrow(Y, Y))
    assert type_equiv(a, b)


def test_substitution_is_capture_avoiding():
    t = TForall("Y", TArrow(X, Y))
    r = type_canonicalize(type_subst(t, "X", Y))
    # the bound Y must be renamed away from the substituted one
    assert isinstance(r, TForall)
    assert r.var != "Y" or not type_equiv(r, TForall("Y", TArrow(Y, Y)))
    assert type_equiv(r, TForall("W", TArrow(Y, TVar("W"))))


def test_vector_substitution_is_simultaneous():
    # swapping two variables must not cascade
    t = TSum((X, Y))
    r = raw_subst_vec(to_raw(t), ("X", "Y"), (Y, X))
    assert type_equiv(r, TSum((Y, X)))
    assert type_equiv(r, t)
    u = raw_subst_vec(TArrow(X, Y), ("X", "Y"), (Y, TArrow(X, X)))
    assert raw_alpha_eq(u, TArrow(Y, TArrow(X, X)))
    assert type_subst_vec(TArrow(X, Y), ("X", "Y"), (Y, X)) == type_canonicalize(TArrow(Y, X))


def test_to_raw_binarizes_nested_sums():
    t = type_canonicalize(TSum((X, Y, TArrow(X, TSum((Y, Z, X))))))
    raw = to_raw(t)
    # every sum in the raw form is binary
    def binary(u):
        match u:
            case TSum(ps):
                return len(ps) == 2 and all(binary(p) for p in ps)
            case TArrow(a, b):
                return binary(a) and binary(b)
            case TForall(_, b):
                return binary(b)
            case _:
                return True
    assert binary(raw)
    assert type_equiv(raw, t)


def test_summands_of_canonical_sum():
    parts = type_summands(type_canonicalize(TSum((Y, X))))
    assert set(parts) == {X, Y}


def test_context_lookup_and_extension():
    ctx = Context((("a", X),))
    ctx2 = ctx.extend("b", Y)
    assert ctx2.get("b") == Y
    assert ctx.get("b") is None
    assert ctx2.remove("b") == ctx


def test_context_rejects_nothing_but_reports_free_tvars():
    ctx = Context((("a", TForall("X", TArrow(X, Y))),))
    assert "Y" in ctx.free_tvars()
    assert "X" not in ctx.free_tvars()


def test_raw_alpha_eq_is_structural():
    assert raw_alpha_eq(TForall("X", X), TForall("Y", Y))
    assert not raw_alpha_eq(TSum((X, Y)), TSum((Y, X)))

"""Derivation checking, elaboration, and stepping of typed terms."""

import pytest

from addlam import derivation
from addlam.corpus import BASE_CTX, generate_corpus
from addlam.derivation import (
    ADD,
    AAbs,
    AApp,
    AVar,
    AddDerivation,
    AppWitness,
    ElaborationError,
    RuleViolation,
    UnsupportedDerivationShape,
    arr_e,
    arr_i,
    ax,
    ax0,
    check_add,
    elaborate,
    forall_e,
    forall_i,
    plus_i,
    step_derivation,
    subst_derivation,
    weaken,
)
from addlam.parser import parse_aterm, parse_type
from addlam.reduction import enumerate_redexes, step
from addlam.syntax import Abs, App, Var, canonicalize, show_term
from addlam.binders import Context, Redex, StaleRedex
from addlam.structured import SADD, sax
from addlam.typesys import TArrow, TSum, TVar, TZero, type_equiv
from test_check_oracle import malformed_nodes_fail_at_their_paths, nodes

X, Y = TVar("X"), TVar("Y")


def _ident(ctx, u=X, var="x"):
    return arr_i(ax(ctx.extend(var, u), var), var)


def test_axiom_requires_a_hypothesis():
    ctx = Context((("a", X),))
    assert ax(ctx, "a").ty == X
    with pytest.raises(RuleViolation):
        ax(ctx, "missing")


def test_sum_introduction_collects_types():
    ctx = Context((("a", X), ("c", Y)))
    d = plus_i(ax(ctx, "a"), ax(ctx, "c"))
    assert type_equiv(d.ty, TSum((X, Y)))
    check_add(d)


def test_generalisation_rejects_sum_types():
    ctx = Context((("a", X), ("b", X)))
    d = plus_i(ax(ctx, "a"), ax(ctx, "b"))
    with pytest.raises(RuleViolation):
        forall_i(d, "Z")


def test_a_forall_over_a_sum_is_not_a_unit_type():
    # the additive ax takes any hypothesis, so only the rules that need a
    # unit refuse it
    ctx = Context((("a", parse_type("forall A. A + B")),))
    d = ax(ctx, "a")
    with pytest.raises(RuleViolation, match="generalisation over a non-unit type"):
        forall_i(d, "Z")
    with pytest.raises(ElaborationError, match="is not a unit type"):
        elaborate(parse_aterm(r"\x: forall A. A + B. x"), Context())


def test_generalisation_rejects_captured_variables():
    ctx = Context((("a", X),))
    with pytest.raises(RuleViolation):
        forall_i(ax(ctx, "a"), "X")


def test_instantiation_of_the_polymorphic_identity():
    ctx = Context()
    poly = forall_i(_ident(ctx, TVar("Z")), "Z")
    d = forall_e(poly, TArrow(Y, Y))
    assert type_equiv(d.ty, TArrow(TArrow(Y, Y), TArrow(Y, Y)))
    check_add(d)


def test_combined_elimination_distributes_witnesses():
    ctx = Context((("a", X), ("b", Y)))
    poly = forall_i(_ident(ctx, TVar("Z")), "Z")
    arg = plus_i(ax(ctx, "a"), ax(ctx, "b"))
    d = arr_e(poly, arg, u=TVar("Z"), ts=(TVar("Z"),), vs=((X,), (Y,)), xs=("Z",))
    assert type_equiv(d.ty, TSum((X, Y)))
    check_add(d)


def test_elimination_rejects_a_mismatched_argument():
    ctx = Context((("a", X),))
    with pytest.raises(RuleViolation):
        arr_e(_ident(ctx, Y), ax(ctx, "a"), u=Y, ts=(Y,), vs=((),))


def test_retyping_at_an_equivalent_type_keeps_the_derivation():
    ctx = Context((("a", X),))
    d = plus_i(ax(ctx, "a"), ax0(ctx))
    assert d.ty == X  # the zero summand vanishes from the canonical type
    for ty in (X, TSum((X, TZero)), TSum((TZero, X, TZero))):
        assert ADD.retype(d, ty) is d
    with pytest.raises(RuleViolation, match="cannot retype"):
        ADD.retype(d, Y)
    with pytest.raises(UnsupportedDerivationShape, match="cannot retype"):
        SADD.retype(sax(BASE_CTX, "a"), TSum((X, TZero)))
    assert ADD.rules.keys() == SADD.rules.keys()
    assert "equiv" not in ADD.rules


def test_checker_rejects_a_forged_type():
    ctx = Context((("a", X),))
    good = ax(ctx, "a")
    forged = type(good)(good.rule, good.ctx, good.term, Y)
    with pytest.raises(RuleViolation):
        check_add(forged)


def test_a_malformed_node_fails_at_its_path():
    """An unknown rule, a wrong number of premises or a lost field is a
    RuleViolation at the node, under every rule of the system."""
    ctx = Context((("a", X),))
    poly = forall_i(_ident(ctx, TVar("Z")), "Z")
    d = arr_e(forall_e(poly, X), plus_i(ax(ctx, "a"), ax0(ctx)), u=X, ts=(X,), vs=((),))
    check_add(d)
    assert {n.rule for _, n in nodes(d)} == set(ADD.rules)
    assert malformed_nodes_fail_at_their_paths(d, check_add, RuleViolation) == 30
    # an equivalence node is a rule of neither system
    wrapped = plus_i(d, AddDerivation("equiv", ctx, d.term, d.ty, (d,)))
    with pytest.raises(RuleViolation, match="unknown rule 'equiv'") as e:
        check_add(wrapped)
    assert e.value.path == (1,)


def test_elaboration_of_an_annotated_application():
    a = AApp(AAbs("x", X, AVar("x")), AVar("a"))
    d = elaborate(a, Context((("a", X),)))
    check_add(d)
    assert type_equiv(d.ty, X)
    assert d.term == canonicalize(App(Abs("x", Var("x")), Var("a")))


def test_elaboration_requires_a_witness_for_sums():
    ctx = Context((("a", X), ("b", X)))
    from addlam.derivation import ASum
    bad = AApp(AAbs("x", X, AVar("x")), ASum((AVar("a"), AVar("b"))))
    with pytest.raises(ElaborationError):
        elaborate(bad, ctx)
    good = AApp(
        AAbs("x", X, AVar("x")), ASum((AVar("a"), AVar("b"))),
        AppWitness(X, (X,), ((), ())),
    )
    check_add(elaborate(good, ctx))


def test_stepping_a_redex_under_a_binder_keeps_the_outer_variable():
    # \a.(\x.\y.a) b at b: Y; the contractum \a.\y.a keeps type X -> Y -> X
    a = AAbs("a", X, AApp(AAbs("x", Y, AAbs("y", Y, AVar("a"))), AVar("b")))
    d = elaborate(a, Context((("b", Y),)))
    assert type_equiv(d.ty, TArrow(X, TArrow(Y, X)))
    (r,) = enumerate_redexes(d.term)
    d2 = step_derivation(d, r)
    check_add(d2)
    assert type_equiv(d2.ty, TArrow(X, TArrow(Y, X)))
    assert d2.term == elaborate(AAbs("a", X, AAbs("y", Y, AVar("a"))), Context(())).term


def test_stepping_a_path_outside_the_derivation_is_stale():
    d = plus_i(ax(BASE_CTX, "a"), ax0(BASE_CTX))
    with pytest.raises(StaleRedex):
        step_derivation(d, Redex((5,), "beta"))
    with pytest.raises(StaleRedex):
        step_derivation(d, Redex((), "sum-zero"))


def test_stepping_under_binders_steps_the_term_once(monkeypatch):
    # \y1 ... \y20. (\x. x) a: the redex sits under 20 abstractions, and
    # the derivation is rebuilt along its path without stepping again
    body = AApp(AAbs("x", X, AVar("x")), AVar("a"))
    for k in range(20, 0, -1):
        body = AAbs(f"y{k}", X, body)
    d = elaborate(body, Context((("a", X),)))
    (r,) = enumerate_redexes(d.term)
    calls = []

    def counted(t, r):
        calls.append(r)
        return step(t, r)

    monkeypatch.setattr(derivation, "step", counted)
    d2 = step_derivation(d, r)
    assert calls == [r]
    check_add(d2)
    assert d2.term == step(d.term, r)


def test_weakening_adds_an_unused_hypothesis():
    ctx = Context((("a", X),))
    d = _ident(ctx)
    w = weaken(d, "b", Y)
    check_add(w)
    assert w.ctx.get("b") == Y
    assert w.term == d.term


def test_weakening_renames_a_generalisation_away_from_every_type_name():
    # X collides with the new hypothesis' type, and X1, its first fresh
    # name, is free in the context, so the binder becomes X2
    ctx = Context((("c", TVar("X1")),))
    d = forall_i(_ident(ctx), "X")
    w = weaken(d, "h", X)
    check_add(w)
    assert w.rule == "forallI" and w.binder == "X2"
    assert w.ctx == ctx.extend("h", X)
    assert w.ty == d.ty


def test_substitution_of_a_value_for_a_hypothesis():
    ctx = Context((("a", X),))
    body = ax(ctx.extend("x", X), "x")
    sub = subst_derivation(body, "x", ax(ctx, "a"))
    check_add(sub)
    assert sub.term == Var("a")
    assert type_equiv(sub.ty, X)


def test_stepping_preserves_types_across_the_corpus():
    corpus = generate_corpus(4, count=80)
    for d in corpus.derivations:
        for r in sorted(enumerate_redexes(d.term), key=repr):
            d2 = step_derivation(d, r)
            check_add(d2)
            assert type_equiv(d2.ty, d.ty), f"{show_term(d.term)} via {r.rule}"


# --- polymorphic betas: the type-substitution lemma under quantifiers --------

Z, V = TVar("Z"), TVar("V")
POLY_CTX = Context((("a", X),))


def _poly_beta(body):
    r"""(gen Z. \x: Z. body) (\w: V. w) at Z := V -> V, where body is
    derived in POLY_CTX extended with x: Z; stepped by the root beta, which
    substitutes V -> V for Z throughout the body."""
    fun = forall_i(arr_i(body, "x"), "Z")
    arg = arr_i(ax(POLY_CTX.extend("w", V), "w"), "w")
    cod = fun.premises[0].ty.cod
    d = arr_e(fun, arg, u=Z, ts=(cod,), vs=((TArrow(V, V),),), xs=("Z",))
    check_add(d)
    d2 = step_derivation(d, Redex((), "beta"))
    check_add(d2)
    assert d2.ty == d.ty
    return d2


def _gen_abs(ctx, tvar, binder, var):
    r"""gen tvar. \binder: tvar. var, typed in ctx."""
    return forall_i(arr_i(ax(ctx.extend(binder, TVar(tvar)), var), binder), tvar)


def test_a_beta_renames_a_generalisation_that_would_capture_the_instantiation():
    # \x: Z. gen V. \y: V. x : Z -> forall V. V -> Z, at Z := V -> V: the
    # inner V is renamed before V -> V moves under it
    body = _gen_abs(POLY_CTX.extend("x", Z), "V", "y", "x")
    d2 = _poly_beta(body)
    assert show_term(d2.term) == r"\x. \y. y"
    assert d2.rule == "forallI" and d2.binder != "V"


def test_a_beta_renames_a_witness_variable_and_a_generalisation_under_it():
    # \x: Z. (gen V. \w: V. w) x, applied through forall V. V -> V with the
    # witness variable V
    ctx = POLY_CTX.extend("x", Z)
    body = arr_e(_gen_abs(ctx, "V", "w", "w"), ax(ctx, "x"), u=V, ts=(V,), vs=((Z,),), xs=("V",))
    d2 = _poly_beta(body)
    assert show_term(d2.term) == r"(\x. x) (\x. x)"
    assert d2.rule == "arrE" and d2.arr_xs != ("V",)


def test_a_beta_renames_a_witness_variable_its_schema_shares_with_the_instantiation():
    # \x: Z. (gen V. \y: V. x) x, applied through forall V. V -> Z: the
    # substitution reaches the witness schema's Z, which becomes V -> V, so
    # the witness variable V must be renamed first
    ctx = POLY_CTX.extend("x", Z)
    body = arr_e(_gen_abs(ctx, "V", "y", "x"), ax(ctx, "x"), u=V, ts=(Z,), vs=((Z,),), xs=("V",))
    d2 = _poly_beta(body)
    assert d2.rule == "arrE" and d2.arr_xs != ("V",)
    assert d2.arr_ts == (TArrow(V, V),)


def test_a_beta_substitutes_into_an_instantiation():
    # \x: Z. (inst (gen W. \w: W. w) Z) x: the instantiation Z becomes V -> V
    ctx = POLY_CTX.extend("x", Z)
    inst = forall_e(_gen_abs(ctx, "W", "w", "w"), Z)
    body = arr_e(inst, ax(ctx, "x"), u=Z, ts=(Z,), vs=((),))
    d2 = _poly_beta(body)
    assert d2.premises[0].rule == "forallE"
    assert d2.premises[0].inst_ty == TArrow(V, V)


# --- quantifier nodes on the stepping paths -----------------------------------


def test_distributing_over_a_generalised_sum_steps_through_the_quantifier():
    # (gen Z. (\x: Z. x) + 0) a: the function's sum is split under forallI
    ctx = POLY_CTX
    fun = forall_i(plus_i(_ident(ctx, Z), ax0(ctx)), "Z")
    d = arr_e(fun, ax(ctx, "a"), u=Z, ts=(Z,), vs=((X,),), xs=("Z",))
    check_add(d)
    rules = set()
    for r in enumerate_redexes(d.term):
        d2 = step_derivation(d, r)
        check_add(d2)
        assert d2.ty == X
        rules.add((r.rule, r.part))
        if r.rule == "dist-right":
            assert show_term(d2.term) == r"(\x. x) a + zero a"
    assert rules == {("dist-right", 0), ("dist-right", 1), ("sum-zero", 1)}


def test_a_beta_through_an_instantiated_abstraction():
    # (inst (gen Z. \x: Z. x) X) a -> a
    ctx = POLY_CTX
    fun = forall_e(forall_i(_ident(ctx, Z), "Z"), X)
    d = arr_e(fun, ax(ctx, "a"), u=X, ts=(X,), vs=((),))
    d2 = step_derivation(d, Redex((), "beta"))
    check_add(d2)
    assert d2.term == Var("a") and d2.ty == X

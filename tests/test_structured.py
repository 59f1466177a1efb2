"""Rigid sum trees, the grafting elimination, and conversions."""

import pytest

from addlam.binders import Context, Redex, StaleRedex
from addlam.corpus import (
    BASE_CTX,
    _simple_fixtures,
    example_pair_tree,
    example_struct_elim,
    generate_corpus,
)
from addlam.derivation import (
    ADD,
    AddDerivation,
    RuleViolation,
    UnsupportedDerivationShape,
    ax,
    ax0,
    check_add,
    plus_i,
    reapply_wrappers,
    strip_wrappers,
    subst_derivation,
    weaken,
)
from addlam.reduction import enumerate_redexes, step
from addlam.structured import (
    SADD,
    ExcludedRule,
    SaddDerivation,
    add_to_sadd,
    check_sadd,
    fold_tree,
    leaves,
    sadd_to_add,
    sarr_i,
    sax,
    sax0,
    sforall_e,
    sforall_i,
    splus_i,
    step_sadd_derivation,
)
from addlam.syntax import Sum, Var, Zero, canonicalize, show_term
from addlam.typesys import TArrow, TSum, TVar, TZero, raw_alpha_eq, type_equiv
from test_check_oracle import malformed_nodes_fail_at_their_paths, nodes

X, Y = TVar("X"), TVar("Y")


def _shape(t):
    """A rigid type's tree with its leaves blanked: L labelled, Z zero."""
    return fold_tree(t, lambda w, u: "L", "Z", lambda l, r: f"({l} . {r})")


def _tsum(l, r):
    return TSum((l, r))


def test_leaf_addresses_follow_left_right_words():
    t = TSum((TSum((X, TZero)), Y))
    assert tuple(leaves(t)) == ("ll", "r")
    assert leaves(TZero) == {} and leaves(X) == {"": X}


def test_tree_of_type_reads_the_rigid_sum_shape():
    t = TSum((TSum((X, TZero)), Y))
    assert _shape(t) == "((L . Z) . L)"
    assert leaves(t) == {"ll": X, "r": Y}
    assert fold_tree(t, lambda w, u: leaves(t)[w], TZero, _tsum) == t
    with pytest.raises(ValueError, match="sum is not binary"):
        leaves(TSum((X, TSum((X, Y, TZero)))))


def test_tree_composition_grafts_at_plain_leaves():
    a = TSum((TSum((X, TZero)), Y))
    a2 = TSum((X, TZero))
    composed = fold_tree(a, lambda w, u: a2, TZero, _tsum)
    assert _shape(composed) == "(((L . Z) . Z) . (L . Z))"
    assert composed == TSum((TSum((a2, TZero)), a2))


def test_structured_elimination_matches_the_grafted_type():
    sd = example_struct_elim()
    check_sadd(sd)
    z = TVar("Z")
    expected = TSum((
        TSum((TSum((X, TZero)), TSum((TArrow(X, X), TZero)))),
        TZero,
    ))
    assert sd.ty == expected


def test_structured_types_are_rigid():
    ctx = BASE_CTX
    d1 = splus_i(sax(ctx, "a"), sax0(ctx))
    d2 = splus_i(sax0(ctx), sax(ctx, "a"))
    assert type_equiv(d1.ty, d2.ty)
    assert d1.ty != d2.ty  # no reordering without an explicit equivalence


def test_hypotheses_must_be_unit_typed():
    ctx = Context((("s", TSum((X, Y))),))
    with pytest.raises(RuleViolation):
        sax(ctx, "s")


def test_a_malformed_node_fails_at_its_path():
    """An unknown rule (equiv among them, a rule of neither system), a
    wrong number of premises or a lost field is a RuleViolation at the
    node, under every rule of the system."""
    elim = example_struct_elim()
    z = TVar("Z")
    poly = sforall_i(sarr_i(sax(BASE_CTX.extend("x", z), "x"), "x"), "Z")
    d = splus_i(elim, sforall_e(poly, X))
    check_sadd(d)
    assert {n.rule for _, n in nodes(d)} == set(SADD.rules)
    assert malformed_nodes_fail_at_their_paths(d, check_sadd, RuleViolation) == 67
    with pytest.raises(RuleViolation, match="unknown rule 'equiv'") as e:
        check_sadd(splus_i(elim, SaddDerivation("equiv", elim.ctx, elim.term, elim.ty, (elim,))))
    assert e.value.path == (1,)


def test_an_axiom_needs_a_unit_hypothesis_in_a_checked_node_too():
    ctx = Context((("s", TSum((X, Y))),))
    forged = SaddDerivation("ax", ctx, Var("s"), TSum((X, Y)))
    with pytest.raises(RuleViolation, match="not unit-typed"):
        check_sadd(forged)


def test_conversion_round_trip_preserves_the_sequent():
    corpus = generate_corpus(5, count=40)
    for sd in corpus.structured:
        d = sadd_to_add(sd)
        from addlam.derivation import check_add
        check_add(d)
        assert canonicalize(d.term) == canonicalize(sd.term)
        assert type_equiv(d.ty, sd.ty)
        back = add_to_sadd(d)
        check_sadd(back)
        assert type_equiv(back.ty, sd.ty)


def test_conversions_cover_every_rule_both_ways():
    """The additive fixtures go to the structured system and back, and the
    structured examples the other way round.  Every rule of the structured
    system is converted both ways (no structured corpus has a forallE
    node; the fixtures do), and each conversion keeps the term and an
    equivalent type."""
    check = {AddDerivation: check_add, SaddDerivation: check_sadd}
    converted = {AddDerivation: set(), SaddDerivation: set()}
    runs = [(add_to_sadd, sadd_to_add, d) for d in _simple_fixtures(BASE_CTX)]
    runs += [(sadd_to_add, add_to_sadd, sd) for sd in (example_pair_tree(), example_struct_elim())]
    for there, back, d in runs:
        mid = there(d)
        for a, b in ((d, mid), (mid, back(mid))):
            check[type(b)](b)
            assert canonicalize(a.term) == canonicalize(b.term)
            assert type_equiv(a.ty, b.ty)
            converted[type(b)].update(n.rule for _, n in nodes(b))
    assert converted[AddDerivation] == converted[SaddDerivation] == set(SADD.rules)


def test_wrappers_strip_and_reapply_to_the_same_derivation():
    """Chains of forallI and forallE over an abstraction, in both systems:
    reapplying the stripped wrapper nodes gives the derivation back, and
    retyping a chain at an equivalent type keeps it as it is."""
    z, w = TVar("Z"), TVar("W")
    chains = []
    for s in (ADD, SADD):
        poly = s.forall_i(s.arr_i(s.ax(BASE_CTX.extend("x", z), "x"), "x"), "Z")
        inst = s.forall_e(s.forall_i(s.forall_e(poly, w), "W"), X)
        chains += [poly, s.forall_e(poly, Y), inst]
    for d in chains:
        core, wrappers = strip_wrappers(d)
        assert core.rule == "arrI" and wrappers and wrappers[0] is d
        assert reapply_wrappers(core, wrappers) == d
    d = ADD.retype(chains[2], TSum((chains[2].ty, TZero)))
    assert d is chains[2]
    core, wrappers = strip_wrappers(d)
    assert [n.rule for n in wrappers] == ["forallE", "forallI", "forallE", "forallI"]
    assert reapply_wrappers(core, wrappers) == d


def test_stepping_preserves_the_rigid_type():
    corpus = generate_corpus(6, count=40)
    stepped = 0
    for sd in corpus.structured:
        for r in sorted(enumerate_redexes(sd.term), key=repr):
            try:
                sd2 = step_sadd_derivation(sd, r)
            except (ExcludedRule, UnsupportedDerivationShape):
                continue
            check_sadd(sd2)
            assert raw_alpha_eq(sd2.ty, sd.ty)
            assert canonicalize(sd2.term) == canonicalize(step(sd.term, r))
            stepped += 1
    assert stepped > 20


def test_zero_summand_rule_is_excluded_from_stepping():
    ctx = BASE_CTX
    sd = splus_i(sax(ctx, "a"), sax0(ctx))
    (r,) = [r for r in enumerate_redexes(sd.term) if r.rule == "sum-zero"]
    with pytest.raises(ExcludedRule):
        step_sadd_derivation(sd, r)


def test_misaligned_distribution_is_reported_not_mistyped():
    # a three-summand argument: splitting off its first summand does not
    # follow the rigid left-nested tree
    sd = example_pair_tree()
    rs = [r for r in enumerate_redexes(sd.term) if r.rule == "dist-left"]
    assert rs
    for r in rs:
        with pytest.raises(UnsupportedDerivationShape):
            step_sadd_derivation(sd, r)


def test_shared_weakening_keeps_the_rigid_type():
    sd = example_struct_elim()
    for name, ty in (("q", TArrow(X, X)), ("x", TVar("Z"))):
        # ("x", Z) collides with an inner binder x and with the
        # generalised Z, so both get renamed on the way down
        w = weaken(sd, name, ty)
        assert isinstance(w, SaddDerivation)
        check_sadd(w)
        assert raw_alpha_eq(w.ty, sd.ty)
        assert w.ctx == sd.ctx.extend(name, ty)
        assert canonicalize(w.term) == canonicalize(sd.term)


def test_shared_substitution_keeps_the_rigid_type():
    ctx = BASE_CTX
    value = sax(ctx.remove("a"), "b")
    f = sarr_i(sax(ctx.extend("x", X), "a"), "x")  # \x. a : X -> X
    for sd in (splus_i(sax(ctx, "a"), sax0(ctx)), f, splus_i(f, sax(ctx, "a"))):
        out = subst_derivation(sd, "a", value)
        assert isinstance(out, SaddDerivation)
        check_sadd(out)
        assert raw_alpha_eq(out.ty, sd.ty)
        assert out.ctx == ctx.remove("a")
        assert "a" not in show_term(out.term)
    sd = splus_i(sax(ctx, "a"), sax0(ctx))
    assert canonicalize(subst_derivation(sd, "a", value).term) == canonicalize(Sum((Var("b"), Zero)))
    with pytest.raises(UnsupportedDerivationShape):  # c: Y cannot replace a: X
        subst_derivation(sd, "a", sax(ctx.remove("a"), "c"))


def test_stepping_a_path_outside_the_derivation_is_stale():
    for d in (splus_i(sax(BASE_CTX, "a"), sax0(BASE_CTX)),
              add_to_sadd(plus_i(ax(BASE_CTX, "a"), ax0(BASE_CTX)))):
        with pytest.raises(StaleRedex):
            step_sadd_derivation(d, Redex((5,), "beta"))

"""Translation into the pair calculus, its partial inverse, the
zero-summand isomorphism, and the simulation of reduction."""

from dataclasses import replace

import pytest
from behaviour_dump import f_nodes

from addlam.binders import StaleRedex
from addlam.corpus import (
    BASE_CTX,
    example_pair_tree,
    generate_corpus,
)
from addlam.derivation import UnsupportedDerivationShape
from addlam.reduction import enumerate_redexes
from addlam.structured import ExcludedRule, sax, sax0, splus_i, step_sadd_derivation
from addlam.suites import _has_empty_elim
from addlam.syntax import App, Sum, Var, Zero, canonicalize
from addlam.sysf import (
    FAbs,
    FApp,
    FArrow,
    FForall,
    FPair,
    FProd,
    FProjL,
    FProjR,
    FTVar,
    FUnit,
    FVar,
    Star,
    f_canonicalize,
    f_check,
    f_reaches,
    f_type_alpha_eq,
)
from addlam.translation import (
    CoercionUnsupported,
    epsilon_derivations,
    equiv_coercion,
    rev_term,
    rev_type,
    round_trip,
    simulate_step,
    trans_term,
    trans_type,
)
from addlam.typesys import TArrow, TForall, TSum, TVar, TZero, to_raw

X, Y = TVar("X"), TVar("Y")


def test_type_translation_maps_sums_to_products():
    poly = TForall("Z", TArrow(TVar("Z"), TVar("Z")))
    t = TSum((TSum((X, TZero)), poly))
    ft = trans_type(t)
    assert ft == FProd(
        FProd(FTVar("X"), FUnit),
        FForall("Z", FArrow(FTVar("Z"), FTVar("Z"))),
    )


def test_translated_derivations_check_at_the_translated_type():
    corpus = generate_corpus(8, count=40)
    for sd in corpus.structured:
        res = trans_term(sd)
        f_check(res.fderivation)
        assert f_type_alpha_eq(res.ftype, trans_type(sd.ty))


def test_the_displayed_pair_tree_of_a_two_by_two_application():
    sd = example_pair_tree()
    res = trans_term(sd)
    ft = trans_term(sd.premises[0]).fterm
    fu = trans_term(sd.premises[1]).fterm
    t1, t2 = FProjL(ft), FProjR(ft)
    u1, u2 = FProjL(FProjL(fu)), FProjR(fu)
    expected = FPair(
        FPair(FPair(FApp(t1, u1), Star), FApp(t1, u2)),
        FPair(FPair(FApp(t2, u1), Star), FApp(t2, u2)),
    )
    assert res.fterm == expected


def test_reverse_translation_of_variables_pairs_and_star():
    assert rev_term(FVar("x")) == Var("x")
    assert rev_term(Star) == Zero
    assert rev_term(FPair(FVar("x"), Star)) == Sum((Var("x"), Zero))
    assert rev_term(FProjL(FVar("x"))) is None


def test_reverse_translation_recognises_application_trees():
    f, u = FVar("f"), FVar("u")
    t = FPair(FApp(FProjL(f), u), FApp(FProjR(f), u))
    assert rev_term(t) == App(Var("f"), Var("u"))
    # inconsistent functions fall back to a sum and then fail on the leaves
    bad = FPair(FApp(FProjL(f), u), FApp(FProjR(FVar("g")), u))
    assert rev_term(bad) is None


def test_reverse_translation_of_a_canonical_term_does_not_capture():
    # under the binder x, the two leaves project from \z.x and \z.z, which
    # differ; canonicalised on their own as open subterms, \z.x would
    # capture x and match \z.z
    raw = FAbs("x", FPair(
        FApp(FProjL(FAbs("z", FVar("x"))), FVar("w")),
        FApp(FProjR(FAbs("z", FVar("z"))), FVar("w")),
    ))
    assert rev_term(raw) is None
    assert rev_term(f_canonicalize(raw)) is None


def test_reverse_translation_reads_the_canonical_form_as_the_raw_one():
    corpus = generate_corpus(1)
    read_back = 0
    for sd in corpus.structured:
        ft = trans_term(sd).fterm
        raw, canon = rev_term(ft), rev_term(f_canonicalize(ft))
        assert (raw is None) == (canon is None)
        if raw is not None:
            assert canonicalize(raw) == canonicalize(canon)
            read_back += canonicalize(raw) == canonicalize(sd.term)
    assert read_back == 75


def test_reverse_type_requires_unit_domains():
    assert rev_type(FArrow(FTVar("X"), FUnit)) == TArrow(X, TZero)
    assert rev_type(FArrow(FProd(FTVar("X"), FUnit), FTVar("X"))) is None
    assert rev_type(FProd(FTVar("X"), FTVar("Y"))) == TSum((X, Y))


def test_round_trip_across_the_corpus():
    corpus = generate_corpus(9, count=40)
    for sd in corpus.structured:
        if _has_empty_elim(sd):
            continue
        assert round_trip(sd).ok


def test_epsilon_terms_witness_the_zero_summand_isomorphism():
    dd, du = epsilon_derivations(X)
    f_check(dd)
    f_check(du)
    down, up = dd.term, du.term
    assert down == FAbs("x", FProjL(FVar("x")))
    assert up == FAbs("x", FPair(FVar("x"), Star))
    assert f_type_alpha_eq(dd.ty, FArrow(FProd(FTVar("X"), FUnit), FTVar("X")))
    # composing the two reduces to the identity behaviour on any value
    v = FVar("v")
    assert f_reaches(FApp(down, FApp(up, v)), v) is not None


def test_epsilon_collapses_a_translated_zero_summand():
    ctx = BASE_CTX
    sd = splus_i(sax(ctx, "a"), sax0(ctx))
    whole = trans_term(sd)
    inner = trans_term(sd.premises[0])
    down, _ = epsilon_derivations(sd.premises[0].ty, whole.fderivation.ctx)
    path = f_reaches(FApp(down.term, whole.fterm), inner.fterm)
    assert path is not None and len(path) >= 2


def test_coercion_between_reordered_sums():
    t1 = to_raw(TSum((TSum((X, TZero)), Y)))
    t2 = TSum((Y, X))
    c = equiv_coercion(t1, t2)
    f_check(c)
    assert f_type_alpha_eq(c.ty, FArrow(trans_type(t1), trans_type(t2)))


def test_coercion_refuses_distinct_leaf_multisets():
    with pytest.raises(CoercionUnsupported):
        equiv_coercion(TSum((X, X)), TSum((X, Y)))


def test_simulation_produces_connected_paths():
    corpus = generate_corpus(10, count=40)
    simulated = 0
    for sd in corpus.structured:
        for r in sorted(enumerate_redexes(sd.term), key=repr):
            if r.rule == "sum-zero":
                continue
            try:
                sim = simulate_step(sd, r)
            except Exception:  # out-of-fragment shapes are tested elsewhere
                continue
            assert sim.found
            simulated += 1
    assert simulated > 20


def test_simulation_rejects_the_zero_summand_rule():
    ctx = BASE_CTX
    sd = splus_i(sax(ctx, "a"), sax0(ctx))
    (r,) = [r for r in enumerate_redexes(sd.term) if r.rule == "sum-zero"]
    with pytest.raises(ExcludedRule):
        simulate_step(sd, r)


def _uncached(sd):
    """An equal copy of a derivation built from fresh nodes, which carry
    no translation, so translating it translates every node."""
    return replace(sd, premises=tuple(map(_uncached, sd.premises)))


def _subderivations(d):
    yield d
    for p in d.premises:
        yield from _subderivations(p)


@pytest.mark.parametrize("seed,count", [(1, 500), (2, 200)])
def test_a_stepped_derivation_shares_its_untouched_premises_translations(seed, count):
    """The translation kept on each node prints as a fresh translation,
    and a node the step kept brings the F-derivation the source's
    translation already holds, the same object."""
    steps = shared = 0
    for sd in generate_corpus(seed, 20, count).structured:
        src = trans_term(sd).fderivation
        for r in sorted(enumerate_redexes(sd.term), key=repr):
            try:
                sd2 = step_sadd_derivation(sd, r)
            except (ExcludedRule, UnsupportedDerivationShape, StaleRedex):
                continue
            tgt = trans_term(sd2).fderivation
            assert list(f_nodes(tgt)) == list(f_nodes(trans_term(_uncached(sd2)).fderivation))
            src_nodes = {id(n) for n in _subderivations(src)}
            tgt_nodes = {id(n) for n in _subderivations(tgt)}
            kept = {id(n) for n in _subderivations(sd)} & {id(n) for n in _subderivations(sd2)}
            for n in _subderivations(sd2):
                # a premise typed by the zero type does not appear in an
                # application's translation, which puts a fresh unit there
                if id(n) in kept and id(trans_term(n).fderivation) in tgt_nodes:
                    assert id(trans_term(n).fderivation) in src_nodes
                    shared += 1
            steps += 1
    assert steps > 50 and shared > steps

"""Small-step reduction, normalisation, and the bounded graph search."""

import random

from addlam.corpus import OMEGA, generate_corpus, random_term
from addlam.reduction import (
    Redex,
    StaleRedex,
    check_sn,
    enumerate_redexes,
    normalize,
    reducts,
    step,
)
from addlam.syntax import Abs, App, Sum, Var, Zero, canonicalize, show_term

DELTA = Abs("x", App(Var("x"), Var("x")))


def _rules_at_root(t):
    return {r.rule for r in enumerate_redexes(t) if r.path == ()}


def test_beta_requires_a_value_argument():
    assert "beta" in _rules_at_root(App(Abs("x", Var("x")), Var("y")))
    assert "beta" not in _rules_at_root(App(Abs("x", Var("x")), App(Var("f"), Var("y"))))
    assert "beta" not in _rules_at_root(App(Abs("x", Var("x")), Sum((Var("a"), Var("b")))))


def test_right_distribution_splits_a_function_sum():
    t = App(Sum((Var("f"), Var("g"))), Var("a"))
    out = {canonicalize(u) for u in reducts(t)}
    assert canonicalize(Sum((App(Var("f"), Var("a")), App(Var("g"), Var("a"))))) in out


def test_left_distribution_splits_an_argument_sum():
    t = App(Var("f"), Sum((Var("a"), Var("b"))))
    out = {canonicalize(u) for u in reducts(t)}
    assert canonicalize(Sum((App(Var("f"), Var("a")), App(Var("f"), Var("b"))))) in out


def test_zero_rules_collapse_applications():
    assert reducts(App(Zero, Var("a"))) == frozenset({Zero})
    assert reducts(App(Abs("x", Var("x")), Zero)) == frozenset({Zero})


def test_sum_with_zero_drops_the_zero():
    t = Sum((Var("a"), Zero))
    assert canonicalize(Var("a")) in reducts(t)


def test_stale_redex_is_rejected():
    t = App(Abs("x", Var("x")), Var("y"))
    try:
        step(t, Redex((0, 0, 5), "beta"))
    except StaleRedex:
        pass
    else:
        raise AssertionError("expected a stale redex error")


def test_duplicating_function_over_a_sum_of_variables():
    # delta (y + z) distributes then betas: longest path has three steps
    t = App(DELTA, Sum((Var("y"), Var("z"))))
    res = check_sn(t)
    assert res.terminates
    assert res.max_depth == 3


def test_duplicating_function_over_a_sum_of_identities():
    # with abstraction arguments each beta spawns a further redex
    ident = Abs("w", Var("w"))
    t = App(DELTA, Sum((ident, Abs("v", Var("v")))))
    res = check_sn(t)
    assert res.terminates
    assert res.max_depth == 5


def test_omega_exhausts_its_budget():
    res = check_sn(OMEGA, budget=2000)
    assert not res.terminates


def test_normalize_reaches_a_redex_free_term():
    rng = random.Random(3)
    for _ in range(150):
        t = random_term(rng, 3)
        res = normalize(t, fuel=300)
        if not res.exhausted:
            assert not enumerate_redexes(res.term), show_term(res.term)


def test_step_agrees_with_reducts():
    rng = random.Random(9)
    for _ in range(150):
        t = canonicalize(random_term(rng, 3))
        via_step = {step(t, r) for r in enumerate_redexes(t)}
        assert via_step == set(reducts(t))


def test_every_typable_corpus_term_normalises():
    corpus = generate_corpus(2, count=60)
    for d in corpus.derivations:
        assert check_sn(d.term, budget=50000).terminates, show_term(d.term)


def test_deep_nesting_reports_the_recursion_limit():
    # one beta redex under hundreds of lambdas: too deep for the
    # recursive search, which must say so rather than report exhaustion
    redex = App(Abs("x", Var("x")), Var("y"))
    for depth in (500, 1000):
        t = redex
        for i in range(depth):
            t = Abs(f"v{i}", t)
        res = check_sn(t, 100)
        assert res.status == "recursion-limit"
        assert not res.terminates and not res.cycle
    assert check_sn(Abs("v", redex), 100).status == "terminates"

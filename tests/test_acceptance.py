"""Acceptance gate: one test per release criterion, each printing a
single pass/fail line with its runtime."""

import time
from collections import deque

import pytest

from addlam.corpus import (
    example_identity_app,
    example_pair_tree,
    example_struct_elim,
    example_two_funs,
    generate_corpus,
)
from addlam.derivation import check_add
from addlam.reduction import enumerate_redexes, step
from addlam.structured import check_sadd, fold_tree
from addlam.suites import run_suite
from addlam.syntax import Abs, App, Sum, Var, canonicalize
from addlam.sysf import FApp, FPair, FProjL, FProjR, Star
from addlam.translation import trans_term
from addlam.typesys import TArrow, TSum, TVar, TZero, type_equiv

SEED = 1


def _report(name: str, started: float, limit: float, ok: bool, detail: str = ""):
    elapsed = time.monotonic() - started
    status = "PASS" if ok and elapsed < limit else "FAIL"
    extra = f" ({detail})" if detail and status == "FAIL" else ""
    print(f"{status} {name}: {elapsed:.2f}s / {limit:.0f}s limit{extra}")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name}: exceeded the {limit:.0f}s limit"


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SEED, 20, 500)


def _reachable(t, limit=2000):
    seen = {canonicalize(t)}
    queue = deque(seen)
    while queue and len(seen) < limit:
        cur = queue.popleft()
        for r in enumerate_redexes(cur):
            nxt = step(cur, r)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def test_criterion_1_golden_examples():
    start = time.monotonic()
    d1 = example_two_funs()
    check_add(d1)
    a, b = TVar("A"), TVar("B")
    ok = type_equiv(d1.ty, TSum((a, b, TArrow(a, a), TArrow(b, b))))

    d2 = example_identity_app()
    check_add(d2)
    ok = ok and type_equiv(d2.ty, TSum((a, b)))

    # the identity application reduces to a sum of two applications
    ident = Abs("x", Var("x"))
    target2 = canonicalize(Sum((App(ident, Var("v1")), App(ident, Var("v2")))))
    ok = ok and target2 in _reachable(d2.term)

    # the two-function application reduces to the four-summand term
    const = Abs("y", Abs("z", Var("y")))
    target1 = canonicalize(Sum((
        App(ident, Var("v1")), App(ident, Var("v2")),
        App(const, Var("v1")), App(const, Var("v2")),
    )))
    ok = ok and target1 in _reachable(d1.term)
    _report("criterion-1 golden-examples", start, 1.0, ok)


def test_criterion_2_subject_reduction(corpus):
    start = time.monotonic()
    assert len(corpus.derivations) >= 500
    rep = run_suite("sr", corpus)
    _report("criterion-2 subject-reduction", start, 60.0,
            rep.passed, rep.render())


def test_criterion_3_strong_normalisation(corpus):
    start = time.monotonic()
    rep = run_suite("sn", corpus, budget=100000)
    _report("criterion-3 strong-normalisation", start, 120.0,
            rep.passed, rep.render())


def test_criterion_4_translation_typing(corpus):
    start = time.monotonic()
    rep = run_suite("trans-type", corpus)
    _report("criterion-4 translation-typing", start, 60.0,
            rep.passed, rep.render())


def test_criterion_5_reduction_simulation(corpus):
    start = time.monotonic()
    rep = run_suite("trans-red", corpus, budget=10000)
    _report("criterion-5 reduction-simulation", start, 300.0,
            rep.passed, rep.render())


def test_criterion_6_zero_summand_isomorphism(corpus):
    start = time.monotonic()
    rep = run_suite("epsilon", corpus, budget=10000)
    _report("criterion-6 zero-summand-isomorphism", start, 60.0,
            rep.passed, rep.render())


def test_criterion_7_round_trip(corpus):
    start = time.monotonic()
    rep = run_suite("roundtrip", corpus)
    ok = rep.passed

    # the pinned application translates to the displayed pair tree
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
    ok = ok and res.fterm == expected
    _report("criterion-7 round-trip", start, 60.0, ok, rep.render())


def test_criterion_8_structural_fixtures():
    start = time.monotonic()
    x, y = TVar("X"), TVar("Y")
    a = TSum((TSum((x, TZero)), y))
    a2 = TSum((x, TZero))
    composed = fold_tree(a, lambda w, u: a2, TZero, lambda l, r: TSum((l, r)))
    ok = composed == TSum((TSum((TSum((x, TZero)), TZero)), TSum((x, TZero))))

    sd = example_struct_elim()
    check_sadd(sd)
    expected = TSum((
        TSum((TSum((x, TZero)), TSum((TArrow(x, x), TZero)))),
        TZero,
    ))
    ok = ok and sd.ty == expected
    _report("criterion-8 structural-fixtures", start, 1.0, ok)


def test_criterion_9_algebra_of_canonical_forms(corpus):
    start = time.monotonic()
    rep_ac = run_suite("ac", corpus, cases=1500)
    rep_eq = run_suite("equiv", corpus, cases=1000)
    total = rep_ac.cases + rep_eq.cases
    ok = rep_ac.passed and rep_eq.passed and total >= 10000
    _report("criterion-9 canonical-form-algebra", start, 30.0, ok,
            f"{total} checks; {rep_ac.render()} | {rep_eq.render()}")

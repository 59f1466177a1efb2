"""Small-step reduction, normalisation, and the bounded graph search."""

import importlib
import os
import pkgutil
import random
import subprocess
import sys

import pytest

import addlam
from addlam import syntax
from addlam.binders import Context, Redex, StaleRedex, free_vars
from addlam.corpus import OMEGA, generate_corpus, random_term
from addlam.derivation import AAbs, AApp, AVar, elaborate, step_derivation
from addlam.parser import parse_term
from addlam.reduction import (
    check_sn,
    enumerate_redexes,
    normalize,
    step,
)
from addlam.syntax import Abs, App, Sum, Var, Zero, canonicalize, show_term
from addlam.typesys import TVar
from test_sn_oracle import reducts

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
    # every case raises StaleRedex, never a KeyError or the like
    # a path index past the children, or negative, is stale, not an IndexError
    ident = canonicalize(App(Abs("x", Var("x")), Var("y")))
    s = canonicalize(Sum((Var("a"), Zero)))
    app = canonicalize(App(Var("f"), ident))
    cases = [(ident, Redex((0, 0, 5), "beta")), (s, Redex((), "sum-zero", 7))]
    cases += [(s, Redex(p, "beta")) for p in ((5,), (-1,), (0, 0))]
    cases += [(app, Redex(p, "beta")) for p in ((2,), (-1,))]
    # a path index that is not an int is stale, not a TypeError
    cases += [(t, Redex(("0",), "beta")) for t in (s, app)]
    # a split rule built without its part is stale, not a TypeError
    fsum = canonicalize(App(Sum((Var("f"), Var("g"))), Var("a")))
    asum = canonicalize(App(Var("a"), Sum((Var("f"), Var("g")))))
    cases += [(fsum, Redex((), "dist-right")), (asum, Redex((), "dist-left"))]
    cases += [(s, Redex((), "sum-zero"))]
    # a rule of System F is no rule here, even at a node of its shape
    eta = canonicalize(Abs("x", App(Var("f"), Var("x"))))
    cases += [(eta, Redex((), "eta")), (app, Redex((), "proj-l")), (s, Redex((), "surj"))]
    for t, r in cases:
        with pytest.raises(StaleRedex):
            step(t, r)


def test_beta_under_a_binder_does_not_capture():
    # the body \y.a is open under \a; contracting it must keep a bound
    # by the outer binder, not by y
    t = parse_term(r"\a.(\x.\y.a) b")
    want = canonicalize(parse_term(r"\a.\y.a"))
    (r,) = enumerate_redexes(t)
    assert step(t, r) == want
    assert normalize(t).term == want


def _positional(t):
    return {x for x in free_vars(t) if x[:1] == "_" and x[1:].isdigit()}


def test_no_open_subterm_is_canonicalised(monkeypatch):
    # a free positional name means the argument is an open subterm of a
    # canonical term; canonicalising it alone would capture its binders
    real = syntax.canonicalize

    def closed_only(t):
        assert not _positional(t), f"canonicalised an open subterm {t!r}"
        return real(t)

    for mod in pkgutil.iter_modules(addlam.__path__):
        m = importlib.import_module(f"addlam.{mod.name}")
        if getattr(m, "canonicalize", None) is real:
            monkeypatch.setattr(m, "canonicalize", closed_only)
    terms = [parse_term(r"\a.(\x.\y.a) b"), parse_term(r"\a.\b.(\x.\y.x b a) (\z.a)")]
    rng = random.Random(5)
    for _ in range(60):
        terms.append(Abs("x", Abs("y", App(random_term(rng, 3), Abs("z", Var("x"))))))
    for t in terms:
        for r in enumerate_redexes(t):
            step(t, r)
        normalize(t, fuel=200)
        check_sn(t, budget=300)
    X, Y = TVar("X"), TVar("Y")
    a = AAbs("a", X, AApp(AAbs("x", Y, AAbs("y", Y, AVar("a"))), AVar("b")))
    d = elaborate(a, Context((("b", Y),)))
    (r,) = enumerate_redexes(d.term)
    step_derivation(d, r)


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


def test_normalize_is_exhausted_only_when_a_redex_is_left():
    t = parse_term(r"(\x. x) ((\y. y) a)")
    full = normalize(t)
    assert len(full.steps) == 2 and not full.exhausted
    # the fuel that the normal form needs, exactly, is enough
    exact = normalize(t, fuel=2)
    assert exact.term == full.term and not exact.exhausted
    short = normalize(t, fuel=1)
    assert len(short.steps) == 1 and short.exhausted
    # a normal form needs no fuel at all
    done = normalize(Var("a"), fuel=0)
    assert done.term == Var("a") and not done.steps and not done.exhausted
    assert normalize(t, fuel=0).exhausted


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
    # one beta redex under hundreds of lambdas: step rebuilds only the
    # spine and hashes are cached, so 500 lambdas are decided; at 1000 the
    # term is too deep for the recursive canonicaliser, and the search
    # must say so rather than report exhaustion
    redex = App(Abs("x", Var("x")), Var("y"))

    def nested(depth):
        t = redex
        for i in range(depth):
            t = Abs(f"v{i}", t)
        return t

    res = check_sn(nested(500), 100)
    assert res.status == "terminates" and res.max_depth == 1
    with pytest.raises(RecursionError):
        canonicalize(nested(1000))  # so check_sn must guard its canonicalisation
    res = check_sn(nested(1000), 100)
    assert res.status == "recursion-limit"
    assert not res.terminates and not res.cycle
    assert check_sn(Abs("v", redex), 100).status == "terminates"


_COUNT_STEPS = """
from addlam import reduction
from addlam.syntax import Abs, App, Sum, Var

calls = 0
real = reduction.step_at


def counting(t, r, depth, rules):
    global calls
    calls += 1
    return real(t, r, depth, rules)


reduction.step_at = counting
ik = Sum((Abs("x", Var("x")), Abs("y", Abs("z", Var("y")))))
chain1 = App(ik, Sum((Var("a"), Var("b"))))
# both factors reduce, so no split goes first and the search exhausts
res = reduction.check_sn(App(chain1, App(ik, chain1)), 500)
assert res.status == "budget-exhausted", res
print(calls)
"""


def test_exploration_order_is_the_same_in_every_process():
    # the search stops at its budget, so the number of steps it takes
    # depends on the order in which it walks its sets of redexes
    src = os.path.dirname(os.path.dirname(addlam.__file__))
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": src}
    counts = {
        subprocess.run([sys.executable, "-c", _COUNT_STEPS], env=env, check=True,
                       capture_output=True, text=True, timeout=120).stdout
        for _ in range(3)
    }
    assert len(counts) == 1, counts
    assert int(counts.pop()) > 0

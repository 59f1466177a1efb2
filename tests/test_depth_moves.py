"""Steps that move a subterm with binders to another binder depth, drawn
at random and checked against named substitution on raw terms.

A beta step puts its argument under the binders of the body above each
occurrence of the bound variable, and an eta step takes its function out
from under its binder.  With bound variables as indices, the argument's
indices that point past its own root are raised by those binders and the
eta function's are lowered by one.  The seed corpora never draw either
move with a binder in the moved subterm, so this test draws them: a
source or F beta whose argument is a λ that mentions a variable bound
outside the redex and lands under another binder of the body, and an F
eta whose function is such a λ.  Every beta and eta step of the
canonical term must agree with the contraction by ``binders.subst`` on
its level-named form, up to ``alpha_eq`` for F-terms and up to canonical
forms for source terms, whose sums the step sorts again."""

import random

import pytest
from level_names import levels

import addlam.sysf as sysf
from addlam.binders import alpha_eq, free_vars, redexes, step, subst, subterm_at
from addlam.reduction import _TESTS, step as source_step
from addlam.syntax import Abs, App, Sum, Var, canonicalize
from addlam.sysf import FAbs, FApp, FPair, FProjL, FProjR, f_canonicalize

OUTER = ["a", "b"]  # bound above every redex drawn


def draw(rng, lang, names, size):
    """A raw term of lang ("source" or "F") over the variables in names;
    its binders reuse a few names, so some of them shadow others."""
    lam, app = (Abs, App) if lang == "source" else (FAbs, FApp)
    if size <= 1:
        return (Var if lang == "source" else sysf.FVar)(rng.choice(names))
    k = rng.randrange(4)
    if k == 0:
        x = rng.choice(["p", "q", "a"])
        return lam(x, draw(rng, lang, names + [x], size - 1))
    half = size // 2
    kids = draw(rng, lang, names, half), draw(rng, lang, names, size - half)
    if k == 1:
        return app(*kids)
    if lang == "source":
        return Sum(kids)
    return FPair(*kids) if rng.random() < 0.5 else rng.choice([FProjL, FProjR])(kids[0])


def moving_lambda(rng, lang):
    """A λ that mentions a variable of OUTER, so its index points past its
    own root wherever the λ sits."""
    lam, app, var = (Abs, App, Var) if lang == "source" else (FAbs, FApp, sysf.FVar)
    return lam("z", app(var(rng.choice(OUTER)), draw(rng, lang, OUTER + ["z"], 4)))


def beta_draw(rng, lang):
    lam, app, var = (Abs, App, Var) if lang == "source" else (FAbs, FApp, sysf.FVar)
    # x occurs under the binder y, so the argument lands one binder deeper
    body = lam("y", app(draw(rng, lang, OUTER + ["x", "y"], 4), var("x")))
    redex = app(lam("x", body), moving_lambda(rng, lang))
    return lam("a", lam("b", redex))


def eta_draw(rng):
    f = moving_lambda(rng, "F")
    return FAbs("a", FAbs("b", FAbs("x", FApp(f, sysf.FVar("x")))))


def replace_at(t, path, new):
    if not path:
        return new
    if isinstance(t, (Abs, FAbs)):
        return type(t)(t.var, replace_at(t.body, path[1:], new))
    kids = list(t._kids())
    kids[path[0]] = replace_at(kids[path[0]], path[1:], new)
    return type(t)(tuple(kids)) if isinstance(t, Sum) else type(t)(*kids)


def by_name(t, r):
    """t, canonical, with the redex r contracted by named substitution
    on t's level-named form."""
    named = levels(t)
    u = subterm_at(named, r.path)
    new = subst(u.fun.body, u.fun.var, u.arg) if r.rule == "beta" else u.body.fun
    return replace_at(named, r.path, new)


def moves(t, r) -> bool:
    """The redex r of t moves a λ with an index past its own root."""
    u = subterm_at(t, r.path)
    moved = u.arg if r.rule == "beta" else u.body.fun
    return isinstance(moved, (Abs, FAbs)) and any(isinstance(i, int) for i in free_vars(moved))


@pytest.mark.parametrize("lang", ["source", "F"])
def test_a_beta_moving_a_binder_agrees_with_named_substitution(lang):
    rng = random.Random(41 if lang == "source" else 42)
    moved = 0
    for _ in range(300):
        raw = beta_draw(rng, lang)
        if lang == "source":
            t = canonicalize(raw)
            for r in redexes(t, _TESTS):
                if r.rule == "beta":
                    moved += moves(t, r)
                    assert source_step(t, r) == canonicalize(by_name(t, r)), (raw, r)
        else:
            t = f_canonicalize(raw)
            for r in redexes(t, sysf._TESTS):
                if r.rule in ("beta", "eta"):
                    moved += moves(t, r)
                    got = step(t, r, sysf._TESTS, sysf._RULES)
                    assert alpha_eq(got, by_name(t, r)), (raw, r)
    assert moved >= 300


def test_an_eta_moving_a_binder_agrees_with_named_substitution():
    rng = random.Random(43)
    moved = 0
    for _ in range(300):
        raw = eta_draw(rng)
        t = f_canonicalize(raw)
        for r in redexes(t, sysf._TESTS):
            if r.rule in ("beta", "eta"):
                moved += r.rule == "eta" and moves(t, r)
                got = step(t, r, sysf._TESTS, sysf._RULES)
                assert alpha_eq(got, by_name(t, r)), (raw, r)
    assert moved >= 300
